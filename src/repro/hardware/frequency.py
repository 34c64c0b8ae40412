"""Discrete DVFS frequency tables and the joint configuration space.

A device exposes one :class:`FrequencyTable` per hardware unit (CPU, GPU,
memory controller).  The Cartesian product of the three tables forms the
:class:`ConfigurationSpace` ``X = F_CPU x F_GPU x F_MC`` the paper optimizes
over (§3.1) — 2100 unique points on the Jetson AGX, 936 on the Jetson TX2.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, FrequencyError
from repro.types import DvfsConfiguration, GHz

#: Names of the three frequency axes, in canonical order.
UNIT_NAMES: tuple[str, str, str] = ("cpu", "gpu", "mem")


class FrequencyTable:
    """The discrete operational frequencies of one hardware unit.

    Real Jetson boards publish these through
    ``/sys/devices/.../available_frequencies``; here they are an immutable,
    ascending tuple of GHz values.
    """

    def __init__(self, unit: str, frequencies: Sequence[GHz]) -> None:
        if unit not in UNIT_NAMES:
            raise ConfigurationError(f"unknown unit {unit!r}; expected one of {UNIT_NAMES}")
        freqs = tuple(float(f) for f in frequencies)
        if len(freqs) < 2:
            raise ConfigurationError(f"{unit} table needs at least 2 steps, got {len(freqs)}")
        if any(f <= 0 or not np.isfinite(f) for f in freqs):
            raise ConfigurationError(f"{unit} table contains non-positive frequencies")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigurationError(f"{unit} table must be strictly ascending: {freqs}")
        self.unit = unit
        self.frequencies = freqs

    @classmethod
    def linspaced(cls, unit: str, low: GHz, high: GHz, steps: int) -> "FrequencyTable":
        """Build a table of ``steps`` evenly spaced frequencies in [low, high].

        The paper's Table 1 reports only the endpoints and step counts of
        each board's tables; evenly spaced steps are the faithful
        reconstruction given that information.
        """
        if steps < 2:
            raise ConfigurationError("a frequency table needs at least 2 steps")
        if not (0 < low < high):
            raise ConfigurationError(f"need 0 < low < high, got low={low}, high={high}")
        values = np.linspace(low, high, steps)
        return cls(unit, [round(float(v), 6) for v in values])

    def __len__(self) -> int:
        return len(self.frequencies)

    def __iter__(self) -> Iterator[GHz]:
        return iter(self.frequencies)

    def __contains__(self, freq: float) -> bool:
        return any(abs(freq - f) < 1e-9 for f in self.frequencies)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FrequencyTable)
            and self.unit == other.unit
            and self.frequencies == other.frequencies
        )

    def __hash__(self) -> int:
        return hash((self.unit, self.frequencies))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrequencyTable({self.unit!r}, {self.min:.3f}..{self.max:.3f} GHz, "
            f"{len(self)} steps)"
        )

    @property
    def min(self) -> GHz:
        return self.frequencies[0]

    @property
    def max(self) -> GHz:
        return self.frequencies[-1]

    def index_of(self, freq: GHz) -> int:
        """Return the step index of ``freq``, or raise :class:`FrequencyError`."""
        for i, f in enumerate(self.frequencies):
            if abs(freq - f) < 1e-9:
                return i
        raise FrequencyError(f"{freq} GHz is not in the {self.unit} table {self.frequencies}")

    def nearest(self, freq: GHz) -> GHz:
        """Return the table entry closest to ``freq`` (ties go downward)."""
        if not np.isfinite(freq):
            raise FrequencyError(f"cannot snap non-finite frequency {freq!r}")
        best = min(self.frequencies, key=lambda f: (abs(f - freq), f))
        return best

    def normalize(self, freq: GHz) -> float:
        """Map a table frequency to [0, 1] by its position in the range."""
        return (freq - self.min) / (self.max - self.min)

    def denormalize(self, value: float) -> GHz:
        """Map a [0, 1] coordinate back to the nearest table frequency."""
        return self.nearest(self.min + value * (self.max - self.min))


class _SharedSpace:
    """The enumeration of one distinct (cpu, gpu, mem) table triple."""

    def __init__(self, key: tuple[tuple[GHz, ...], ...]) -> None:
        self.key = key
        axes = np.meshgrid(*key, indexing="ij")
        coords = np.stack([axis.ravel() for axis in axes], axis=1)
        coords.setflags(write=False)
        #: ``(n, 3)`` GHz coordinates in (cpu, gpu, mem)-major order.
        self.coords = coords
        #: The same points as configuration objects, built on first use.
        self.configs: Optional[list[DvfsConfiguration]] = None


#: Process-wide enumeration cache, keyed by the table *values* like
#: :mod:`repro.hardware.perfmodel`'s tensor cache: every space built from
#: the same tables (each ``get_device("agx")`` call makes a new one)
#: shares one read-only coordinate array and one configuration list.
_SPACE_CACHE: dict[tuple[tuple[GHz, ...], ...], _SharedSpace] = {}


class ConfigurationSpace:
    """The joint discrete DVFS space ``X = F_CPU x F_GPU x F_MC``.

    Provides enumeration, flat indexing, normalization to the unit cube
    (what the GP models operate on), and quasi-random sampling support.
    """

    def __init__(self, cpu: FrequencyTable, gpu: FrequencyTable, mem: FrequencyTable) -> None:
        for table, expected in zip((cpu, gpu, mem), UNIT_NAMES):
            if table.unit != expected:
                raise ConfigurationError(
                    f"table order must be (cpu, gpu, mem); got {table.unit!r} "
                    f"in the {expected!r} slot"
                )
        self.cpu = cpu
        self.gpu = gpu
        self.mem = mem
        key = (cpu.frequencies, gpu.frequencies, mem.frequencies)
        shared = _SPACE_CACHE.get(key)
        if shared is None:
            shared = _SPACE_CACHE[key] = _SharedSpace(key)
        self._shared = shared

    @property
    def tables(self) -> tuple[FrequencyTable, FrequencyTable, FrequencyTable]:
        return (self.cpu, self.gpu, self.mem)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.cpu), len(self.gpu), len(self.mem))

    def __len__(self) -> int:
        return len(self.cpu) * len(self.gpu) * len(self.mem)

    def __iter__(self) -> Iterator[DvfsConfiguration]:
        return iter(self.all_configurations())

    def __contains__(self, config: DvfsConfiguration) -> bool:
        return (
            config.cpu in self.cpu and config.gpu in self.gpu and config.mem in self.mem
        )

    def all_configurations(self) -> list[DvfsConfiguration]:
        """Return every configuration, in (cpu, gpu, mem)-major order.

        The list is built on the first call and shared process-wide by
        every space with the same tables (keyed by value, like the
        objective tensor); callers must not mutate it.
        """
        shared = self._shared
        if shared.configs is None:
            shared.configs = [
                DvfsConfiguration(c, g, m) for c, g, m in itertools.product(*shared.key)
            ]
        return shared.configs

    def configurations_at(
        self, indices: Union[Sequence[int], np.ndarray]
    ) -> list[DvfsConfiguration]:
        """The configurations at the given flat indices, in that order.

        Builds only the requested points, so a caller that needs a few
        dozen of them never materializes :meth:`all_configurations`.
        """
        rows = self._shared.coords[np.asarray(indices, dtype=int)].tolist()
        return [DvfsConfiguration(c, g, m) for c, g, m in rows]

    def at(self, cpu_idx: int, gpu_idx: int, mem_idx: int) -> DvfsConfiguration:
        """Return the configuration at the given per-axis step indices."""
        return DvfsConfiguration(
            self.cpu.frequencies[cpu_idx],
            self.gpu.frequencies[gpu_idx],
            self.mem.frequencies[mem_idx],
        )

    def indices_of(self, config: DvfsConfiguration) -> tuple[int, int, int]:
        """Return the per-axis step indices of ``config``."""
        return (
            self.cpu.index_of(config.cpu),
            self.gpu.index_of(config.gpu),
            self.mem.index_of(config.mem),
        )

    def flat_index_of(self, config: DvfsConfiguration) -> int:
        """Return the position of ``config`` in :meth:`all_configurations`."""
        ci, gi, mi = self.indices_of(config)
        return (ci * len(self.gpu) + gi) * len(self.mem) + mi

    def max_configuration(self) -> DvfsConfiguration:
        """``x_max``: every unit at its highest clock (the guardian config)."""
        return DvfsConfiguration(self.cpu.max, self.gpu.max, self.mem.max)

    def min_configuration(self) -> DvfsConfiguration:
        """Every unit at its lowest clock (the slowest possible pace)."""
        return DvfsConfiguration(self.cpu.min, self.gpu.min, self.mem.min)

    def normalize(self, config: DvfsConfiguration) -> np.ndarray:
        """Map a configuration to a point in the unit cube ``[0, 1]^3``."""
        return np.array(
            [
                self.cpu.normalize(config.cpu),
                self.gpu.normalize(config.gpu),
                self.mem.normalize(config.mem),
            ]
        )

    def normalize_many(self, configs: Sequence[DvfsConfiguration]) -> np.ndarray:
        """Vectorized :meth:`normalize`: returns an ``(n, 3)`` array.

        One array expression over all configurations (the per-config loop
        dominated ``fit``/``suggest`` setup); element-for-element it is the
        same two float operations as :meth:`normalize`.
        """
        if not configs:
            return np.zeros((0, 3))
        raw = np.array([(c.cpu, c.gpu, c.mem) for c in configs])
        lows = np.array([self.cpu.min, self.gpu.min, self.mem.min])
        spans = np.array(
            [
                self.cpu.max - self.cpu.min,
                self.gpu.max - self.gpu.min,
                self.mem.max - self.mem.min,
            ]
        )
        return np.asarray((raw - lows) / spans)

    def snap(self, cpu: GHz, gpu: GHz, mem: GHz) -> DvfsConfiguration:
        """Return the in-space configuration nearest to the given clocks."""
        return DvfsConfiguration(
            self.cpu.nearest(cpu), self.gpu.nearest(gpu), self.mem.nearest(mem)
        )

    def as_array(self) -> np.ndarray:
        """Return all configurations as an ``(n, 3)`` GHz array.

        Row ``i`` is ``all_configurations()[i]``.  The array is built
        straight from the tables, shared process-wide by every space with
        the same tables (keyed by value, like the objective tensor) and
        read-only; no configuration object is created.
        """
        return self._shared.coords
