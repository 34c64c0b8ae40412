"""Quasi-random and uniform sampling of the discrete DVFS space.

§4.2, "Sample selection": BoFL draws its phase-1 starting points "uniformly
distributed over X, using a quasi-random number generator".  We use a
scrambled Sobol sequence in the unit cube snapped to the nearest grid
configuration, de-duplicated, which preserves low-discrepancy coverage of
the discrete space.

The Sobol' sequence is generated here, in numpy, so that nothing in the
package imports ``scipy.stats`` (by far its largest scipy import) and the
phase-1 sample no longer depends on how scipy treats its legacy ``seed=``
argument.  It is pinned bit for bit to
``scipy.stats.qmc.Sobol(d=3, scramble=True, seed=seed)`` as of scipy 1.17:

* direction numbers of dimensions 1-3 are Joe & Kuo's (primitive
  polynomials 1, 3, 7; initial values (1), (1), (1, 3)), 30 bits wide;
* ``np.random.default_rng(seed)`` draws, as ``uint32``, first the 3x30
  random-shift bits (least significant first) and then the 3x30x30
  lower-triangular linear matrix scramble (LMS), whose diagonal is set
  to 1;
* points come out in Gray-code order, and the first point is the shift.

``tests/bayesopt/test_sobol.py`` holds scipy as the oracle and pins
literal points.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.errors import OptimizationError
from repro.hardware.frequency import ConfigurationSpace
from repro.types import DvfsConfiguration

#: Bits per Sobol' coordinate; a sequence has ``2**SOBOL_BITS`` points.
SOBOL_BITS = 30

#: Bit positions, most significant first.
_MSB_FIRST = SOBOL_BITS - 1 - np.arange(SOBOL_BITS)


def _direction_numbers() -> np.ndarray:
    """Unscrambled direction numbers ``v[d, j]`` of dimensions 1-3.

    Dimension 1 is van der Corput's (all ones).  Dimensions 2 and 3
    follow Bratley & Fox's recurrence over Joe & Kuo's polynomials
    x + 1 and x^2 + x + 1.
    """
    v = np.ones((3, SOBOL_BITS), dtype=np.int64)
    for dim, (poly, initial) in enumerate(((3, (1,)), (7, (1, 3))), start=1):
        degree = poly.bit_length() - 1
        v[dim, :degree] = initial
        for j in range(degree, SOBOL_BITS):
            value = int(v[dim, j - degree])
            for k in range(degree):
                if (poly >> (degree - 1 - k)) & 1:
                    value ^= int(v[dim, j - k - 1]) << (k + 1)
            v[dim, j] = value
    return v << _MSB_FIRST


_DIRECTIONS = _direction_numbers()


class ScrambledSobol:
    """The 3-D LMS + digital-shift scrambled Sobol' sequence of one seed."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        shift_bits = rng.integers(2, size=(3, SOBOL_BITS), dtype=np.uint32)
        self._shift = shift_bits.astype(np.int64) @ (1 << np.arange(SOBOL_BITS))
        lms = np.tril(rng.integers(2, size=(3, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        lms = lms.astype(np.int64)
        lms[:, np.arange(SOBOL_BITS), np.arange(SOBOL_BITS)] = 1
        # Over GF(2), with MSB-first bit vectors: bits(v') = LMS @ bits(v).
        bits = (_DIRECTIONS[:, :, None] >> _MSB_FIRST) & 1
        self._directions = ((bits @ lms.transpose(0, 2, 1)) & 1) @ (1 << _MSB_FIRST)

    def points(self, start: int, stop: int) -> np.ndarray:
        """Points ``start`` to ``stop - 1`` of the sequence, as an ``(n, 3)`` array."""
        index = np.arange(start, stop, dtype=np.int64)
        gray = index ^ (index >> 1)
        quasi = np.tile(self._shift, (len(index), 1))
        for bit in range(SOBOL_BITS):
            quasi ^= np.where(((gray >> bit) & 1)[:, None] == 1, self._directions[:, bit], 0)
        return quasi * 2.0**-SOBOL_BITS


def sobol_configurations(
    space: ConfigurationSpace,
    n: int,
    seed: int = 0,
    exclude: Optional[Sequence[DvfsConfiguration]] = None,
) -> list[DvfsConfiguration]:
    """Draw ``n`` distinct configurations via a scrambled Sobol sequence.

    Snapping to the grid can collide, so the sequence is extended until
    ``n`` distinct configurations are collected.  Configurations in
    ``exclude`` are skipped.
    """
    if n < 1:
        raise OptimizationError(f"need n >= 1 samples, got {n}")
    seen: set[DvfsConfiguration] = set(exclude) if exclude else set()
    if n > len(space) - len(seen):
        raise OptimizationError(
            f"cannot draw {n} distinct configurations from a space of "
            f"{len(space)} with {len(seen)} excluded"
        )
    sobol = ScrambledSobol(seed)
    picks: list[DvfsConfiguration] = []
    # Over-draw to amortize collisions.  Every later batch is as large as
    # all earlier ones together, so the drawn total stays a power of two,
    # as Sobol's balance properties require.
    start, stop = 0, 2 ** max(3, int(np.ceil(np.log2(2 * n))))
    while len(picks) < n:
        if start >= 2**SOBOL_BITS:
            raise OptimizationError(
                f"the Sobol sequence is exhausted after {start} points with "
                f"{len(picks)} of {n} distinct configurations drawn"
            )
        for point in sobol.points(start, stop):
            config = space.snap(
                space.cpu.denormalize(point[0]),
                space.gpu.denormalize(point[1]),
                space.mem.denormalize(point[2]),
            )
            if config in seen:
                continue
            seen.add(config)
            picks.append(config)
            if len(picks) == n:
                break
        start, stop = stop, 2 * stop
    return picks


def uniform_configurations(
    space: ConfigurationSpace,
    n: int,
    rng: np.random.Generator,
    exclude: Optional[Sequence[DvfsConfiguration]] = None,
) -> list[DvfsConfiguration]:
    """Draw ``n`` distinct configurations uniformly at random."""
    if n < 1:
        raise OptimizationError(f"need n >= 1 samples, got {n}")
    exclude_set = set(exclude) if exclude else set()
    pool = [c for c in space.all_configurations() if c not in exclude_set]
    if n > len(pool):
        raise OptimizationError(
            f"cannot draw {n} distinct configurations from {len(pool)} available"
        )
    indices = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in indices]
