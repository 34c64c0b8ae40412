"""The simulated edge device — the surface the controller programs against.

:class:`SimulatedDevice` wires a :class:`~repro.hardware.devices.DeviceSpec`
to a workload's calibrated performance surface, the DVFS controller, the
telemetry instruments and a noise model.  It exposes exactly what a real
board offers a pace controller:

* ``set_configuration`` — actuate DVFS clocks (costs switch latency);
* ``run_job`` — execute one minibatch at the current clocks, advancing
  simulated time and consuming (noisy) actual energy;
* ``open_measurement`` / ``close_measurement`` — read back per-job latency
  and energy over a window, with sensor noise that shrinks as the window
  grows.

The ground-truth surfaces are reachable through :attr:`model`, but only the
Oracle baseline (offline exhaustive profiling in the paper) may use them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.clock import SimulationClock
from repro.errors import DeviceError
from repro.hardware.devices import DeviceSpec
from repro.hardware.dvfs import DvfsController
from repro.hardware.frequency import ConfigurationSpace
from repro.hardware.noise import MeasurementNoise
from repro.hardware.perfmodel import AnalyticPerformanceModel
from repro.hardware.telemetry import EnergyMeter, EventTimer, PowerSensor
from repro.hardware.thermal import ThermalModel
from repro.types import DvfsConfiguration, JobResult, Joules, PerformanceSample, Seconds

if TYPE_CHECKING:
    # Annotation only: workloads.base imports the hardware package.
    from repro.workloads.base import WorkloadProfile


@dataclass(frozen=True)
class FaultOverlay:
    """Deterministic fault effects a device applies until told otherwise.

    The fault-injection layer (:mod:`repro.faults`) arms one overlay per
    round; a ``None`` overlay (the default) is the healthy fast path.  All
    factors are multiplicative on the *true* (pre-noise) quantities so the
    noise streams — and therefore the fault-free portions of a campaign —
    are untouched by the presence of the hooks.
    """

    #: Per-job latency inflation (straggler / contention), >= 1 in practice.
    latency_factor: float = 1.0
    #: Per-job energy inflation, usually tracking ``latency_factor``.
    energy_factor: float = 1.0
    #: Factor applied to the *measured* window energy at
    #: :meth:`SimulatedDevice.close_measurement` (sensor outage/spike);
    #: actual consumption is unaffected — only the reading is wrong.
    sensor_energy_factor: float = 1.0
    #: When True the DVFS driver rejects reconfiguration: the board stays
    #: at its current clocks and the caller is none the wiser (real sysfs
    #: writes fail exactly this silently under some firmware states).
    reject_dvfs: bool = False

    @property
    def is_neutral(self) -> bool:
        return (
            self.latency_factor == 1.0  # repro: allow[float-equality] -- exact default sentinel, never a computed value
            and self.energy_factor == 1.0  # repro: allow[float-equality] -- exact default sentinel, never a computed value
            and self.sensor_energy_factor == 1.0  # repro: allow[float-equality] -- exact default sentinel, never a computed value
            and not self.reject_dvfs
        )


class SimulatedDevice:
    """One edge device training one workload, under simulated time."""

    def __init__(
        self,
        spec: DeviceSpec,
        workload: WorkloadProfile,
        *,
        noise: Optional[MeasurementNoise] = None,
        clock: Optional[SimulationClock] = None,
        thermal: Optional[ThermalModel] = None,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.workload = workload
        self.model: AnalyticPerformanceModel = workload.performance_model(spec)
        self.clock = clock if clock is not None else SimulationClock()
        self.noise = noise if noise is not None else MeasurementNoise(seed)
        #: Optional thermal state (off by default, see hardware.thermal):
        #: when present, hot boards throttle and jobs slow down.
        self.thermal = thermal
        self.dvfs = DvfsController(spec, self.clock)
        self.timer = EventTimer(self.noise)
        self.power_sensor = PowerSensor(self.noise)
        self.meter = EnergyMeter(self.noise)
        self._jobs_executed = 0
        self._energy_consumed: Joules = 0.0
        self._last_utilization: tuple[float, float, float] = (0.0, 0.0, 0.0)
        #: Active fault effects; ``None`` (healthy) is the fast path.
        self.fault_overlay: Optional[FaultOverlay] = None

    # -- basic state ---------------------------------------------------------

    @property
    def space(self) -> ConfigurationSpace:
        """The device's discrete DVFS configuration space."""
        return self.spec.space

    @property
    def current_configuration(self) -> DvfsConfiguration:
        return self.dvfs.current

    @property
    def jobs_executed(self) -> int:
        """Total jobs run on this device since construction."""
        return self._jobs_executed

    @property
    def energy_consumed(self) -> Joules:
        """Total actual training energy consumed, in Joules."""
        return self._energy_consumed

    def last_utilization(self) -> tuple[float, float, float]:
        """Per-unit (cpu, gpu, mem) utilization of the last executed job.

        On real hardware this comes from performance counters
        (tegrastats); OS DVFS governors act on exactly this signal.
        Returns zeros before the first job.
        """
        return self._last_utilization

    # -- actuation -----------------------------------------------------------

    def set_configuration(self, config: DvfsConfiguration) -> None:
        """Apply a DVFS configuration (a no-op if already applied).

        Under an armed ``reject_dvfs`` fault the driver refuses silently —
        the board keeps its current clocks, as failed sysfs writes do on
        real firmware — so callers must not assume actuation succeeded.
        """
        self.meter_guard()
        if self.fault_overlay is not None and self.fault_overlay.reject_dvfs:
            return
        self.dvfs.apply(config)

    def apply_fault_overlay(
        self, overlay: Optional[FaultOverlay], forced_temperature: Optional[float] = None
    ) -> None:
        """Arm (or with ``None`` clear) fault effects on this device.

        ``forced_temperature`` models a thermal trip: the board temperature
        jumps to the given value immediately (requires a thermal model) and
        then evolves under the normal RC dynamics — exactly the profile a
        blocked fan or a sun-soaked enclosure produces.
        """
        self.fault_overlay = overlay
        if forced_temperature is not None:
            if self.thermal is None:
                raise DeviceError(
                    "cannot force a board temperature without a thermal model"
                )
            self.thermal.temperature = float(forced_temperature)

    def meter_guard(self) -> None:
        """Forbid reconfiguration inside an open measurement window.

        One window measures one configuration; switching mid-window would
        corrupt the sample (and, per §3.1, at most one configuration may be
        applied within a job).
        """
        if self.meter.is_open:
            raise DeviceError(
                "cannot change DVFS configuration inside an open measurement window"
            )

    # -- execution -----------------------------------------------------------

    def run_job(self) -> JobResult:
        """Execute one minibatch at the current configuration.

        Advances simulated time by the job's actual latency and accumulates
        its actual energy.  The returned latency is what CUDA event timing
        would report (accurate); the energy is the actual consumption (only
        observable through the meter, with sensor noise).
        """
        config = self.dvfs.current
        # One flat-index lookup into the shared objective tensor replaces
        # three scalar surface evaluations on the per-minibatch hot path.
        index = self.space.flat_index_of(config)
        true_latency, true_energy = self.model.objectives_at(index)
        busy = self.model.busy_times_at(index)
        self._last_utilization = (
            busy[0] / true_latency,
            busy[1] / true_latency,
            busy[2] / true_latency,
        )
        if self.thermal is not None:
            # Throttling stretches the job at (approximately) constant
            # power, so latency and energy inflate together.
            factor = self.thermal.throttle_factor()
            true_latency *= factor
            true_energy *= factor
        if self.fault_overlay is not None:
            true_latency *= self.fault_overlay.latency_factor
            true_energy *= self.fault_overlay.energy_factor
        self._jobs_executed += 1
        key = [index, self._jobs_executed]
        actual_latency, actual_energy = self.noise.perturb_job(
            key, true_latency, true_energy
        )
        self.clock.advance(actual_latency)
        self._energy_consumed += actual_energy
        if self.thermal is not None:
            self.thermal.update(actual_energy / actual_latency, actual_latency)
        if self.meter.is_open:
            self.meter.record_job(actual_latency, actual_energy)
        measured_latency = self.timer.time(actual_latency)
        return JobResult(
            config=config,
            latency=measured_latency,
            energy=actual_energy,
            finished_at=self.clock.now,
        )

    # -- measurement ----------------------------------------------------------

    def open_measurement(self) -> None:
        """Start a measurement window for the current configuration."""
        settle_end = self.dvfs.last_switch_at + self.noise.settle_time
        settling_remaining = max(0.0, settle_end - self.clock.now)
        self.meter.open(self.dvfs.current, settling_remaining)

    def close_measurement(self) -> PerformanceSample:
        """Close the window and return the noisy per-job sample.

        An armed sensor fault corrupts only the *reported* energy — the
        actual consumption ledger and the per-job timings (CUDA events,
        which survive power-sensor outages) are untouched.
        """
        sample = self.meter.close()
        if (
            self.fault_overlay is not None
            and self.fault_overlay.sensor_energy_factor != 1.0  # repro: allow[float-equality] -- exact default sentinel, never a computed value
        ):
            sample = replace(
                sample,
                energy=sample.energy * self.fault_overlay.sensor_energy_factor,
            )
        return sample

    def measure_configuration(
        self, config: DvfsConfiguration, min_duration: Seconds, max_jobs: Optional[int] = None
    ) -> tuple[PerformanceSample, tuple[JobResult, ...]]:
        """Convenience: measure ``config`` for at least ``min_duration`` seconds.

        Runs jobs back-to-back until the window spans ``min_duration`` (the
        paper's ``tau``) or ``max_jobs`` is hit.  Returns the sample and the
        individual job results (for round-budget accounting).
        """
        self.set_configuration(config)
        self.open_measurement()
        results = []
        while self.meter.window_duration < min_duration:
            if max_jobs is not None and len(results) >= max_jobs:
                break
            results.append(self.run_job())
        if not results:
            # min_duration was zero or negative: still execute one job so the
            # sample is well-defined.
            results.append(self.run_job())
        return self.close_measurement(), tuple(results)

    # -- idle accounting -------------------------------------------------------

    def idle(self, duration: Seconds) -> Joules:
        """Sit idle for ``duration`` seconds; returns the idle energy burned."""
        if duration < 0:
            raise DeviceError(f"cannot idle for negative time: {duration}")
        self.clock.advance(duration)
        energy = self.model.power.floor_power() * duration
        if self.thermal is not None:
            self.thermal.update(self.model.power.floor_power(), duration)
        return energy
