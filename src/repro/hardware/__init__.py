"""Hardware simulation substrate.

This subpackage stands in for the paper's physical testbed (Nvidia Jetson
AGX Xavier and Jetson TX2 boards, Table 1): discrete DVFS frequency tables,
a sysfs-like DVFS controller, an INA3221-like power sensor, and a calibrated
analytic performance model that maps any DVFS configuration to per-minibatch
training latency and energy for a given neural-network workload.

The controller under test (``repro.core``) only ever interacts with
:class:`~repro.hardware.device.SimulatedDevice` through the same narrow
surface a real board exposes — set a configuration, run jobs, read noisy
latency/energy measurements — so swapping in real hardware would only
require reimplementing that class.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hardware.frequency import (
        ConfigurationSpace,
        FrequencyTable,
    )
    from repro.hardware.devices import (
        DeviceSpec,
        available_devices,
        get_device,
        jetson_agx,
        jetson_tx2,
    )
    from repro.hardware.power import DevicePowerModel, UnitPowerModel, VoltageCurve
    from repro.hardware.perfmodel import AnalyticPerformanceModel, CalibrationTarget
    from repro.hardware.noise import MeasurementNoise, NoiselessMeasurement
    from repro.hardware.dvfs import DvfsController
    from repro.hardware.thermal import ThermalModel
    from repro.hardware.telemetry import EnergyMeter, EventTimer, PowerSensor
    from repro.hardware.device import SimulatedDevice

__all__ = [
    "AnalyticPerformanceModel",
    "CalibrationTarget",
    "ConfigurationSpace",
    "DevicePowerModel",
    "DeviceSpec",
    "DvfsController",
    "EnergyMeter",
    "EventTimer",
    "FrequencyTable",
    "MeasurementNoise",
    "NoiselessMeasurement",
    "PowerSensor",
    "SimulatedDevice",
    "ThermalModel",
    "UnitPowerModel",
    "VoltageCurve",
    "available_devices",
    "get_device",
    "jetson_agx",
    "jetson_tx2",
]

__getattr__, __dir__ = lazy_exports(__name__)
