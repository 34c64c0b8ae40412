"""FL task specifications (the paper's Table 2).

From a device's perspective (§3.1) a task is ``(B, E, T, N)``: minibatch
size, epochs per round, the deadline list, and the local minibatch count.
``N`` differs per device (the TX2 holds smaller shards), so the spec maps
device names to ``N``; the deadline list is produced separately by a
:mod:`repro.federated.deadlines` schedule because it depends on the
measured ``T_min``.

=====================  ===========  ==================  ==========
Task                   CIFAR10-ViT  ImageNet-ResNet50   IMDB-LSTM
=====================  ===========  ==================  ==========
B (minibatch size)     32           8                   8
E (epochs/round)       5            2                   4
N on AGX               40           90                  40
N on TX2               15           30                  20
rounds                 100          100                 100
T_min on AGX           37.2 s       46.9 s              46.1 s
T_min on TX2           36.0 s       49.2 s              55.6 s
=====================  ===========  ==================  ==========
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hardware.devices import DeviceSpec
from repro.types import require_whole
from repro.workloads.base import WorkloadProfile
from repro.workloads.zoo import lstm, resnet50, vit


@dataclass(frozen=True)
class FLTaskSpec:
    """One federated learning task, parameterized per Table 2."""

    workload: WorkloadProfile
    batch_size: int
    epochs: int
    minibatches: dict[str, int] = field(default_factory=dict)
    rounds: int = 100

    def __post_init__(self) -> None:
        for name in ("batch_size", "epochs", "rounds"):
            object.__setattr__(
                self, name, require_whole(name, getattr(self, name), minimum=1)
            )
        minibatches = {
            device_name: require_whole(f"minibatches[{device_name!r}]", n, minimum=1)
            for device_name, n in self.minibatches.items()
        }
        object.__setattr__(self, "minibatches", minibatches)

    @property
    def name(self) -> str:
        """Paper-style label, e.g. ``"CIFAR10-ViT"``."""
        return self.workload.task_name

    def minibatches_on(self, device: DeviceSpec) -> int:
        """``N`` for a device (raises for uncalibrated devices)."""
        try:
            return self.minibatches[device.name]
        except KeyError:
            raise ConfigurationError(
                f"task {self.name!r} has no shard size for device {device.name!r}"
            ) from None

    def jobs_per_round(self, device: DeviceSpec) -> int:
        """``W = E x N`` — the number of jobs in each round (§3.1)."""
        return self.epochs * self.minibatches_on(device)

    def samples_on(self, device: DeviceSpec) -> int:
        """Local dataset size implied by ``N`` and ``B``."""
        return self.minibatches_on(device) * self.batch_size


def cifar10_vit() -> FLTaskSpec:
    """CIFAR10-ViT: B=32, E=5, N=40 (AGX) / 15 (TX2)."""
    return FLTaskSpec(
        workload=vit(), batch_size=32, epochs=5, minibatches={"agx": 40, "tx2": 15}
    )


def imagenet_resnet50() -> FLTaskSpec:
    """ImageNet-ResNet50: B=8, E=2, N=90 (AGX) / 30 (TX2)."""
    return FLTaskSpec(
        workload=resnet50(), batch_size=8, epochs=2, minibatches={"agx": 90, "tx2": 30}
    )


def imdb_lstm() -> FLTaskSpec:
    """IMDB-LSTM: B=8, E=4, N=40 (AGX) / 20 (TX2)."""
    return FLTaskSpec(
        workload=lstm(), batch_size=8, epochs=4, minibatches={"agx": 40, "tx2": 20}
    )


def paper_tasks() -> tuple[FLTaskSpec, FLTaskSpec, FLTaskSpec]:
    """The three tasks of the paper's evaluation, in presentation order."""
    return (cifar10_vit(), imagenet_resnet50(), imdb_lstm())


#: The task registry by short name: the campaign runner, the fleet and
#: the decision service all resolve task names here.
_TASKS: dict[str, Callable[[], FLTaskSpec]] = {
    "vit": cifar10_vit,
    "resnet50": imagenet_resnet50,
    "lstm": imdb_lstm,
}


def task_by_name(name: str) -> FLTaskSpec:
    """The :class:`FLTaskSpec` for a short task name."""
    try:
        return _TASKS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown task {name!r}; available: {', '.join(sorted(_TASKS))}"
        ) from None
