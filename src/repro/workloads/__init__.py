"""Neural-network training workload profiles.

A *workload* is the computation one job performs: feeding one minibatch
through a network and producing gradients.  The paper evaluates three
representative workloads — ViT (transformer), ResNet50 (CNN) and LSTM
(RNN) — whose latency/energy surfaces over the DVFS space differ
qualitatively (§2.2, Figs. 3-5): ResNet50 is GPU-bound, LSTM is CPU-bound,
and ViT sits in between.

Each profile carries per-device calibration targets that anchor the
analytic performance model to the paper's measured numbers (Table 2 round
latencies and Figs. 9-11 energy levels).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.base import WorkloadProfile
    from repro.workloads.zoo import (
        available_workloads,
        bert_tiny,
        get_workload,
        lstm,
        mobilenet_v2,
        resnet50,
        vit,
    )

__all__ = [
    "WorkloadProfile",
    "available_workloads",
    "bert_tiny",
    "get_workload",
    "lstm",
    "mobilenet_v2",
    "resnet50",
    "vit",
]

__getattr__, __dir__ = lazy_exports(__name__)
