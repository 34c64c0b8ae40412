"""A small, self-contained numpy deep-learning substrate.

The paper's FL task executor wraps PyTorch (§5.2); this subpackage provides
the equivalent capability without any framework: dense layers with manual
backprop, standard losses, SGD with momentum, simple classifier models, and
synthetic datasets shaped like the paper's three tasks (CIFAR10-like image
vectors, IMDB-like bag-of-words).  It is enough for FedAvg to genuinely
converge in the examples, while the energy benchmarks can swap in a
simulated executor for speed (the energy results never depend on gradient
values — a job is a job).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ml.layers import Dense, Dropout, Layer, ReLU, Sequential, Tanh
    from repro.ml.losses import binary_cross_entropy, softmax_cross_entropy
    from repro.ml.optim import SGD
    from repro.ml.models import MLPClassifier
    from repro.ml.data import (
        Dataset,
        make_blobs_classification,
        make_text_sentiment,
        partition_dirichlet,
        partition_iid,
    )
    from repro.ml.training import LocalTrainer, accuracy
    from repro.ml.fedprox import FedProxTrainer

__all__ = [
    "Dataset",
    "Dense",
    "Dropout",
    "FedProxTrainer",
    "Layer",
    "LocalTrainer",
    "MLPClassifier",
    "ReLU",
    "SGD",
    "Sequential",
    "Tanh",
    "accuracy",
    "binary_cross_entropy",
    "make_blobs_classification",
    "make_text_sentiment",
    "partition_dirichlet",
    "partition_iid",
    "softmax_cross_entropy",
]

__getattr__, __dir__ = lazy_exports(__name__)
