"""Covariance kernels for Gaussian-process regression.

The paper models both objectives with zero-mean GPs under the Matérn-5/2
kernel (§4.3, "MBO prior function"), the standard choice for moderately
rough performance surfaces.  An RBF kernel is provided for comparison and
ablation.

Kernels carry their hyperparameters (per-dimension ARD lengthscales and a
signal variance) in log space, so gradient-free optimizers can search an
unconstrained vector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError


#: Elements per row block of the in-place distance-to-covariance transform.
#: A fit's Gram matrix (n <= 128) is one block; on a ~2,000-candidate
#: cross-covariance a block is a few rows, so the transform's temporaries
#: stay a small fraction of the matrix it fills.
_BLOCK_ELEMENTS = 1 << 14


class Kernel(ABC):
    """Base class: a positive-definite covariance function with ARD."""

    def __init__(self, lengthscales: Sequence[float], variance: float = 1.0) -> None:
        scales = np.asarray(lengthscales, dtype=float)
        if scales.ndim != 1 or scales.size == 0:
            raise ConfigurationError("lengthscales must be a non-empty 1-D sequence")
        if np.any(scales <= 0) or variance <= 0:
            raise ConfigurationError("lengthscales and variance must be positive")
        self.lengthscales = scales
        self.variance = float(variance)

    @property
    def input_dim(self) -> int:
        return self.lengthscales.size

    @property
    def n_params(self) -> int:
        """Number of free hyperparameters (lengthscales + variance)."""
        return self.input_dim + 1

    def get_log_params(self) -> np.ndarray:
        """Hyperparameters as an unconstrained log-space vector."""
        return np.concatenate([np.log(self.lengthscales), [np.log(self.variance)]])

    def set_log_params(self, theta: np.ndarray) -> None:
        """Set hyperparameters from a log-space vector."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ConfigurationError(
                f"expected {self.n_params} parameters, got shape {theta.shape}"
            )
        self.lengthscales = np.exp(theta[:-1])
        self.variance = float(np.exp(theta[-1]))

    def clone(self) -> "Kernel":
        """A deep copy with the same hyperparameters."""
        return type(self)(self.lengthscales.copy(), self.variance)

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """The covariance matrix between rows of ``x1`` and ``x2``."""
        x1 = np.atleast_2d(x1)
        x2 = np.atleast_2d(x2)
        return self.fill(x1, x2, np.empty((x1.shape[0], x2.shape[0])))

    def fill(self, x1: np.ndarray, x2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the covariance matrix between rows of 2-D ``x1`` and ``x2``
        into ``out`` and return it.

        ``out`` must be a C-contiguous ``float64`` array of shape
        ``(len(x1), len(x2))``, e.g. the leading rows of a preallocated
        buffer.  Apart from the one matrix product, which BLAS writes
        straight into ``out``, every step runs in place in row blocks, so
        the temporaries stay a few rows wide whatever the matrix size.
        """
        a = x1 / self.lengthscales
        b = x2 / self.lengthscales
        # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b, clipped for numerical
        # safety.  ``b`` stays a distinct array even when x1 is x2: numpy
        # sends ``a @ a.T`` to syrk, which rounds differently from gemm.
        np.matmul(a, b.T, out=out)
        out *= 2.0
        sq_a = np.sum(a**2, axis=1)[:, None]
        sq_b = np.sum(b**2, axis=1)[None, :]
        rows = max(1, _BLOCK_ELEMENTS // max(1, out.shape[1]))
        for start in range(0, out.shape[0], rows):
            block = out[start : start + rows]
            scratch = np.add(sq_a[start : start + rows], sq_b)
            np.subtract(scratch, block, out=block)
            np.maximum(block, 0.0, out=block)
            self._transform(block, scratch)
        return out

    @abstractmethod
    def _transform(self, sq: np.ndarray, scratch: np.ndarray) -> None:
        """Turn scaled squared distances ``sq`` into covariances in place.

        ``scratch`` is a same-shaped array the transform may overwrite.
        """

    def diag(self, x: np.ndarray) -> np.ndarray:
        """The diagonal of ``self(x, x)`` without building the full matrix."""
        return np.full(np.asarray(x).shape[0], self.variance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(lengthscales={np.round(self.lengthscales, 4)}, "
            f"variance={self.variance:.4g})"
        )


class Matern52(Kernel):
    """The Matérn-5/2 kernel: ``v * (1 + a + a^2/3) * exp(-a)``, ``a = sqrt(5) r``.

    Twice mean-square differentiable — smooth enough for efficient search,
    rough enough for real performance surfaces; the paper's choice.
    """

    def _transform(self, sq: np.ndarray, scratch: np.ndarray) -> None:
        # In-place form of ``v * (1 + a + a^2/3) * exp(-a)`` — identical
        # IEEE operations and association order, one extra temporary.
        a = np.multiply(sq, 5.0, out=scratch)
        np.sqrt(a, out=a)
        third = a * a
        third /= 3.0
        poly = np.add(a, 1.0, out=sq)
        poly += third
        poly *= self.variance
        np.negative(a, out=a)
        np.exp(a, out=a)
        poly *= a


class RBF(Kernel):
    """The squared-exponential kernel: ``v * exp(-r^2 / 2)``.

    Infinitely smooth; included for kernel ablations.
    """

    def _transform(self, sq: np.ndarray, scratch: np.ndarray) -> None:
        # ``v * exp(-r^2 / 2)`` in place.
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= self.variance
