"""Whole-array references for the GP's in-place hot paths.

These are the kernel evaluation and the log marginal likelihood as the
GP computed them before the kernel learned to fill a caller's buffer in
row blocks and the fit objective became a pure function of ``theta``.
The production code must reproduce them bit for bit
(``tests/bayesopt/test_inplace.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.bayesopt.gp import GaussianProcess
from repro.bayesopt.kernels import RBF, Kernel, Matern52


def _scaled_sq_dists(x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Pairwise squared distances after per-dimension scaling."""
    a = x1 / lengthscales
    b = x2 / lengthscales
    sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
    cross = a @ b.T
    cross *= 2.0
    sq -= cross
    return np.maximum(sq, 0.0, out=sq)


def reference_kernel(kernel: Kernel, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """``kernel(x1, x2)`` evaluated over whole arrays."""
    sq = _scaled_sq_dists(np.atleast_2d(x1), np.atleast_2d(x2), kernel.lengthscales)
    if isinstance(kernel, Matern52):
        t = 5.0 * sq
        a = np.sqrt(t, out=t)
        poly = 1.0 + a
        third = a * a
        third /= 3.0
        poly += third
        poly *= kernel.variance
        np.negative(a, out=a)
        np.exp(a, out=a)
        poly *= a
        return poly
    if isinstance(kernel, RBF):
        return kernel.variance * np.exp(-0.5 * sq)
    raise TypeError(f"no reference for {type(kernel).__name__}")


def reference_log_marginal_likelihood(gp: GaussianProcess, theta: np.ndarray) -> float:
    """LML of ``gp``'s standardized data under ``theta``: set the GP's
    parameters, evaluate, and restore them."""
    assert gp._x is not None and gp._y is not None
    saved_kernel = gp.kernel.get_log_params()
    saved_noise = gp.noise_variance
    try:
        gp.kernel.set_log_params(theta[:-1])
        gp.noise_variance = float(np.exp(theta[-1]))
        n = gp._x.shape[0]
        cov = reference_kernel(gp.kernel, gp._x, gp._x)
        cov[np.diag_indices(n)] += gp.noise_variance + gp.jitter
        try:
            chol = linalg.cholesky(cov, lower=True)
        except linalg.LinAlgError:
            return -np.inf
        alpha = linalg.cho_solve((chol, True), gp._y)
        return (
            -0.5 * float(gp._y @ alpha)
            - float(np.sum(np.log(np.diag(chol))))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
    finally:
        gp.kernel.set_log_params(saved_kernel)
        gp.noise_variance = saved_noise
