"""Exact Gaussian-process regression with marginal-likelihood fitting.

A standard zero-mean GP: given observations ``(X, y)`` and a kernel ``k``,

    ``posterior mean   m(x*) = k(x*, X) K^-1 y``
    ``posterior var  v(x*) = k(x*, x*) - k(x*, X) K^-1 k(X, x*)``

with ``K = k(X, X) + noise * I`` factorized once by Cholesky.  Targets are
standardized internally so kernel hyperparameter priors are scale-free.
Hyperparameters (ARD lengthscales, signal variance, noise variance) are
fitted by multi-restart L-BFGS-B on the log marginal likelihood.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

import numpy as np
from scipy import linalg, optimize

from repro.bayesopt.kernels import Kernel, Matern52
from repro.errors import NotFittedError, OptimizationError
from repro.obs import runtime as obs

_T = TypeVar("_T")

#: Geometric growth factor applied to the diagonal bump on each failed
#: Cholesky retry; paired with the bounded retry count below.
_JITTER_GROWTH = 10.0
#: How many escalated retries to attempt before giving up with
#: :class:`OptimizationError` instead of a raw ``LinAlgError``.
_MAX_JITTER_RETRIES = 6


def _bumped(cov: np.ndarray, extra: float) -> np.ndarray:
    """A copy of ``cov`` with ``extra`` added to its diagonal (0.0: as-is)."""
    if extra > 0.0:
        cov = cov.copy()
        cov[np.diag_indices(cov.shape[0])] += extra
    return cov


def _attempt_with_jitter(
    attempt: Callable[[float], _T], *, first_bump: float, where: str, size: int
) -> tuple[_T, float]:
    """Run a factorization attempt under geometric jitter escalation.

    ``attempt`` receives the extra diagonal bump to apply (``0.0`` on the
    first try) and must raise ``LinAlgError`` when the factorization
    fails.  Returns ``(result, extra_jitter_used)``.  Emits one
    ``mbo.jitter_escalated`` event when any escalation was needed; raises
    :class:`OptimizationError` once the bounded retries are exhausted.
    """
    try:
        return attempt(0.0), 0.0
    except linalg.LinAlgError as error:
        last_error: Exception = error
    bump = first_bump
    for retry in range(1, _MAX_JITTER_RETRIES + 1):
        try:
            result = attempt(bump)
        except linalg.LinAlgError as error:
            last_error = error
            bump *= _JITTER_GROWTH
            continue
        if obs.enabled():
            obs.count("mbo.jitter_escalations")
            obs.emit(
                "mbo.jitter_escalated",
                where=where,
                size=size,
                jitter=float(bump),
                retries=retry,
            )
        return result, bump
    raise OptimizationError(
        f"{where}: covariance of size {size} stayed non-positive-definite "
        f"after {_MAX_JITTER_RETRIES} jitter escalations (starting at "
        f"{first_bump:g}, growing x{_JITTER_GROWTH:g} per retry)"
    ) from last_error


class GaussianProcess:
    """Exact GP regression for one scalar objective.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to Matérn-5/2 with unit lengthscales.
    noise_variance:
        Initial observation-noise variance (on standardized targets).
    normalize_y:
        Standardize targets to zero mean / unit variance internally.
    jitter:
        Diagonal stabilizer added to the kernel matrix.

    :meth:`optimize_hyperparameters` minimizes :meth:`_negative_lml`, a
    pure function of the log hyperparameters over a clone of the kernel:
    the GP's own parameters change once, to the best optimum found.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        *,
        input_dim: int = 3,
        noise_variance: float = 1e-4,
        normalize_y: bool = True,
        jitter: float = 1e-8,
    ) -> None:
        self.kernel = kernel if kernel is not None else Matern52(np.ones(input_dim))
        if noise_variance <= 0:
            raise OptimizationError("noise_variance must be positive")
        self.noise_variance = float(noise_variance)
        self.normalize_y = normalize_y
        self.jitter = float(jitter)
        self._x: Optional[np.ndarray] = None
        self._y_raw: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        #: Extra diagonal jitter the last factorization needed (0.0 almost
        #: always); rank-1 extensions reuse it so appended rows see the
        #: same effective diagonal as the existing factor.
        self._extra_jitter = 0.0
        #: How many times this GP was produced by the O(n^2) fast path of
        #: :meth:`conditioned_on` (transitively); overhead accounting.
        self.rank_one_updates = 0

    # -- fitting ---------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._chol is not None

    @property
    def n_observations(self) -> int:
        return 0 if self._x is None else self._x.shape[0]

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on data (keeping current hyperparameters)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.size:
            raise OptimizationError(f"X has {x.shape[0]} rows but y has {y.size} entries")
        if x.shape[0] == 0:
            raise OptimizationError("cannot fit a GP on zero observations")
        if x.shape[1] != self.kernel.input_dim:
            raise OptimizationError(
                f"X has {x.shape[1]} columns but the kernel expects {self.kernel.input_dim}"
            )
        self._x = x
        self._y_raw = y
        if self.normalize_y:
            self._y_mean = float(y.mean())
            std = float(y.std())
            self._y_std = std if std > 1e-12 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y = (y - self._y_mean) / self._y_std
        self._refactorize()
        return self

    def _refactorize(self) -> None:
        """(Re)compute the Cholesky factorization for current parameters."""
        if self._x is None or self._y is None:
            raise NotFittedError("GP has no observations to factorize")
        n = self._x.shape[0]
        cov = self.kernel(self._x, self._x)
        cov[np.diag_indices(n)] += self.noise_variance + self.jitter
        # Performance surfaces can be nearly flat; escalate the jitter
        # geometrically (bounded retries) instead of failing after one try.
        self._chol, self._extra_jitter = _attempt_with_jitter(
            lambda extra: linalg.cholesky(_bumped(cov, extra), lower=True),
            first_bump=1e-4,
            where="refactorize",
            size=n,
        )
        self._alpha = linalg.cho_solve((self._chol, True), self._y)

    def optimize_hyperparameters(
        self,
        rng: Optional[np.random.Generator] = None,
        n_restarts: int = 2,
        lengthscale_bounds: tuple[float, float] = (0.05, 10.0),
        variance_bounds: tuple[float, float] = (1e-3, 1e3),
        noise_bounds: tuple[float, float] = (1e-6, 1e-1),
    ) -> float:
        """Fit hyperparameters by maximizing the log marginal likelihood.

        Runs L-BFGS-B from the current parameters plus ``n_restarts`` random
        initializations; keeps the best.  Returns the best log marginal
        likelihood found.
        """
        if self._x is None:
            raise NotFittedError("fit() must be called before optimizing hyperparameters")
        rng = rng if rng is not None else np.random.default_rng(0)
        log_bounds = (
            [np.log(lengthscale_bounds)] * self.kernel.input_dim
            + [np.log(variance_bounds)]
            + [np.log(noise_bounds)]
        )

        objective = self._negative_lml()
        starts = [np.concatenate([self.kernel.get_log_params(), [np.log(self.noise_variance)]])]
        for _ in range(n_restarts):
            starts.append(np.array([rng.uniform(lo, hi) for lo, hi in log_bounds]))

        best_theta, best_value = None, np.inf
        for theta0 in starts:
            theta0 = np.clip(theta0, [lo for lo, _ in log_bounds], [hi for _, hi in log_bounds])
            result = optimize.minimize(
                objective, theta0, method="L-BFGS-B", bounds=log_bounds
            )
            if np.isfinite(result.fun) and result.fun < best_value:
                best_value, best_theta = float(result.fun), result.x
        if best_theta is None:
            raise OptimizationError("hyperparameter optimization failed from every start")
        self.kernel.set_log_params(best_theta[:-1])
        self.noise_variance = float(np.exp(best_theta[-1]))
        self._refactorize()
        return -best_value

    def _negative_lml(self) -> Callable[[np.ndarray], float]:
        """The fit objective: minus the LML of the standardized data.

        A pure function of ``theta = (log kernel parameters, log noise)``
        over a clone of the kernel, so no evaluation touches this GP.
        What is fixed per fit (the data, the diagonal indices, the
        ``log 2 pi`` term) is computed once.  Inputs are finite by
        construction: :meth:`fit` factorized the data under finite checks
        and L-BFGS-B keeps ``theta`` inside finite bounds, so LAPACK's
        inputs skip the re-check.  A failed Cholesky scores ``+inf``.
        """
        if self._x is None or self._y is None:
            raise NotFittedError("GP has no observations for the LML")
        kernel = self.kernel.clone()
        x, y, jitter = self._x, self._y, self.jitter
        n = x.shape[0]
        diag = np.diag_indices(n)
        half_n_log_2pi = 0.5 * n * np.log(2.0 * np.pi)

        def objective(theta: np.ndarray) -> float:
            kernel.set_log_params(theta[:-1])
            cov = kernel(x, x)
            cov[diag] += float(np.exp(theta[-1])) + jitter
            try:
                chol = linalg.cholesky(cov, lower=True, check_finite=False)
            except linalg.LinAlgError:
                return np.inf
            alpha = linalg.cho_solve((chol, True), y, check_finite=False)
            return -(
                -0.5 * float(y @ alpha)
                - float(np.sum(np.log(np.diag(chol))))
                - half_n_log_2pi
            )

        return objective

    def log_marginal_likelihood(self) -> float:
        """LML at the current hyperparameters."""
        if self._chol is None:
            raise NotFittedError("GP is not fitted")
        if self._y is None or self._alpha is None:
            raise NotFittedError("GP factorization is incomplete (no alpha)")
        n = self._y.size
        return (
            -0.5 * float(self._y @ self._alpha)
            - float(np.sum(np.log(np.diag(self._chol))))
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    # -- prediction ---------------------------------------------------------

    def predict(self, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (in raw target units) at ``x_star``."""
        if self._chol is None or self._x is None or self._alpha is None:
            raise NotFittedError("GP is not fitted")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self.kernel(self._x, x_star)  # (n, m)
        mean_std = k_star.T @ self._alpha
        v = linalg.solve_triangular(self._chol, k_star, lower=True)
        var_std = self.kernel.diag(x_star) - np.sum(v**2, axis=0)
        var_std = np.maximum(var_std, 1e-12)
        mean = mean_std * self._y_std + self._y_mean
        var = var_std * self._y_std**2
        return mean, var

    def posterior_samples(
        self, x_star: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw joint posterior samples at ``x_star``; shape (n_samples, m).

        Near-singular fantasy covariances (duplicate or near-duplicate
        ``x_star`` rows) get geometrically escalated diagonal jitter
        instead of failing; escalated retries consume additional rng draws
        (deterministically, for a given seed and query set).
        """
        if self._chol is None or self._x is None or self._alpha is None:
            raise NotFittedError("GP is not fitted")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self.kernel(self._x, x_star)
        mean_std = k_star.T @ self._alpha
        v = linalg.solve_triangular(self._chol, k_star, lower=True)
        cov = self.kernel(x_star, x_star) - v.T @ v
        m = cov.shape[0]
        cov[np.diag_indices(m)] += 1e-10
        draws, _ = _attempt_with_jitter(
            lambda extra: rng.multivariate_normal(
                mean_std, _bumped(cov, extra), size=n_samples, method="cholesky"
            ),
            first_bump=1e-8,
            where="posterior_samples",
            size=m,
        )
        return draws * self._y_std + self._y_mean

    def conditioned_on(
        self,
        x_new: np.ndarray,
        y_new: np.ndarray,
        *,
        l21: Optional[np.ndarray] = None,
    ) -> "GaussianProcess":
        """A new GP with (x_new, y_new) appended — for Kriging-believer batching.

        Hyperparameters are copied, not re-optimized (fantasy updates must
        be cheap; see §4.3, "Batch Selection Strategy").  The existing
        Cholesky factor is extended by a block row in O(n^2) instead of
        refit from scratch in O(n^3); the two agree to float rounding (see
        ``docs/kernel_fastpath.md``).  A GP without a factor falls back
        to :meth:`fit`.

        ``l21`` optionally supplies the precomputed forward substitution
        ``L^-1 k(X, x_new)`` — e.g. a cached :class:`BatchPosterior`
        column when ``x_new`` is one of its candidates — skipping the
        cross-kernel evaluation and the triangular solve.
        """
        if self._x is None or self._y_raw is None:
            raise NotFittedError("GP is not fitted")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_new = np.ravel(np.asarray(y_new, dtype=float))
        x_all = np.vstack([self._x, x_new])
        y_all = np.concatenate([self._y_raw, y_new])
        clone = GaussianProcess(
            self.kernel.clone(),
            noise_variance=self.noise_variance,
            normalize_y=self.normalize_y,
            jitter=self.jitter,
        )
        if self._chol is None:
            clone.fit(x_all, y_all)
            return clone
        # Standardize exactly as fit() would, then extend the factor.
        # With L the current factor and k the cross-covariances,
        #     L_new = [[L, 0], [l21^T, l22]],
        #     l21 = L^-1 k,   l22 = chol(K_new - l21^T l21)
        # (the Schur complement), so only the new rows cost anything.
        clone._x = x_all
        clone._y_raw = y_all
        if clone.normalize_y:
            clone._y_mean = float(y_all.mean())
            std = float(y_all.std())
            clone._y_std = std if std > 1e-12 else 1.0
        else:
            clone._y_mean, clone._y_std = 0.0, 1.0
        clone._y = (y_all - clone._y_mean) / clone._y_std
        n, m = self._x.shape[0], x_new.shape[0]
        if m == 1:
            # k(x, x) at zero distance is exactly the signal variance; skip
            # the full kernel evaluation on the one-fantasy-per-pick path.
            k_new = self.kernel.diag(x_new)[:, None].copy()
        else:
            k_new = self.kernel(x_new, x_new)
        k_new[np.diag_indices(m)] += (
            self.noise_variance + self.jitter + self._extra_jitter
        )
        if l21 is None:
            k_cross = self.kernel(self._x, x_new)
            l21 = linalg.solve_triangular(
                self._chol, k_cross, lower=True, check_finite=False
            )
        schur = k_new - l21.T @ l21
        if m == 1:
            # A 1x1 Cholesky is a guarded square root (what dpotrf computes).
            def chol_tail(extra: float) -> np.ndarray:
                val = schur[0, 0] + extra
                if not val > 0.0:
                    raise linalg.LinAlgError("1x1 Schur complement not positive")
                return np.array([[np.sqrt(val)]])

        else:
            def chol_tail(extra: float) -> np.ndarray:
                return linalg.cholesky(_bumped(schur, extra), lower=True)

        l22, _ = _attempt_with_jitter(
            chol_tail,
            first_bump=1e-4,
            where="rank1_update",
            size=n + m,
        )
        chol = np.empty((n + m, n + m))
        chol[:n, :n] = self._chol
        chol[:n, n:] = 0.0
        chol[n:, :n] = l21.T
        chol[n:, n:] = l22
        clone._chol = chol
        clone._alpha = linalg.cho_solve((chol, True), clone._y, check_finite=False)
        clone._extra_jitter = self._extra_jitter
        clone.rank_one_updates = self.rank_one_updates + 1
        return clone


class BatchPosterior:
    """Cached posterior over a fixed candidate set, extendable in O(n·m).

    The suggest loop scores the same ~2,000-candidate set against a GP
    that grows by one fantasy observation per pick.  Rebuilding the cross
    covariances ``k(X, C)`` and the forward substitution ``v = L^-1 k``
    from scratch each pick costs O(n^2 m); this cache extends both by one
    row per appended observation instead, so each pick costs O(n m).

    ``predict`` matches :meth:`GaussianProcess.predict` on the same
    points; move to a GP produced by ``gp.conditioned_on(...)`` with
    :meth:`extended` (the new GP must extend this one's observation set).

    Pass ``capacity`` (the number of extensions expected, e.g. the batch
    size) to preallocate the row buffers once: each ``extended`` call then
    appends in place instead of reallocating.  A posterior should be
    extended at most once — extensions share the parent's buffer, and a
    second extension of the same parent would overwrite the first's rows.

    Construction allocates both buffers first and fills them in place:
    the kernel writes ``k(X, C)`` into the leading rows, and LAPACK's one
    F-ordered ``n x m`` solve is the only temporary of that size (see
    "Working set" in ``docs/kernel_fastpath.md``).
    """

    def __init__(
        self,
        gp: GaussianProcess,
        x_candidates: np.ndarray,
        *,
        capacity: int = 0,
    ) -> None:
        chol, x_obs = gp._chol, gp._x
        if chol is None or x_obs is None:
            raise NotFittedError("GP is not fitted")
        self.gp = gp
        self.x_candidates = np.atleast_2d(np.asarray(x_candidates, dtype=float))
        n = x_obs.shape[0]
        shape = (n + max(0, int(capacity)), self.x_candidates.shape[0])
        self._buf_k = np.empty(shape)
        self._buf_v = np.empty(shape)
        k_star = gp.kernel.fill(x_obs, self.x_candidates, self._buf_k[:n])
        # LAPACK's solve is F-ordered.  Square and reduce it in place, as
        # ``np.sum(v**2, axis=0)`` does: over the C-ordered buffer numpy
        # would add the rows in another order.
        v = linalg.solve_triangular(chol, k_star, lower=True, check_finite=False)
        self._buf_v[:n] = v
        self._n = n
        self._sum_sq: np.ndarray = np.sum(np.square(v, out=v), axis=0)
        self._prior_var = gp.kernel.diag(self.x_candidates)

    @classmethod
    def _from_parts(
        cls,
        gp: GaussianProcess,
        x_candidates: np.ndarray,
        buf_k: np.ndarray,
        buf_v: np.ndarray,
        n: int,
        sum_sq: np.ndarray,
        prior_var: np.ndarray,
    ) -> "BatchPosterior":
        post = cls.__new__(cls)
        post.gp = gp
        post.x_candidates = x_candidates
        post._buf_k = buf_k
        post._buf_v = buf_v
        post._n = n
        post._sum_sq = sum_sq
        post._prior_var = prior_var
        return post

    def cross_column(self, i: int) -> np.ndarray:
        """The cached forward substitution ``L^-1 k(X, c_i)`` as ``(n, 1)``.

        Exactly the ``l21`` block :meth:`GaussianProcess.conditioned_on`
        needs when the appended point is candidate ``i``.
        """
        return self._buf_v[: self._n, i : i + 1]

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (raw target units) over the candidates."""
        alpha = self.gp._alpha
        if alpha is None:
            raise NotFittedError("GP factorization is incomplete (no alpha)")
        k_star = self._buf_k[: self._n]
        mean = k_star.T @ alpha
        mean *= self.gp._y_std
        mean += self.gp._y_mean
        var = self._prior_var - self._sum_sq
        np.maximum(var, 1e-12, out=var)
        var *= self.gp._y_std**2
        return mean, var

    def extended(self, gp_ext: GaussianProcess) -> "BatchPosterior":
        """The posterior under ``gp_ext = self.gp.conditioned_on(...)``.

        Only the rows for the appended observations are computed: one
        cross-kernel row plus a forward substitution against the new
        factor rows.  The squared-row sum that feeds the posterior
        variance is accumulated incrementally rather than re-reduced.
        """
        chol, x_obs = gp_ext._chol, gp_ext._x
        if chol is None or x_obs is None:
            raise NotFittedError("extended GP is not fitted")
        n_old = self._n
        n_new = chol.shape[0]
        if n_new <= n_old:
            raise OptimizationError(
                "extended() needs a GP with more observations than the cached one"
            )
        x_tail = x_obs[n_old:]
        k_tail = gp_ext.kernel(x_tail, self.x_candidates)
        l21 = chol[n_old:n_new, :n_old]
        l22 = chol[n_old:n_new, n_old:]
        rhs = l21 @ self._buf_v[:n_old]
        np.subtract(k_tail, rhs, out=rhs)
        if n_new - n_old == 1:
            # A 1x1 triangular solve is a scalar division; skip the
            # LAPACK wrapper on the one-fantasy-per-pick hot path.
            v_tail = np.divide(rhs, l22[0, 0], out=rhs)
        else:
            v_tail = linalg.solve_triangular(l22, rhs, lower=True, check_finite=False)
        if self._buf_k.shape[0] >= n_new:
            buf_k, buf_v = self._buf_k, self._buf_v
            buf_k[n_old:n_new] = k_tail
            buf_v[n_old:n_new] = v_tail
        else:
            buf_k = np.vstack([self._buf_k[:n_old], k_tail])
            buf_v = np.vstack([self._buf_v[:n_old], v_tail])
        sum_sq = self._sum_sq + np.sum(v_tail**2, axis=0)
        return BatchPosterior._from_parts(
            gp_ext, self.x_candidates, buf_k, buf_v, n_new, sum_sq, self._prior_var
        )