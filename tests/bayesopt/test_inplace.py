"""The GP's in-place hot paths against their whole-array references.

The kernel fills a caller's buffer in row blocks, each candidate
posterior fills its two buffers in place, and the fit objective is a
pure function of ``theta``.  None of this may move a bit, so every
comparison here is exact (``np.array_equal`` or ``==``), never a
tolerance.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

from repro.bayesopt.gp import BatchPosterior, GaussianProcess
from repro.bayesopt.kernels import RBF, Matern52
from tests.bayesopt.reference_gp import (
    reference_kernel,
    reference_log_marginal_likelihood,
)

seeds = st.integers(0, 2**31 - 1)


def fitted_gp(rng, n, d=3, **kwargs):
    x = rng.uniform(size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, -1] + 0.01 * rng.normal(size=n)
    return GaussianProcess(Matern52(np.full(d, 0.5)), **kwargs).fit(x, y)


@given(
    seed=seeds,
    kind=st.sampled_from([Matern52, RBF]),
    n=st.integers(1, 40),
    m=st.integers(1, 3000),
    same=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_kernel_written_into_a_buffer_matches_a_fresh_evaluation(seed, kind, n, m, same):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    kernel = kind(np.exp(rng.uniform(-3.0, 2.3, size=d)), float(np.exp(rng.uniform(-7, 7))))
    x1 = rng.uniform(size=(n, d))
    x2 = x1 if same else rng.uniform(size=(m, d))
    buf = np.full((n + 5, x2.shape[0]), np.nan)
    filled = kernel.fill(x1, x2, buf[:n])
    fresh = kernel(x1, x2)
    assert filled.base is buf
    assert np.array_equal(filled, fresh)
    assert np.array_equal(fresh, reference_kernel(kernel, x1, x2))
    assert np.isnan(buf[n:]).all()


@given(seed=seeds, n=st.integers(1, 70), m=st.integers(1, 2500), capacity=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_posterior_buffers_match_the_whole_array_solve(seed, n, m, capacity):
    rng = np.random.default_rng(seed)
    gp = fitted_gp(rng, n, noise_variance=1e-5)
    candidates = rng.uniform(size=(m, 3))
    post = BatchPosterior(gp, candidates, capacity=capacity)
    k = gp.kernel(gp._x, candidates)
    v = linalg.solve_triangular(gp._chol, k, lower=True)
    assert post._buf_k.shape == post._buf_v.shape == (n + capacity, m)
    assert np.array_equal(post._buf_k[:n], k)
    assert np.array_equal(post._buf_k[:n], reference_kernel(gp.kernel, gp._x, candidates))
    assert np.array_equal(post._buf_v[:n], v)
    assert np.array_equal(post._sum_sq, np.sum(v**2, axis=0))


@given(seed=seeds, n=st.integers(1, 30), duplicated=st.booleans())
@settings(max_examples=80, deadline=None)
def test_fit_objective_matches_the_reference_lml(seed, n, duplicated):
    rng = np.random.default_rng(seed)
    gp = fitted_gp(rng, n, jitter=float(rng.choice([0.0, 1e-8])))
    if duplicated:
        # Repeated rows under a vanishing noise make the Cholesky fail
        # for some theta: both sides must then score +inf.
        gp._x = np.vstack([gp._x, gp._x])
        gp._y = np.concatenate([gp._y, gp._y])
    objective = gp._negative_lml()
    before = (gp.kernel.get_log_params(), gp.noise_variance)
    for _ in range(5):
        theta = np.concatenate(
            [
                rng.uniform(-3.0, 4.0, size=3),
                [rng.uniform(-7.0, 7.0), rng.uniform(-80.0, -2.0)],
            ]
        )
        assert objective(theta) == -reference_log_marginal_likelihood(gp, theta)
    assert np.array_equal(gp.kernel.get_log_params(), before[0])
    assert gp.noise_variance == before[1]


def test_fit_objective_scores_a_failed_cholesky_as_inf():
    rng = np.random.default_rng(0)
    gp = fitted_gp(rng, 8, jitter=0.0)
    gp._x = np.vstack([gp._x, gp._x])
    gp._y = np.concatenate([gp._y, gp._y])
    theta = np.array([2.0, 2.0, 2.0, 5.0, -60.0])
    assert reference_log_marginal_likelihood(gp, theta) == -np.inf
    assert gp._negative_lml()(theta) == np.inf


def test_optimized_hyperparameters_are_unchanged_by_the_pure_objective():
    """Minimizing the reference objective lands on the same theta."""
    rng = np.random.default_rng(3)
    gp = fitted_gp(rng, 25)
    twin = GaussianProcess(gp.kernel.clone(), noise_variance=gp.noise_variance)
    twin.fit(gp._x, gp._y_raw)
    lml = gp.optimize_hyperparameters(np.random.default_rng(1), n_restarts=1)
    log_bounds = [np.log((0.05, 10.0))] * 3 + [np.log((1e-3, 1e3))] + [np.log((1e-6, 1e-1))]
    lows, highs = [lo for lo, _ in log_bounds], [hi for _, hi in log_bounds]
    twin_rng = np.random.default_rng(1)
    starts = [np.concatenate([twin.kernel.get_log_params(), [np.log(twin.noise_variance)]])]
    starts.append(np.array([twin_rng.uniform(lo, hi) for lo, hi in log_bounds]))
    best = min(
        (
            optimize.minimize(
                lambda theta: -reference_log_marginal_likelihood(twin, theta),
                np.clip(theta0, lows, highs),
                method="L-BFGS-B",
                bounds=log_bounds,
            )
            for theta0 in starts
        ),
        key=lambda result: result.fun,
    )
    assert lml == -best.fun
    assert np.array_equal(gp.kernel.get_log_params(), best.x[:-1])
    assert gp.noise_variance == float(np.exp(best.x[-1]))


def test_posterior_build_peaks_at_its_buffers_plus_one_solve():
    """Building a posterior allocates its two buffers and, transiently,
    LAPACK's one n x m solve: no kernel or copy temporaries on top."""
    n, m, capacity = 67, 2033, 10
    rng = np.random.default_rng(0)
    gp = fitted_gp(rng, n, noise_variance=1e-5)
    candidates = rng.uniform(size=(m, 3))
    BatchPosterior(gp, candidates, capacity=capacity)  # warm lazy imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        post = BatchPosterior(gp, candidates, capacity=capacity)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    buffers = post._buf_k.nbytes + post._buf_v.nbytes
    one_solve = n * m * 8
    # Room for a few length-m vectors (column sums, prior variance), far
    # less than another n x m array.
    vectors = 8 * m * 8
    assert peak <= buffers + one_solve + vectors, (peak, buffers, one_solve)
