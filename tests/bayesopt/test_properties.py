"""Property-based tests (hypothesis) for the Pareto/hypervolume/EHVI core.

These check algebraic invariants on arbitrary inputs rather than chosen
examples — the strongest guard on the optimizer's correctness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bayesopt.acquisition import expected_hypervolume_improvement
from repro.bayesopt.hypervolume import hypervolume_2d, hypervolume_improvement_2d
from repro.bayesopt.pareto import _pareto_mask_2d, pareto_front, pareto_mask
from tests.bayesopt.reference_pareto import reference_pareto_mask_2d

finite_points = arrays(
    np.float64,
    st.tuples(st.integers(1, 25), st.just(2)),
    elements=st.floats(0.0, 10.0, allow_nan=False),
)

REF = np.array([11.0, 11.0])


@given(points=finite_points)
@settings(max_examples=120, deadline=None)
def test_front_points_are_mutually_nondominated(points):
    front = pareto_front(points)
    for i in range(front.shape[0]):
        for j in range(front.shape[0]):
            if i == j:
                continue
            dominated = np.all(front[j] <= front[i]) and np.any(front[j] < front[i])
            assert not dominated


@given(points=finite_points)
@settings(max_examples=120, deadline=None)
def test_every_dropped_point_is_dominated_by_some_front_point(points):
    mask = pareto_mask(points)
    front = points[mask]
    for point in points[~mask]:
        assert any(
            np.all(f <= point) and np.any(f < point) for f in front
        )


@given(points=finite_points)
@settings(max_examples=120, deadline=None)
def test_hypervolume_of_front_equals_hypervolume_of_all_points(points):
    # Dominated points contribute nothing.
    hv_all = hypervolume_2d(points, REF)
    hv_front = hypervolume_2d(pareto_front(points), REF)
    assert abs(hv_all - hv_front) < 1e-9


@given(points=finite_points, extra=finite_points)
@settings(max_examples=100, deadline=None)
def test_hypervolume_monotone_under_union(points, extra):
    hv = hypervolume_2d(points, REF)
    hv_union = hypervolume_2d(np.vstack([points, extra]), REF)
    assert hv_union >= hv - 1e-9


@given(points=finite_points)
@settings(max_examples=100, deadline=None)
def test_hypervolume_bounded_by_reference_box(points):
    hv = hypervolume_2d(points, REF)
    assert 0.0 <= hv <= REF[0] * REF[1] + 1e-9


@given(points=finite_points, batch=finite_points)
@settings(max_examples=100, deadline=None)
def test_hvi_is_nonnegative_and_consistent(points, batch):
    hvi = hypervolume_improvement_2d(batch, points, REF)
    assert hvi >= -1e-9
    direct = hypervolume_2d(np.vstack([points, batch]), REF) - hypervolume_2d(
        points, REF
    )
    assert abs(hvi - direct) < 1e-9


@given(
    front=finite_points,
    mean=arrays(
        np.float64, st.just((4, 2)), elements=st.floats(0.0, 12.0, allow_nan=False)
    ),
    std=arrays(
        np.float64, st.just((4, 2)), elements=st.floats(0.01, 2.0, allow_nan=False)
    ),
)
@settings(max_examples=80, deadline=None)
def test_ehvi_nonnegative_and_bounded(front, mean, std):
    values = expected_hypervolume_improvement(mean, std**2, front, REF)
    assert np.all(values >= 0)
    # EHVI can never exceed the whole reference box volume ... which is the
    # improvement of a point dominating everything with certainty.
    assert np.all(values <= REF[0] * REF[1] + 1e-6)


@given(
    front=finite_points,
    mean=arrays(
        np.float64, st.just((1, 2)), elements=st.floats(0.5, 10.0, allow_nan=False)
    ),
)
@settings(max_examples=80, deadline=None)
def test_ehvi_sigma_zero_limit_matches_hvi(front, mean):
    var = np.full((1, 2), 1e-16)
    ehvi = expected_hypervolume_improvement(mean, var, front, REF)[0]
    hvi = hypervolume_improvement_2d(mean, front, REF)
    assert abs(ehvi - hvi) < 1e-5


@given(points=finite_points, scale=st.floats(0.1, 5.0), shift=st.floats(0.0, 3.0))
@settings(max_examples=80, deadline=None)
def test_hypervolume_affine_equivariance(points, scale, shift):
    # HV(a*X + b, a*r + b) == a^2 * HV(X, r) for positive scaling per axis.
    hv = hypervolume_2d(points, REF)
    transformed = points * scale + shift
    hv_t = hypervolume_2d(transformed, REF * scale + shift)
    assert abs(hv_t - scale**2 * hv) < 1e-6 * max(1.0, scale**2)


# -- the array sweep equals the scalar sweep kept in tests/ -------------------


def _points(elements):
    return arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)), elements=elements)


#: Random points; a handful of values, so ties, exact duplicates and
#: infinities are the common case; any float, NaN included; repeated rows.
_sweep_inputs = st.one_of(
    _points(st.floats(-1e6, 1e6, allow_nan=False)),
    _points(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, np.inf])),
    _points(st.floats(allow_nan=True, allow_infinity=True)),
    st.builds(
        lambda base, copies: np.repeat(base, copies, axis=0),
        _points(st.floats(0.0, 10.0, allow_nan=False)),
        st.integers(2, 4),
    ),
)


@given(points=_sweep_inputs)
@settings(max_examples=800, deadline=None)
def test_mask_matches_the_scalar_sweep(points):
    assert np.array_equal(_pareto_mask_2d(points), reference_pareto_mask_2d(points))
