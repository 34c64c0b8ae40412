"""Nearest-rank percentiles and the tail rule."""

import pytest

from bofl_bench.stats import median, nearest_rank, quartiles, spread, tail


def test_nearest_rank_is_exact_in_integers():
    ordered = list(range(1, 1001))
    # 99.9 % of 1000 is exactly rank 999; float arithmetic would give 1000.
    assert nearest_rank(ordered, 99_900) == 999
    assert nearest_rank(ordered, 50_000) == 500
    assert nearest_rank([7.0], 99_999) == 7.0


def test_nearest_rank_rejects_no_samples():
    with pytest.raises(ValueError):
        nearest_rank([], 50_000)


@pytest.mark.parametrize(
    ("n", "expected_pct"),
    [
        (391, 90.0),  # p99 leaves 3 beyond it, p90 leaves 39
        (84_000, 99.9),  # p99.99 leaves 8, p99.9 leaves 84
        (1_000_000, 99.999),  # p99.999 leaves exactly 10
        (1_009, 99.0),  # p99 is rank 999: exactly 10 beyond
        (20, 50.0),  # only the median leaves 10 beyond
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected_pct):
    values = [float(i) for i in range(n)]
    pct, value = tail(values)
    assert pct == expected_pct
    rank = values.index(value) + 1
    assert n - rank >= 10
    assert nearest_rank(values, int(round(pct * 1000))) == value


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail([1.0] * 19) is None
    assert tail([]) is None


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0] * 10
    assert tail(values) == tail(sorted(values))


def test_median_and_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([]) == 0.0
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([0.0, 0.0]) == 0.0

