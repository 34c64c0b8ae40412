"""The in-repo scrambled Sobol' sequence, against scipy's as the oracle."""

import numpy as np
import pytest
from scipy.stats import qmc

from repro.bayesopt.sampling import SOBOL_BITS, ScrambledSobol

#: Literal points (times 2**30, so exact integers): seed -> (start, points).
#: They pin BoFL's phase-1 sample independently of any scipy release.
PINNED = {
    0: (0, [
        [913309191, 1000046633, 389465047],
        [58516334, 435335371, 955772077],
        [359044752, 655853623, 4245017],
        [544574457, 92190933, 797043043],
    ]),
    12345: (1022, [
        [949836265, 1063802917, 188995512],
        [63944066, 313959515, 620922735],
        [63076796, 875721786, 461192003],
        [948999639, 434931780, 893152148],
    ]),
}


def test_matches_scipy_bit_for_bit():
    """Successive balanced draws of 8, 8, 16 and 32 points, seeds 0-199."""
    for seed in range(200):
        ours = ScrambledSobol(seed)
        # scipy returns a single first point by a path of its own.
        first = qmc.Sobol(d=3, scramble=True, seed=seed).random(1)
        np.testing.assert_array_equal(ours.points(0, 1), first, err_msg=f"seed {seed}")
        reference = qmc.Sobol(d=3, scramble=True, seed=seed)
        start = 0
        for m in (3, 3, 4, 5):
            np.testing.assert_array_equal(
                ours.points(start, start + 2**m),
                reference.random_base2(m),
                err_msg=f"seed {seed}, points {start}..{start + 2**m - 1}",
            )
            start += 2**m


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_points(seed):
    start, expected = PINNED[seed]
    points = ScrambledSobol(seed).points(start, start + len(expected))
    np.testing.assert_array_equal(points * 2**SOBOL_BITS, expected)
