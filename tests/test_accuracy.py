"""The accuracy the docstrings state, checked against scipy.

The `special` module docstring bounds the relative error of the binomial
tails at p = 0.5, within three standard deviations of the median, and
`ci_clopper_pearson`'s docstring bounds the relative error of each interval
end at n = 10, 680 and 66546.  Each stated bound is the worst error of a scan
of every count (of every count below 3000 and above n - 3000, and every 13th
between, at n = 66546).  These grids sample that scan and include its worst
points, so a later change may tighten a bound here but never loosen one.
`limits_from_shannon_entropy` rounds the exact band to the nearest double,
checked here against a decimal solve.  Below alpha = 1e-12, where no
Clopper-Pearson bound is stated, the rows marked xfail pin scipy's answers
that the package misses.
"""

import math

import numpy as np
import pytest
from scipy.stats import beta, binom

from oracles import decimal_shannon_root

from bitalias.confidence import ci_clopper_pearson, ci_width, plan_devices_exact
from bitalias.entropy import limits_from_shannon_entropy
from bitalias.special import binomial_cdf, binomial_sf

# n: (stated bound, stride of the k grid, the scan's worst k for the cdf; the
# sf's is n - k)
TAIL_BOUNDS = {
    10**3: (1e-12, 1, 469),
    10**5: (3.3e-10, 3, 49886),
    10**6: (2.7e-9, 20, 498726),
    10**7: (3.0e-8, 64, 4998380),
}


@pytest.mark.parametrize("n", TAIL_BOUNDS)
def test_binomial_tails_meet_the_stated_bound(n):
    bound, stride, worst = TAIL_BOUNDS[n]
    sd = math.sqrt(n) / 2
    ks = np.array(sorted({*range(math.ceil(n / 2 - 3 * sd), math.floor(n / 2 + 3 * sd) + 1,
                                 stride), worst, n - worst}))
    cdf = np.array([binomial_cdf(int(k), n, 0.5) for k in ks])
    sf = np.array([binomial_sf(int(k), n, 0.5) for k in ks])
    assert np.abs(cdf / binom.cdf(ks, n, 0.5) - 1).max() <= bound
    assert np.abs(sf / binom.sf(ks - 1, n, 0.5) - 1).max() <= bound


# alpha: (stated bound on the lower end, on the upper end)
CP_BOUNDS = {1e-12: (3.0e-8, 6.6e-6), 1e-9: (7.3e-9, 7.3e-9)}
CP_BOUNDS.update({alpha: (1.8e-10, 1.8e-10) for alpha in (1e-6, 0.01, 0.05, 0.5, 0.999)})
# n: the counts checked, with both ends of the range and the scans' worst
CP_COUNTS = {
    10: range(11),
    680: sorted({*range(0, 681, 7), *range(8), *range(673, 681), 61, 97, 228, 316, 659}),
    66546: sorted({*range(0, 66547, 997), *range(8), *range(66539, 66547), 29}),
}


@pytest.mark.parametrize("n", CP_COUNTS)
def test_clopper_pearson_meets_the_stated_bounds(n):
    x = np.array(CP_COUNTS[n])
    for alpha, (lower_bound, upper_bound) in CP_BOUNDS.items():
        intervals = [ci_clopper_pearson(int(v), n, alpha) for v in x]
        lower = np.array([iv.lower for iv in intervals])
        upper = np.array([iv.upper for iv in intervals])
        assert lower[0] == 0.0 and upper[-1] == 1.0
        want_lower = beta.ppf(alpha / 2, x[1:], n - x[1:] + 1)
        want_upper = beta.isf(alpha / 2, x[:-1] + 1, n - x[:-1])
        assert np.abs(lower[1:] / want_lower - 1).max() <= lower_bound, alpha
        assert np.abs(upper[:-1] / want_upper - 1).max() <= upper_bound, alpha


# references from scipy's beta.ppf and beta.isf: the smallest even counts whose
# width at x = n/2 meets 0.1, and the width at p_hat = 0.5, n = 680
_TINY_ALPHA = pytest.mark.xfail(strict=True, reason="ROADMAP items 2 and 15")


@pytest.mark.parametrize("alpha, devices", [(1e-15, 6432), (1e-17, 7334)])
@_TINY_ALPHA
def test_clopper_pearson_plan_below_the_stated_alpha(alpha, devices):
    assert plan_devices_exact("clopper_pearson", 0.1, alpha).devices == devices


@_TINY_ALPHA
def test_clopper_pearson_width_below_the_stated_alpha():
    assert ci_width("clopper_pearson", 0.5, 680, 1e-17) == pytest.approx(0.321361, rel=1e-6)


def test_shannon_limits_round_the_exact_band():
    # from the smallest floor with a band of doubles to the largest below a bit
    floors = [*np.geomspace(3.1e-15, 0.99, 16), *(1 - np.geomspace(1e-2, 2**-53, 8))]
    for h in map(float, floors):
        assert limits_from_shannon_entropy(h).p_u == float(1 - decimal_shannon_root(h)), h
