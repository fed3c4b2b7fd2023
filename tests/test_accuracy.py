"""The accuracy the docstrings state, checked against scipy and decimals.

The `special` module docstring bounds the relative error of the binomial
tails at p = 0.5, within three standard deviations of the median, and per
decade of n off the centre, where scipy's tiniest tails are themselves off
and the reference is `oracles.far_binomial_tail`; `confidence_interval`'s
docstring bounds the relative error of each Clopper-Pearson interval end at
n = 10, 680 and 66546.  Each stated bound is the worst error of a scan of
every count (of every count below 3000 and above n - 3000, and every 13th
between, at n = 66546).  These grids sample that scan and include its worst
points, so a later change may tighten a bound here but never loosen one.
Its bound at every n up to 10^7, which follows from `beta_quantile`'s, is
checked at a seeded scan's worst points.  `beta_quantile`'s bound over its stated domain is checked the same way, on
seeded draws and the scan's worst points.  `limits_from_spec` rounds a
Shannon floor's exact band to the nearest double, checked here against a
decimal solve, and `shannon_entropy` against decimal logarithms.  Below
alpha = 1e-12, where no Clopper-Pearson bound is stated and the package
refuses alpha, the rows marked xfail pin scipy's answers.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.stats import beta, binom

from oracles import decimal_shannon_entropy, decimal_shannon_root, far_binomial_tail

from bitalias.confidence import ci_width, confidence_interval, plan_devices_exact
from bitalias.entropy import EntropySpec, limits_from_spec, shannon_entropy
from bitalias.special import beta_quantile, binomial_cdf, binomial_sf

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


# d: the stated bound on the relative error of a tail off the centre, for n
# below 10^d (and at least 10^(d - 1), or, at d = 7, up to 10^7 inclusive)
OFF_CENTRE_BOUNDS = {2: 2e-13, 3: 3e-12, 4: 5e-11, 5: 6e-10, 6: 7e-9, 7: 9e-8}


def _off_centre_tails(count=3000, seed=20):
    """``count`` seeded (n, p, k, lower, reference tail), with n log-uniform in
    [1, 10^7], p uniform in (0.01, 0.99) and the reference in [1e-300, 1e-3].
    k is where the Chernoff bound exp(-n KL(k/n || p)) on the tail beyond k
    meets a target log-uniform in [1e-300, 1e-3]; some tails miss the range."""
    rng = np.random.default_rng(seed)
    n = np.round(10.0 ** rng.uniform(0, 7, 2 * count))
    p = rng.uniform(0.01, 0.99, n.size)
    lower = rng.random(n.size) < 0.5
    q = np.where(lower, 1 - p, p)  # the alias of the mirrored count n - X for a lower tail
    nats = rng.uniform(3, 300, n.size) * math.log(10)
    low, high = q, np.ones_like(q)  # bisect the share a = k/n in (q, 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # at a = 1, nan: not below
        for _ in range(60):
            a = (low + high) / 2
            below = n * (a * np.log(a / q) + (1 - a) * np.log((1 - a) / (1 - q))) < nats
            low, high = np.where(below, a, low), np.where(below, high, a)
    m = np.minimum(np.ceil(high * n), n)
    rows = []
    for n_, p_, k_, lower_ in zip(n.astype(int).tolist(), p.tolist(),
                                  np.where(lower, n - m, m).astype(int).tolist(), lower.tolist()):
        want = far_binomial_tail(k_, n_, p_, lower_)
        if 1e-300 <= want <= 1e-3:
            rows.append((n_, p_, k_, lower_, want))
            if len(rows) == count:
                return rows
    raise AssertionError(f"only {len(rows)} tails in range")


def test_binomial_tails_off_the_centre_meet_the_stated_bounds():
    worst = dict.fromkeys(OFF_CENTRE_BOUNDS, 0.0)
    for n, p, k, lower, want in _off_centre_tails():
        got = (binomial_cdf if lower else binomial_sf)(k, n, p)
        decade = min(7, max(2, len(str(n))))
        worst[decade] = max(worst[decade], abs(got / want - 1))
    assert all(worst[d] <= bound for d, bound in OFF_CENTRE_BOUNDS.items()), worst


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
        intervals = [confidence_interval("clopper_pearson", int(v), n, alpha) for v in x]
        lower = np.array([iv.lower for iv in intervals])
        upper = np.array([iv.upper for iv in intervals])
        assert lower[0] == 0.0 and upper[-1] == 1.0
        want_lower = beta.ppf(alpha / 2, x[1:], n - x[1:] + 1)
        want_upper = beta.isf(alpha / 2, x[:-1] + 1, n - x[:-1])
        assert np.abs(lower[1:] / want_lower - 1).max() <= lower_bound, alpha
        assert np.abs(upper[:-1] / want_upper - 1).max() <= upper_bound, alpha


# (x, n, alpha, interval end, its stated bound at every n): the worst points of
# a scan of n up to 10^7, with alpha from 1e-12 to 0.999
CP_WORST = [(2, 2332884, 1e-12, "lower", 2.3e-2), (0, 169038, 1e-12, "upper", 8e-6)]


@pytest.mark.parametrize("x, n, alpha, end, bound", CP_WORST, ids=["lower", "upper"])
def test_clopper_pearson_meets_the_stated_bound_at_every_n(x, n, alpha, end, bound):
    interval = confidence_interval("clopper_pearson", x, n, alpha)
    want = (beta.ppf(alpha / 2, x, n - x + 1) if end == "lower"
            else beta.isf(alpha / 2, x + 1, n - x))
    assert abs(getattr(interval, end) / want - 1) <= bound


# beta_quantile's stated bound where the quantile is at least 1e-10, and below;
# the scan's worst point of each
BETA_QUANTILE_BOUNDS = (4e-6, 2.3e-2)
BETA_QUANTILE_WORST = [(1 - 5e-13, 1, 16370), (5e-13, 2, 2332883)]


def _beta_quantile_draws(count=2000, seed=20):
    """``count`` seeded (q, a, b) over beta_quantile's stated domain, and the
    worst points: n log-uniform in [1, 10^7], a log-uniform in [1, n] and
    mirrored to n + 1 - a for half, b = n + 1 - a, and q log-uniform in
    [5e-13, 1/2] and mirrored to 1 - q for half."""
    rng = np.random.default_rng(seed)
    n = np.floor(10.0 ** rng.uniform(0, 7, count))
    a = np.clip(np.floor(10.0 ** rng.uniform(0, np.log10(n + 1))), 1, n)
    a = np.where(rng.random(count) < 0.5, n + 1 - a, a)
    q = 10.0 ** rng.uniform(math.log10(5e-13), math.log10(0.5), count)
    q = np.where(rng.random(count) < 0.5, 1 - q, q)
    shapes = zip(q.tolist(), a.astype(int).tolist(), (n + 1 - a).astype(int).tolist())
    return [*shapes, *BETA_QUANTILE_WORST]


def test_beta_quantile_meets_the_stated_bound():
    for q, a, b in _beta_quantile_draws():
        want = float(beta.ppf(q, a, b))
        bound = BETA_QUANTILE_BOUNDS[want < 1e-10]
        assert abs(beta_quantile(q, a, b) / want - 1) <= bound, (q, a, b)


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
        want = float(1 - decimal_shannon_root(h))
        assert limits_from_spec(EntropySpec("shannon", h)).p_u == want, h


def test_shannon_entropy_meets_the_stated_bound():
    # seeded alias log-uniform from 1e-300 to 1/2, and its mirror 1 - p where
    # that is below 1; log2 of a rounded 1 - p is off by 2.6e-2 at p = 4.9e-17
    rng = np.random.default_rng(514)
    small = 10.0 ** rng.uniform(-300, math.log10(0.5), 1000)
    for p in map(float, [*small, *(1.0 - small[small > 2**-53])]):
        assert abs(Decimal(shannon_entropy(p)) / decimal_shannon_entropy(p) - 1) <= 4e-16, p
