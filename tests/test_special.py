import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalias import special
from bitalias.errors import DomainError
from bitalias.special import (_spans, beta_quantile, binomial_cdf, binomial_pmf_log,
                              binomial_range_mass, binomial_sf,
                              regularized_incomplete_beta, std_normal_cdf,
                              std_normal_quantile)

from oracles import (bisect_normal_quantile, exact_binomial_pmf, exact_binomial_range,
                     quad_incomplete_beta)


class TestStdNormalQuantile:
    def test_median_is_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_reported_value_at_995(self):
        # 2.5759 is the 4-decimal figure in circulation; the true quantile is
        # 2.57583, one unit off in the last printed digit
        assert std_normal_quantile(0.995) == pytest.approx(2.5759, abs=1e-4)

    def test_matches_bisection_oracle_at_975(self):
        # frozen from the erf-CDF bisection oracle
        assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400536, abs=1e-10)
        assert std_normal_quantile(0.975) == pytest.approx(bisect_normal_quantile(0.975), abs=1e-10)

    @pytest.mark.parametrize("q", [1e-12, 1e-6, 0.01, 0.2575, 0.5, 0.83, 0.99, 1 - 1e-9])
    def test_cdf_residual_below_1e12(self, q):
        assert abs(std_normal_cdf(std_normal_quantile(q)) - q) < 1e-12

    @given(st.floats(min_value=1e-4, max_value=1 - 1e-4))
    def test_antisymmetry(self, q):
        # away from the edges, where 1 - q itself loses no information
        assert std_normal_quantile(q) == pytest.approx(-std_normal_quantile(1.0 - q),
                                                       abs=1e-12)

    def test_antisymmetry_exact_on_dyadic_grid(self):
        # dyadic q has an exact complement, so the identity holds bit for bit
        for k in range(1, 4096, 7):
            assert std_normal_quantile(k / 4096) == -std_normal_quantile((4096 - k) / 4096)

    def test_strictly_increasing(self):
        values = [std_normal_quantile(i / 500) for i in range(1, 500)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        assert std_normal_quantile(0.123456) == std_normal_quantile(0.123456)

    def test_bit_for_bit_normal_dist(self):
        # the package calls the routine behind NormalDist.inv_cdf without
        # loading statistics; only the tests import it
        import statistics

        import numpy as np
        rng = np.random.default_rng(16)
        q = np.concatenate([10.0 ** rng.uniform(-320.0, math.log10(0.5), 100_000),
                            rng.uniform(0.0, 1.0, 100_000)])
        q = q[(q > 0.0) & (q < 1.0)]
        assert len(q) > 199_000 and q.min() < 1e-319
        inv_cdf = statistics.NormalDist().inv_cdf
        ours = np.array([std_normal_quantile(x) for x in q.tolist()])
        theirs = np.array([inv_cdf(x) for x in q.tolist()])
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))

    def test_falls_back_to_statistics_without_the_c_module(self):
        import os
        import subprocess
        import sys

        import bitalias
        probe = ("import sys; sys.modules['_statistics'] = None\n"
                 "import statistics, bitalias.special as s\n"
                 "assert s._normal_dist_inv_cdf is statistics._normal_dist_inv_cdf\n"
                 "assert s.std_normal_quantile(0.025) == statistics.NormalDist().inv_cdf(0.025)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bitalias.__file__))}
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr


class TestIncompleteBeta:
    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(0.5, 1, 1) == pytest.approx(0.5, abs=1e-14)

    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 3, 4) == 0.0
        assert regularized_incomplete_beta(1.0, 3, 4) == 1.0

    def test_matches_quadrature_oracle(self):
        # frozen: adaptive quadrature of the Beta(2, 5) density over [0, 0.3]
        assert regularized_incomplete_beta(0.3, 2, 5) == pytest.approx(0.579825, abs=1e-10)
        assert regularized_incomplete_beta(0.3, 2, 5) == pytest.approx(
            quad_incomplete_beta(0.3, 2, 5), abs=1e-10)

    def test_matches_exact_binomial_identity(self):
        # frozen: sum of C(680,i)/2^680 for i in 341..680, exact rational arithmetic
        assert regularized_incomplete_beta(0.5, 341, 340) == pytest.approx(
            0.48470688541829615, abs=1e-12)

    def test_symmetry_identity_on_dyadic_grid(self):
        # dyadic x keeps 1 - x exact, so the identity isolates the evaluation
        for k in range(1, 64):
            x = k / 64
            for a, b in ((0.5, 3), (2, 5), (340, 341), (1000, 10), (10000, 10000)):
                lhs = regularized_incomplete_beta(x, a, b)
                rhs = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.01, max_value=1e4),
           st.floats(min_value=0.01, max_value=1e4))
    def test_stays_in_unit_interval(self, x, a, b):
        assert 0.0 <= regularized_incomplete_beta(x, a, b) <= 1.0


class TestBetaQuantile:
    def test_lower_endpoint(self):
        assert beta_quantile(0.0, 3, 7) == 0.0
        assert beta_quantile(1.0, 3, 7) == 1.0

    def test_symmetric_median(self):
        assert beta_quantile(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip_at_planner_shapes(self):
        x = beta_quantile(0.005, 340, 341)
        assert regularized_incomplete_beta(x, 340, 341) == pytest.approx(0.005, abs=1e-10)

    def test_roundtrip_grid_up_to_1e4(self):
        for q in (0.005, 0.025, 0.5, 0.975, 0.995):
            for a in (0.5, 2, 340, 10000):
                for b in (0.5, 2, 341, 10000):
                    x = beta_quantile(q, a, b)
                    assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                        q, abs=1e-9)

    def test_monotone_in_q(self):
        values = [beta_quantile(i / 100, 341, 340) for i in range(101)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestBinomialPmfLog:
    def test_degenerate_point_masses(self):
        assert binomial_pmf_log(0, 10, 0.0) == 0.0
        assert binomial_pmf_log(3, 10, 0.0) == -math.inf
        assert binomial_pmf_log(10, 10, 1.0) == 0.0
        assert binomial_pmf_log(9, 10, 1.0) == -math.inf

    def test_reported_mass_at_balanced_count(self):
        assert math.exp(binomial_pmf_log(340, 680, 0.5)) == pytest.approx(0.03, abs=0.005)

    def test_small_case_exact(self):
        # frozen: 56 * 0.3^3 * 0.7^5 with the float inputs, exact arithmetic
        assert math.exp(binomial_pmf_log(3, 8, 0.3)) == pytest.approx(
            0.2541218399999999, abs=1e-14)
        assert math.exp(binomial_pmf_log(3, 8, 0.3)) == pytest.approx(
            float(exact_binomial_pmf(3, 8, 0.3)), abs=1e-14)

    @given(st.integers(0, 60), st.integers(0, 60),
           st.floats(min_value=0.0, max_value=1.0))
    def test_never_positive(self, k, n, p):
        if k > n:
            n, k = k, n
        assert binomial_pmf_log(k, n, p) <= 0.0


# (k, n, p, binomial_cdf as float.hex): the region ends and the FRR tails of the
# four plan-scale FRR answers at alpha = 0.01, then the 680-device fixtures,
# small-n examples, point masses and n = 10^7
CDF_PINS = (
    (3554, 6653, 0.55, '0x1.46bed32a0ce14p-8'),
    (3555, 6653, 0.55, '0x1.5ebef084dad16p-8'),
    (3098, 6653, 0.48, '0x1.43f0884136682p-7'),
    (3098, 6653, 0.52, '0x1.e8962b10a9e15p-62'),
    (484274, 961460, 0.505, '0x1.47ad3ff617914p-8'),
    (484275, 961460, 0.505, '0x1.499d61af4396fp-8'),
    (477185, 961460, 0.4975, '0x1.47182712d381bp-7'),
    (477185, 961460, 0.5025, '0x1.d88104910e00dp-112'),
    (1341446, 2671077, 0.503, '0x1.47407eab7b0a1p-8'),
    (1341447, 2671077, 0.503, '0x1.48697df4070b1p-8'),
    (1329630, 2671077, 0.4985, '0x1.4748ce0f20092p-7'),
    (1329630, 2671077, 0.5015, '0x1.d614b82c116a1p-112'),
    (3016354, 6008979, 0.5025, '0x1.476116cac84f6p-8'),
    (3016355, 6008979, 0.5025, '0x1.482710d153e27p-8'),
    (2992624, 6008979, 0.4985, '0x1.4783975996a03p-7'),
    (2992624, 6008979, 0.5015, '0x1.332bd78fcab16p-215'),
    (340, 680, 0.55, '0x1.46bda40172cfcp-8'),
    (341, 680, 0.55, '0x1.96e15bb1d2f52p-8'),
    (340, 680, 0.45, '0x1.fdf60aa1b0a2ep-1'),
    (0, 680, 0.45, '0x1.6aa3f63ce8615p-587'),
    (679, 680, 0.55, '0x1.0000000000000p+0'),
    (10, 50, 0.45, '0x1.a621191ce2540p-13'),
    (7, 20, 0.4, '0x1.a9dfd695c9b7ap-2'),
    (3, 10, 0.55, '0x1.a1c573b9d194dp-4'),
    (2, 5, 0.5, '0x1.ffffffffffff4p-2'),
    (1, 2, 0.5, '0x1.8000000000000p-1'),
    (3, 10, 0.0, '0x1.0000000000000p+0'),
    (3, 10, 1.0, '0x0.0p+0'),
    (0, 1, 1e-300, '0x1.0000000000000p+0'),
    (0, 0, 0.3, '0x1.0000000000000p+0'),
    (0, 10000000, 0.9999999999999999, '0x0.0p+0'),
    (5000000, 10000000, 0.5, '0x1.001089561dd06p-1'),
    (4990000, 10000000, 0.5, '0x1.17cdc4111e951p-33'),
)


class TestBinomialTails:
    def test_full_support(self):
        assert binomial_cdf(50, 50, 0.37) == 1.0
        assert binomial_sf(0, 50, 0.37) == 1.0

    def test_leading_terms_example(self):
        assert binomial_cdf(7, 20, 0.4) == pytest.approx(0.41589293755753554, abs=1e-13)

    def test_cdf_plus_survival_is_one(self):
        for n in (1, 2, 10, 100, 680, 1000):
            for p in (0.05, 0.3, 0.5, 0.55, 0.95):
                step = max(1, n // 17)
                for k in range(0, n, step):
                    assert binomial_cdf(k, n, p) + binomial_sf(k + 1, n, p) == \
                        pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 200), st.floats(min_value=0.0, max_value=1.0),
           st.data())
    def test_cdf_monotone_in_k(self, n, p, data):
        k = data.draw(st.integers(0, n - 1))
        assert binomial_cdf(k, n, p) <= binomial_cdf(k + 1, n, p) + 1e-15

    def test_deterministic(self):
        assert binomial_cdf(340, 680, 0.55) == binomial_cdf(340, 680, 0.55)

    @given(st.integers(0, 10 ** 7),
           st.sampled_from([0.0, 1.0, 1e-300, 1 - 1e-16]) | st.floats(0.0, 1.0),
           st.data())
    def test_cdf_is_the_mirrored_survival(self, n, p, data):
        # P[X <= k] = P[n - X >= n - k]: the same tail, with no complement taken
        k = data.draw(st.integers(0, n), label="k")
        assert binomial_cdf(k, n, p) == binomial_sf(n - k, n, 1.0 - p)

    @pytest.mark.parametrize("n", [0, 1, 5, 40, 10 ** 7])
    def test_degenerate_p_is_a_point_mass(self, n):
        # X is 0 at p = 0 and n at p = 1; the incomplete beta returns these
        # values exactly at its endpoints, so sf and cdf need no branch for them
        for k in range(n + 1) if n <= 40 else [*range(41), n - 1, n]:
            assert binomial_sf(k, n, 0.0) == (1.0 if k == 0 else 0.0)
            assert binomial_sf(k, n, 1.0) == 1.0
            assert binomial_cdf(k, n, 0.0) == 1.0
            assert binomial_cdf(k, n, 1.0) == (1.0 if k == n else 0.0)

    @pytest.mark.parametrize("k, n, p, value", CDF_PINS)
    def test_cdf_values_pinned(self, k, n, p, value):
        assert binomial_cdf(k, n, p) == float.fromhex(value)


class TestBinomialRangeMass:
    def test_empty_range_is_zero(self):
        assert binomial_range_mass(5, 4, 10, 0.3) == 0.0

    def test_full_range_is_one(self):
        assert binomial_range_mass(0, 137, 137, 0.42) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_arithmetic(self):
        for lo, hi, n, p in ((3, 9, 20, 0.4), (0, 5, 30, 0.1), (10, 20, 25, 0.9),
                             (7, 7, 14, 0.5)):
            assert binomial_range_mass(lo, hi, n, p) == pytest.approx(
                exact_binomial_range(lo, hi, n, p), abs=1e-13)

    def test_long_range_compensated_sum(self):
        # a 461-term range; compare against the tail identity
        v = binomial_range_mass(3100, 3560, 6674, 0.5)
        ref = binomial_cdf(3560, 6674, 0.5) - binomial_cdf(3099, 6674, 0.5)
        assert v == pytest.approx(ref, abs=1e-11)

    def test_degenerate_p(self):
        from scipy.stats import binom
        assert binomial_range_mass(0, 3, 10, 0.0) == 1.0
        assert binomial_range_mass(1, 3, 10, 0.0) == 0.0
        assert binomial_range_mass(8, 10, 10, 1.0) == 1.0
        assert binomial_range_mass(0, 9, 10, 1.0) == 0.0
        # the tails at the same point masses
        for k in (1, 3, 9):
            for p in (0.0, 1.0):
                assert binomial_cdf(k, 10, p) == binom.cdf(k, 10, p), (k, p)
                assert binomial_sf(k, 10, p) == binom.sf(k - 1, 10, p), (k, p)


class TestSpans:
    def test_no_items_no_spans(self):
        assert list(_spans(0, 8)) == []

    def test_an_item_larger_than_the_block_is_a_span_alone(self, monkeypatch):
        monkeypatch.setattr(special, "_BLOCK_BYTES", 64)
        assert list(_spans(3, 100)) == [(0, 1), (1, 2), (2, 3)]
        assert list(_spans(5, 64)) == [(i, i + 1) for i in range(5)]

    def test_the_block_is_read_at_call_time(self, monkeypatch):
        assert list(_spans(3, special._BLOCK_BYTES)) == [(0, 1), (1, 2), (2, 3)]
        monkeypatch.setattr(special, "_BLOCK_BYTES", 3 * special._BLOCK_BYTES)
        assert list(_spans(4, special._BLOCK_BYTES // 3)) == [(0, 3), (3, 4)]

    @given(st.integers(0, 5000), st.integers(1, 300), st.integers(1, 4096))
    def test_spans_cover_the_range_exactly(self, count, size, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(special, "_BLOCK_BYTES", block)
            spans = list(_spans(count, size))
        assert [i for a, b in spans for i in range(a, b)] == list(range(count))
        # every span but the last holds the same items, as many as fit, at least one
        per_span = max(1, block // size)
        assert all(b - a == per_span for a, b in spans[:-1])
        assert all(0 < b - a <= per_span for a, b in spans)


def _bad_argument_calls():
    """Calls that must raise DomainError: malformed counts, limits, entropies,
    noise rates, alias values, trial counts, width device counts, interval
    bounds, region ends, limit sources, repeat and tie counts, seed paths and
    the special functions' arguments across every public entry point that
    takes them."""
    from bitalias.analysis import AnalysisConfig, analyze_counts
    from bitalias.confidence import (Interval, ci_clopper_pearson, ci_normal, ci_width,
                                     ci_wilson, worst_case_width)
    from bitalias.entropy import (EntropySpec, limits_from_min_entropy,
                                  limits_from_shannon_entropy, min_entropy_from_limits)
    from bitalias.qualification import (AcceptanceRegion, AliasLimits, acceptance_region,
                                        early_stop_p_values, p_value_lower, p_value_upper,
                                        test_position)
    from bitalias.response import PositionCounts
    from bitalias.simulate import PopulationSpec, rng_stream
    from bitalias.validate import CoverageParams, QualificationParams, monte_carlo_validate
    limits = (0.45, 0.55)
    # name -> (call taking x and n, whether n = 0 is a valid count)
    by_counts = {
        "ci_normal": (lambda x, n: ci_normal(x, n, 0.01), False),
        "ci_wilson": (lambda x, n: ci_wilson(x, n, 0.01), False),
        "ci_clopper_pearson": (lambda x, n: ci_clopper_pearson(x, n, 0.01), False),
        "test_position": (lambda x, n: test_position(x, n, limits, 0.01), False),
        "early_stop_p_values": (lambda x, n: early_stop_p_values(x, n, limits), False),
        "p_value_upper": (lambda x, n: p_value_upper(x, n, 0.55), True),
        "p_value_lower": (lambda x, n: p_value_lower(x, n, 0.45), True),
        "binomial_cdf": (lambda x, n: binomial_cdf(x, n, 0.5), True),
        "binomial_sf": (lambda x, n: binomial_sf(x, n, 0.5), True),
        "binomial_pmf_log": (lambda x, n: binomial_pmf_log(x, n, 0.5), True),
    }
    counts = {"x>n": (11, 10), "n=0": (0, 0), "negative-x": (-1, 10),
              "negative-n": (0, -1), "float-x": (3.0, 10), "float-n": (3, 10.0)}
    for name, (call, zero_n_ok) in by_counts.items():
        for label, (x, n) in counts.items():
            if not (zero_n_ok and label == "n=0"):
                yield pytest.param(lambda call=call, x=x, n=n: call(x, n),
                                   id=f"{name}-{label}")
    for label, n in (("n=0", 0), ("negative-n", -1), ("float-n", 10.0)):
        yield pytest.param(lambda n=n: acceptance_region(n, limits, 0.01),
                           id=f"acceptance_region-{label}")
    for label, bad in (("reversed", (0.55, 0.45)), ("boundary", (0.0, 0.5))):
        yield pytest.param(lambda bad=bad: test_position(5, 10, bad, 0.01),
                           id=f"test_position-limits-{label}")
        yield pytest.param(lambda bad=bad: early_stop_p_values(5, 10, bad),
                           id=f"early_stop_p_values-limits-{label}")
        yield pytest.param(lambda bad=bad: acceptance_region(10, bad, 0.01),
                           id=f"acceptance_region-limits-{label}")
    for label, bad in (("none", None), ("text", "abc"), ("above-one", 1.5), ("nan", math.nan)):
        yield pytest.param(lambda bad=bad: EntropySpec("min", bad), id=f"EntropySpec-{label}")
        yield pytest.param(lambda bad=bad: limits_from_min_entropy(bad),
                           id=f"limits_from_min_entropy-{label}")
        yield pytest.param(lambda bad=bad: limits_from_shannon_entropy(bad),
                           id=f"limits_from_shannon_entropy-{label}")
        yield pytest.param(lambda bad=bad: PopulationSpec(2, 3, 1, seed=0, flip_noise=bad),
                           id=f"PopulationSpec-flip_noise-{label}")
    for label, bad in (("above-one", 1.5), ("below-zero", -0.1), ("nan", math.nan),
                       ("list-nan", [0.5, math.nan, 0.5]), ("list-above-one", [0.5, 1.5, 0.5])):
        yield pytest.param(lambda bad=bad: PopulationSpec(2, 3, 1, seed=0, alias=bad),
                           id=f"PopulationSpec-alias-{label}")
    yield pytest.param(lambda: limits_from_min_entropy(0.0), id="limits_from_min_entropy-zero")
    yield pytest.param(lambda: min_entropy_from_limits(1.2), id="min_entropy_from_limits-1.2")
    yield pytest.param(lambda: PopulationSpec(5, 5, 1, seed=1, alias=[0.5]),
                       id="PopulationSpec-alias-length")
    for label, sources in (("none", {}), ("both", {"limits": AliasLimits(*limits),
                                                   "entropy_spec": EntropySpec("min", 0.9)}),
                           ("reversed", {"limits": (0.55, 0.45)})):
        yield pytest.param(lambda sources=sources: AnalysisConfig(alpha=0.01, **sources),
                           id=f"AnalysisConfig-limits-{label}")
    for label, given in (("repeats", dict(repeats=-3)), ("tie_count", dict(tie_count="x"))):
        yield pytest.param(lambda given=given: analyze_counts(
            PositionCounts(10, (5,)), AnalysisConfig(limits=AliasLimits(*limits)), **given),
            id=f"analyze_counts-{label}")
    for label, (x_l, x_u) in (("half-set", (3, None)), ("reversed", (7, 3))):
        yield pytest.param(lambda x_l=x_l, x_u=x_u: AcceptanceRegion(
            devices=10, limits=AliasLimits(*limits), alpha=0.01, x_l=x_l, x_u=x_u),
            id=f"AcceptanceRegion-{label}")
    for q in (0.0, 1.0, -0.1, 1.1, math.nan):
        yield pytest.param(lambda q=q: std_normal_quantile(q), id=f"std_normal_quantile-{q}")
    for x, a, b in ((-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2), (0.5, math.nan, 1)):
        yield pytest.param(lambda x=x, a=a, b=b: regularized_incomplete_beta(x, a, b),
                           id=f"regularized_incomplete_beta-{x}-{a}-{b}")
    for q, a in ((-0.01, 1), (0.5, 0)):
        yield pytest.param(lambda q=q, a=a: beta_quantile(q, a, 1), id=f"beta_quantile-{q}-{a}")
    yield pytest.param(lambda: binomial_range_mass(0, 11, 10, 0.5), id="binomial_range_mass-hi>n")
    coverage = CoverageParams("wilson", p=0.5, devices=30, alpha=0.05)
    # each field of the validation parameters is checked when they are built
    fields = dict(p=0.5, devices=30, alpha=0.05)
    for label, bad in (("p-2", dict(p=2)), ("devices-0", dict(devices=0)),
                       ("devices-fraction", dict(devices=30.5)), ("alpha-0", dict(alpha=0))):
        yield pytest.param(lambda bad=bad: CoverageParams("wilson", **{**fields, **bad}),
                           id=f"CoverageParams-{label}")
        yield pytest.param(lambda bad=bad: QualificationParams(limits=limits,
                                                               **{**fields, **bad}),
                           id=f"QualificationParams-{label}")
    yield pytest.param(lambda: QualificationParams(limits=(0.55, 0.45), **fields),
                       id="QualificationParams-limits-reversed")
    for label, bad in (("text", "5000"), ("fraction", 5000.5), ("none", None), ("few", 999)):
        yield pytest.param(lambda bad=bad: monte_carlo_validate("coverage", coverage, bad, 1),
                           id=f"monte_carlo_validate-trials-{label}")
    for label, bad in (("none", None), ("text", "abc"), ("inf", math.inf), ("nan", math.nan),
                       ("fraction", 0.5)):
        yield pytest.param(lambda bad=bad: ci_width("wilson", 0.5, bad, 0.01),
                           id=f"ci_width-n-{label}")
    yield pytest.param(lambda: worst_case_width("wilson", 7, 0.01), id="worst_case_width-n-odd")
    yield pytest.param(lambda: Interval(0.6, 0.4, 0.01, "wilson"), id="Interval-reversed")
    yield pytest.param(lambda: ci_width("wilson", None, 20, 0.01), id="ci_width-p_hat-none")
    yield pytest.param(lambda: rng_stream(-1), id="rng_stream-negative")
    yield pytest.param(lambda: rng_stream(1, "x"), id="rng_stream-text")


@pytest.mark.parametrize("call", _bad_argument_calls())
def test_rejects_malformed_arguments(call):
    with pytest.raises(DomainError):
        call()
