import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalias.confidence import (ALIAS_GRID, DEVICE_GRID, METHODS, _z_for, ci_width,
                                 confidence_interval, plan_devices_exact)
from bitalias.errors import CapacityError
from bitalias.special import std_normal_quantile

from oracles import bisect_cp_lower, bisect_cp_upper, wilson_bounds_by_roots

Z995 = 2.5758293035489004  # standard normal quantile of 0.995
Z975 = 1.9599639845400536


class TestCiNormal:
    def test_degenerate_at_zero_count(self):
        iv = confidence_interval("normal", 0, 10, 0.05)
        assert (iv.lower, iv.upper) == (0.0, 0.0)
        assert iv.width == 0.0  # the notorious too-narrow pathology

    def test_width_at_664_devices(self):
        assert ci_width("normal", 332 / 664, 664, 0.01) == pytest.approx(0.1, abs=5e-4)

    def test_hand_expansion(self):
        iv = confidence_interval("normal", 5, 10, 0.05)
        half = Z975 * math.sqrt(0.025)
        assert iv.lower == pytest.approx(0.5 - half, abs=1e-12)
        assert iv.upper == pytest.approx(0.5 + half, abs=1e-12)

    def test_clamps_but_reports_analytic_width(self):
        iv = confidence_interval("normal", 1, 10, 0.001)
        assert iv.lower == 0.0
        assert ci_width("normal", 1 / 10, 10, 0.001) > iv.width


class TestCiWilson:
    def test_bounds_inside_unit_interval_without_clamping(self):
        for x, n in ((0, 1), (1, 1), (0, 20), (20, 20), (7, 13)):
            iv = confidence_interval("wilson", x, n, 0.01)
            assert 0.0 <= iv.lower <= iv.upper <= 1.0

    @given(st.integers(1, 500), st.data(),
           st.sampled_from([0.001, 0.01, 0.05, 0.2]))
    def test_matches_quadratic_root_oracle(self, n, data, alpha):
        x = data.draw(st.integers(0, n))
        iv = confidence_interval("wilson", x, n, alpha)
        z = std_normal_quantile(1.0 - alpha / 2)
        lo, hi = wilson_bounds_by_roots(x, n, z)
        assert iv.lower == pytest.approx(lo, abs=1e-10)
        assert iv.upper == pytest.approx(hi, abs=1e-10)


class TestCiClopperPearson:
    def test_zero_count_pins_lower(self):
        assert confidence_interval("clopper_pearson", 0, 5, 0.05).lower == 0.0

    def test_full_count_pins_upper(self):
        assert confidence_interval("clopper_pearson", 5, 5, 0.05).upper == 1.0

    def test_balanced_count_at_680(self):
        iv = confidence_interval("clopper_pearson", 340, 680, 0.01)
        assert abs(iv.lower - 0.45) < 0.002
        assert abs(iv.upper - 0.55) < 0.002
        # independent binomial-tail bisection oracle
        assert iv.lower == pytest.approx(bisect_cp_lower(340, 680, 0.01), abs=1e-9)
        assert iv.upper == pytest.approx(bisect_cp_upper(340, 680, 0.01), abs=1e-9)

    @given(st.integers(1, 300), st.data(),
           st.sampled_from(["normal", "wilson", "clopper_pearson"]))
    def test_contains_point_estimate(self, n, data, method):
        x = data.draw(st.integers(0, n))
        iv = confidence_interval(method, x, n, 0.05)
        assert iv.lower <= x / n <= iv.upper


# Every 97th count and the full count at three device counts, at three levels.
PINNED_GRID = [(x, n, alpha) for n in (10, 680, 66546) for x in sorted({*range(0, n + 1, 97), n})
               for alpha in (0.05, 0.01, 1e-9)]

# method -> (sha256 of every (lower, upper) over PINNED_GRID, sha256 of every
# ci_width at x/n), each float written as float.hex
PINNED_BITS = {
    "normal": ("446b8affecee401b807095c92fadd39dc13d37089ab816733cf6bde1f764057c",
               "c7cad5b815754a2bad524ccf70b4a62fdc760061f4cda6e941183d6e46cc1cfb"),
    "wilson": ("4c8de24037136a9d12456a84ab6dbf222baa6820d64f0071739725e5c7f8c089",
               "d04704176cce73bc2ef79c6824a7eec7d6113875c66199f857f3c9fd9c98aa71"),
    "clopper_pearson": ("64ec84a3caf557a8bbeddb68171de88078fad22b74724d4bb0e4eadefa353ef0",
                        "a95302a7bd69644ea01bdea4329b40ea038814b68475dcae12fbbc2c92168454"),
}


def _float_digest(values) -> str:
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


class TestPinnedBits:
    @pytest.mark.parametrize("method", sorted(PINNED_BITS))
    def test_bounds_and_widths_keep_their_bits(self, method):
        bounds = [v for x, n, alpha in PINNED_GRID
                  for iv in [confidence_interval(method, x, n, alpha)]
                  for v in (iv.lower, iv.upper)]
        widths = [ci_width(method, x / n, n, alpha) for x, n, alpha in PINNED_GRID]
        assert (_float_digest(bounds), _float_digest(widths)) == PINNED_BITS[method]

    def test_normal_width_is_twice_the_unclamped_half(self):
        for x, n, alpha in PINNED_GRID:
            p, z = x / n, _z_for(alpha)
            assert ci_width("normal", p, n, alpha) == 2 * z * math.sqrt(p * (1 - p) / n)


class TestWidthOrdering:
    def test_wilson_is_narrowest_at_half(self):
        # consistent with the planning counts 658 <= 664 <= 680
        for n in range(10, 1001, 7):
            ww = ci_width("wilson", 0.5, n, 0.01)
            wn = ci_width("normal", 0.5, n, 0.01)
            wc = ci_width("clopper_pearson", 0.5, n, 0.01)
            assert ww <= wn + 1e-12
            assert ww <= wc + 1e-12

    def test_exact_interval_widest_beyond_small_n(self):
        # below ~30 devices the normal interval is too wide near 0.5 and
        # overtakes the exact one, the failure mode that motivates Wilson
        for n in range(30, 1001, 7):
            assert ci_width("normal", 0.5, n, 0.01) <= \
                ci_width("clopper_pearson", 0.5, n, 0.01) + 1e-12
        assert ci_width("normal", 0.5, 10, 0.01) > ci_width("clopper_pearson", 0.5, 10, 0.01)


class TestWidthCurve:
    def test_single_point_equals_direct_call(self):
        assert ci_width("wilson", 0.5, 20, 0.01) == pytest.approx(
            confidence_interval("wilson", 10, 20, 0.01).width, abs=1e-12)

    def test_wilson_reaches_target_at_658(self):
        assert ci_width("wilson", 0.5, 658, 0.01) <= 0.1

    def test_clopper_pearson_straddles_680(self):
        assert ci_width("clopper_pearson", 0.5, 679, 0.01) > 0.1
        assert ci_width("clopper_pearson", 0.5, 680, 0.01) <= 0.1

    def test_monotone_in_devices_at_half(self):
        for method in ("wilson", "clopper_pearson"):
            widths = [ci_width(method, 0.5, n, 0.01) for n in DEVICE_GRID]
            assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))

    def test_alias_sweep_peaks_at_half(self):
        widths = {p: ci_width("wilson", p, 20, 0.01) for p in ALIAS_GRID}
        assert max(widths.values()) == widths[0.5]

    def test_default_grids(self):
        assert DEVICE_GRID[0] == 2 and DEVICE_GRID[-1] == 10000
        assert len(ALIAS_GRID) == 101


class TestNormalPlan:
    def test_direct_formula_at_half_width(self):
        # ceil((z/0.05)^2) with the full-precision quantile; the rounded
        # 4-digit z would give 2655 instead
        assert plan_devices_exact("normal", 0.05, 0.01).devices == \
            math.ceil((Z995 / 0.05) ** 2) == 2654

    def test_wide_target_needs_z_squared(self):
        plan = plan_devices_exact("normal", 0.999, 0.01)
        assert plan.devices == math.ceil((Z995 / 0.999) ** 2)
        assert plan.devices >= Z995**2 // 1


class TestTinyAlpha:
    """z comes from alpha/2, which stays exact where 1 - alpha/2 rounds to 1."""

    def test_z_matches_scipy_isf(self):
        from scipy.stats import norm
        for i in range(300):
            alpha = 10.0 ** (-300 + i * (300 + math.log10(0.999)) / 299)
            want = norm.isf(0.5 * alpha)
            assert abs(_z_for(alpha) - want) <= 1e-14 * want, alpha

    @pytest.mark.parametrize("alpha", [1e-17, 1e-40, 1e-300])
    def test_intervals_and_planners_accept_tiny_alpha(self, alpha):
        from scipy.stats import norm
        z = norm.isf(0.5 * alpha)
        wilson = confidence_interval("wilson", 5, 10, alpha)
        assert 0.0 < wilson.lower < 0.5 < wilson.upper < 1.0
        assert wilson.width > confidence_interval("wilson", 5, 10, 1e-16).width
        normal = confidence_interval("normal", 5, 10, alpha)
        assert (normal.lower, normal.upper) == (0.0, 1.0)
        assert ci_width("normal", 0.5, 10, alpha) == pytest.approx(2 * z * math.sqrt(0.025),
                                                                   rel=1e-14)
        if (z / 0.01) ** 2 <= 1e7:
            assert plan_devices_exact("normal", 0.01, alpha).devices == \
                pytest.approx((z / 0.01) ** 2, abs=1)
        else:  # 1.4e7 devices at alpha = 1e-300, above the device cap
            with pytest.raises(CapacityError):
                plan_devices_exact("normal", 0.01, alpha)
        for method in ("normal", "wilson"):
            widths = [ci_width(method, 0.5, n, alpha) for n in (2, 20, 200)]
            assert widths == sorted(widths, reverse=True)

    def test_smallest_alpha_with_a_positive_half(self):
        # 1e-323 is twice the smallest subnormal, so alpha/2 is still exact
        assert _z_for(1e-323) == pytest.approx(38.467, abs=5e-4)
        assert confidence_interval("wilson", 5, 10, 1e-323).lower > 0.0


class TestPlanDevicesExact:
    def test_roundtrip_through_width_at_20(self):
        w = confidence_interval("wilson", 10, 20, 0.01).width
        assert plan_devices_exact("wilson", w, 0.01).devices == 20

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("width, alpha", [(0.9, 0.5), (0.3, 1e-6), (0.1, 0.01),
                                              (0.05, 0.05), (0.01, 0.01), (0.0021, 1e-3)])
    def test_plan_is_the_first_count_meeting_the_curve_width(self, method, width, alpha):
        # the planned N meets the target on the width curve at alias 0.5 and
        # the grid count below it misses: Wilson and Clopper-Pearson plan
        # even counts, the normal approximation every count
        n, step = plan_devices_exact(method, width, alpha).devices, 1 if method == "normal" else 2
        assert ci_width(method, 0.5, n, alpha) <= width
        assert n == step or ci_width(method, 0.5, n - step, alpha) > width

    def test_normal_plan_obeys_the_device_cap(self):
        # (z / w)^2 at alpha 0.01 passes 10^7 between this width and
        # 0.00081454, which test_one_message_per_rule sends
        assert plan_devices_exact("normal", 0.00081455, 0.01).devices == 9999970

    def test_searches_up_to_the_device_cap(self):
        # The answer lies between 2**23 and the 10**7 cap, where doubling
        # alone never probes.
        n = plan_devices_exact("wilson", 0.00086, 0.01).devices
        assert 2**23 < n <= 10**7
        assert ci_width("wilson", 0.5, n, 0.01) <= 0.00086
        assert ci_width("wilson", 0.5, n - 2, 0.01) > 0.00086
        # (z / width)^2 is about 1.04e7, just above the cap
        with pytest.raises(CapacityError):
            plan_devices_exact("wilson", 0.0008, 0.01)


class TestDeterminism:
    def test_identical_inputs_identical_intervals(self):
        a = confidence_interval("clopper_pearson", 37, 113, 0.02)
        b = confidence_interval("clopper_pearson", 37, 113, 0.02)
        assert (a.lower, a.upper) == (b.lower, b.upper)
