import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalias.errors import CapacityError, DomainError
from bitalias import qualification as qual
from bitalias.qualification import (AcceptanceRegion, AliasLimits,
                                    acceptance_probability, acceptance_region,
                                    early_stop_decision, early_stop_p_values,
                                    p_value_lower, p_value_upper,
                                    plan_devices_frr)
from bitalias.response import PositionCounts
from bitalias.simulate import rng_stream

from oracles import exact_binomial_cdf, exact_binomial_sf

LIMITS = AliasLimits(0.45, 0.55)


class TestAliasLimits:
    def test_rejects_reversed(self):
        with pytest.raises(DomainError):
            AliasLimits(0.55, 0.45)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            AliasLimits(0.0, 0.5)


class TestPValues:
    def test_upper_at_full_count(self):
        assert p_value_upper(10, 10, 0.55) == 1.0

    def test_lower_at_zero_count(self):
        assert p_value_lower(0, 50, 0.45) == 1.0

    def test_balanced_count_rejects_both_sides(self):
        assert p_value_upper(340, 680, 0.55) < 0.005
        assert p_value_lower(340, 680, 0.45) < 0.005

    def test_upper_matches_exact_tail(self):
        assert p_value_upper(3, 10, 0.55) == pytest.approx(
            exact_binomial_cdf(3, 10, 0.55), abs=1e-14)

    def test_small_grid_matches_exact_arithmetic(self):
        for n in (1, 5, 17, 30):
            for pnum in range(1, 10):
                p = pnum / 10
                for x in range(n + 1):
                    assert p_value_upper(x, n, p) == pytest.approx(
                        exact_binomial_cdf(x, n, p), abs=1e-12)
                    assert p_value_lower(x, n, p) == pytest.approx(
                        exact_binomial_sf(x, n, p), abs=1e-12)

    @given(st.integers(1, 400), st.data(),
           st.floats(min_value=0.01, max_value=0.99))
    def test_mirror_symmetry(self, n, data, p):
        x = data.draw(st.integers(0, n))
        assert p_value_lower(x, n, p) == pytest.approx(
            p_value_upper(n - x, n, 1.0 - p), abs=1e-12)


class TestAcceptanceRegion:
    def test_reported_region_at_680(self):
        r = acceptance_region(680, LIMITS, 0.01)
        assert (r.x_l, r.x_u) == (340, 340)

    def test_small_n_is_empty(self):
        r = acceptance_region(10, LIMITS, 0.01)
        assert r.is_empty
        # exhaustive scan agrees: no count passes both sides
        assert not any(qual.test_position(x, 10, LIMITS, 0.01).accepted for x in range(11))

    def test_symmetric_limits_give_symmetric_region(self):
        r = acceptance_region(6674, LIMITS, 0.01)
        assert not r.is_empty
        assert r.x_l + r.x_u == 6674

    @pytest.mark.parametrize("n", [50, 137, 200])
    def test_region_matches_verdicts_exhaustively(self, n):
        r = acceptance_region(n, LIMITS, 0.01)
        for x in range(n + 1):
            assert qual.test_position(x, n, LIMITS, 0.01).accepted == r.contains(x)

    @given(st.integers(1, 400), st.floats(min_value=0.02, max_value=0.2))
    def test_widening_limits_never_shrinks_region(self, n, margin):
        near = AliasLimits(0.5 - margin, 0.5 + margin)
        wide = AliasLimits(0.5 - margin - 0.1, 0.5 + margin + 0.1)
        rn = acceptance_region(n, near, 0.01)
        rw = acceptance_region(n, wide, 0.01)
        if not rn.is_empty:
            assert not rw.is_empty
            assert rw.x_l <= rn.x_l and rn.x_u <= rw.x_u

    def test_growing_n_eventually_non_empty(self):
        assert acceptance_region(10, LIMITS, 0.01).is_empty
        assert not acceptance_region(680, LIMITS, 0.01).is_empty

    @given(st.floats(min_value=0.51, max_value=0.95), st.integers(1, 500))
    def test_symmetry_invariant_for_mirrored_limits(self, p_u, n):
        limits = AliasLimits(1.0 - p_u, p_u)
        r = acceptance_region(n, limits, 0.01)
        if not r.is_empty:
            assert r.x_l + r.x_u == n

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(DomainError):
            AcceptanceRegion(devices=10, limits=LIMITS, alpha=0.01, x_l=3, x_u=None)
        with pytest.raises(DomainError):
            AcceptanceRegion(devices=10, limits=LIMITS, alpha=0.01, x_l=7, x_u=3)


class TestTestPosition:
    def test_only_balanced_count_accepted_at_680(self):
        assert qual.test_position(340, 680, LIMITS, 0.01).accepted
        assert not qual.test_position(339, 680, LIMITS, 0.01).accepted
        assert not qual.test_position(341, 680, LIMITS, 0.01).accepted

    def test_zero_count_rejected(self):
        v = qual.test_position(0, 50, LIMITS, 0.01)
        assert not v.accepted
        assert v.p_value_lower == 1.0

    def test_verdict_consistency_flag(self):
        v = qual.test_position(340, 680, LIMITS, 0.01)
        assert v.accepted == (v.p_value_upper < 0.005 and v.p_value_lower < 0.005)


class TestAcceptanceProbability:
    def test_reported_single_point_mass(self):
        r = acceptance_region(680, LIMITS, 0.01)
        assert acceptance_probability(680, 0.5, r) == pytest.approx(0.03, abs=0.005)

    def test_zero_at_degenerate_alias(self):
        r = acceptance_region(680, LIMITS, 0.01)
        assert acceptance_probability(680, 0.0, r) == 0.0

    def test_empty_region_gives_zero(self):
        r = acceptance_region(10, LIMITS, 0.01)
        assert acceptance_probability(10, 0.5, r) == 0.0

    def test_wrong_n_rejected(self):
        r = acceptance_region(680, LIMITS, 0.01)
        with pytest.raises(DomainError):
            acceptance_probability(679, 0.5, r)

    def test_monte_carlo_oracle_at_30(self):
        rng = rng_stream(2024, 1)
        limits = AliasLimits(0.2, 0.8)
        region = AcceptanceRegion(devices=30, limits=limits, alpha=0.01, x_l=11, x_u=19)
        for p in (0.3, 0.5, 0.62):
            trials = 1_000_000
            draws = rng.binomial(30, p, size=trials)
            freq = np.count_nonzero((draws >= 11) & (draws <= 19)) / trials
            exact = acceptance_probability(30, p, region)
            sigma = max(np.sqrt(exact * (1 - exact) / trials), 1e-9)
            assert abs(freq - exact) < 4 * sigma

    def test_maximized_near_half_for_symmetric_limits(self):
        r = acceptance_region(680, LIMITS, 0.01)
        grid = [round(0.30 + 0.05 * i, 2) for i in range(9)]
        masses = {p: acceptance_probability(680, p, r) for p in grid}
        assert max(masses, key=masses.get) == 0.5


class TestPlanDevicesFrr:
    def test_reported_plan_band(self):
        plan = plan_devices_frr(LIMITS, (0.48, 0.52), 0.01, 0.01)
        # the discrete FRR curve wiggles, so the certified minimum can sit a
        # little below the 6674 a coarser search settles on
        assert 6624 <= plan.devices <= 6674

    def test_certified_boundary(self):
        plan = plan_devices_frr(LIMITS, (0.48, 0.52), 0.01, 0.01)

        def frr_ok(n):
            region = acceptance_region(n, LIMITS, 0.01)
            if region.is_empty:
                return False
            return all(1.0 - acceptance_probability(n, p, region) <= 0.01
                       for p in (0.48, 0.52))

        assert frr_ok(plan.devices)
        assert not frr_ok(plan.devices - 1)

    @pytest.mark.parametrize("beta, devices", [(1e-12, 25550), (1e-20, 38758)])
    def test_small_beta_answer_is_smallest(self, beta, devices):
        # the smallest counts meeting beta, from a scipy scan up from n = 1;
        # FRR taken as 1 - acceptance mass cancels here and answers 108056
        assert plan_devices_frr(LIMITS, (0.48, 0.52), 0.01, beta).devices == devices

    def test_weak_requirement_needs_few_devices(self):
        plan = plan_devices_frr(AliasLimits(0.05, 0.95), (0.45, 0.55), 0.2, 0.9)
        assert plan.devices < 100

    def test_unreachable_raises_capacity_error(self):
        with pytest.raises(CapacityError):
            plan_devices_frr(AliasLimits(0.499, 0.501), (0.4999, 0.5001), 0.01, 1e-9)

    def test_rejects_inner_outside_limits(self):
        with pytest.raises(DomainError):
            plan_devices_frr(LIMITS, (0.40, 0.52), 0.01, 0.01)


class TestEarlyStop:
    def test_reported_forecast_p_value(self):
        p_low, _ = early_stop_p_values(10, 50, LIMITS)
        assert 1.5e-4 <= p_low < 2.5e-4  # 2e-4 to one significant digit

    def test_full_count_gives_one(self):
        p_low, _ = early_stop_p_values(50, 50, LIMITS)
        assert p_low == 1.0

    @given(st.integers(1, 300), st.data())
    def test_mirror_symmetry(self, n, data):
        x = data.draw(st.integers(0, n))
        _, p_high = early_stop_p_values(x, n, LIMITS)
        p_low_mirror, _ = early_stop_p_values(n - x, n, AliasLimits(0.45, 0.55))
        # p_high at (x, p_u) equals p_low at (n - x, 1 - p_u)
        mirrored = AliasLimits(1.0 - LIMITS.p_u, 1.0 - LIMITS.p_l)
        p_low_m, _ = early_stop_p_values(n - x, n, mirrored)
        assert p_high == pytest.approx(p_low_m, abs=1e-12)

    def test_monotone_in_count(self):
        lows = [early_stop_p_values(x, 50, LIMITS)[0] for x in range(51)]
        highs = [early_stop_p_values(x, 50, LIMITS)[1] for x in range(51)]
        assert all(a <= b + 1e-15 for a, b in zip(lows, lows[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(highs, highs[1:]))

    def test_no_flags_continues(self):
        counts = PositionCounts(devices=50, ones=np.full(8, 25))
        advice = early_stop_decision(counts, LIMITS, 0.01)
        assert advice.decision == "continue"
        assert advice.flagged_positions == ()

    def test_single_bad_position_aborts_at_zero_tolerance(self):
        counts = PositionCounts(devices=50, ones=np.array([25, 10, 24]))
        advice = early_stop_decision(counts, LIMITS, 0.01, max_flag_fraction=0.0)
        assert advice.decision == "abort"
        assert advice.flagged_positions == (1,)

    def test_flag_fraction_threshold_is_strict(self):
        counts = PositionCounts(devices=50, ones=np.array([25, 10, 24, 26]))
        advice = early_stop_decision(counts, LIMITS, 0.01, max_flag_fraction=0.25)
        assert advice.decision == "continue"  # exactly at the threshold

    def test_flag_rule_matches_p_values(self):
        counts = PositionCounts(devices=50, ones=np.arange(0, 51, 5))
        advice = early_stop_decision(counts, LIMITS, 0.01)
        for t in range(counts.positions):
            flagged = t in advice.flagged_positions
            assert flagged == (min(advice.p_values_low[t],
                                   advice.p_values_high[t]) < 0.01)

    def test_repeated_counts_match_per_position_p_values(self):
        ones = np.array([0, 50, 25, 10, 25, 0, 50, 10, 49, 1, 25, 0])
        advice = early_stop_decision(PositionCounts(devices=50, ones=ones), LIMITS, 0.01)
        for t, x in enumerate(ones.tolist()):
            p_low, p_high = early_stop_p_values(x, 50, LIMITS)
            assert advice.p_values_low[t] == p_low
            assert advice.p_values_high[t] == p_high
            assert (t in advice.flagged_positions) == (min(p_low, p_high) < 0.01)
