import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalias.entropy import (EntropySpec, limits_from_spec, min_entropy_from_limits,
                              shannon_entropy)
from bitalias.errors import PerfectEntropyError


class TestLimitsFromMinEntropy:
    def test_full_bit_is_unreachable(self):
        with pytest.raises(PerfectEntropyError):
            limits_from_spec(EntropySpec("min", 1.0))

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-9))
    def test_roundtrip(self, h):
        limits = limits_from_spec(EntropySpec("min", h))
        assert min_entropy_from_limits(limits.p_u) == pytest.approx(h, abs=1e-12)


class TestMinEntropyFromLimits:
    def test_balanced_is_one_bit(self):
        assert min_entropy_from_limits(0.5) == 1.0

    def test_symmetric(self):
        assert min_entropy_from_limits(0.45) == min_entropy_from_limits(0.55)

    def test_certain_outcomes_carry_zero_bits(self):
        assert min_entropy_from_limits(0.0) == 0.0
        assert min_entropy_from_limits(1.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, 5e-324])
    def test_zero_bits_are_positive_zero(self, p):
        # -log2(1) is -0.0, which a report would print as "-0"; at 5e-324,
        # max(p, 1 - p) rounds to 1 too
        h = min_entropy_from_limits(p)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    @given(st.floats(0.0, 1.0))
    def test_same_bits_as_negated_log(self, p):
        h = min_entropy_from_limits(p)
        if h:
            assert h == -math.log2(max(p, 1.0 - p))


class TestShannonEntropy:
    def test_balanced_is_one_bit(self):
        assert shannon_entropy(0.5) == 1.0

    def test_degenerate_is_zero(self):
        assert shannon_entropy(0.0) == 0.0
        assert shannon_entropy(1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_and_dominates_min_entropy(self, p):
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(1.0 - p), abs=1e-12)
        assert shannon_entropy(p) >= min_entropy_from_limits(p) - 1e-12

    def test_dominance_strict_away_from_special_points(self):
        assert shannon_entropy(0.55) > min_entropy_from_limits(0.55)


class TestShannonInversion:
    def test_reported_fixture_inverts(self):
        limits = limits_from_spec(EntropySpec("shannon", 0.9928))
        assert limits.p_u == pytest.approx(0.55, abs=1e-3)

    @given(st.floats(min_value=0.01, max_value=0.999))
    def test_roundtrip(self, h):
        limits = limits_from_spec(EntropySpec("shannon", h))
        assert shannon_entropy(limits.p_u) == pytest.approx(h, abs=1e-9)

    def test_full_bit_is_unreachable(self):
        with pytest.raises(PerfectEntropyError):
            limits_from_spec(EntropySpec("shannon", 1.0))


class TestLimitsFromSpec:
    def test_dispatches_both_kinds(self):
        assert limits_from_spec(EntropySpec("min", 0.9)).p_u == pytest.approx(
            2.0 ** -0.9, abs=1e-12)
        assert limits_from_spec(EntropySpec("shannon", 0.9928)).p_u == pytest.approx(
            0.55, abs=1e-3)
