import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalias.errors import DomainError
from bitalias.response import (MeasurementTensor, NoiseFreeResponse, PositionCounts,
                               _vote, bit_alias, count_ones, derive_noise_free_response)


def tensor(arr):
    return MeasurementTensor(bits=np.array(arr, dtype=np.uint8))


class TestMeasurementTensor:
    def test_shape_properties(self):
        m = tensor(np.zeros((3, 4, 2)))
        assert (m.devices, m.positions, m.repeats) == (3, 4, 2)

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            MeasurementTensor(bits=np.full((2, 2, 2), 2))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DomainError):
            MeasurementTensor(bits=np.zeros((2, 2)))

    def test_rejects_empty_axis(self):
        with pytest.raises(DomainError):
            MeasurementTensor(bits=np.zeros((2, 0, 2)))

    def test_immutable_after_construction(self):
        m = tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            m.bits[0, 0, 0] = 1


class TestDeriveNoiseFreeResponse:
    def test_single_measurement_is_identity(self):
        bits = np.array([[[1], [0], [1]], [[0], [0], [1]]])
        r = derive_noise_free_response(tensor(bits))
        assert (r.bits == bits[:, :, 0]).all()
        assert r.tie_count == 0

    def test_strict_majority(self):
        m = tensor([[[1, 1, 0]]])
        r = derive_noise_free_response(m)
        assert r.bits[0, 0] == 1

    def test_tie_resolves_by_parity(self):
        # two-measurement tie at (n=0, t=0): even index sum, resolves to 1;
        # at (n=0, t=1): odd, resolves to 0
        m = tensor([[[1, 0], [1, 0]]])
        r = derive_noise_free_response(m)
        assert r.bits[0, 0] == 1
        assert r.bits[0, 1] == 0
        assert r.tie_count == 2

    def test_all_two_measurement_patterns(self):
        # enumerate every 2-repeat pattern at a single cell
        for a in (0, 1):
            for b in (0, 1):
                r = derive_noise_free_response(tensor([[[a, b]]]))
                total = a + b
                if total == 2:
                    assert r.bits[0, 0] == 1 and r.tie_count == 0
                elif total == 0:
                    assert r.bits[0, 0] == 0 and r.tie_count == 0
                else:
                    assert r.bits[0, 0] == 1 and r.tie_count == 1  # (0+0) even

    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance_of_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(5, 7, 4), dtype=np.uint8)
        base = bit_alias(count_ones(derive_noise_free_response(tensor(bits))))
        shuffled = bits[:, :, rng.permutation(4)]
        again = bit_alias(count_ones(derive_noise_free_response(tensor(shuffled))))
        assert (base == again).all()

    @given(st.integers(0, 2**32 - 1))
    def test_matches_per_cell_rule_in_any_blocks(self, seed):
        rng = np.random.default_rng(seed)
        n, t, k = (int(v) for v in rng.integers(1, 9, size=3))
        bits = rng.integers(0, 2, size=(n, t, k), dtype=np.uint8)
        expected = [[int(2 * bits[d, p].sum() > k
                         or (2 * bits[d, p].sum() == k and (d + p) % 2 == 0))
                     for p in range(t)] for d in range(n)]
        ties = sum(2 * int(bits[d, p].sum()) == k for d in range(n) for p in range(t))
        r = derive_noise_free_response(tensor(bits))
        assert (r.bits.tolist(), r.tie_count) == (expected, ties)
        cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=2))
        parts = [_vote(bits[a:b], a) for a, b in zip([0, *cuts], [*cuts, n])]
        assert np.concatenate([v for v, _ in parts]).tolist() == expected
        assert sum(c for _, c in parts) == ties


class TestCountOnes:
    def test_all_zero(self):
        r = NoiseFreeResponse(bits=np.zeros((4, 6), dtype=np.uint8), tie_count=0)
        assert (count_ones(r).ones == 0).all()

    def test_direct_column_count(self):
        r = NoiseFreeResponse(bits=np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8),
                              tie_count=0)
        c = count_ones(r)
        assert list(c.ones) == [2, 1]
        assert c.devices == 3

    @given(st.integers(0, 2**32 - 1))
    def test_matches_bruteforce_recount(self, seed):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(1, 100)), int(rng.integers(1, 64))
        bits = rng.integers(0, 2, size=(n, t), dtype=np.uint8)
        c = count_ones(NoiseFreeResponse(bits=bits, tie_count=0))
        recount = [sum(int(bits[i][j]) for i in range(n)) for j in range(t)]
        assert list(c.ones) == recount

    def test_bruteforce_recount_at_full_size(self):
        rng = np.random.default_rng(99)
        bits = rng.integers(0, 2, size=(100, 256), dtype=np.uint8)
        c = count_ones(NoiseFreeResponse(bits=bits, tie_count=0))
        recount = [sum(int(bits[i][j]) for i in range(100)) for j in range(256)]
        assert list(c.ones) == recount


class TestBitAlias:
    def test_extremes_and_division(self):
        c = PositionCounts(devices=680, ones=np.array([680, 340, 0]))
        alias = bit_alias(c)
        assert list(alias) == [1.0, 0.5, 0.0]

    def test_fifth(self):
        c = PositionCounts(devices=50, ones=np.array([10]))
        assert bit_alias(c)[0] == pytest.approx(0.2)

    @given(st.integers(0, 2**32 - 1))
    def test_bounds_and_integrality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        ones = rng.integers(0, n + 1, size=16)
        alias = bit_alias(PositionCounts(devices=n, ones=ones))
        assert ((alias >= 0) & (alias <= 1)).all()
        assert np.allclose(alias * n, np.round(alias * n))


class TestPositionCounts:
    def test_rejects_count_above_devices(self):
        with pytest.raises(DomainError):
            PositionCounts(devices=5, ones=np.array([6]))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            PositionCounts(devices=5, ones=np.array([-1]))
