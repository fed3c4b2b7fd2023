import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitalias import response, special
from bitalias.errors import DomainError
from bitalias.response import (MeasurementTensor, NoiseFreeResponse, PositionCounts, _vote,
                               bit_alias, count_ones, derive_noise_free_response)


def tensor(arr):
    return MeasurementTensor(bits=np.array(arr, dtype=np.uint8))


def per_cell_rule(bits):
    """The voted bits and tie count of a devices x positions x repeats array,
    cell by cell: 1 when 2 * sum > repeats, a tie to 1 when d + t is even."""
    n, t, k = bits.shape
    totals = bits.sum(axis=2).tolist()
    voted = [[int(2 * totals[d][p] > k or (2 * totals[d][p] == k and (d + p) % 2 == 0))
              for p in range(t)] for d in range(n)]
    ties = sum(2 * totals[d][p] == k for d in range(n) for p in range(t))
    return voted, ties


def vote_in_blocks(bits, cuts):
    """`_vote` over the device blocks that `cuts` mark, on the rows packed as
    the binary format packs them; the unpacked voted bits and the summed tie
    count."""
    n, t, k = bits.shape
    row_bytes = (t + 7) // 8
    packed = tensor(bits).rows
    blocks = [(a, b) for a, b in zip([0, *cuts], [*cuts, n]) if b > a]
    parts = [_vote(packed[a * k:b * k], k, row_bytes, a) for a, b in blocks]
    # to_bytes fails if a block's voted int reaches past its devices' rows
    voted = np.frombuffer(b"".join(v.to_bytes((b - a) * row_bytes, "little")
                                   for (v, _), (a, b) in zip(parts, blocks)),
                          dtype=np.uint8).reshape(n, row_bytes)
    if t % 8:
        assert not (voted[:, -1] >> t % 8).any()  # padding bits stay 0
    bits_out = np.unpackbits(voted, axis=1, count=t, bitorder="little")
    return bits_out.tolist(), sum(c for _, c in parts)


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

    @pytest.mark.parametrize("bad, dtype", [(0.5, np.float64), (np.nan, np.float64),
                                            (256, np.int16), (-1, np.int8), (2, np.int64)])
    def test_rejects_non_binary_of_any_dtype(self, bad, dtype):
        # the bad entry sits among good ones, past the first row
        with pytest.raises(DomainError, match="0 or 1"):
            MeasurementTensor(bits=np.array([[[0, 1], [1, 0]], [[1, 1], [0, bad]]], dtype=dtype))

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
    def test_accepts_zero_one_of_any_dtype(self, dtype):
        raw = np.random.default_rng(6).integers(0, 2, size=(3, 11, 4))
        m = MeasurementTensor(bits=raw.astype(dtype))
        assert m.bits.dtype == np.uint8
        assert not m.bits.flags.writeable and not m.rows.flags.writeable
        assert m.bits.shape == raw.shape and (m.bits == raw).all()


class TestNoiseFreeResponse:
    def test_is_a_one_repeat_tensor(self):
        bits = np.random.default_rng(4).integers(0, 2, size=(5, 19), dtype=np.uint8)
        r = NoiseFreeResponse(bits=bits, tie_count=3)
        m = MeasurementTensor(bits=bits[:, :, None])
        assert isinstance(r, MeasurementTensor) and r.repeats == 1
        assert (r.devices, r.positions, r.tie_count) == (5, 19, 3)
        assert r.rows.tobytes() == m.rows.tobytes() and not r.rows.flags.writeable
        assert r.bits.tolist() == bits.tolist() and not r.bits.flags.writeable

    @pytest.mark.parametrize("tie_count", [1.5, None, "2", -1])
    def test_rejects_tie_count_that_is_not_a_count(self, tie_count):
        with pytest.raises(DomainError, match="tie_count must be"):
            NoiseFreeResponse(bits=np.zeros((2, 3), dtype=np.uint8), tie_count=tie_count)

    @pytest.mark.parametrize("bits", [np.zeros((2, 3, 1)), np.zeros((0, 3)), [[0, 2]], [[0.5]]])
    def test_rejects_bits_that_are_not_a_two_dimensional_zero_one_array(self, bits):
        with pytest.raises(DomainError, match="response"):
            NoiseFreeResponse(bits=bits, tie_count=0)

    def test_derived_response_holds_the_voted_rows_packed(self, monkeypatch):
        # the response keeps the voted rows (N x ceil(T/8) bytes) as they
        # come from the vote; unpacking them, as bits, takes 8 times as much
        monkeypatch.setattr(special, "_BLOCK_BYTES", 1 << 16)
        n, t, k = 512, 1024, 4
        m = tensor(np.random.default_rng(8).integers(0, 2, size=(n, t, k)))
        voted = n * ((t + 7) // 8)
        tracemalloc.start()
        try:
            r = derive_noise_free_response(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.rows.nbytes == voted
        assert peak < 6 * voted


class TestEquality:
    def test_tensors_compare_by_shape_and_row_bytes(self):
        bits = np.random.default_rng(5).integers(0, 2, size=(3, 20, 2))
        assert tensor(bits) == tensor(bits.copy())
        flipped = bits.copy()
        flipped[2, 19, 1] ^= 1
        assert tensor(bits) != tensor(flipped)
        # the same 6 rows of 3 bytes, read as 3 devices x 2 repeats or 6 x 1
        assert tensor(bits) != MeasurementTensor(_packed=(tensor(bits).rows, 20, 1))

    def test_responses_compare_tie_counts(self):
        bits = np.random.default_rng(6).integers(0, 2, size=(4, 30))
        assert NoiseFreeResponse(bits, 2) == NoiseFreeResponse(bits.astype(bool), 2)
        assert NoiseFreeResponse(bits, 2) != NoiseFreeResponse(bits, 3)
        assert NoiseFreeResponse(bits, 0) != MeasurementTensor(bits=bits[:, :, None])

    def test_derived_responses_compare(self):
        bits = np.random.default_rng(7).integers(0, 2, size=(6, 17, 4))
        r = derive_noise_free_response(tensor(bits))
        assert r == derive_noise_free_response(tensor(bits))
        assert r == NoiseFreeResponse(r.bits, r.tie_count)

    def test_counts_compare_as_ints(self):
        arr = PositionCounts(devices=5, ones=np.array([1, 2, 5]))
        assert arr == PositionCounts(devices=5, ones=np.array([1, 2, 5]))
        assert arr == PositionCounts(devices=5, ones=(1, 2, 5))
        assert arr != PositionCounts(devices=6, ones=(1, 2, 5))
        assert arr != PositionCounts(devices=5, ones=(1, 2, 4))
        assert arr != PositionCounts(devices=5, ones=(1, 2))

    def test_file_counts_equal_count_ones(self):
        bits = np.random.default_rng(9).integers(0, 2, size=(9, 21, 3))
        m = tensor(bits)
        blocks = response._blocks(m.rows, m.positions, m.repeats)
        counts, _, _ = response._count_voted(blocks, m.devices, m.positions, m.repeats)
        assert counts == count_ones(derive_noise_free_response(m))
        assert counts == count_ones(m)  # a raw tensor is voted first


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
        expected, ties = per_cell_rule(bits)
        r = derive_noise_free_response(tensor(bits))
        assert (r.bits.tolist(), r.tie_count) == (expected, ties)
        cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=2))
        assert vote_in_blocks(bits, cuts) == (expected, ties)


class TestPackedVote:
    @pytest.mark.parametrize("repeats", [*range(1, 18), 300])
    @settings(max_examples=10)
    @given(st.integers(1, 30), st.integers(1, 40), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_matches_per_cell_rule(self, repeats, devices, positions, p_one, seed):
        # a skewed share of 1s makes ties rare or common at every repeat count
        rng = np.random.default_rng(seed)
        bits = (rng.random((devices, positions, repeats)) < p_one).astype(np.uint8)
        cuts = sorted(int(c) for c in rng.integers(0, devices + 1, size=3))
        assert vote_in_blocks(bits, cuts) == per_cell_rule(bits)

    @pytest.mark.parametrize("positions", [1, 7, 8, 13, 64, 77])
    def test_padding_bits_never_tie(self, positions):
        # every real cell ties, so the count is devices x positions exactly
        for repeats in (2, 4, 16):
            bits = np.zeros((5, positions, repeats), dtype=np.uint8)
            bits[:, :, :repeats // 2] = 1
            voted, ties = vote_in_blocks(bits, [2])
            assert ties == 5 * positions
            assert voted == per_cell_rule(bits)[0]

    def test_block_starting_on_an_odd_device(self):
        # every cell ties, so an odd device votes 1 at the odd positions
        # (0xAA) and an even one at the even positions (0x55)
        bits = np.zeros((4, 12, 2), dtype=np.uint8)
        bits[:, :, 0] = 1
        packed = tensor(bits).rows
        voted, ties = _vote(packed[2:6], 2, 2, 1)
        assert voted.to_bytes(4, "little") == bytes([0xAA, 0x0A, 0x55, 0x05])
        assert ties == 2 * 12
        whole, _ = _vote(packed, 2, 2, 0)
        assert whole.to_bytes(8, "little")[2:6] == voted.to_bytes(4, "little")

    def test_three_hundred_repeats_use_nine_planes(self):
        # totals reach 300, which takes 9 bits; the chosen totals sit at the
        # tie (150) and around 256, where a counter one plane short would wrap
        rng = np.random.default_rng(7)
        devices, positions, repeats = 6, 21, 300
        totals = rng.choice([0, 1, 149, 150, 151, 255, 256, 257, 299, 300],
                            size=(devices, positions))
        order = rng.random((devices, positions, repeats)).argsort(axis=2)
        bits = (order < totals[:, :, None]).astype(np.uint8)
        assert (bits.sum(axis=2) == totals).all()
        assert vote_in_blocks(bits, [1, 4]) == per_cell_rule(bits)


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

    def test_counts_are_a_read_only_int64_array(self):
        c = count_ones(NoiseFreeResponse(bits=np.ones((3, 9), dtype=bool), tie_count=0))
        assert c.ones.dtype == np.int64 and not c.ones.flags.writeable
        assert (c.ones + c.ones).tolist() == [6] * 9

    @pytest.mark.parametrize("block_bytes", [special._BLOCK_BYTES, 32, 96],
                             ids=["one-block", "1-device-blocks", "3-device-blocks"])
    def test_bruteforce_recount_at_full_size(self, monkeypatch, block_bytes):
        # 600 devices of 32-byte rows in one block, or in 600 or 200 blocks;
        # the share of 1s rises from 0 to 1 across positions, so counts up to
        # 600 take 10 planes, and the fold meets odd slot counts
        monkeypatch.setattr(special, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(99)
        bits = (rng.random((600, 256)) < np.linspace(0, 1, 256)).astype(np.uint8)
        c = count_ones(NoiseFreeResponse(bits=bits, tie_count=0))
        assert c.ones.tolist() == bits.sum(axis=0, dtype=np.int64).tolist()


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

    def test_sequence_becomes_a_tuple_of_ints(self):
        c = PositionCounts(devices=5, ones=[np.int64(2), 3.0, True, 0])
        assert c.ones == (2, 3, 1, 0) and {type(v) for v in c.ones} == {int}
        assert c.positions == 4

    def test_array_stays_a_read_only_int64_array(self):
        c = PositionCounts(devices=5, ones=np.array([2.0, 5.0]))
        assert c.ones.dtype == np.int64 and not c.ones.flags.writeable
        assert (c.ones + c.ones).tolist() == [4, 10]

    @pytest.mark.parametrize("ones", [[1.5], ["2"], [float("nan")], [None], np.array([1.5]),
                                      [], np.array([], dtype=np.int64), 3, np.zeros((2, 2))])
    def test_rejects_counts_that_are_not_a_sequence_of_integers(self, ones):
        with pytest.raises(DomainError):
            PositionCounts(devices=5, ones=ones)

    @pytest.mark.parametrize("ones", [np.array(["1", "2"]), np.array([1 + 0j]),
                                      np.array([None, 1], dtype=object)],
                             ids=["str", "complex", "object"])
    def test_array_counts_are_checked_as_a_sequence_is(self, ones):
        for given in (ones, ones.tolist()):
            with pytest.raises(DomainError, match="^counts must be integers$"):
                PositionCounts(devices=5, ones=given)

    @pytest.mark.parametrize("devices", [2.5, "3", None, 0])
    def test_rejects_device_count_that_is_not_a_positive_integer(self, devices):
        with pytest.raises(DomainError, match="devices must be"):
            PositionCounts(devices=devices, ones=[1, 2])
