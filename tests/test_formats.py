import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitalias import formats
from bitalias.errors import FormatError
from bitalias.formats import (load_counts, load_measurement_counts, load_measurements,
                              write_counts, write_measurements)
from bitalias.response import (MeasurementTensor, PositionCounts, count_ones,
                               derive_noise_free_response)


def _binary_header(devices, positions, repeats, version=1):
    return b"PUFB" + bytes([version]) + devices.to_bytes(4, "little") \
        + positions.to_bytes(4, "little") + repeats.to_bytes(4, "little")


# (loader, file bytes, exact FormatError message or the parsed result)
FILE_CASES = [
    # text measurements
    (load_measurements, b"1,2,1\n\xff,1\n", "byte 6: not a text measurement file"),
    (load_measurements, b"", "line 1: empty file, expected header 'N,T,M'"),
    (load_measurements, b"\n\n", "line 1: malformed header, expected 'N,T,M'"),
    (load_measurements, b"banana\n0,1\n", "line 1: malformed header, expected 'N,T,M'"),
    (load_measurements, b"1,2\n0,1\n", "line 1: malformed header, expected 'N,T,M'"),
    (load_measurements, b"1,x,1\n0,1\n", "line 1: malformed header, non-integer 'x'"),
    (load_measurements, b"1,,1\n0,1\n", "line 1: malformed header, non-integer ''"),
    (load_measurements, b"0,2,1\n", "line 1: dimensions must all be >= 1"),
    (load_measurements, b"1,-2,1\n", "line 1: dimensions must all be >= 1"),
    (load_measurements, b"2,2,1\n0,1\n",
     "line 3: truncated payload, expected 2 data lines, found 1"),
    (load_measurements, b"2,2,1\n0,1\n\n",
     "line 3: truncated payload, expected 2 data lines, found 1"),
    (load_measurements, b"1,2,1\n", "line 2: truncated payload, expected 1 data lines, found 0"),
    (load_measurements, b"1,2,1\n0,1\n1,1\n",
     "line 3: dimension mismatch, expected exactly 1 data lines"),
    (load_measurements, b"2,2,1\n0,1\n\n1,1\n",
     "line 4: dimension mismatch, expected exactly 2 data lines"),
    (load_measurements, b"1,3,1\n0,1,0,1\n", "line 2: expected 3 values, found 4"),
    (load_measurements, b"1,3,1\n0,1\n", "line 2: expected 3 values, found 2"),
    (load_measurements, b"1,2,2\n0,1\n0,2\n", "line 3: non-binary symbol '2' in field 2"),
    (load_measurements, b"1,2,1\n1,1\x00\n", "line 2: non-binary symbol '1\\x00' in field 2"),
    (load_measurements, "1,2,1\n1,\u0661\n".encode(),
     "line 2: non-binary symbol '\u0661' in field 2"),
    (load_measurements, b"1,2,1\n01,1\n", "line 2: non-binary symbol '01' in field 1"),
    (load_measurements, b"1,2,1\n1,\n", "line 2: non-binary symbol '' in field 2"),
    (load_measurements, b"1,2,1\n+1,0\n", "line 2: non-binary symbol '+1' in field 1"),
    (load_measurements, b"1,2,1\n1,1 0\n", "line 2: non-binary symbol '1 0' in field 2"),
    (load_measurements, b"1,2,1\r\n0,1\r\n", [[[0], [1]]]),
    (load_measurements, b" 1 , 2 ,1\n 0 ,\t1 \n", [[[0], [1]]]),
    (load_measurements, b"1,2,1\n0,1\n\n  \n", [[[0], [1]]]),
    (load_measurements, b"PUF", "line 1: malformed header, expected 'N,T,M'"),
    # binary measurements
    (load_measurements, b"PUFB\x01\x00\x00\x00", "byte 8: truncated header, need 17 bytes"),
    (load_measurements, _binary_header(0, 0, 0, version=2),
     "byte 4: unsupported version 2, expected 1"),
    (load_measurements, _binary_header(0, 3, 1), "byte 5: dimensions must all be >= 1"),
    (load_measurements, _binary_header(2, 2, 2) + b"\x00",
     "byte 18: truncated payload, expected 4 bit-packed bytes, found 1"),
    (load_measurements, _binary_header(1, 3, 1) + b"\x00\x00",
     "byte 18: trailing data after bit payload"),
    (load_measurements, _binary_header(1, 3, 1) + bytes([0b1000]),
     "byte 17: nonzero padding bits"),
    (load_measurements, _binary_header(2, 9, 1) + bytes([0, 0, 0, 2]),
     "byte 20: nonzero padding bits"),
    (load_measurements, _binary_header(1, 9, 2) + bytes([0xff, 1, 0xff, 1]), [[[1, 1]] * 9]),
    # counts
    (load_counts, b"5,2\n\xff\n", "byte 4: not a text counts file"),
    (load_counts, b"", "line 1: empty file, expected header 'N,T'"),
    (load_counts, b" \n", "line 1: empty file, expected header 'N,T'"),
    (load_counts, b"5\n1\n", "line 1: malformed header, expected 'N,T'"),
    (load_counts, b"5,y\n1\n", "line 1: malformed header, non-integer 'y'"),
    (load_counts, b"0,2\n1,1\n", "line 1: dimensions must all be >= 1"),
    (load_counts, b"5,2\n", "line 2: truncated payload, expected one line of counts"),
    (load_counts, b"5,2\n1,1\n1,1\n",
     "line 3: dimension mismatch, expected exactly one line of counts"),
    (load_counts, b"5,3\n1,2\n", "line 2: expected 3 values, found 2"),
    (load_counts, b"5,2\n3,x\n", "line 2: non-integer count 'x' in field 2"),
    (load_counts, b"5,2\n3,\n", "line 2: non-integer count '' in field 2"),
    (load_counts, b"5,2\n3,6\n", "line 2: count 6 in field 2 outside 0..5"),
    (load_counts, b"5,2\n3,-1\n", "line 2: count -1 in field 2 outside 0..5"),
    (load_counts, b"5,2\n9,x\n", "line 2: count 9 in field 1 outside 0..5"),
    (load_counts, "5,2\n\u0661,+2\n".encode(), (5, [1, 2])),
    (load_counts, b"5,2\r\n 3 ,\t5\r\n\n", (5, [3, 5])),
    (load_counts, b"5,2\n\n3,5\n", (5, [3, 5])),
    # pytest names the cases without a message by list position, so new
    # cases go last
    (load_measurements, b"3,2,1\n0,1\n1,0\n\n \r\n\n",
     "line 4: truncated payload, expected 3 data lines, found 2"),
    (load_measurements, _binary_header(3, 9, 2) + bytes(11) + bytes([2]),
     "byte 28: nonzero padding bits"),
    (load_measurements, _binary_header(3, 9, 2) + bytes(5) + bytes([4]) + bytes(5) + bytes([2]),
     "byte 22: nonzero padding bits"),
    # counts files name the line as it stands in the file, blank lines included
    (load_counts, b"2,2\n\n\n0,x\n", "line 4: non-integer count 'x' in field 2"),
    (load_counts, b"2,2\n0,1\n\n5\n",
     "line 4: dimension mismatch, expected exactly one line of counts"),
]


@pytest.mark.parametrize("loader, blob, outcome", FILE_CASES)
def test_parser_outcomes_are_exact(loader, blob, outcome):
    if isinstance(outcome, str):
        with pytest.raises(FormatError) as info:
            loader(io.BytesIO(blob))
        assert str(info.value) == outcome
    elif loader is load_counts:
        c = loader(io.BytesIO(blob))
        assert (c.devices, c.ones.tolist()) == outcome
    else:
        assert loader(io.BytesIO(blob)).bits.tolist() == outcome


def tensor_path(blob: bytes) -> tuple[PositionCounts, int, int]:
    """What `load_measurement_counts` must return, by way of the whole tensor."""
    m = load_measurements(io.BytesIO(blob))
    response = derive_noise_free_response(m)
    return count_ones(response), m.repeats, response.tie_count


def assert_same_counts(got, expected):
    (counts, repeats, ties), (want, want_repeats, want_ties) = got, expected
    assert counts.devices == want.devices
    assert counts.ones.tolist() == want.ones.tolist()
    assert (repeats, ties) == (want_repeats, want_ties)


@pytest.mark.parametrize("blob, outcome", [
    (blob, outcome) for loader, blob, outcome in FILE_CASES if loader is load_measurements])
def test_streamed_counts_give_the_same_outcome(blob, outcome):
    if isinstance(outcome, str):
        with pytest.raises(FormatError) as info:
            load_measurement_counts(io.BytesIO(blob))
        assert str(info.value) == outcome
    else:
        assert_same_counts(load_measurement_counts(io.BytesIO(blob)), tensor_path(blob))


@given(devices=st.integers(1, 40), positions=st.integers(1, 29), repeats=st.integers(1, 6),
       block_bytes=st.integers(1, 300), fmt=st.sampled_from(["csv", "binary"]),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_counts_match_tensor_path(devices, positions, repeats, block_bytes, fmt,
                                           seed):
    # a small block budget splits the devices over many blocks, one device
    # each when a device alone is over budget
    rng = np.random.default_rng(seed)
    m = MeasurementTensor(bits=rng.integers(0, 2, size=(devices, positions, repeats),
                                            dtype=np.uint8))
    buf = io.BytesIO()
    write_measurements(m, buf, fmt=fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_BLOCK_BYTES", block_bytes)
        got = load_measurement_counts(io.BytesIO(buf.getvalue()))
    assert_same_counts(got, tensor_path(buf.getvalue()))


def roundtrip(m: MeasurementTensor, fmt: str) -> MeasurementTensor:
    buf = io.BytesIO()
    write_measurements(m, buf, fmt=fmt)
    buf.seek(0)
    return load_measurements(buf)


class TestCsvFormat:
    def test_minimal_file(self):
        m = load_measurements(io.BytesIO(b"1,2,1\n0,1\n"))
        assert (m.devices, m.positions, m.repeats) == (1, 2, 1)
        assert list(m.bits[0, :, 0]) == [0, 1]

    def test_row_order_is_device_major(self):
        # device 0 repeats first, then device 1
        blob = b"2,2,2\n0,0\n1,1\n0,1\n1,0\n"
        m = load_measurements(io.BytesIO(blob))
        assert list(m.bits[0, :, 0]) == [0, 0]
        assert list(m.bits[0, :, 1]) == [1, 1]
        assert list(m.bits[1, :, 0]) == [0, 1]
        assert list(m.bits[1, :, 1]) == [1, 0]

    def test_wrong_value_count_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            load_measurements(io.BytesIO(b"1,3,1\n0,1,0,1\n"))

    def test_non_binary_symbol_names_line_and_field(self):
        with pytest.raises(FormatError, match="line 3.*field 2"):
            load_measurements(io.BytesIO(b"1,2,2\n0,1\n0,2\n"))

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="line 1"):
            load_measurements(io.BytesIO(b"banana\n0,1\n"))

    def test_truncated_payload(self):
        with pytest.raises(FormatError, match="truncated"):
            load_measurements(io.BytesIO(b"2,2,1\n0,1\n"))

    def test_extra_rows_rejected(self):
        with pytest.raises(FormatError, match="dimension mismatch"):
            load_measurements(io.BytesIO(b"1,2,1\n0,1\n1,1\n"))

    def test_zero_dimension_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            load_measurements(io.BytesIO(b"0,2,1\n"))


class TestBinaryFormat:
    def test_layout_is_bit_exact(self):
        # one device, 9 positions, one repeat: 9 bits pack into 2 bytes LSB-first
        bits = np.array([[[1], [0], [0], [1], [0], [0], [0], [0], [1]]], dtype=np.uint8)
        buf = io.BytesIO()
        write_measurements(MeasurementTensor(bits=bits), buf, fmt="binary")
        blob = buf.getvalue()
        assert blob[:4] == b"PUFB"
        assert blob[4] == 1
        assert blob[5:17] == (1).to_bytes(4, "little") + (9).to_bytes(4, "little") \
            + (1).to_bytes(4, "little")
        assert blob[17:] == bytes([0b00001001, 0b00000001])

    def test_unsupported_version(self):
        blob = b"PUFB\x02" + b"\x00" * 12
        with pytest.raises(FormatError, match="byte 4"):
            load_measurements(io.BytesIO(blob))

    def test_truncated_payload_names_offset(self):
        blob = b"PUFB\x01" + (2).to_bytes(4, "little") * 3 + b"\x00"
        with pytest.raises(FormatError, match="truncated payload"):
            load_measurements(io.BytesIO(blob))

    def test_trailing_data_rejected(self):
        bits = np.zeros((1, 3, 1), dtype=np.uint8)
        buf = io.BytesIO()
        write_measurements(MeasurementTensor(bits=bits), buf, fmt="binary")
        with pytest.raises(FormatError, match="trailing data"):
            load_measurements(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_nonzero_padding_rejected(self):
        # 3 positions leave 5 pad bits; set one of them
        header = b"PUFB\x01" + (1).to_bytes(4, "little") + (3).to_bytes(4, "little") \
            + (1).to_bytes(4, "little")
        with pytest.raises(FormatError, match="padding"):
            load_measurements(io.BytesIO(header + bytes([0b1000])))


class TestRoundTrips:
    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["csv", "binary"]))
    def test_random_tensor_roundtrip(self, seed, fmt):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        t = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        m = MeasurementTensor(bits=rng.integers(0, 2, size=(n, t, k), dtype=np.uint8))
        back = roundtrip(m, fmt)
        assert (back.bits == m.bits).all()

    def test_large_binary_roundtrip(self):
        rng = np.random.default_rng(1)
        m = MeasurementTensor(bits=rng.integers(0, 2, size=(100, 1024, 9), dtype=np.uint8))
        assert (roundtrip(m, "binary").bits == m.bits).all()

    def test_file_paths(self, tmp_path):
        rng = np.random.default_rng(2)
        m = MeasurementTensor(bits=rng.integers(0, 2, size=(4, 16, 3), dtype=np.uint8))
        for fmt, name in (("csv", "m.csv"), ("binary", "m.puf")):
            path = tmp_path / name
            write_measurements(m, path, fmt=fmt)
            assert (load_measurements(path).bits == m.bits).all()

    def test_csv_bytes_match_symbol_loop(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(3, 7, 2), dtype=np.uint8)
        expected = "3,7,2\n" + "".join(
            ",".join(str(b) for b in bits[n, :, k]) + "\n"
            for n in range(3) for k in range(2))
        buf = io.BytesIO()
        write_measurements(MeasurementTensor(bits=bits), buf, fmt="csv")
        assert buf.getvalue() == expected.encode("ascii")

    def test_write_is_byte_stable(self):
        rng = np.random.default_rng(3)
        m = MeasurementTensor(bits=rng.integers(0, 2, size=(3, 9, 2), dtype=np.uint8))
        blobs = []
        for _ in range(2):
            buf = io.BytesIO()
            write_measurements(m, buf, fmt="binary")
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]


class TestCountsFormat:
    def test_roundtrip(self):
        c = PositionCounts(devices=50, ones=np.array([0, 25, 50, 7]))
        buf = io.BytesIO()
        write_counts(c, buf)
        buf.seek(0)
        back = load_counts(buf)
        assert back.devices == 50
        assert list(back.ones) == [0, 25, 50, 7]

    def test_count_above_devices_rejected(self):
        with pytest.raises(FormatError, match="outside"):
            load_counts(io.BytesIO(b"5,2\n3,6\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(FormatError, match="non-integer"):
            load_counts(io.BytesIO(b"5,2\n3,x\n"))

    def test_wrong_arity_rejected(self):
        with pytest.raises(FormatError, match="expected 3 values"):
            load_counts(io.BytesIO(b"5,3\n1,2\n"))
