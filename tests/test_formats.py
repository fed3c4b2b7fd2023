import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitalias import special
from bitalias.errors import DomainError, FormatError
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
    (load_counts, "5,2\n\u0661,+2\n".encode(), "line 2: non-integer count '\u0661' in field 1"),
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
    # only "\n" ends a line: form feeds, file separators and a lone "\r" do not
    (load_measurements, b"2,2,1\n0\x0c,1\n0,2\n", "line 3: non-binary symbol '2' in field 2"),
    (load_counts, b"2,3\n1,\x1c2,9\n", "line 2: count 9 in field 3 outside 0..2"),
    (load_measurements, b"1,2,1\r0,1\r", "line 1: malformed header, expected 'N,T,M'"),
    (load_counts, b"5,2\r3,5\r", "line 1: malformed header, expected 'N,T'"),
    # the header alone must not size an allocation (N*M x ceil(T/8) is 227 TiB)
    (load_measurements, b"2,1000000000000000,1\n0\n0\n",
     "line 2: expected 1000000000000000 values, found 1"),
    # a binary file's size is checked before any row's padding bits
    (load_measurements, _binary_header(2, 3, 1) + bytes([0b1000]),
     "byte 18: truncated payload, expected 2 bit-packed bytes, found 1"),
    (load_measurements, _binary_header(1, 3, 1) + bytes([0b1000, 0]),
     "byte 18: trailing data after bit payload"),
    # integer fields are ASCII digits after an optional '-', which int() alone
    # does not check
    (load_counts, b"5_0,2\n1,1\n", "line 1: malformed header, non-integer '5_0'"),
    (load_counts, b"50,2\n1_0,3\n", "line 2: non-integer count '1_0' in field 1"),
    (load_counts, b"5,2\n3,+2\n", "line 2: non-integer count '+2' in field 2"),
    (load_measurements, b"1_0,2,1\n0,1\n", "line 1: malformed header, non-integer '1_0'"),
    # the writer's length and 0/1 at the even offsets, but not its commas
    (load_measurements, b"1,2,1\n0;1\n", "line 2: expected 2 values, found 1"),
    (load_measurements, b"1,3,1\n0,1 1\n", "line 2: expected 3 values, found 2"),
    # the writer's length and commas, but not its symbols
    (load_measurements, b"1,2,1\n2,1\n", "line 2: non-binary symbol '2' in field 1"),
    # a binary header is checked up to its last byte, and a header alone has
    # no payload
    (load_measurements, b"PUFB", "byte 4: truncated header, need 17 bytes"),
    (load_measurements, _binary_header(1, 1, 1)[:16], "byte 16: truncated header, need 17 bytes"),
    (load_measurements, _binary_header(1, 3, 1),
     "byte 17: truncated payload, expected 1 bit-packed bytes, found 0"),
    (load_measurements, _binary_header(1, 1, 0), "byte 5: dimensions must all be >= 1"),
    # rows are device-major in both formats: device 0's repeats, then device
    # 1's; an even repeat count makes every position a tie
    (load_measurements, b"2,2,2\n0,0\n1,1\n0,1\n1,0\n", [[[0, 1], [0, 1]], [[0, 1], [1, 0]]]),
    (load_measurements, _binary_header(2, 2, 2) + bytes([0b00, 0b11, 0b01, 0b10]),
     [[[0, 1], [0, 1]], [[1, 0], [0, 1]]]),
    # a whole byte of positions, least significant bit first, has no padding
    (load_measurements, _binary_header(1, 8, 1) + bytes([0b10100101]),
     [[[1], [0], [1], [0], [0], [1], [0], [1]]]),
    # an odd repeat count votes without ties
    (load_measurements, b"1,2,3\n0,1\n1,1\n0,1\n", [[[0, 1, 0], [1, 1, 1]]]),
    (load_measurements, b"1,2,1\n0,1", [[[0], [1]]]),
    (load_measurements, b"01,2,1\n0,1\n", [[[0], [1]]]),
    (load_measurements, b"1,2,1,\n0,1\n", "line 1: malformed header, expected 'N,T,M'"),
    (load_measurements, b"1,2,1\n0,1,\n", "line 2: expected 2 values, found 3"),
    (load_measurements, b"1,2,1\n-0,1\n", "line 2: non-binary symbol '-0' in field 1"),
    # a NUL is not white space, so its line is not blank
    (load_measurements, b"1,2,1\n0,1\n\x00\n",
     "line 3: dimension mismatch, expected exactly 1 data lines"),
    # a counts file is never read as binary, and a count may be 0 or N
    (load_counts, b"PUFB", "line 1: malformed header, expected 'N,T'"),
    (load_counts, b"5,2,1\n1,1\n", "line 1: malformed header, expected 'N,T'"),
    (load_counts, b"5,0\n\n", "line 1: dimensions must all be >= 1"),
    (load_counts, b"5,2\n3,5,\n", "line 2: expected 2 values, found 3"),
    (load_counts, b"5,3\n0,5,2\n", (5, [0, 5, 2])),
    (load_counts, b"5,2\n3,5", (5, [3, 5])),
]


@pytest.mark.parametrize("loader, blob, outcome", FILE_CASES)
def test_parser_outcomes_are_exact(loader, blob, outcome):
    if isinstance(outcome, str):
        with pytest.raises(FormatError) as info:
            loader(io.BytesIO(blob))
        assert str(info.value) == outcome
    elif loader is load_counts:
        c = loader(io.BytesIO(blob))
        assert (c.devices, list(c.ones)) == outcome
    else:
        assert loader(io.BytesIO(blob)).bits.tolist() == outcome


# not in FILE_CASES, whose test ids would spell out each long token
@pytest.mark.parametrize("where", ["header", "count", "symbol", "range", "values", "lines"])
def test_integer_longer_than_int_converts_is_malformed(where):
    # int() raises ValueError beyond its digit limit (4300 by default), which
    # is reported like any other non-integer field; every message echoes a
    # long token or number as its first 19 characters, so a line of `error:`
    # and the message stays under 80 characters, or 100 with two numbers
    d = "1" * 5000
    load, blob, message = {
        "header": (load_counts, f"{d},2\n1,1\n",
                   "line 1: malformed header, non-integer '111111111111111111…"),
        "count": (load_counts, f"5,2\n{d},3\n",
                  "line 2: non-integer count '111111111111111111… in field 1"),
        "symbol": (load_measurements, f"1,2,1\n{d[:3000]},0\n",
                   "line 2: non-binary symbol '111111111111111111… in field 1"),
        "range": (load_counts, f"5,2\n{d[:3000]},3\n",
                  "line 2: count 1111111111111111111… (3000 digits) in field 1 outside 0..5"),
        "values": (load_counts, f"1,{d[:4000]}\n1\n",
                   "line 2: expected 1111111111111111111… (4000 digits) values, found 1"),
        "lines": (load_measurements, f"{d[:4000]},1,1\n0\n", "line 3: truncated payload, "
                  "expected 1111111111111111111… (4000 digits) data lines, found 1"),
    }[where]
    with pytest.raises(FormatError) as info:
        load(io.BytesIO(blob.encode()))
    assert str(info.value) == message
    assert len(f"error: {message}") < (100 if where == "lines" else 80)


def tensor_path(blob: bytes) -> tuple[PositionCounts, int, int]:
    """What `load_measurement_counts` must return, by way of the whole tensor."""
    m = load_measurements(io.BytesIO(blob))
    response = derive_noise_free_response(m)
    return count_ones(response), m.repeats, response.tie_count


def assert_same_counts(got, expected):
    (counts, repeats, ties), (want, want_repeats, want_ties) = got, expected
    assert counts.devices == want.devices
    assert list(counts.ones) == want.ones.tolist()
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


class ReadOnly:
    """A source with only ``read()``, which cannot seek."""

    def __init__(self, blob):
        self.read = io.BytesIO(blob).read


def _sources(blob, tmp_path):
    """The blob as a path, a file object, a file object that starts after a
    prefix, and a source that cannot seek."""
    path = tmp_path / "m.puf"
    path.write_bytes(blob)
    shifted = io.BytesIO(b"junk" + blob)
    shifted.seek(4)
    return {"path": path, "bytesio": io.BytesIO(blob), "shifted": shifted,
            "read-only": ReadOnly(blob)}


@pytest.mark.parametrize("blob, outcome", [
    (blob, outcome) for loader, blob, outcome in FILE_CASES if loader is load_measurements])
def test_measurement_loads_give_the_same_outcome_from_every_source(blob, outcome, tmp_path):
    for load in (load_measurements, load_measurement_counts):
        for kind, source in _sources(blob, tmp_path).items():
            if isinstance(outcome, str):
                with pytest.raises(FormatError) as info:
                    load(source)
                assert str(info.value) == outcome, (load.__name__, kind)
            elif load is load_measurements:
                assert load(source).bits.tolist() == outcome, kind
            else:
                assert_same_counts(load(source), tensor_path(blob))


class Shrunk(io.BytesIO):
    """A file whose size, as seeking to its end reports it, is ``extra``
    bytes more than can be read: one that shrank after its size was taken."""

    def __init__(self, blob, extra):
        super().__init__(blob)
        self.extra = extra

    def seek(self, pos, whence=io.SEEK_SET):
        return super().seek(pos, whence) + (self.extra if whence == io.SEEK_END else 0)


class Rewritten(io.BytesIO):
    """A file whose bytes become ``after`` once it has been read to the end
    and sought back: one that changed between a CSV reader's two passes."""

    def __init__(self, blob, after):
        super().__init__(blob)
        self.after = after

    def seek(self, pos, whence=io.SEEK_SET):
        if self.after is not None and self.tell() == len(self.getvalue()):
            super().seek(0)
            self.truncate()
            self.write(self.after)
            self.after = None
        return super().seek(pos, whence)


@pytest.mark.parametrize("load", [load_measurements, load_measurement_counts])
@pytest.mark.parametrize("after, message", [
    # the count passes on four lines; the packing finds two, and the first
    # missing line fails its check instead of leaving a short block
    (b"2,3,2\n0,1,0\n1,1,0\n", "line 4: expected 3 values, found 1"),
    (b"2,3,2\n0,1,0\n\xff,1,0\n0,0,1\n1,0,1\n",
     "line 3: non-binary symbol '\ufffd' in field 1"),
], ids=["lines-lost", "not-utf8"])
def test_csv_loads_reject_a_file_that_changes_between_passes(load, after, message):
    blob = b"2,3,2\n0,1,0\n1,1,0\n0,0,1\n1,0,1\n"
    with pytest.raises(FormatError) as info:
        load(Rewritten(blob, after))
    assert str(info.value) == message


def test_binary_counts_reject_a_file_that_shrinks_while_read():
    # the reported size passes the size check, the read comes back short, and
    # the error is the one a file of the read size gets, not a vote of stale bytes
    blob = _binary_header(2, 9, 1) + bytes(2)
    with pytest.raises(FormatError) as info:
        load_measurement_counts(Shrunk(blob, extra=2))
    assert str(info.value) == "byte 19: truncated payload, expected 4 bit-packed bytes, found 2"


@given(devices=st.integers(1, 40), positions=st.integers(1, 29), repeats=st.integers(1, 17),
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
        mp.setattr(special, "_BLOCK_BYTES", block_bytes)
        got = load_measurement_counts(io.BytesIO(buf.getvalue()))
    assert_same_counts(got, tensor_path(buf.getvalue()))


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_counts_hold_one_block_whatever_the_device_count(tmp_path, monkeypatch, fmt):
    # four times the devices, with T and M unchanged, adds rows to read but
    # not to hold: the two peaks differ by the count planes, not the file.
    # Counts up to 256 are cached ints, so the count tuples weigh the same.
    monkeypatch.setattr(special, "_BLOCK_BYTES", 1 << 15)
    positions, repeats = 4096, 3
    rng = np.random.default_rng(10)
    peaks = []
    for devices in (64, 256):
        path = tmp_path / f"m{devices}.{fmt}"
        bits = rng.integers(0, 2, size=(devices, positions, repeats), dtype=np.uint8)
        write_measurements(MeasurementTensor(bits=bits), path, fmt=fmt)
        tracemalloc.start()
        try:
            load_measurement_counts(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < special._BLOCK_BYTES, peaks


def roundtrip(m: MeasurementTensor, fmt: str) -> MeasurementTensor:
    buf = io.BytesIO()
    write_measurements(m, buf, fmt=fmt)
    buf.seek(0)
    return load_measurements(buf)


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
        with pytest.raises(DomainError):  # test_one_message_per_rule pins the message
            write_measurements(m, tmp_path / "m.xml", fmt="xml")
        assert not (tmp_path / "m.xml").exists()

    def test_csv_bytes_match_symbol_loop(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(3, 7, 2), dtype=np.uint8)
        expected = "3,7,2\n" + "".join(
            ",".join(str(b) for b in bits[n, :, k]) + "\n"
            for n in range(3) for k in range(2))
        buf = io.BytesIO()
        write_measurements(MeasurementTensor(bits=bits), buf, fmt="csv")
        assert buf.getvalue() == expected.encode("ascii")

    def test_binary_bytes_match_bit_loop(self):
        # 13 positions leave 3 padding bits in each row's second byte
        rng = np.random.default_rng(5)
        devices, positions, repeats = 3, 13, 2
        bits = rng.integers(0, 2, size=(devices, positions, repeats), dtype=np.uint8)
        body = bytearray()
        for n in range(devices):
            for k in range(repeats):
                row = bytearray((positions + 7) // 8)
                for t in range(positions):
                    row[t // 8] |= int(bits[n, t, k]) << (t % 8)
                body += row
        buf = io.BytesIO()
        write_measurements(MeasurementTensor(bits=bits), buf, fmt="binary")
        assert buf.getvalue() == _binary_header(devices, positions, repeats) + bytes(body)

    def test_binary_load_holds_the_file_bytes(self, tmp_path):
        # the file's rows are read straight into the tensor's one buffer,
        # never unpacked, and not copied from a buffer of the whole file
        rng = np.random.default_rng(8)
        path = tmp_path / "m.puf"
        m = MeasurementTensor(bits=rng.integers(0, 2, size=(64, 4099, 3), dtype=np.uint8))
        write_measurements(m, path, fmt="binary")
        tracemalloc.start()
        try:
            back = load_measurements(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size
        assert (back.rows == m.rows).all()

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_loaded_rows_are_read_only(self, fmt):
        m = roundtrip(MeasurementTensor(bits=np.ones((2, 3, 2), dtype=np.uint8)), fmt)
        with pytest.raises(ValueError):
            m.rows[0, 0] = 0

    def test_write_is_byte_stable(self):
        rng = np.random.default_rng(3)
        m = MeasurementTensor(bits=rng.integers(0, 2, size=(3, 9, 2), dtype=np.uint8))
        blobs = []
        for _ in range(2):
            buf = io.BytesIO()
            write_measurements(m, buf, fmt="binary")
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("block_bytes", [1, 64, None])
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_written_bytes_do_not_depend_on_the_block(self, tmp_path, monkeypatch, block_bytes,
                                                      fmt):
        # 300 x 77 x 3 makes 139 KB of CSV, several default blocks, and pads
        # each row; the reference is the whole file made at once
        bits = np.random.default_rng(6).integers(0, 2, size=(300, 77, 3), dtype=np.uint8)
        m = MeasurementTensor(bits=bits)
        if fmt == "csv":
            lines = bits.transpose(0, 2, 1).reshape(-1, 77).astype(str)
            expected = ("300,77,3\n" + "".join(",".join(row) + "\n" for row in lines)).encode()
        else:
            expected = _binary_header(300, 77, 3) + m.rows.tobytes()
        if block_bytes is not None:
            monkeypatch.setattr(special, "_BLOCK_BYTES", block_bytes)
        path = tmp_path / "m"
        write_measurements(m, path, fmt=fmt)
        assert path.read_bytes() == expected

    def test_csv_writer_holds_one_span_whatever_the_device_count(self, tmp_path):
        # four times the devices, with T and M unchanged, adds lines to write
        # but not to hold
        rng = np.random.default_rng(9)
        peaks = []
        for devices in (64, 256):
            m = MeasurementTensor(bits=rng.integers(0, 2, size=(devices, 4096, 3), dtype=np.uint8))
            tracemalloc.start()
            try:
                write_measurements(m, tmp_path / f"m{devices}.csv", fmt="csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < special._BLOCK_BYTES, peaks


class TestCountsFormat:
    def test_roundtrip(self):
        c = PositionCounts(devices=50, ones=np.array([0, 25, 50, 7]))
        buf = io.BytesIO()
        write_counts(c, buf)
        buf.seek(0)
        back = load_counts(buf)
        assert back.devices == 50
        assert list(back.ones) == [0, 25, 50, 7]
