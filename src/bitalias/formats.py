"""Measurement and count file formats.

Two interchangeable encodings carry raw measurement tensors:

* text CSV: a header line ``N,T,M``, then one line per (device, repeat) pair,
  device-major with repeats in order, each line holding T comma-separated
  0/1 symbols;
* binary: magic ``PUFB``, version byte 0x01, three little-endian uint32 dims
  N, T, M, then one row of ceil(T/8) bytes per (device, repeat) pair in the
  same order, bits packed least-significant-bit first and zero-padded to the
  byte boundary.

A third, pre-counted format carries just the sufficient statistic: a header
line ``N,T`` and one line of T comma-separated counts of 1s.  All formats are
version 1; parsers reject anything else with an error naming the offending
line or byte offset.  The text parsers accept whitespace around fields, CRLF
line ends and trailing blank lines; the writers never emit them.  Only
``"\n"`` ends a line.

Both measurement encodings parse to the binary format's packed rows, the
layout a `MeasurementTensor` holds, so no path from file to vote unpacks a
file's bits to one byte per symbol: a CSV file is packed a line at a time, and
a binary file's rows are a view of the bytes read.
"""

from pathlib import Path

import numpy as np

from .errors import FormatError
from .response import MeasurementTensor, PositionCounts, _count_voted

MAGIC = b"PUFB"
VERSION = 1
_HEADER_LEN = 4 + 1 + 12  # magic, version, three uint32 dims
_ZERO = ord("0")


def _read(source) -> bytes:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_bytes()


def _write(dest, blob: bytes) -> None:
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        Path(dest).write_bytes(blob)


def load_measurements(source) -> MeasurementTensor:
    """Read a measurement tensor from a path or binary file object.

    The binary format is detected by its magic bytes; everything else is
    parsed as text CSV.  A binary file's rows are wrapped, not copied.
    """
    payload = _read(source)
    parse = _binary_rows if payload[:4] == MAGIC else _csv_rows
    return MeasurementTensor(_packed=parse(payload))


def load_measurement_counts(source) -> tuple[PositionCounts, int, int]:
    """Read a measurement file straight to ``(counts, repeats, tie_count)``:
    what ``count_ones(derive_noise_free_response(load_measurements(f)))``
    gives, voted one block of devices at a time, so that for a binary file
    peak memory is about the file size plus one block."""
    return _count_voted(load_measurements(source))


def write_measurements(m: MeasurementTensor, dest, fmt: str = "csv") -> None:
    """Write a measurement tensor as ``csv`` or ``binary``."""
    if fmt == "csv":
        # digits in the even columns, commas between, a newline in the last
        rows = np.unpackbits(m.rows, axis=1, count=m.positions, bitorder="little")
        grid = np.full((rows.shape[0], 2 * m.positions), ord(","), dtype=np.uint8)
        grid[:, ::2] = rows + _ZERO
        grid[:, -1] = ord("\n")
        blob = f"{m.devices},{m.positions},{m.repeats}\n".encode("ascii") + grid.tobytes()
    elif fmt == "binary":
        blob = (MAGIC + bytes([VERSION]) + m.devices.to_bytes(4, "little")
                + m.positions.to_bytes(4, "little") + m.repeats.to_bytes(4, "little")
                + m.rows.tobytes())
    else:
        raise FormatError(f"unknown measurement format {fmt!r}, expected 'csv' or 'binary'")
    _write(dest, blob)


def _csv_rows(payload: bytes) -> tuple[np.ndarray, int, int]:
    """Check a CSV measurement file; return its (N*M, ceil(T/8)) rows, packed
    a line at a time, T and M."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {exc.start}: not a text measurement file") from None
    if not text:
        raise FormatError("line 1: empty file, expected header 'N,T,M'")
    # only "\n" ends a line; strip() takes the "\r" of a CRLF
    lines = text.split("\n")
    dims = _parse_int_fields(lines[0], 3, 1, "N,T,M")
    devices, positions, repeats = dims
    if min(dims) < 1:
        raise FormatError("line 1: dimensions must all be >= 1")
    expected = devices * repeats
    data_lines = lines[1:]
    while data_lines and not data_lines[-1].strip():
        data_lines.pop()
    if len(data_lines) < expected:
        raise FormatError(
            f"line {len(data_lines) + 2}: truncated payload, expected {expected} data lines, "
            f"found {len(data_lines)}")
    if len(data_lines) > expected:
        raise FormatError(
            f"line {expected + 2}: dimension mismatch, expected exactly {expected} data lines")
    # rows of checked lines only, so a header alone never sizes an allocation
    rows = []
    for row, line in enumerate(data_lines):
        fields = [token.strip() for token in line.split(",")]
        if len(fields) != positions:
            raise FormatError(
                f"line {row + 2}: expected {positions} values, found {len(fields)}")
        if not {"0", "1"}.issuperset(fields):
            col, token = next((c, t) for c, t in enumerate(fields) if t not in ("0", "1"))
            raise FormatError(f"line {row + 2}: non-binary symbol {token!r} in field {col + 1}")
        # the low bit of "0" is 0 and of "1" is 1
        symbols = np.frombuffer("".join(fields).encode("ascii"), dtype=np.uint8)
        rows.append(np.packbits(symbols & 1, bitorder="little"))
    return np.stack(rows), positions, repeats


def _binary_rows(payload: bytes) -> tuple[np.ndarray, int, int]:
    """Check a binary measurement file; return its (N*M, ceil(T/8)) packed
    rows, a view of the payload, T and M."""
    if len(payload) < _HEADER_LEN:
        raise FormatError(f"byte {len(payload)}: truncated header, need {_HEADER_LEN} bytes")
    if payload[4] != VERSION:
        raise FormatError(f"byte 4: unsupported version {payload[4]}, expected {VERSION}")
    devices = int.from_bytes(payload[5:9], "little")
    positions = int.from_bytes(payload[9:13], "little")
    repeats = int.from_bytes(payload[13:17], "little")
    if min(devices, positions, repeats) < 1:
        raise FormatError("byte 5: dimensions must all be >= 1")
    row_bytes = (positions + 7) // 8
    rows = devices * repeats
    body = len(payload) - _HEADER_LEN
    if body < rows * row_bytes:
        raise FormatError(
            f"byte {len(payload)}: truncated payload, expected "
            f"{rows * row_bytes} bit-packed bytes, found {body}")
    if body > rows * row_bytes:
        raise FormatError(
            f"byte {_HEADER_LEN + rows * row_bytes}: trailing data after bit payload")
    packed = np.frombuffer(payload, dtype=np.uint8, offset=_HEADER_LEN).reshape(rows, row_bytes)
    if positions % 8:
        # the padding bits are the high bits of each row's last byte
        bad_rows = np.flatnonzero(packed[:, -1] >> (positions % 8))
        if bad_rows.size:
            offset = _HEADER_LEN + int(bad_rows[0]) * row_bytes + positions // 8
            raise FormatError(f"byte {offset}: nonzero padding bits")
    return packed, positions, repeats


def load_counts(source) -> PositionCounts:
    """Read a pre-counted (counts of 1s, device count) file."""
    try:
        text = _read(source).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {exc.start}: not a text counts file") from None
    # (line number in the file, text) of the non-blank lines
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise FormatError("line 1: empty file, expected header 'N,T'")
    head, header = lines[0]
    devices, positions = _parse_int_fields(header, 2, head, "N,T")
    if devices < 1 or positions < 1:
        raise FormatError(f"line {head}: dimensions must all be >= 1")
    if len(lines) < 2:
        raise FormatError(f"line {head + 1}: truncated payload, expected one line of counts")
    if len(lines) > 2:
        raise FormatError(
            f"line {lines[2][0]}: dimension mismatch, expected exactly one line of counts")
    row, line = lines[1]
    fields = line.split(",")
    if len(fields) != positions:
        raise FormatError(f"line {row}: expected {positions} values, found {len(fields)}")
    ones = []
    for col, token in enumerate(fields):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise FormatError(
                f"line {row}: non-integer count {token!r} in field {col + 1}") from None
        if not 0 <= value <= devices:
            raise FormatError(f"line {row}: count {value} in field {col + 1} outside 0..{devices}")
        ones.append(value)
    return PositionCounts(devices=devices, ones=np.array(ones, dtype=np.int64))


def write_counts(c: PositionCounts, dest) -> None:
    """Write pre-counted sufficient statistics."""
    blob = (f"{c.devices},{c.positions}\n"
            + ",".join(str(int(v)) for v in c.ones) + "\n").encode("ascii")
    _write(dest, blob)


def _parse_int_fields(line: str, count: int, lineno: int, shape: str) -> tuple[int, ...]:
    fields = line.split(",")
    if len(fields) != count:
        raise FormatError(f"line {lineno}: malformed header, expected '{shape}'")
    values = []
    for token in fields:
        try:
            values.append(int(token.strip()))
        except ValueError:
            raise FormatError(
                f"line {lineno}: malformed header, non-integer {token.strip()!r}") from None
    return tuple(values)
