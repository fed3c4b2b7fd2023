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

Both measurement encodings parse to the binary format's packed rows as
bytes, the layout a `MeasurementTensor` holds and `response._count_voted`
votes, with no numpy.  A binary file's rows are a view of the bytes read.  A
CSV line as the writer emits it (0/1 at the even byte offsets, commas at the
odd ones) is packed with one ``int(symbols[::-1], 2)`` on its bytes; any other
line is decoded and checked field by field, which builds the error message.
``load_counts`` gives a tuple of ints.
"""

import os

from .errors import FormatError
from .response import MeasurementTensor, PositionCounts, _count_voted

MAGIC = b"PUFB"
VERSION = 1
_HEADER_LEN = 4 + 1 + 12  # magic, version, three uint32 dims


def _read(source) -> bytes:
    if hasattr(source, "read"):
        return source.read()
    with open(os.fspath(source), "rb") as f:
        return f.read()


def _write(dest, blob: bytes) -> None:
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        with open(os.fspath(dest), "wb") as f:
            f.write(blob)


def _measurement_rows(source) -> tuple[bytes | memoryview, int, int, int]:
    """Check a measurement file; return its packed rows, N, T and M.

    The binary format is detected by its magic bytes; everything else is
    parsed as text CSV.
    """
    payload = _read(source)
    parse = _binary_rows if payload[:4] == MAGIC else _csv_rows
    return parse(payload)


def load_measurements(source) -> MeasurementTensor:
    """Read a measurement tensor from a path or binary file object.

    A binary file's rows are wrapped, not copied.
    """
    rows, _, positions, repeats = _measurement_rows(source)
    return MeasurementTensor(_packed=(rows, positions, repeats))


def load_measurement_counts(source) -> tuple[PositionCounts, int, int]:
    """Read a measurement file straight to ``(counts, repeats, tie_count)``:
    what ``count_ones(derive_noise_free_response(load_measurements(f)))``
    gives, voted one block of devices at a time without numpy, so that for a
    binary file peak memory is about the file size plus one block.  The
    counts are a tuple of ints."""
    return _count_voted(*_measurement_rows(source))


def write_measurements(m: MeasurementTensor, dest, fmt: str = "csv") -> None:
    """Write a measurement tensor as ``csv`` or ``binary``."""
    import numpy as np

    if fmt == "csv":
        # digits in the even columns, commas between, a newline in the last
        rows = np.unpackbits(m.rows, axis=1, count=m.positions, bitorder="little")
        grid = np.full((rows.shape[0], 2 * m.positions), ord(","), dtype=np.uint8)
        grid[:, ::2] = rows + ord("0")
        grid[:, -1] = ord("\n")
        blob = f"{m.devices},{m.positions},{m.repeats}\n".encode("ascii") + grid.tobytes()
    elif fmt == "binary":
        blob = (MAGIC + bytes([VERSION]) + m.devices.to_bytes(4, "little")
                + m.positions.to_bytes(4, "little") + m.repeats.to_bytes(4, "little")
                + m.rows.tobytes())
    else:
        raise FormatError(f"unknown measurement format {fmt!r}, expected 'csv' or 'binary'")
    _write(dest, blob)


def _csv_rows(payload: bytes) -> tuple[bytes, int, int, int]:
    """Check a CSV measurement file; return its N*M rows of ceil(T/8) bytes,
    packed a line at a time, N, T and M."""
    try:
        payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {exc.start}: not a text measurement file") from None
    if not payload:
        raise FormatError("line 1: empty file, expected header 'N,T,M'")
    # only "\n" ends a line (no UTF-8 sequence holds its byte); strip() takes
    # the "\r" of a CRLF.  A line is decoded only where text rules apply.
    lines = payload.split(b"\n")
    dims = _parse_int_fields(lines[0].decode(), 3, 1, "N,T,M")
    devices, positions, repeats = dims
    if min(dims) < 1:
        raise FormatError("line 1: dimensions must all be >= 1")
    expected = devices * repeats
    data_lines = lines[1:]
    while data_lines and not data_lines[-1].decode().strip():
        data_lines.pop()
    if len(data_lines) < expected:
        raise FormatError(
            f"line {len(data_lines) + 2}: truncated payload, expected {expected} data lines, "
            f"found {len(data_lines)}")
    if len(data_lines) > expected:
        raise FormatError(
            f"line {expected + 2}: dimension mismatch, expected exactly {expected} data lines")
    # rows of checked lines only, so a header alone never sizes an allocation
    row_bytes = (positions + 7) // 8
    rows = []
    for row, line in enumerate(data_lines):
        symbols = line[::2]
        if not (len(line) == 2 * positions - 1 and line[1::2].count(b",") == positions - 1
                and not symbols.translate(None, b"01")):
            fields = [token.strip() for token in line.decode().split(",")]
            if len(fields) != positions:
                raise FormatError(
                    f"line {row + 2}: expected {positions} values, found {len(fields)}")
            if not {"0", "1"}.issuperset(fields):
                col, token = next((c, t) for c, t in enumerate(fields) if t not in ("0", "1"))
                raise FormatError(
                    f"line {row + 2}: non-binary symbol {token!r} in field {col + 1}")
            symbols = "".join(fields)
        # the first symbol is bit 0 of the row
        rows.append(int(symbols[::-1], 2).to_bytes(row_bytes, "little"))
    return b"".join(rows), devices, positions, repeats


def _binary_rows(payload: bytes) -> tuple[memoryview, int, int, int]:
    """Check a binary measurement file; return its N*M packed rows of
    ceil(T/8) bytes, a view of the payload, N, T and M."""
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
    if positions % 8:
        # the padding bits are the high bits of each row's last byte; the
        # table maps a byte to 1 when any of them is set
        table = bytes(b >> positions % 8 != 0 for b in range(256))
        bad = payload[_HEADER_LEN + row_bytes - 1::row_bytes].translate(table).find(1)
        if bad >= 0:
            offset = _HEADER_LEN + bad * row_bytes + positions // 8
            raise FormatError(f"byte {offset}: nonzero padding bits")
    return memoryview(payload)[_HEADER_LEN:], devices, positions, repeats


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
    return PositionCounts(devices=devices, ones=ones)


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
