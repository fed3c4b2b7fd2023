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
votes, with no numpy.  A tensor's rows are a view of a binary file's bytes;
counting one reads it a block of devices at a time into one buffer.  A CSV
line as the writer emits it (0/1 at the even byte offsets, commas at the
odd ones) is packed with one ``int(symbols[::-1], 2)`` on its bytes; any other
line is decoded and checked field by field, which builds the error message.
``load_counts`` gives a tuple of ints.
"""

import io
import os

from .errors import FormatError
from .response import MeasurementTensor, PositionCounts, _block_bytes, _blocks, _count_voted

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


def load_measurements(source) -> MeasurementTensor:
    """Read a measurement tensor from a path or binary file object; a binary
    file's rows are wrapped, not copied."""
    payload = _read(source)
    if payload[:4] != MAGIC:
        rows, _, positions, repeats = _csv_rows(payload)
    else:
        _, positions, repeats = _binary_dims(payload[:_HEADER_LEN], len(payload))
        rows = memoryview(payload)[_HEADER_LEN:]
        _check_padding(rows, positions, _HEADER_LEN)
    return MeasurementTensor(_packed=(rows, positions, repeats))


def load_measurement_counts(source) -> tuple[PositionCounts, int, int]:
    """Read a measurement file straight to ``(counts, repeats, tie_count)``:
    what ``count_ones(derive_noise_free_response(load_measurements(f)))``
    gives, voted one block of devices at a time without numpy.  A binary file
    is read a block at a time, after its header and size are checked, so peak
    memory is about one block plus the counts; a CSV file, or a source that
    cannot seek, is read whole."""
    if not hasattr(source, "read"):
        with open(os.fspath(source), "rb") as f:
            return load_measurement_counts(f)
    if not (hasattr(source, "seekable") and source.seekable()):
        source = io.BytesIO(source.read())
    start = source.tell()
    head = source.read(_HEADER_LEN)
    if head[:4] == MAGIC:
        dims = _binary_dims(head, source.seek(0, os.SEEK_END) - start)
        source.seek(start + _HEADER_LEN)
        return _count_voted(_read_blocks(source, head, *dims), *dims)
    rows, *dims = _csv_rows(head + source.read())
    return _count_voted(_blocks(rows, *dims[1:]), *dims)


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


def _binary_dims(head: bytes, size: int) -> tuple[int, int, int]:
    """Check a binary measurement file's header and size; return N, T and M."""
    if size < _HEADER_LEN:
        raise FormatError(f"byte {size}: truncated header, need {_HEADER_LEN} bytes")
    if head[4] != VERSION:
        raise FormatError(f"byte 4: unsupported version {head[4]}, expected {VERSION}")
    devices, positions, repeats = (int.from_bytes(head[i:i + 4], "little") for i in (5, 9, 13))
    if min(devices, positions, repeats) < 1:
        raise FormatError("byte 5: dimensions must all be >= 1")
    body, expected = size - _HEADER_LEN, devices * repeats * ((positions + 7) // 8)
    if body < expected:
        raise FormatError(
            f"byte {size}: truncated payload, expected {expected} bit-packed bytes, found {body}")
    if body > expected:
        raise FormatError(f"byte {_HEADER_LEN + expected}: trailing data after bit payload")
    return devices, positions, repeats


def _check_padding(rows, positions: int, offset: int) -> None:
    """Reject the first of a binary file's rows from byte ``offset`` on with a padding bit set."""
    if positions % 8:
        # the padding bits are the high bits of each row's last byte; the
        # table maps a byte to 1 when any of them is set
        row_bytes = (positions + 7) // 8
        table = bytes(b >> positions % 8 != 0 for b in range(256))
        bad = bytes(rows[row_bytes - 1::row_bytes]).translate(table).find(1)
        if bad >= 0:
            raise FormatError(f"byte {offset + bad * row_bytes + positions // 8}: "
                              "nonzero padding bits")


def _read_blocks(f, head: bytes, devices: int, positions: int, repeats: int):
    """A checked binary file's rows, read from ``f`` after the header a block
    at a time into one buffer, each block's padding checked as it is read."""
    end = _HEADER_LEN + devices * repeats * ((positions + 7) // 8)
    step = _block_bytes(positions, repeats)
    buffer = memoryview(bytearray(min(step, end - _HEADER_LEN)))
    for offset in range(_HEADER_LEN, end, step):
        block = buffer[:min(step, end - offset)]
        got = f.readinto(block)
        if got < len(block):  # the file shrank after its size was taken: raises
            _binary_dims(head, offset + got)
        _check_padding(block, positions, offset)
        yield block


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
    fields = [token.strip() for token in line.split(",")]
    if len(fields) != positions:
        raise FormatError(f"line {row}: expected {positions} values, found {len(fields)}")
    ones = []
    for col, token in enumerate(fields, 1):
        value = _int(token)
        if value is None:
            raise FormatError(f"line {row}: non-integer count {token!r} in field {col}")
        if not 0 <= value <= devices:
            raise FormatError(f"line {row}: count {value} in field {col} outside 0..{devices}")
        ones.append(value)
    return PositionCounts(devices=devices, ones=ones)


def write_counts(c: PositionCounts, dest) -> None:
    """Write pre-counted sufficient statistics."""
    blob = (f"{c.devices},{c.positions}\n"
            + ",".join(str(int(v)) for v in c.ones) + "\n").encode("ascii")
    _write(dest, blob)


def _parse_int_fields(line: str, count: int, lineno: int, shape: str) -> tuple[int, ...]:
    fields = [token.strip() for token in line.split(",")]
    if len(fields) != count:
        raise FormatError(f"line {lineno}: malformed header, expected '{shape}'")
    for token in fields:
        if _int(token) is None:
            raise FormatError(f"line {lineno}: malformed header, non-integer {token!r}")
    return tuple(map(_int, fields))


def _int(token: str) -> int | None:
    """An optional '-' and ASCII digits as an int, else None: ``int()`` would
    also take a '+', '_' between digits and other scripts' digits."""
    digits = token[1:] if token[:1] == "-" else token
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None
