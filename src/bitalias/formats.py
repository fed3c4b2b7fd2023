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
line or byte offset.  The text parsers accept whitespace around fields and
CRLF line ends, a measurement file trailing blank lines and a counts file
blank lines anywhere; the writers never emit them.  Only ``"\n"`` ends a line.

Each measurement encoding has one reader, which gives the binary format's
packed rows (what a `MeasurementTensor` holds and `response._count_voted`
votes) a block of devices at a time, with no numpy; every block, read and
write is a `special._spans` span of about 64 KiB.  CSV lines are packed a
read at a time: when every line is as the writer emits it (0/1 at the even
byte offsets, commas at the odd ones), one slice and compare checks them all
and ``int(symbols[::-1], 2)`` packs them, one number for all the lines when
8 divides T; otherwise each line is decoded and checked field by field,
which builds the error message.  Only a source that cannot seek is read
whole.  ``load_counts`` gives a tuple of ints.

A message echoes an offending token or number through ``special._excerpt``,
so a field thousands of characters long gives a line of a few dozen.
"""

import io
import os

from . import special
from .errors import FormatError
from .response import MeasurementTensor, PositionCounts, _count_voted

MAGIC = b"PUFB"
VERSION = 1
_HEADER_LEN = 4 + 1 + 12  # magic, version, three uint32 dims


def _write(dest, blobs) -> None:
    if not hasattr(dest, "write"):
        with open(os.fspath(dest), "wb") as f:
            return _write(f, blobs)
    for blob in blobs:
        dest.write(blob)


def load_measurements(source) -> MeasurementTensor:
    """Read a measurement tensor from a path or binary file object, its rows
    read as one block: a binary file's bytes straight into them."""
    return _with_blocks(source, lambda blocks, devices, *dims: MeasurementTensor(
        _packed=(*blocks, *dims)), whole=True)


def load_measurement_counts(source) -> tuple[PositionCounts, int, int]:
    """Read a measurement file straight to ``(counts, repeats, tie_count)``:
    ``count_ones(derive_noise_free_response(load_measurements(f)))``, voted a
    block of devices at a time without numpy, in memory of about one block."""
    return _with_blocks(source, _count_voted)


def _with_blocks(source, use, whole: bool = False):
    """``use(blocks, N, T, M)`` of a measurement file's blocks of packed rows,
    as its format's reader gives them: a `_spans` span of devices each, or all
    in one if ``whole``.  A source that cannot seek is read into memory first."""
    if not hasattr(source, "read"):
        # a 64 KiB buffer halves the time to read a file's lines, against 8 KiB
        with open(os.fspath(source), "rb", buffering=special._BLOCK_BYTES) as f:
            return _with_blocks(f, use, whole)
    if not (hasattr(source, "seekable") and source.seekable()):
        source = io.BytesIO(source.read())
    start = source.tell()
    binary = source.read(4) == MAGIC
    source.seek(start)
    blocks = (_read_blocks if binary else _csv_blocks)(source, whole)
    return use(blocks, *next(blocks))


def write_measurements(m: MeasurementTensor, dest, fmt: str = "csv") -> None:
    """Write a measurement tensor as ``csv``, a span of lines at a time, or ``binary``."""
    if special._as_choice(fmt, "measurement format", ("csv", "binary")) == "csv":
        blobs = _csv_text(m)
    else:
        blobs = (MAGIC + bytes([VERSION]) + m.devices.to_bytes(4, "little")
                 + m.positions.to_bytes(4, "little") + m.repeats.to_bytes(4, "little"), m.rows)
    _write(dest, blobs)


def _csv_text(m: MeasurementTensor):
    """The CSV file of a tensor: its header, then its lines a span at a time."""
    import numpy as np

    yield f"{m.devices},{m.positions},{m.repeats}\n".encode("ascii")
    for a, b in special._spans(len(m.rows), 2 * m.positions):
        # digits in the even columns, commas between, a newline in the last
        bits = np.unpackbits(m.rows[a:b], axis=1, count=m.positions, bitorder="little")
        grid = np.full((b - a, 2 * m.positions), ord(","), dtype=np.uint8)
        grid[:, ::2] = bits + ord("0")
        grid[:, -1] = ord("\n")
        yield grid


def _csv_blocks(f, whole: bool):
    """The CSV reader, from ``f``'s position.  One pass over the lines checks
    the text, the header and the count of data lines, then (N, T, M) is
    yielded; a second packs the lines a block of devices (all if ``whole``) at
    a time, checking each.  A block grows by checked rows only, so a header
    never sizes an allocation; a line gone since the count, or no longer
    UTF-8, fails its check."""
    start, offset, header, data = f.tell(), 0, None, 0
    # only "\n" ends a line, and no UTF-8 sequence holds its byte, so the
    # first bad byte of the first bad line is the file's first bad byte
    for i, line in enumerate(f):
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"byte {offset + exc.start}: not a text measurement file") from None
        offset += len(line)
        if not i:
            header, body = text, offset
        elif not text.isspace():
            data = i  # data lines up to the last non-blank one
    if header is None:
        raise FormatError("line 1: empty file, expected header 'N,T,M'")
    devices, positions, repeats = dims = _parse_int_fields(header, 3, 1, "N,T,M")
    if min(dims) < 1:
        raise FormatError("line 1: dimensions must all be >= 1")
    lines = devices * repeats
    if data < lines:
        raise FormatError(f"line {data + 2}: truncated payload, expected "
                          f"{special._excerpt(lines)} data lines, found {data}")
    if data > lines:
        raise FormatError(
            f"line {lines + 2}: dimension mismatch, expected exactly {lines} data lines")
    f.seek(start + body)
    yield dims
    line_bytes, device = 2 * positions, repeats * ((positions + 7) // 8)
    # the commas and line ends the writer emits, against which a read's lines
    # are checked at once; it is built from a read whose length shows that T
    # is real, so the header sizes no allocation
    layout = b""
    for first, last in [(0, devices)] if whole else special._spans(devices, device):
        block = bytearray()
        for a, b in special._spans((last - first) * repeats, line_bytes):
            chunk = [f.readline() for _ in range(b - a)]
            text = b"".join(chunk)
            symbols, sized = text[::2], len(text) == len(chunk) * line_bytes
            if sized and len(layout) < len(symbols):
                layout = (b"," * (positions - 1) + b"\n") * len(chunk)
            if not sized or text[1::2] != layout[:len(symbols)] or symbols.translate(None, b"01"):
                symbols = "".join(_csv_symbols(line, i, positions)
                                  for i, line in enumerate(chunk, first * repeats + a + 2))
            # rows hold no padding bits when 8 divides T, so then the read packs
            # as one number; the first symbol is bit 0 of its row
            step = len(symbols) if positions % 8 == 0 else positions
            for i in range(0, len(symbols), step):
                block += int(symbols[i:i + step][::-1], 2).to_bytes((step + 7) // 8, "little")
        yield block


def _csv_symbols(line: bytes, lineno: int, positions: int) -> str:
    """A CSV data line's symbols, checked field by field; the error names the
    line and the first field at fault.  strip() takes the "\r" of a CRLF."""
    fields = _fields(line.rstrip(b"\n").decode(errors="replace"), positions, lineno)
    if not {"0", "1"}.issuperset(fields):
        col, token = next((c, t) for c, t in enumerate(fields) if t not in ("0", "1"))
        raise FormatError(
            f"line {lineno}: non-binary symbol {special._excerpt(token)} in field {col + 1}")
    return "".join(fields)


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


def _read_blocks(f, whole: bool):
    """The binary reader, from ``f``'s position: it checks the header and size
    and yields (N, T, M), then reads a block of devices (all if ``whole``) at a
    time, yielding each once its padding bits are checked."""
    start = f.tell()
    head = f.read(_HEADER_LEN)
    devices, positions, repeats = dims = _binary_dims(head, f.seek(0, os.SEEK_END) - start)
    f.seek(start + _HEADER_LEN)
    yield dims
    row_bytes = (positions + 7) // 8
    device = repeats * row_bytes
    # the padding bits are the high bits of each row's last byte (none when
    # 8 divides T); the table maps a byte to 1 when any of them is set
    table = bytes(b >> (positions % 8 or 8) != 0 for b in range(256))
    for first, last in [(0, devices)] if whole else special._spans(devices, device):
        size, offset = (last - first) * device, _HEADER_LEN + first * device
        block = f.read(size)
        if len(block) < size:  # the file shrank after its size was taken: raises
            _binary_dims(head, offset + len(block))
        bad = block[row_bytes - 1::row_bytes].translate(table).find(1)
        if bad >= 0:
            raise FormatError(f"byte {offset + bad * row_bytes + positions // 8}: "
                              "nonzero padding bits")
        yield block


def load_counts(source) -> PositionCounts:
    """Read a pre-counted (counts of 1s, device count) file."""
    if not hasattr(source, "read"):
        with open(os.fspath(source), "rb") as f:
            return load_counts(f)
    try:
        text = source.read().decode("utf-8")
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
    ones = []
    for col, token in enumerate(_fields(line, positions, row), 1):
        value = _int(token)
        if value is None:
            raise FormatError(
                f"line {row}: non-integer count {special._excerpt(token)} in field {col}")
        if not 0 <= value <= devices:
            raise FormatError(f"line {row}: count {special._excerpt(value)} in field {col} "
                              f"outside 0..{special._excerpt(devices)}")
        ones.append(value)
    return PositionCounts(devices=devices, ones=ones)


def write_counts(c: PositionCounts, dest) -> None:
    """Write pre-counted sufficient statistics."""
    blob = (f"{c.devices},{c.positions}\n"
            + ",".join(str(int(v)) for v in c.ones) + "\n").encode("ascii")
    _write(dest, [blob])


def _fields(text: str, count: int, lineno: int) -> list[str]:
    """A data line's ``count`` comma-separated fields, stripped."""
    fields = [token.strip() for token in text.split(",")]
    if len(fields) != count:
        raise FormatError(
            f"line {lineno}: expected {special._excerpt(count)} values, found {len(fields)}")
    return fields


def _parse_int_fields(line: str, count: int, lineno: int, shape: str) -> tuple[int, ...]:
    fields = [token.strip() for token in line.split(",")]
    if len(fields) != count:
        raise FormatError(f"line {lineno}: malformed header, expected '{shape}'")
    for token in fields:
        if _int(token) is None:
            raise FormatError(
                f"line {lineno}: malformed header, non-integer {special._excerpt(token)}")
    return tuple(map(_int, fields))


def _int(token: str) -> int | None:
    """An optional '-' and ASCII digits as an int, else None: ``int()`` would
    also take a '+', '_' between digits and other scripts' digits."""
    digits = token[1:] if token[:1] == "-" else token
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None
