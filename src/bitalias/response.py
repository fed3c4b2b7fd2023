"""Raw measurement handling: majority vote and per-position counting.

Everything downstream consumes the pair (count of 1s, device count), the
sufficient statistic for a per-position Bernoulli alias, so the statistical
modules never touch raw tensors or files.

A `MeasurementTensor` holds the binary file format's packed rows, so a file's
rows are used as read; a `NoiseFreeResponse` is a one-repeat tensor.  The
vote (`_vote`) works on packed rows as Python integers: each repeat's rows of
a block of devices are joined into one int, so every `&`, `|` and `^` acts on
the whole block at once.  `_vote_blocks` votes a campaign one block of devices
at a time, from rows in memory or as a file is read: `derive_noise_free_response`
joins the voted rows, and `_count_voted` adds them into one counter of device
slots, folded once at the end; one adder, `_add`, does all these sums.  A
one-repeat vote keeps every row, so `count_ones` is `_count_voted` of a
response.  numpy is imported only where an array is built or read:
`MeasurementTensor`, `count_ones` and `bit_alias`.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from .errors import DomainError
from .special import Record, _as_count, _spans


def _checked_bits(arr, ndim: int, what: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(arr)
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise DomainError(f"{what} must have {ndim} positive dimensions, got shape {arr.shape}")
    integral = arr.dtype.kind in "biu"
    binary = arr.min() >= 0 and arr.max() <= 1 if integral else ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise DomainError(f"{what} entries must all be 0 or 1")
    return arr if integral else arr.astype(np.uint8)


class MeasurementTensor(Record):
    """Raw bits from a campaign: devices x positions x repeats, each 0 or 1.

    Held as the binary file format's packed rows, ``rows[d * repeats + r]``
    for device d's repeat r: ``MeasurementTensor(bits=b)`` packs a 0/1 array
    once, and ``bits`` unpacks the rows on each access.  ``_packed`` is for
    the parsers: (buffer of rows, positions, repeats) as checked, wrapped
    uncopied.
    """

    rows: np.ndarray
    positions: int
    repeats: int

    def __init__(self, bits=None, *, _packed=None):
        import numpy as np

        if _packed is None:
            bits = _checked_bits(bits, 3, "measurement tensor")
            rows = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
            _packed = np.ascontiguousarray(rows), *bits.shape[1:]
        rows, positions, repeats = _packed
        rows = np.frombuffer(rows, dtype=np.uint8).reshape(-1, (positions + 7) // 8)
        rows.setflags(write=False)
        self.__dict__.update(rows=rows, positions=positions, repeats=repeats)

    @property
    def bits(self) -> np.ndarray:
        """The devices x positions x repeats uint8 array, read-only."""
        import numpy as np

        bits = np.unpackbits(self.rows, axis=1, count=self.positions, bitorder="little")
        bits.setflags(write=False)
        return bits.reshape(self.devices, self.repeats, -1).transpose(0, 2, 1)

    @property
    def devices(self) -> int:
        return self.rows.shape[0] // self.repeats

    def __eq__(self, other):
        """Same class, shape, row bytes and (for a response) tie count."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = ({**vars(t), "rows": t.rows.tobytes()} for t in (self, other))
        return mine == theirs


class NoiseFreeResponse(MeasurementTensor):
    """Per-device response after removing run-time noise, a one-repeat tensor,
    with the number of majority-vote ties met while deriving it.  It is built
    from a devices x positions 0/1 array, and ``bits`` gives one back."""

    tie_count: int

    def __init__(self, bits, tie_count, *, _packed=None):
        if _packed is None:
            bits = _checked_bits(bits, 2, "response")[:, :, None]
        super().__init__(bits, _packed=_packed)
        self.__dict__.update(tie_count=_as_count(tie_count, "tie_count"))

    @property
    def bits(self) -> np.ndarray:
        """The devices x positions uint8 array, read-only."""
        return super().bits[:, :, 0]


class PositionCounts(Record):
    """Count of 1s per position across the device population.

    ``ones`` is checked as a sequence of ints whatever its type.  A 1-d numpy
    array is kept as a read-only int64 array, so array arithmetic on it still
    works; any other sequence becomes a tuple of ints, which needs no numpy.
    """

    devices: int
    ones: Sequence[int]

    def __post_init__(self):
        devices = _as_count(self.devices, "devices", 1)
        np = sys.modules.get("numpy")  # an array exists only if numpy is loaded
        array = np is not None and isinstance(self.ones, np.ndarray)
        try:  # no sequence, or an array of another shape, holds no counts
            ones = tuple(self.ones.tolist() if self.ones.ndim == 1 else ()) if array \
                else tuple(self.ones)
        except TypeError:
            ones = ()
        if not ones:
            raise DomainError("ones must be a non-empty 1-d array")
        try:
            ints = tuple(map(int, ones))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != ones:
            raise DomainError("counts must be integers")
        if min(ints) < 0 or max(ints) > devices:
            raise DomainError("counts must lie in 0..devices")
        if array:
            ints = np.array(ints, dtype=np.int64)
            ints.setflags(write=False)
        self.__dict__.update(devices=devices, ones=ints)

    @property
    def positions(self) -> int:
        return len(self.ones)

    def __eq__(self, other):
        """Counts compare as ints: array and tuple counts of equal values are equal."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.devices, *map(int, self.ones)) == (other.devices, *map(int, other.ones))


def _add(planes: list[int], carry: int, i: int = 0) -> None:
    """Add ``carry`` at weight 2**i into bit-planes (plane i holds bit i of
    every slot) in place, with a ripple carry; only a nonzero carry appends."""
    while carry and i < len(planes):
        planes[i], carry = planes[i] ^ carry, planes[i] & carry
        i += 1
    if carry:
        planes.append(carry)


def _vote(block, repeats: int, row_bytes: int, first: int) -> tuple[int, int]:
    """Majority vote of the devices whose rows ``block`` holds.

    ``block`` is any C-contiguous buffer of whole devices' rows in the binary
    format: row d * repeats + r holds the block's device d's bits for repeat r
    in ``row_bytes`` bytes, least-significant bit first, so bit j of byte b is
    position 8b + j; padding bits must be 0.  ``first`` is the campaign index
    of the block's first device, so a campaign voted one block of devices at a
    time resolves its ties exactly as when voted whole.  Returns the voted
    rows, packed the same way and read as one little-endian int (the block's
    device i from bit 8 * row_bytes * i), and the number of tied cells.

    Each repeat's rows, joined into one int, go through `_add` into bit-planes
    of every cell's total, compared with ``repeats // 2`` from the top plane.
    """
    rows = memoryview(block).cast("B")
    rows = rows.cast("B", (len(rows) // row_bytes, row_bytes))
    devices = len(rows) // repeats
    planes = [0] * repeats.bit_length()  # every plane a total can reach
    for r in range(repeats):
        _add(planes, int.from_bytes(rows[r::repeats].tobytes(), "little"))
    # gt: total > repeats // 2; eq: total == repeats // 2 so far, from the top
    half = repeats // 2
    gt, eq = 0, (1 << 8 * row_bytes * devices) - 1
    for i in reversed(range(len(planes))):
        if (half >> i) & 1:
            eq &= planes[i]
        else:
            gt |= eq & planes[i]
            eq ^= eq & planes[i]
    if repeats % 2:
        return gt, 0
    # tie -> 1 exactly when device index + position index is even: the even
    # bits (0x55) of an even device, the odd bits (0xAA) of an odd one.
    # Padding bits total 0 < repeats // 2, so they never tie.
    even, odd = b"\x55" * row_bytes, b"\xaa" * row_bytes
    pair = odd + even if first % 2 else even + odd
    parity = int.from_bytes(pair * ((devices + 1) // 2), "little")
    return gt | eq & parity, eq.bit_count()


def _blocks(rows, positions: int, repeats: int):
    """A buffer of packed rows as consecutive byte views of `_spans` of devices."""
    rows, device = memoryview(rows).cast("B"), repeats * ((positions + 7) // 8)
    return (rows[a * device:b * device] for a, b in _spans(len(rows) // device, device))


def _vote_blocks(blocks, positions: int, repeats: int):
    """``(devices, voted rows, tie count)`` of each block of a campaign's
    packed rows (byte buffers of whole devices, in order), as `_vote` gives."""
    row_bytes, first = (positions + 7) // 8, 0
    for block in blocks:
        devices = len(block) // (repeats * row_bytes)
        yield devices, *_vote(block, repeats, row_bytes, first)
        first += devices


def derive_noise_free_response(m: MeasurementTensor) -> NoiseFreeResponse:
    """Majority vote across repeats, per device and position.

    A cell reads 1 when strictly more than half of its repeats are 1.  Exact
    ties (possible only for even repeat counts) resolve deterministically by
    index parity: 1 when device index + position index is even, else 0.  Ties
    flag unreliable cells, so their total is surfaced as ``tie_count``.
    """
    row_bytes = m.rows.shape[1]
    blocks = list(_vote_blocks(_blocks(m.rows, m.positions, m.repeats), m.positions, m.repeats))
    voted = b"".join(v.to_bytes(n * row_bytes, "little") for n, v, _ in blocks)
    return NoiseFreeResponse(None, sum(ties for *_, ties in blocks),
                             _packed=(voted, m.positions, 1))


def _count_voted(blocks, devices: int, positions: int,
                 repeats: int) -> tuple[PositionCounts, int, int]:
    """``(counts, repeats, tie_count)`` of a campaign's blocks of packed rows,
    as `_vote_blocks` takes them, with no numpy; the counts are a tuple of ints.

    Each block's voted rows are added by `_add` into one counter of device
    slots.  After the last block, its upper half of slots is added into the
    lower half until one slot is left.  B blocks take ceil(log2(B + 1)) planes
    of one block's voted rows: at most 24 of under 64 KiB at 10^7 devices.
    """
    row_bytes = (positions + 7) // 8
    planes, slots, tie_count = [], 0, 0
    for n, voted, ties in _vote_blocks(blocks, positions, repeats):
        _add(planes, voted)
        slots, tie_count = max(slots, n), tie_count + ties
    while slots > 1:
        slots = (slots + 1) // 2
        cut = 8 * row_bytes * slots
        low, upper = (1 << cut) - 1, [p >> cut for p in planes]
        planes = [p & low for p in planes]
        for i, p in enumerate(upper):
            _add(planes, p, i)
    # bit t of every plane, top plane first, is position t's count in binary
    columns = zip(*(format(p, f"0{positions}b") for p in reversed(planes or [0])))
    ones = tuple(int("".join(c), 2) for c in columns)[::-1]
    return PositionCounts(devices=devices, ones=ones), repeats, tie_count


def count_ones(r: NoiseFreeResponse) -> PositionCounts:
    """Per-position count of 1s across voted devices, as a read-only int64 array."""
    import numpy as np

    counts, *_ = _count_voted(_blocks(r.rows, r.positions, r.repeats), r.devices, r.positions,
                              r.repeats)
    return PositionCounts(devices=r.devices, ones=np.array(counts.ones))


def bit_alias(c: PositionCounts) -> np.ndarray:
    """Estimated probability of a 1 at each position: ones / devices."""
    import numpy as np

    return np.asarray(c.ones) / float(c.devices)

