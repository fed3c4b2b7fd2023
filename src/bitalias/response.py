"""Raw measurement handling: majority vote and per-position counting.

Everything downstream consumes the pair (count of 1s, device count), the
sufficient statistic for a per-position Bernoulli alias, so the statistical
modules never touch raw tensors or files.

A `MeasurementTensor` holds the binary file format's packed rows, so a file's
rows are used as read.  The vote works on them with bytewise logic alone
(`_vote_packed`), whole in `derive_noise_free_response` and one block of
devices at a time in `_count_voted`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import _as_count


def _checked_bits(arr, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise DomainError(f"{what} must have {ndim} positive dimensions, got shape {arr.shape}")
    integral = arr.dtype.kind in "biu"
    binary = arr.min() >= 0 and arr.max() <= 1 if integral else ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise DomainError(f"{what} entries must all be 0 or 1")
    return arr if integral else arr.astype(np.uint8)


@dataclass(frozen=True, init=False)
class MeasurementTensor:
    """Raw bits from a campaign: devices x positions x repeats, each 0 or 1.

    Held as the binary file format's packed rows, ``rows[d * repeats + r]``
    for device d's repeat r: ``MeasurementTensor(bits=b)`` packs a 0/1 array
    once, and ``bits`` unpacks the rows on each access.  ``_packed`` is for
    the parsers: (rows, positions, repeats) as checked, wrapped uncopied.
    """

    rows: np.ndarray
    positions: int
    repeats: int

    def __init__(self, bits=None, *, _packed=None):
        if _packed is None:
            bits = _checked_bits(bits, 3, "measurement tensor")
            rows = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
            _packed = rows.reshape(-1, rows.shape[2]), *bits.shape[1:]
        rows, positions, repeats = _packed
        rows.setflags(write=False)
        self.__dict__.update(rows=rows, positions=positions, repeats=repeats)

    @property
    def bits(self) -> np.ndarray:
        """The devices x positions x repeats uint8 array, read-only."""
        bits = np.unpackbits(self.rows, axis=1, count=self.positions, bitorder="little")
        bits.setflags(write=False)
        return bits.reshape(self.devices, self.repeats, -1).transpose(0, 2, 1)

    @property
    def devices(self) -> int:
        return self.rows.shape[0] // self.repeats


@dataclass(frozen=True)
class NoiseFreeResponse:
    """Per-device response after removing run-time noise, with the number of
    majority-vote ties encountered while deriving it."""

    bits: np.ndarray
    tie_count: int

    def __post_init__(self):
        bits = _checked_bits(self.bits, 2, "response").astype(np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.tie_count < 0:
            raise DomainError("tie_count must be >= 0")

    @property
    def devices(self) -> int:
        return self.bits.shape[0]

    @property
    def positions(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class PositionCounts:
    """Count of 1s per position across the device population."""

    devices: int
    ones: np.ndarray

    def __post_init__(self):
        _as_count(self.devices, "devices", 1)
        ones = np.asarray(self.ones)
        if ones.ndim != 1 or ones.size < 1:
            raise DomainError("ones must be a non-empty 1-d array")
        if not np.issubdtype(ones.dtype, np.integer):
            if not (ones == np.floor(ones)).all():
                raise DomainError("counts must be integers")
        ones = ones.astype(np.int64, copy=True)
        if (ones < 0).any() or (ones > self.devices).any():
            raise DomainError("counts must lie in 0..devices")
        ones.setflags(write=False)
        object.__setattr__(self, "ones", ones)

    @property
    def positions(self) -> int:
        return int(self.ones.size)


# set bits per byte value; np.bitwise_count needs numpy 2
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _vote_packed(block: np.ndarray, first_device: int) -> tuple[np.ndarray, int]:
    """Majority vote of a devices x repeats x bytes block of packed rows.

    Each row holds a device's bits for one repeat, packed least-significant
    bit first, so bit j of byte b is position 8b + j; padding bits must be 0.
    ``first_device`` is the global index of the block's first device, so a
    campaign voted one block of devices at a time resolves its ties exactly
    as when voted whole.  Returns the voted devices x bytes rows, packed the
    same way, and the number of tied cells.

    The repeats are added into bit-planes of each cell's total (plane i holds
    bit i), one ripple-carry add per repeat, and the totals are compared with
    ``repeats // 2`` from the top plane down, all with bytewise logic.
    """
    devices, repeats, _ = block.shape
    planes = []
    for r in range(repeats):
        carry = block[:, r]
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
        if len(planes) < (r + 1).bit_length():
            planes.append(carry)
    # gt: total > repeats // 2; eq: total == repeats // 2 so far, from the top
    half = repeats // 2
    gt = np.zeros_like(planes[0])
    eq = np.full_like(planes[0], 0xFF)
    for i in reversed(range(len(planes))):
        if (half >> i) & 1:
            eq &= planes[i]
        else:
            gt |= eq & planes[i]
            eq &= ~planes[i]
    if repeats % 2:
        return gt, 0
    # tie -> 1 exactly when device index + position index is even: the even
    # bits (0x55) of an even device, the odd bits (0xAA) of an odd one.
    # Padding bits total 0 < repeats // 2, so they never tie.
    parity = np.where((first_device + np.arange(devices)) % 2, 0xAA, 0x55).astype(np.uint8)
    gt |= eq & parity[:, None]
    return gt, int(np.bincount(eq.ravel(), minlength=256) @ _POPCOUNT)


def derive_noise_free_response(m: MeasurementTensor) -> NoiseFreeResponse:
    """Majority vote across repeats, per device and position.

    A cell reads 1 when strictly more than half of its repeats are 1.  Exact
    ties (possible only for even repeat counts) resolve deterministically by
    index parity: 1 when device index + position index is even, else 0.  Ties
    flag unreliable cells, so their total is surfaced as ``tie_count``.
    """
    voted, ties = _vote_packed(m.rows.reshape(m.devices, m.repeats, -1), 0)
    bits = np.unpackbits(voted, axis=1, count=m.positions, bitorder="little")
    return NoiseFreeResponse(bits=bits, tie_count=ties)


# Counter-plane bytes per block of devices voted by `_count_voted`
# (ceil(log2(M + 1)) planes of ceil(T/8) bytes per device); a block holds at
# least one device, however wide.  128 KiB votes as fast per device as 1 MiB,
# and its temporaries (a block's unpacked voted bits are 8/ceil(log2(M + 1))
# times its planes) keep the peak memory small: on a 4096 x 4096 x 6 file the
# CLI peaks at 42.7 MB RSS, against 52 MB with 1 MiB blocks.
_BLOCK_BYTES = 1 << 17


def _count_voted(m: MeasurementTensor) -> tuple[PositionCounts, int, int]:
    """``(counts, repeats, tie_count)`` of ``m``, as `count_ones` and
    `derive_noise_free_response` give them, with the rows voted one block of
    devices at a time so that only a block's voted bits are unpacked."""
    rows = m.rows.reshape(m.devices, m.repeats, -1)
    per_block = max(1, _BLOCK_BYTES // (m.repeats.bit_length() * rows.shape[2]))
    ones = np.zeros(m.positions, dtype=np.int64)
    tie_count = 0
    for first in range(0, m.devices, per_block):
        voted, ties = _vote_packed(rows[first:first + per_block], first)
        bits = np.unpackbits(voted, axis=1, count=m.positions, bitorder="little")
        ones += bits.sum(axis=0, dtype=np.int32)  # a block has < 2**31 devices
        tie_count += ties
    return PositionCounts(devices=m.devices, ones=ones), m.repeats, tie_count


def count_ones(r: NoiseFreeResponse) -> PositionCounts:
    """Per-position count of 1s across devices."""
    return PositionCounts(devices=r.devices, ones=r.bits.sum(axis=0, dtype=np.int64))


def bit_alias(c: PositionCounts) -> np.ndarray:
    """Estimated probability of a 1 at each position: ones / devices."""
    return c.ones / float(c.devices)


def _per_distinct(counts, fn):
    """Iterator over ``fn(x) for x in counts``, calling fn once per distinct count.

    Every per-position statistic depends on the count alone, so positions
    sharing a count share one evaluation.  The distinct counts come from a
    tally of size max(counts) + 1, which takes far less memory than sorting
    a long run of counts.
    """
    distinct = np.flatnonzero(np.bincount(counts)).tolist()
    results = dict(zip(distinct, map(fn, distinct)))
    return map(results.__getitem__, counts)
