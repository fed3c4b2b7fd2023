"""Raw measurement handling: majority vote and per-position counting.

Everything downstream consumes the pair (count of 1s, device count), the
sufficient statistic for a per-position Bernoulli alias, so the statistical
modules never touch raw tensors or files.

The vote works on bit-packed rows, eight positions to a byte, with bytewise
logic alone (`_vote_packed`); ``formats`` feeds it a file's rows as they are
stored, and `derive_noise_free_response` packs a tensor first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _checked_bits(arr, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise DomainError(f"{what} must have {ndim} positive dimensions, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise DomainError(f"{what} entries must all be 0 or 1")
    arr = arr.astype(np.uint8, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MeasurementTensor:
    """Raw bits from a campaign: devices x positions x repeats, each 0 or 1."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _checked_bits(self.bits, 3, "measurement tensor"))

    @property
    def devices(self) -> int:
        return self.bits.shape[0]

    @property
    def positions(self) -> int:
        return self.bits.shape[1]

    @property
    def repeats(self) -> int:
        return self.bits.shape[2]


@dataclass(frozen=True)
class NoiseFreeResponse:
    """Per-device response after removing run-time noise, with the number of
    majority-vote ties encountered while deriving it."""

    bits: np.ndarray
    tie_count: int

    def __post_init__(self):
        object.__setattr__(self, "bits", _checked_bits(self.bits, 2, "response"))
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
        if self.devices < 1:
            raise DomainError("devices must be >= 1")
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
    packed = np.packbits(m.bits.transpose(0, 2, 1), axis=2, bitorder="little")
    voted, ties = _vote_packed(packed, 0)
    bits = np.unpackbits(voted, axis=1, count=m.positions, bitorder="little")
    return NoiseFreeResponse(bits=bits, tie_count=ties)


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
