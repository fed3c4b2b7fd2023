"""Raw measurement handling: majority vote and per-position counting.

Everything downstream consumes the pair (count of 1s, device count), the
sufficient statistic for a per-position Bernoulli alias, so the statistical
modules never touch raw tensors or files.
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


def _vote(block: np.ndarray, first_device: int) -> tuple[np.ndarray, int]:
    """Majority vote of a devices x positions x repeats block of 0/1 bits.

    ``first_device`` is the global index of the block's first device, so a
    campaign voted one block of devices at a time resolves its ties exactly
    as when voted whole.  Returns the voted devices x positions bits (bool)
    and the number of tied cells.  Totals are int32 and are compared with
    ``repeats // 2`` rather than doubled, so they cannot overflow below 2**31
    repeats.
    """
    devices, positions, repeats = block.shape
    totals = block.sum(axis=2, dtype=np.int32)
    voted = totals > repeats // 2
    if repeats % 2:
        return voted, 0
    ties = totals == repeats // 2
    # tie -> 1 exactly when device index + position index is even
    parity_even = np.equal.outer((first_device + np.arange(devices)) % 2,
                                 np.arange(positions) % 2)
    voted |= ties & parity_even
    return voted, int(np.count_nonzero(ties))


def derive_noise_free_response(m: MeasurementTensor) -> NoiseFreeResponse:
    """Majority vote across repeats, per device and position.

    A cell reads 1 when strictly more than half of its repeats are 1.  Exact
    ties (possible only for even repeat counts) resolve deterministically by
    index parity: 1 when device index + position index is even, else 0.  Ties
    flag unreliable cells, so their total is surfaced as ``tie_count``.
    """
    voted, ties = _vote(m.bits, 0)
    return NoiseFreeResponse(bits=voted, tie_count=ties)


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
