"""Conversions between alias limits and per-position entropy.

Each position is modeled as a Bernoulli variable, so per-position min- and
Shannon-entropy convert directly to and from probability limits.  Entropy
values are per position; summing them does not give the entropy of the whole
response, because positions may be correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PerfectEntropyError
from .qualification import AliasLimits
from .special import _as_choice, _as_probability

_KINDS = ("min", "shannon")


@dataclass(frozen=True)
class EntropySpec:
    """A per-position entropy requirement in bits, either min- or Shannon."""

    kind: str
    value: float

    def __post_init__(self):
        _as_choice(self.kind, "entropy kind", _KINDS)
        object.__setattr__(self, "value", _as_probability(self.value, "per-position entropy"))


def limits_from_min_entropy(h_inf) -> AliasLimits:
    """Alias limits equivalent to a min-entropy floor: p_u = 2**-h, p_l = 1 - p_u.

    A full bit (h = 1) maps to the degenerate pair (0.5, 0.5) and is rejected
    as unreachable.
    """
    p_u = 2.0 ** -_as_probability(h_inf, "min-entropy", bounds="(0, 1]")
    if p_u <= 0.5:
        raise PerfectEntropyError(
            "a full bit of min-entropy per position needs alias exactly 0.5; "
            "no finite test can verify it")
    return AliasLimits(p_l=1.0 - p_u, p_u=p_u)


def min_entropy_from_limits(p) -> float:
    """Per-position min-entropy in bits: -log2 of the likelier outcome.

    p = 0 and p = 1 return 0 bits (the outcome is certain).
    """
    p = _as_probability(p, "p")
    return -math.log2(max(p, 1.0 - p))


def shannon_entropy(p) -> float:
    """Binary Shannon entropy in bits, with 0*log(0) taken as 0."""
    p = _as_probability(p, "p")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def limits_from_shannon_entropy(h) -> AliasLimits:
    """Alias limits equivalent to a Shannon-entropy floor.

    Solves shannon_entropy(p) = h for the upper limit p in (0.5, 1) by
    bisection; there is no closed form.
    """
    h = _as_probability(h, "Shannon entropy", bounds="(0, 1]")
    if h == 1.0:
        raise PerfectEntropyError(
            "a full bit of Shannon entropy per position needs alias exactly 0.5; "
            "no finite test can verify it")
    lo, hi = 0.5, 1.0  # shannon_entropy decreases from 1 to 0 on this range
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shannon_entropy(mid) > h:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    p_u = 0.5 * (lo + hi)
    return AliasLimits(p_l=1.0 - p_u, p_u=p_u)


def limits_from_spec(spec: EntropySpec) -> AliasLimits:
    """Resolve an entropy requirement to alias limits."""
    if spec.kind == "min":
        return limits_from_min_entropy(spec.value)
    return limits_from_shannon_entropy(spec.value)
