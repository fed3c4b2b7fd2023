"""Conversions between alias limits and per-position entropy.

Each position is modeled as a Bernoulli variable, so per-position min- and
Shannon-entropy convert directly to and from probability limits.  Entropy
values are per position; summing them does not give the entropy of the whole
response, because positions may be correlated.
"""

from __future__ import annotations

import math

from .errors import DomainError, PerfectEntropyError
from .qualification import AliasLimits
from .special import Record, _as_choice, _as_probability, _excerpt

_KINDS = ("min", "shannon")


class EntropySpec(Record):
    """A per-position entropy requirement in bits, either min- or Shannon."""

    kind: str
    value: float

    def __post_init__(self):
        self.__dict__.update(kind=_as_choice(self.kind, "entropy kind", _KINDS),
                             value=_as_probability(self.value, "per-position entropy",
                                                   bounds="(0, 1]"))


def min_entropy_from_limits(p) -> float:
    """Per-position min-entropy in bits: -log2 of the likelier outcome.

    p = 0 and p = 1 return 0 bits (the outcome is certain).
    """
    p = _as_probability(p, "p")
    return 0.0 - math.log2(max(p, 1.0 - p))  # +0.0 there, where -log2(1) is -0.0


def shannon_entropy(p) -> float:
    """Binary Shannon entropy in bits, with 0*log(0) taken as 0.

    log2(1 - p) comes from ``log1p`` below p = 1/2, where 1 - p rounds: against
    60-digit decimals, at seeded p from 1e-300 to 1 - 1e-16, the result is
    within 4e-16 relative (2.9e-16 at worst).
    """
    p = _as_probability(p, "p")
    if p == 0.0 or p == 1.0:
        return 0.0
    log2_q = math.log1p(-p) / math.log(2.0) if p < 0.5 else math.log2(1.0 - p)
    return -p * math.log2(p) - (1.0 - p) * log2_q


def _shannon_upper(h: float) -> float:
    """p_u of a Shannon floor, as ``limits_from_spec`` states it.  There is no
    closed form: Newton's method in 60-digit decimals (where 1 - q keeps q's
    first 25 digits) starts at or below q, as Topsoe's bound on the entropy,
    H(q) <= (4q(1 - q))**(1/ln 4), puts it, and rises to q, as H is concave."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        x, nats = Decimal(h) ** Decimal(4).ln(), Decimal(h) * Decimal(2).ln()
        q = x / (2 + 2 * (1 - x).sqrt())  # the smaller root of 4q(1 - q) = x
        for _ in range(50):  # 14 steps at most, but rounding stalls some floors below 1e-35
            step = (-(q * q.ln() + (1 - q) * (1 - q).ln()) - nats) / ((1 - q) / q).ln()
            q -= step
            if abs(step) <= q * Decimal("1e-25"):
                break
        return float(1 - q)


def limits_from_spec(spec: EntropySpec) -> AliasLimits:
    """Alias limits (1 - p_u, p_u) equivalent to an entropy floor of h bits.

    min: p_u = 2**-h.  shannon: p_u = 1 - q, rounded to the nearest double,
    for the q in (0, 0.5] whose entropy is h bits.  A full bit needs alias
    exactly 0.5 and is refused; so is a floor whose p_u rounds to 1, below
    about 8e-17 bits of min-entropy or 3e-15 bits of Shannon entropy.
    """
    h, what = spec.value, "min-entropy" if spec.kind == "min" else "Shannon entropy"
    if h == 1.0:
        raise PerfectEntropyError(f"a full bit of {what} per position needs alias exactly 0.5; "
                                  "no finite test can verify it")
    p_u = 2.0 ** -h if spec.kind == "min" else _shannon_upper(h)
    if p_u >= 1.0:
        raise DomainError(f"{what} floor {_excerpt(h)} rounds to the band (0, 1)")
    return AliasLimits(p_l=1.0 - p_u, p_u=p_u)
