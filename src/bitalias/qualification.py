"""Two-sided qualification test on per-position counts.

A position qualifies when both one-sided nulls are rejected at half the
significance level each: "alias at or above the upper limit" via the lower
binomial tail, and "alias at or below the lower limit" via the upper tail.
Rejecting both keeps the false acceptance rate at or below alpha.  The module
also plans the device count needed to keep the false rejection rate in check,
and provides the early-abort forecast for partially completed campaigns.

No multiple-testing correction is applied across positions; every p-value and
verdict is per-position, and reports state that explicitly.
"""

from __future__ import annotations

import math

from .confidence import PlanResult, _first, _normal_half, _z_for
from .errors import DomainError
from .special import (Record, _as_count, _as_probability, _check_alpha, _check_counts,
                      binomial_cdf, binomial_range_mass, binomial_sf)

_FRR_CERTIFY_WINDOW = 50  # scan below the search result; the FRR curve wiggles


class AliasLimits(Record):
    """Permissible alias band (p_l, p_u), both strictly inside (0, 1)."""

    p_l: float
    p_u: float

    def __post_init__(self):
        p_l = _as_probability(self.p_l, "p_l", bounds="(0, 1)")
        p_u = _as_probability(self.p_u, "p_u", bounds="(0, 1)")
        if not p_l < p_u:
            raise DomainError(f"limits must satisfy p_l < p_u, got ({p_l}, {p_u})")
        object.__setattr__(self, "p_l", p_l)
        object.__setattr__(self, "p_u", p_u)


def _as_limits(limits) -> AliasLimits:
    """Accept an AliasLimits or a (p_l, p_u) pair."""
    return limits if isinstance(limits, AliasLimits) else AliasLimits(*limits)


class AcceptanceRegion(Record):
    """Count range [x_l, x_u] of observed 1s that qualifies a position.

    The region may be empty (both endpoints None): at small device counts no
    count can reject both nulls, which is the planner's signal that the
    campaign is too small, not an error.
    """

    devices: int
    limits: AliasLimits
    alpha: float
    x_l: int | None
    x_u: int | None

    def __post_init__(self):
        if (self.x_l is None) != (self.x_u is None):
            raise DomainError("x_l and x_u must be both set or both None")
        if self.x_l is not None and not 0 <= self.x_l <= self.x_u <= self.devices:
            raise DomainError(f"region [{self.x_l}, {self.x_u}] out of order for n={self.devices}")

    @property
    def is_empty(self) -> bool:
        return self.x_l is None

    def contains(self, x: int) -> bool:
        return not self.is_empty and self.x_l <= x <= self.x_u


class TestVerdict(Record):
    """Outcome of the two-sided qualification test for one count of 1s."""

    ones: int
    p_value_upper: float
    p_value_lower: float
    alpha: float
    accepted: bool


class EarlyStopAdvice(Record):
    """Per-position forecast p-values with the resulting continue/abort call."""

    p_values_low: tuple[float, ...]
    p_values_high: tuple[float, ...]
    flagged_positions: tuple[int, ...]
    decision: str  # "continue" | "abort"


def p_value_upper(x, n, p_u) -> float:
    """P[X <= x] under Binomial(n, p_u): evidence against alias >= p_u."""
    x, n = _check_counts(x, n, min_n=0)
    p_u = _as_probability(p_u, "p_u", bounds="(0, 1)")
    return binomial_cdf(x, n, p_u)


def p_value_lower(x, n, p_l) -> float:
    """P[X >= x] under Binomial(n, p_l): evidence against alias <= p_l.

    Computed in the survival form, never as 1 - cdf.
    """
    x, n = _check_counts(x, n, min_n=0)
    p_l = _as_probability(p_l, "p_l", bounds="(0, 1)")
    return binomial_sf(x, n, p_l)


def acceptance_region(n, limits: AliasLimits, alpha) -> AcceptanceRegion:
    """Largest count range whose members reject both one-sided nulls.

    x_u is the largest x with p_value_upper(x) < alpha/2 and x_l the smallest
    x with p_value_lower(x) < alpha/2.  Each is one end of a count run, found
    by ``_first`` from its normal-approximation count n*p -+ z*sqrt(n*p*(1-p)),
    so a region costs a handful of tail calls.
    """
    _, n = _check_counts(0, n)
    limits = _as_limits(limits)
    p_l, p_u = limits.p_l, limits.p_u
    alpha = _check_alpha(alpha)
    half = 0.5 * alpha
    z = _z_for(alpha)

    # cdf(x; n, p_u) rises in x to cdf(n) = 1, so x_u ends a prefix run, and
    # sf(x; n, p_l) falls in x from sf(0) = 1, so x_l starts a suffix run.  One
    # tail call each settles the other end: whether the run is empty.
    if binomial_cdf(0, n, p_u) < half and binomial_sf(n, n, p_l) < half:
        x_u = _first(lambda x: not binomial_cdf(x, n, p_u) < half,
                     math.floor(n * (p_u - _normal_half(p_u, n, z))) + 1, "run end", limit=n) - 1
        x_l = _first(lambda x: binomial_sf(x, n, p_l) < half,
                     math.ceil(n * (p_l + _normal_half(p_l, n, z))), "run end", limit=n)
        if x_l <= x_u:
            return AcceptanceRegion(devices=n, limits=limits, alpha=alpha, x_l=x_l, x_u=x_u)
    return AcceptanceRegion(devices=n, limits=limits, alpha=alpha, x_l=None, x_u=None)


def test_position(x, n, limits: AliasLimits, alpha) -> TestVerdict:
    """Two-sided qualification verdict for one position's count of 1s.

    Accepted exactly when both p-values fall strictly below alpha/2, which is
    equivalent to membership in the acceptance region for the same n.
    """
    x, n = _check_counts(x, n)
    limits = _as_limits(limits)
    alpha = _check_alpha(alpha)
    pu = p_value_upper(x, n, limits.p_u)
    pl = p_value_lower(x, n, limits.p_l)
    half = 0.5 * alpha
    return TestVerdict(ones=x, p_value_upper=pu, p_value_lower=pl, alpha=alpha,
                       accepted=pu < half and pl < half)


def acceptance_probability(n, p, region: AcceptanceRegion) -> float:
    """Chance that a position with true alias p lands inside the region.

    An empty region yields 0.0 by definition: no count can qualify.
    """
    n = _as_count(n, "n")
    p = _as_probability(p, "p")
    if region.devices != n:
        raise DomainError(f"region was built for n={region.devices}, not n={n}")
    if region.is_empty:
        return 0.0
    return binomial_range_mass(region.x_l, region.x_u, n, p)


def plan_devices_frr(limits: AliasLimits, inner: tuple[float, float],
                     alpha, beta) -> PlanResult:
    """Smallest device count keeping the false rejection rate at or below beta
    for every alias inside the inner band.

    By tail monotonicity it suffices to check the band's endpoints.  The FRR
    curve is not monotone in n, so the answer is the smallest count meeting
    beta among the binary-search result and the 50 counts below it; it is not
    always the smallest overall (limits (0.497, 0.503) with inner band
    (0.4985, 0.5015) give 2671077, though the smallest count meeting beta is
    2670169).
    """
    limits = _as_limits(limits)
    p_k, p_v = inner
    p_k = _as_probability(p_k, "p_k", bounds="(0, 1)")
    p_v = _as_probability(p_v, "p_v", bounds="(0, 1)")
    if not limits.p_l < p_k < p_v < limits.p_u:
        raise DomainError(
            f"inner band must satisfy p_l < p_k < p_v < p_u, got "
            f"({limits.p_l}, {p_k}, {p_v}, {limits.p_u})")
    alpha = _check_alpha(alpha)
    beta = _as_probability(beta, "beta", bounds="(0, 1)")

    def frr_ok(n: int) -> bool:
        region = acceptance_region(n, limits, alpha)
        if region.is_empty:
            return False
        # both tails natively, since 1 - acceptance_probability cancels at
        # small beta; sf(0) = cdf(n) = 1, so x_l >= 1 and x_u <= n - 1
        return all(binomial_cdf(region.x_l - 1, n, p) + binomial_sf(region.x_u + 1, n, p)
                   <= beta for p in (p_k, p_v))

    best = _first(frr_ok, 1, f"beta {beta}")
    for m in range(max(1, best - _FRR_CERTIFY_WINDOW), best):
        if frr_ok(m):
            best = m
            break
    return PlanResult(devices=best, alpha=alpha, method="frr",
                      limits=limits, inner=(p_k, p_v), beta=beta)


def early_stop_p_values(x, n, limits: AliasLimits) -> tuple[float, float]:
    """Forecast p-values for a partial campaign.

    First element: P[X <= x] under Binomial(n, p_l), small when the count is
    already implausibly low for any in-range alias.  Second: the symmetric
    P[X >= x] under Binomial(n, p_u) for implausibly high counts.
    """
    x, n = _check_counts(x, n)
    limits = _as_limits(limits)
    return (binomial_cdf(x, n, limits.p_l), binomial_sf(x, n, limits.p_u))


def early_stop_decision(counts: PositionCounts, limits: AliasLimits, alpha,
                        max_flag_fraction: float = 0.0) -> EarlyStopAdvice:
    """Flag positions whose counts already contradict the permissible band and
    abort once the flagged fraction exceeds the configured threshold.

    The default threshold 0 aborts on any flagged position.
    """
    from .response import _per_distinct

    limits = _as_limits(limits)
    alpha = _check_alpha(alpha)
    max_flag_fraction = _as_probability(max_flag_fraction, "max_flag_fraction")
    pairs = list(_per_distinct(counts.ones,
                               lambda x: early_stop_p_values(x, counts.devices, limits)))
    flagged = tuple(t for t, pair in enumerate(pairs) if min(pair) < alpha)
    fraction = len(flagged) / counts.positions
    return EarlyStopAdvice(p_values_low=tuple(low for low, _ in pairs),
                           p_values_high=tuple(high for _, high in pairs),
                           flagged_positions=flagged,
                           decision="abort" if fraction > max_flag_fraction else "continue")
