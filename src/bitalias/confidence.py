"""Binomial-proportion confidence intervals, width curves, device planning.

Three estimators are provided.  The normal approximation is cheap but
degenerates near alias 0 or 1; Wilson's score interval keeps mean coverage
closest to nominal and is the reporting default; Clopper-Pearson guarantees
at least nominal coverage and underpins the qualification test.  Significance
is always split half per tail; there is no one-sided mode.

A width curve is ``ci_width`` over a grid: over ``DEVICE_GRID`` at a fixed
alias, or over ``ALIAS_GRID`` at a fixed device count.
"""

from __future__ import annotations

import math

from .errors import CapacityError, DomainError
from .special import (Record, _as_choice, _as_count, _as_positive, _as_probability,
                      _check_alpha, _check_counts, beta_quantile, std_normal_quantile)

METHODS = ("normal", "wilson", "clopper_pearson")

PLANNER_DEVICE_CAP = 10_000_000


def _first(ok, start: int, what: str, step: int = 1, limit: int = PLANNER_DEVICE_CAP) -> int:
    """Smallest count in (0, limit] on the grid start + k*step meeting ok, for
    an ok that fails at 0 and flips once.  Probes outward from start (clamped
    into [0, limit]) by 1, 2, 4, ... grid steps, down while ok holds and up
    while it fails, the last upward probe clamped to limit, where a failure
    raises CapacityError; then bisects.  From 1: 1, 2, 4, ..., 2^23, limit."""
    lo, gap = min(max(start, 0), limit), step
    if lo > 0 and ok(lo):
        hi = lo
        while (lo := hi - gap) > 0 and ok(lo):
            hi, gap = lo, 2 * gap
        lo = max(lo, 0)
    else:
        while lo < limit and not ok(hi := min(lo + gap, limit)):
            lo, gap = hi, 2 * gap
        if lo == limit:
            raise CapacityError(f"{what} unreachable below {limit} devices")
    while hi - lo > step:
        mid = lo + (hi - lo) // (2 * step) * step
        hi, lo = (mid, lo) if ok(mid) else (hi, mid)
    return hi


def _z_for(alpha: float) -> float:
    """z = Phi^-1(1 - alpha/2), taken from the lower tail, where alpha/2 is
    exact and 1 - alpha/2 would round to 1.0 for tiny alpha."""
    return -std_normal_quantile(0.5 * alpha)


def _normal_half(p: float, n, z: float) -> float:
    """Half-width of the normal-approximation interval at alias p."""
    return z * math.sqrt(p * (1.0 - p) / n)


def _wilson(p: float, n, z: float) -> tuple[float, float]:
    """Centre and half-width of Wilson's score interval at alias p."""
    z2_n = z * z / n
    center = (p + 0.5 * z2_n) / (1.0 + z2_n)
    half = (z / (1.0 + z2_n)) * math.sqrt(p * (1.0 - p) / n + 0.25 * z2_n / n)
    return center, half


def _clopper_pearson(x, n, alpha: float) -> tuple[float, float]:
    """Beta-quantile bounds for x 1s out of n; x and n may be real-valued."""
    lower = 0.0 if x <= 0 else beta_quantile(0.5 * alpha, x, n - x + 1)
    upper = 1.0 if x >= n else beta_quantile(1.0 - 0.5 * alpha, x + 1, n - x)
    return lower, upper


class Interval(Record):
    """A two-sided confidence interval for a binomial proportion.

    ``width`` is taken after the bounds are clamped to [0, 1]; ``ci_width``
    gives the width before clamping, which the width curves plot.
    """

    lower: float
    upper: float
    alpha: float
    method: str

    def __post_init__(self):
        _as_choice(self.method, "method", METHODS)
        _check_alpha(self.alpha)
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise DomainError(f"bounds out of order: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper


class PlanResult(Record):
    """A required device count together with the guarantee it satisfies."""

    devices: int
    alpha: float
    method: str
    target_width: float | None = None
    limits: AliasLimits | None = None
    inner: tuple[float, float] | None = None
    beta: float | None = None


def ci_normal(x, n, alpha) -> Interval:
    """Normal approximation interval: alias +- z * sqrt(alias(1-alias)/n).

    Bounds are clamped into [0, 1] for reporting; ``ci_width`` gives the
    width before clamping.  The interval degenerates to a point at alias 0
    or 1 (the well-known failure mode of this estimator).
    """
    x, n = _check_counts(x, n)
    alpha = _check_alpha(alpha)
    p = x / n
    half = _normal_half(p, n, _z_for(alpha))
    return Interval(lower=max(0.0, p - half), upper=min(1.0, p + half),
                    alpha=alpha, method="normal")


def ci_wilson(x, n, alpha) -> Interval:
    """Wilson's score interval; bounds fall in [0, 1] without clamping.

    The boundary counts use the closed-form root pair, where 0 and 1 are
    exact roots of the score quadratic; the general expression would land one
    ulp inside and lose them.
    """
    x, n = _check_counts(x, n)
    alpha = _check_alpha(alpha)
    z = _z_for(alpha)
    z2 = z * z
    if x == 0:
        lower, upper = 0.0, z2 / (n + z2)
    elif x == n:
        lower, upper = n / (n + z2), 1.0
    else:
        center, half = _wilson(x / n, n, z)
        lower, upper = center - half, center + half
    return Interval(lower=lower, upper=upper, alpha=alpha, method="wilson")


def ci_clopper_pearson(x, n, alpha) -> Interval:
    """Exact interval from beta quantiles, at least nominal coverage.

    The boundary counts pin their outer bound: x = 0 forces lower = 0 and
    x = n forces upper = 1.

    Against scipy at n = 10 and 680 over every x, and at 66546 over every x
    within 3000 of an end and every 13th between, each bound is within
    1.8e-10 relative for alpha from 1e-6 to 0.999, and within 7.3e-9 at
    alpha = 1e-9; at alpha = 1e-12 the lower bound is within 3.0e-8.  The
    upper bound solves I = 1 - alpha/2, so it degrades as alpha shrinks
    (6.6e-6 at alpha = 1e-12) and is 1.0 once alpha falls below about
    2.2e-16.
    """
    x, n = _check_counts(x, n)
    alpha = _check_alpha(alpha)
    lower, upper = _clopper_pearson(x, n, alpha)
    return Interval(lower=lower, upper=upper, alpha=alpha, method="clopper_pearson")


_CI_BY_METHOD = {
    "normal": ci_normal,
    "wilson": ci_wilson,
    "clopper_pearson": ci_clopper_pearson,
}


def confidence_interval(method: str, x, n, alpha) -> Interval:
    """Dispatch to one of the three estimators by name."""
    return _CI_BY_METHOD[_as_choice(method, "method", METHODS)](x, n, alpha)


def ci_width(method: str, p_hat: float, n: float, alpha: float) -> float:
    """Interval width at a (possibly non-integer) expected count p_hat * n.

    This is the quantity the width curves plot; the Clopper-Pearson branch
    extends the count-based definition continuously through real-valued
    counts, and the normal branch reports the width before clamping.
    """
    _as_choice(method, "method", METHODS)
    p_hat = _as_probability(p_hat, "p_hat")
    alpha = _check_alpha(alpha)
    n = _as_positive(n, "n")
    if n < 1.0:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if method == "clopper_pearson":
        lower, upper = _clopper_pearson(p_hat * n, n, alpha)
        return upper - lower
    # twice the half-width, which can differ from upper - lower in the last bits
    z = _z_for(alpha)
    half = _wilson(p_hat, n, z)[1] if method == "wilson" else _normal_half(p_hat, n, z)
    return 2.0 * half


# 120 log-spaced device counts from 2 to 10000, deduplicated; alias 0 to 1 by 0.01
DEVICE_GRID = tuple(sorted({int(round(2.0 * 5000.0 ** (i / 119))) for i in range(120)}))
ALIAS_GRID = tuple(round(i * 0.01, 2) for i in range(101))


def plan_devices_normal(target_width, alpha) -> PlanResult:
    """First-cut device count from the normal approximation at alias 0.5:
    ceil((z / target_width)^2).  Above the device cap it raises CapacityError,
    as the exact planners do (z / target_width is clamped before squaring)."""
    target_width = _as_probability(target_width, "target_width", bounds="(0, 1)")
    alpha = _check_alpha(alpha)
    devices = math.ceil(min(_z_for(alpha) / target_width, PLANNER_DEVICE_CAP) ** 2)
    if devices > PLANNER_DEVICE_CAP:
        raise CapacityError(f"width {target_width} unreachable below {PLANNER_DEVICE_CAP} devices")
    return PlanResult(devices=devices, alpha=alpha, method="normal",
                      target_width=target_width)


def worst_case_width(method: str, n: int, alpha: float) -> float:
    """Width at the balanced count x = n/2, where the width curve peaks.

    Defined for even n: only there is the worst-case alias 0.5 realizable as
    an integer count.  Odd counts sit slightly off the peak and understate it.
    """
    n = _as_count(n, "n")
    if n < 2 or n % 2:
        raise DomainError("worst-case width needs an even device count >= 2")
    return confidence_interval(method, n // 2, n, alpha).width


def plan_devices_exact(method: str, target_width, alpha) -> PlanResult:
    """Smallest device count whose worst-case width meets the target.

    Candidates are even counts, so the balanced worst case is realizable at
    every probe.  Outward probes from a start (rounded up to even), then binary
    search, end on a bracket that certifies the result N: width(N) <= target <
    width(N - 2), with N - 2 probed, or N = 2.  Wilson starts at the normal
    count (z/w)^2; Clopper-Pearson, whose width at n/2 is about z/sqrt(n) + 1/n,
    at ((z + sqrt(z^2 + 4w)) / 2w)^2, at most 6 devices above the answer at
    alpha >= 0.01.  Targets unreachable below the device cap raise CapacityError.
    """
    _as_choice(method, "method", ("wilson", "clopper_pearson"))
    target_width = _as_probability(target_width, "target_width", bounds="(0, 1)")
    alpha = _check_alpha(alpha)

    def ok(n: int) -> bool:
        return worst_case_width(method, n, alpha) <= target_width

    z, w = _z_for(alpha), target_width
    root = z / w if method == "wilson" else (z + math.sqrt(z * z + 4.0 * w)) / (2.0 * w)
    guess = math.ceil(min(root, PLANNER_DEVICE_CAP) ** 2)  # _first clamps it to the cap
    n = _first(ok, guess + guess % 2, f"width {w}", 2)
    return PlanResult(devices=n, alpha=alpha, method=method, target_width=target_width)
