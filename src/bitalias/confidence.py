"""Binomial-proportion confidence intervals, width curves, device planning.

Three estimators are provided.  The normal approximation is cheap but
degenerates near alias 0 or 1; Wilson's score interval keeps mean coverage
closest to nominal and is the reporting default; Clopper-Pearson guarantees
at least nominal coverage and underpins the qualification test.  Significance
is always split half per tail; there is no one-sided mode.

A width curve is ``ci_width`` over a grid: over ``DEVICE_GRID`` at a fixed
alias, or over ``ALIAS_GRID`` at a fixed device count.  A width plan is the
first count at which the device curve at alias 0.5 meets a target.
"""

from __future__ import annotations

import math

from .errors import CapacityError, DomainError
from .special import (DEVICE_CAP, Record, _as_choice, _as_devices, _as_probability, _as_real,
                      _check_alpha, _check_counts, _excerpt, beta_quantile,
                      std_normal_quantile)

METHODS = ("normal", "wilson", "clopper_pearson")


def _first(ok, start: int, what: str, step: int = 1, limit: int = DEVICE_CAP) -> int:
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
    """Beta-quantile bounds for x 1s out of n; x and n may be real-valued.
    Every Clopper-Pearson entry comes here, so each refuses alpha below 1e-12,
    where no accuracy is stated."""
    if alpha < 1e-12:
        raise DomainError(f"alpha must be >= 1e-12 for clopper_pearson, got {_excerpt(alpha)}")
    lower = 0.0 if x <= 0 else beta_quantile(0.5 * alpha, x, n - x + 1)
    upper = 1.0 if x >= n else beta_quantile(1.0 - 0.5 * alpha, x + 1, n - x)
    return lower, upper


class Interval(Record):
    """A two-sided confidence interval for a binomial proportion.

    ``width`` is taken after the bounds are clamped to [0, 1]; ``ci_width``
    gives the width before clamping, which the width curves and plans use.
    """

    lower: float
    upper: float
    alpha: float
    method: str

    def __post_init__(self):
        method, alpha = _as_choice(self.method, "method", METHODS), _check_alpha(self.alpha)
        lower, upper = _as_real(self.lower, "lower"), _as_real(self.upper, "upper")
        if not 0.0 <= lower <= upper <= 1.0:
            raise DomainError(f"bounds out of order: [{lower}, {upper}]")
        self.__dict__.update(lower=lower, upper=upper, alpha=alpha, method=method)

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


def confidence_interval(method: str, x, n, alpha) -> Interval:
    """The ``method`` interval for x 1s out of n devices: one of ``METHODS``.

    normal: alias +- z * sqrt(alias(1-alias)/n), its bounds clamped into
    [0, 1]; ``ci_width`` gives the width before clamping.  It degenerates to
    a point at alias 0 or 1, the well-known failure mode of this estimator.

    wilson: Wilson's score interval, whose bounds fall in [0, 1] without
    clamping.  The boundary counts use the closed-form root pair, where 0 and
    1 are exact roots of the score quadratic; the general expression would
    land one ulp inside and lose them.

    clopper_pearson: the exact interval from beta quantiles, at least nominal
    coverage.  x = 0 forces lower = 0 and x = n forces upper = 1.  At every n
    up to 10^7 and alpha from 1e-12, each bound is within 8e-6 of scipy
    relative where it is at least 1e-10 and 2.3e-2 below, where only lower
    bounds fall: ``beta_quantile``'s bounds, plus, for the upper bound, the
    rounding of the 1 - alpha/2 it solves for (worst found at alpha = 1e-12:
    2.2e-2 at x = 2, n = 2332884; 7.1e-6 at x = 0, n = 169038).  At n = 10,
    680 and 66546 each bound is within 1.8e-10 for alpha from 1e-6 to 0.999,
    7.3e-9 at 1e-9, and at 1e-12 3.0e-8 (lower) and 6.6e-6 (upper).  Every
    Clopper-Pearson entry refuses alpha below 1e-12, where no bound is stated.
    """
    method = _as_choice(method, "method", METHODS)
    x, n = _check_counts(x, n)
    alpha = _check_alpha(alpha)
    if method == "clopper_pearson":
        lower, upper = _clopper_pearson(x, n, alpha)
    elif method == "normal":
        p = x / n
        half = _normal_half(p, n, _z_for(alpha))
        lower, upper = max(0.0, p - half), min(1.0, p + half)
    else:
        z = _z_for(alpha)
        z2 = z * z
        if x == 0:
            lower, upper = 0.0, z2 / (n + z2)
        elif x == n:
            lower, upper = n / (n + z2), 1.0
        else:
            center, half = _wilson(x / n, n, z)
            lower, upper = center - half, center + half
    return Interval(lower=lower, upper=upper, alpha=alpha, method=method)


def ci_width(method: str, p_hat: float, n: float, alpha: float) -> float:
    """Interval width at a (possibly non-integer) expected count p_hat * n.

    This is the quantity the width curves plot and ``plan_devices_exact``
    inverts at p_hat = 0.5, the one definition of width for both; the
    Clopper-Pearson branch extends the count-based definition continuously
    through real-valued counts and refuses alpha below 1e-12, as
    ``confidence_interval`` does; the normal branch reports the width before
    clamping.
    """
    _as_choice(method, "method", METHODS)
    p_hat = _as_probability(p_hat, "p_hat")
    alpha = _check_alpha(alpha)
    n = _as_devices(n, real=True)
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


def plan_devices_exact(method: str, target_width, alpha) -> PlanResult:
    """Smallest device count N with ``ci_width(method, 0.5, N, alpha)`` <= target:
    the count at which the device curve at alias 0.5, the worst case, meets it.

    Wilson and Clopper-Pearson probe even counts, where alias 0.5 is the
    realizable count N/2; the normal approximation probes every count.  Outward
    probes from a start (rounded up to the grid), then binary search, end on a
    bracket that certifies N: width(N) <= target < width(N - step), with
    N - step probed, or N = step.  Normal and Wilson start at (z/w)^2;
    Clopper-Pearson, whose width at alias 0.5 is about z/sqrt(n) + 1/n, at
    ((z + sqrt(z^2 + 4w)) / 2w)^2, at most 6 devices above the answer at
    alpha >= 0.01; it refuses alpha below 1e-12, as ``confidence_interval``
    does.  Targets unreachable below the device cap raise CapacityError.
    """
    method = _as_choice(method, "method", METHODS)
    w = _as_probability(target_width, "target_width", bounds="(0, 1)")
    alpha = _check_alpha(alpha)
    z, step = _z_for(alpha), 1 if method == "normal" else 2
    root = (z + math.sqrt(z * z + 4.0 * w)) / (2.0 * w) if method == "clopper_pearson" else z / w
    guess = math.ceil(min(root, DEVICE_CAP) ** 2)  # _first clamps it to the cap
    n = _first(lambda n: ci_width(method, 0.5, n, alpha) <= w, guess + guess % step,
               f"width {w}", step)
    return PlanResult(devices=n, alpha=alpha, method=method, target_width=w)
