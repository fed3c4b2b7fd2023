"""Scalar special functions: normal quantile, incomplete beta, binomial tails.

This is the numerical substrate for every interval and test in the package.
All functions are pure and safe to call concurrently.  Implementation notes:

* ``std_normal_quantile`` is the AS241 routine (Wichura, *Applied Statistics*
  37(3), 1988) behind ``statistics.NormalDist().inv_cdf``, called directly from
  ``_statistics`` so that ``statistics`` need not load: within 5 ulp of scipy's
  ``norm.isf`` for q from 5e-301 to 0.4995, and antisymmetric bit for bit
  where 1 - q is exact.  Callers pass the small tail probability, never
  1 - alpha/2, which rounds to 1.0 once alpha falls below 2.2e-16.
* ``regularized_incomplete_beta`` evaluates the continued fraction (modified
  Lentz) on whichever of I_x(a, b) and 1 - I_{1-x}(b, a) converges fast; the
  switch at x = (a + 1)/(a + b + 2) keeps convergence uniform for shape
  parameters well past 1e4, the planners' working range.
* ``binomial_cdf`` / ``binomial_sf`` go through the incomplete-beta identity
  rather than summing terms: it is O(1) in n, and each tail is produced
  natively instead of as ``1 - other_tail``, so tail p-values keep their
  leading digits.  The lower tail is the mirrored upper tail, P[X <= k] =
  P[n - X >= n - k], so both make their incomplete-beta call in one place.
  Their relative error grows about linearly with n, through cancellation in
  the ``lgamma`` prefactor: against scipy, over every count within three
  standard deviations of the median at p = 0.5, it reaches 1e-12 at n = 1e3,
  3.3e-10 at 1e5, 2.7e-9 at 1e6 and 3.0e-8 at 1e7.
* ``binomial_range_mass`` (the partial sum behind ``acceptance_probability``,
  its only caller) forms every term in log space and adds them with
  ``math.fsum``, exactly rounded, so results at n ~ 7000 keep their 1e-4
  digits.  The FRR planner sums the two native tails instead.

The argument checks every module shares live here too: ``_as_probability``
and ``_as_count`` for one number, ``_as_choice`` for a method, kind or format
name, ``_check_counts`` for a count and its device count, ``_check_alpha``
for a significance level; so does ``Record``, every record type's base.

Log-scale probabilities are plain floats in natural log; ``-inf`` is the
distinguished encoding of log(0).
"""

from __future__ import annotations

import math
import operator

try:  # the C AS241 behind statistics.NormalDist.inv_cdf, without statistics' import
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # as statistics does
    from statistics import _normal_dist_inv_cdf

from .errors import ConvergenceError, DomainError

_SQRT2 = math.sqrt(2.0)

_BETA_CF_MAX_ITER = 10_000
_BETA_CF_EPS = 1e-15
_BETA_CF_TINY = 1e-300

_QUANTILE_MAX_ITER = 200
_QUANTILE_XTOL = 1e-13
_QUANTILE_FTOL = 1e-12

def _as_probability(value, name: str, *, bounds: str = "[0, 1]") -> float:
    """A real number in ``bounds``: "[0, 1]", "(0, 1]" or "(0, 1)"."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    above = 0.0 < v if bounds[0] == "(" else 0.0 <= v
    below = v < 1.0 if bounds[-1] == ")" else v <= 1.0
    if not (above and below):  # NaN is neither
        raise DomainError(f"{name} must lie in {bounds}, got {value!r}")
    return v


def _as_positive(value, name: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return v


def _as_count(value, name: str, minimum: int = 0) -> int:
    try:
        v = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if v < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {v}")
    return v


def _as_choice(value, name: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise DomainError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _check_counts(x, n, name: str = "x", min_n: int = 1) -> tuple[int, int]:
    """A count ``name`` of 1s out of n trials: integers with 0 <= x <= n and
    n >= min_n."""
    x = _as_count(x, name)
    n = _as_count(n, "n")
    if n < min_n:
        raise DomainError(f"n must be >= {min_n}")
    if x > n:
        raise DomainError(f"{name} must not exceed n, got {name}={x}, n={n}")
    return x, n


def _check_alpha(alpha) -> float:
    """A significance level in (0, 1) whose half, the per-tail level every
    test and interval uses, is still a positive float."""
    alpha = _as_probability(alpha, "alpha", bounds="(0, 1)")
    if 0.5 * alpha == 0.0:
        raise DomainError(f"alpha must be at least 1e-323, where alpha/2 is still "
                          f"positive, got {alpha!r}")
    return alpha


class Record:
    """An immutable record, lighter to define than a frozen dataclass.  Its
    fields are its base's, then the names it annotates; a class attribute is a
    field's default.  ``__post_init__`` checks the fields and may store a
    normalized one with ``object.__setattr__``."""

    _fields: dict[str, None] = {}  # the field names, in order
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = cls.__annotations__
        cls._fields = dict.fromkeys((*cls._fields, *own))
        cls._defaults = {**cls._defaults, **{k: v for k, v in vars(cls).items() if k in own}}
        cls.__match_args__ = tuple(cls._fields)
        cls._key = operator.attrgetter(*cls._fields)
        cls.__hash__ = cls.__hash__ or Record.__hash__  # which an own __eq__ unsets

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(**dict(zip(names, args)), **kwargs) if args else kwargs  # TypeError if twice
        values = {**self._defaults, **given}
        if len(args) > len(names) or values.keys() != names.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {tuple(names)}, got "
                            f"{len(args)} positional arguments and the keywords {tuple(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate into both tails (erfc-based)."""
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_quantile(q) -> float:
    """Inverse of the standard normal CDF on the open interval (0, 1)."""
    return _normal_dist_inv_cdf(_as_probability(q, "q", bounds="(0, 1)"), 0.0, 1.0)


def regularized_incomplete_beta(x, a, b) -> float:
    """Regularized incomplete beta I_x(a, b), the CDF of Beta(a, b) at x."""
    x = _as_probability(x, "x")
    a = _as_positive(a, "a")
    b = _as_positive(b, "b")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        result = front * _beta_cf(a, b, x) / a
    else:
        result = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    # Clip floating-point dust; the value is a probability by construction.
    return min(1.0, max(0.0, result))


def _beta_cf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_CF_TINY:
        d = _BETA_CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_CF_TINY:
            d = _BETA_CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_CF_TINY:
            c = _BETA_CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_CF_TINY:
            d = _BETA_CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_CF_TINY:
            c = _BETA_CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_CF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def beta_quantile(q, a, b) -> float:
    """Inverse of ``regularized_incomplete_beta`` in its first argument.

    Bracketed Newton with bisection fallback.  Converged when the step drops
    below 1e-13 in x and the CDF residual below 1e-12 (the x criterion alone
    would let steep quantiles, e.g. very lopsided shapes, keep a residual far
    above the round-trip budget).  The 200-iteration cap raises
    ConvergenceError instead of degrading silently.
    """
    q = _as_probability(q, "q")
    a = _as_positive(a, "a")
    b = _as_positive(b, "b")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    lo, hi = 0.0, 1.0
    x = a / (a + b)
    for _ in range(_QUANTILE_MAX_ITER):
        f = regularized_incomplete_beta(x, a, b) - q
        if f == 0.0:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        nxt = None
        ln_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_beta
        if ln_pdf > -700.0:  # pdf representable: Newton step is meaningful
            nxt = x - f / math.exp(ln_pdf)
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if hi - lo < 1e-15:  # bracket exhausted at float resolution
            return nxt
        if abs(nxt - x) < _QUANTILE_XTOL and abs(f) < _QUANTILE_FTOL:
            return nxt
        x = nxt
    raise ConvergenceError(f"beta quantile stalled at q={q}, a={a}, b={b}")


def binomial_pmf_log(k, n, p) -> float:
    """log P[X = k] for X ~ Binomial(n, p); -inf encodes probability zero.

    The coefficient goes through lgamma, so n ~ 1e7 cannot overflow; p = 0 and
    p = 1 are explicit point masses, never log(0) arithmetic.
    """
    k, n = _check_counts(k, n, "k", min_n=0)
    p = _as_probability(p, "p")
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_cdf(k, n, p) -> float:
    """P[X <= k] for X ~ Binomial(n, p), as the upper tail P[n - X >= n - k] of
    n - X ~ Binomial(n, 1 - p): the same I_{1-p}(n - k, k + 1), not 1 - sf."""
    k, n = _check_counts(k, n, "k", min_n=0)
    return binomial_sf(n - k, n, 1.0 - _as_probability(p, "p"))


def binomial_sf(k, n, p) -> float:
    """Survival form P[X >= k] (inclusive), via P[X >= k] = I_p(k, n - k + 1).

    Computed natively in the upper tail, never as 1 - cdf, so small values
    keep their leading digits.
    """
    k, n = _check_counts(k, n, "k", min_n=0)
    p = _as_probability(p, "p")
    if k == 0:
        return 1.0
    return regularized_incomplete_beta(p, k, n - k + 1)  # exactly 0 and 1 at p = 0 and 1


def binomial_range_mass(lo, hi, n, p) -> float:
    """P[lo <= X <= hi] for X ~ Binomial(n, p), as a direct mass sum.

    Preferred over cdf(hi) - cdf(lo - 1), which cancels catastrophically when
    both tails are tiny.  Terms are built in log space and summed exactly
    rounded by ``math.fsum``.
    """
    lo = _as_count(lo, "lo")
    hi = _as_count(hi, "hi")
    n = _as_count(n, "n")
    p = _as_probability(p, "p")
    if lo > n or hi > n:
        raise DomainError(f"range [{lo}, {hi}] must lie within 0..{n}")
    if hi < lo:
        return 0.0
    if p == 0.0:
        return 1.0 if lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if hi == n else 0.0
    lg_np1 = math.lgamma(n + 1)
    log_p = math.log(p)
    log_q = math.log1p(-p)
    return min(1.0, math.fsum(math.exp(lg_np1 - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                                       + i * log_p + (n - i) * log_q)
                              for i in range(lo, hi + 1)))
