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
  3.3e-10 at 1e5, 2.7e-9 at 1e6 and 3.0e-8 at 1e7, ``DEVICE_CAP``, the most
  devices that any count, interval, plan or curve accepts.  Off the centre,
  for p in (0.01, 0.99) and tails from 1e-300 to 1e-3, it stays within 2e-13
  for n below 1e2, 3e-12 below 1e3, 5e-11 below 1e4, 6e-10 below 1e5, 7e-9
  below 1e6 and 9e-8 up to 1e7, against 3000 seeded tails summed from a
  34-digit pmf (worst 1.2e-13, 1.8e-12, 2.1e-11, 2.4e-10, 3.8e-9, 3.9e-8).
* ``binomial_range_mass`` (the partial sum behind ``acceptance_probability``,
  its only caller) forms every term in log space and adds them with
  ``math.fsum``, exactly rounded, so results at n ~ 7000 keep their 1e-4
  digits.  The FRR planner sums the two native tails instead.

The argument checks every module shares live here too, one message per rule:
``_as_probability``, ``_as_count`` and ``_as_devices`` for one number,
``_as_choice`` for a method, kind or format name, ``_check_counts`` for a
count and its device count, ``_check_alpha`` for a significance level; so
does ``Record``, every record type's base, ``_spans``, which sizes every
streamed loop from the one ``_BLOCK_BYTES``, and ``_per_distinct``, which
evaluates a per-position statistic once per distinct count.  Their messages
echo a value through ``_excerpt``, as do the file formats' and
``acceptance_probability``'s: it shortens a long value, an integer of any
length too, to a few dozen characters.

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

DEVICE_CAP = 10_000_000

def _excerpt(value) -> str:
    """``repr(value)`` as every message echoes it: past 20 characters, its
    first 19, an ellipsis and, for an integer, its digit count.  A long
    integer's digits are found by division, since ``repr`` refuses one of more
    than 4300 digits."""
    if isinstance(value, int) and not -10**19 < value < 10**20:
        size, sign = abs(value), "-" * (value < 0)
        digits = int(math.log10(size)) + 1  # or one off, where log10 rounds
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"{sign}{size // 10 ** (digits - 19 + len(sign))}… ({digits} digits)"
    text = repr(value)
    return text if len(text) <= 20 else f"{text[:19]}…"


def _as_real(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {_excerpt(value)}") from None


def _as_probability(value, name: str, *, bounds: str = "[0, 1]") -> float:
    """A real number in ``bounds``: "[0, 1]", "(0, 1]" or "(0, 1)"."""
    v = _as_real(value, name)
    above = 0.0 < v if bounds[0] == "(" else 0.0 <= v
    below = v < 1.0 if bounds[-1] == ")" else v <= 1.0
    if not (above and below):  # NaN is neither
        raise DomainError(f"{name} must lie in {bounds}, got {_excerpt(value)}")
    return v


def _as_positive(value, name: str) -> float:
    if not 0.0 < (v := _as_real(value, name)) < math.inf:  # NaN is neither
        raise DomainError(f"{name} must be finite and > 0, got {_excerpt(value)}")
    return v


def _as_count(value, name: str, minimum: int = 0) -> int:
    try:
        v = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_excerpt(value)}") from None
    if v < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {_excerpt(v)}")
    return v


def _as_devices(n, minimum: int = 1, real: bool = False):
    """A device count in [minimum, DEVICE_CAP], where the tails' stated accuracy
    ends: an integer or, with ``real`` set, also a float; one message for every
    n outside, NaN too, showing an integral n as an integer."""
    v = _as_real(n, "n") if real and not isinstance(n, int) else _as_count(n, "n", -math.inf)
    if not minimum <= v <= DEVICE_CAP:  # NaN is neither
        shown = int(v) if isinstance(v, float) and v.is_integer() else v
        raise DomainError(f"n must lie in [{minimum}, {DEVICE_CAP}], got {_excerpt(shown)}")
    return v


def _as_choice(value, name: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise DomainError(f"{name} must be one of {choices}, got {_excerpt(value)}")
    return value


def _check_counts(x, n, name: str = "x", min_n: int = 1) -> tuple[int, int]:
    """A count ``name`` of 1s out of n trials: integers with 0 <= x <= n and
    min_n <= n <= DEVICE_CAP."""
    x, n = _as_count(x, name), _as_devices(n, min_n)
    if x > n:
        raise DomainError(f"{name} must not exceed n, got {name}={_excerpt(x)}, n={n}")
    return x, n


def _check_alpha(alpha) -> float:
    """A significance level in (0, 1) whose half, the per-tail level every
    test and interval uses, is still a positive float."""
    alpha = _as_probability(alpha, "alpha", bounds="(0, 1)")
    if 0.5 * alpha == 0.0:
        raise DomainError(f"alpha must be >= 1e-323, where alpha/2 > 0, got {_excerpt(alpha)}")
    return alpha


class Record:
    """An immutable record, lighter to define than a frozen dataclass.  Its
    fields are its base's, then the names it annotates; a class attribute is a
    field's default.  ``__post_init__`` checks the fields and keeps what each
    check returns, stored with ``self.__dict__.update``, the one idiom for it."""

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


# Bytes that every streamed loop holds at a time.  64 KiB to 16 MiB blocks all
# vote a 4096 x 4096 x 6 file in 0.06-0.07 s, while the traced peak grows with
# the block.
_BLOCK_BYTES = 1 << 16


def _spans(count: int, size: int):
    """``(start, stop)`` spans that cover range(count) in order, each of about
    `_BLOCK_BYTES` (read at call time) of ``size``-byte items, at least one."""
    step = max(1, _BLOCK_BYTES // size)
    return ((i, min(i + step, count)) for i in range(0, count, step))


def _per_distinct(counts, fn):
    """Iterator over ``fn(x) for x in counts``, calling fn once per distinct
    count, with a Python int.

    Every per-position statistic depends on the count alone, so positions
    sharing a count share one evaluation.  fn sees the distinct counts in
    ascending order.
    """
    results = {x: fn(int(x)) for x in sorted(set(counts))}
    return map(results.__getitem__, counts)


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
    try:
        front = math.exp(ln_front)
    except OverflowError:  # a true prefactor is below sqrt(ab/(a+b)): lgamma cancelled
        raise ConvergenceError(
            f"incomplete beta prefactor overflowed at a={a}, b={b}, x={x}") from None
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
    ConvergenceError.

    The stated domain is q and 1 - q at least 5e-13, with integer shapes
    a, b >= 1 and a + b <= 10^7 + 1: the Clopper-Pearson bounds of x out of
    n <= 10^7 at alpha >= 1e-12.  There every quantile of a scan converged,
    and against scipy's ``beta.ppf`` it is within 4e-6 relative where it is
    at least 1e-10 (3.9e-6 at q = 1 - 5e-13, a = 1, b = 16370).  Both
    tolerances are absolute, so a smaller quantile is looser: within 2.3e-2
    (q = 5e-13, a = 2, b = 2332883 gives 4.38e-13 for 4.29e-13).  Outside
    the domain, where ``ci_width``'s real-valued counts also lead, no bound
    is stated: a result can be far off, as ``beta_quantile(1e-300, 2, 3)``
    returns 7.6e-14 for sqrt(q/6) = 4.1e-151, and q or 1 - q below 5e-13
    often raises ConvergenceError.
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
    lo, n = _check_counts(lo, n, "lo", min_n=0)
    hi, n = _check_counts(hi, n, "hi", min_n=0)
    p = _as_probability(p, "p")
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
