"""Independent reference computations the tests check the library against.

Nothing here shares code paths with the package: binomial tails are summed in
exact rational arithmetic, or past the mode from a decimal pmf and the ratios
of the terms after it, the normal CDF comes from math.erf, incomplete beta
values from adaptive quadrature, interval bounds from generic root finding,
and the Shannon entropy and its inverse in decimal arithmetic.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def exact_binomial_pmf(k: int, n: int, p: float) -> Fraction:
    pf = Fraction(p)
    return math.comb(n, k) * pf**k * (1 - pf) ** (n - k)


def exact_binomial_range(lo: int, hi: int, n: int, p: float) -> float:
    pf = Fraction(p)
    qf = 1 - pf
    return float(sum(math.comb(n, i) * pf**i * qf ** (n - i) for i in range(lo, hi + 1)))


def exact_binomial_cdf(k: int, n: int, p: float) -> float:
    return exact_binomial_range(0, k, n, p)


def exact_binomial_sf(k: int, n: int, p: float) -> float:
    return exact_binomial_range(k, n, n, p)


_LN_2PI = Decimal("1.837877066409345483560659472811235279722794947275566825634")


def _decimal_log_factorial(n: int) -> Decimal:
    """ln n!, exact below 1000 and from Stirling's series (within 1e-24) above."""
    if n < 1000:
        return Decimal(math.factorial(n)).ln()
    d = Decimal(n)
    return ((d + Decimal("0.5")) * d.ln() - d + _LN_2PI / 2
            + 1 / (12 * d) - 1 / (360 * d**3) + 1 / (1260 * d**5))


def far_binomial_tail(k: int, n: int, p: float, lower: bool) -> float:
    """P[X <= k] if ``lower``, else P[X >= k], for X ~ Binomial(n, p) and a k
    past the mode on that side, so that the terms fall away from k.  The pmf
    at k is taken in 34-digit decimals, and the ratios of the terms after it
    are summed in floats until the next is below 2^-60 of the sum.  It agreed
    with exact sums within 1.1e-15 relative at 200 random points with n up to
    1500, and with 40-digit sums within 1.7e-14 at five points up to 10^7."""
    with localcontext() as ctx:
        ctx.prec = 34
        p_d = Decimal(p)
        q_d = 1 - p_d
        if lower:  # P[X <= k] = P[n - X >= n - k], where n - X ~ Binomial(n, 1 - p)
            k, p_d, q_d = n - k, q_d, p_d
        ln_pmf = (_decimal_log_factorial(n) - _decimal_log_factorial(k)
                  - _decimal_log_factorial(n - k) + k * p_d.ln() + (n - k) * q_d.ln())
        odds = float(p_d / q_d)
        total = term = 1.0
        for i in range(k, n):
            term *= (n - i) / (i + 1) * odds
            total += term
            if term < total * 2.0**-60:
                break
        return float(ln_pmf.exp() * Decimal(total))


def decimal_shannon_root(h: float) -> Decimal:
    """The q in (0, 0.5] whose binary entropy is h bits, by bisection in
    40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        nats = Decimal(h) * Decimal(2).ln()
        lo, hi = Decimal(0), Decimal("0.5")
        for _ in range(200):
            mid = (lo + hi) / 2
            if -(mid * mid.ln() + (1 - mid) * (1 - mid).ln()) < nats:
                lo = mid
            else:
                hi = mid
        return hi


def decimal_shannon_entropy(p: float) -> Decimal:
    """The binary entropy of p in bits, in 60-digit decimal arithmetic.  Below
    1e-15, where 1 - p keeps too few of p's digits, ln(1 - p) is its series."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(p)
        ln_q = -(d + d * d / 2 + d * d * d / 3) if d < Decimal("1e-15") else (1 - d).ln()
        return -(d * d.ln() + (1 - d) * ln_q) / Decimal(2).ln()


def erf_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bisect_normal_quantile(q: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quad_incomplete_beta(x: float, a: float, b: float) -> float:
    from scipy import integrate

    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - ln_b)

    value, _ = integrate.quad(pdf, 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def float_binomial_sf(x: int, n: int, p: float) -> float:
    # float powers with exact comb; fine for n a few hundred
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(x, n + 1))


def float_binomial_cdf(x: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(x + 1))


def bisect_cp_lower(x: int, n: int, alpha: float) -> float:
    # p solving P[X >= x | p] = alpha/2; the tail grows with p
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float_binomial_sf(x, n, mid) < 0.5 * alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_cp_upper(x: int, n: int, alpha: float) -> float:
    # p solving P[X <= x | p] = alpha/2; the tail shrinks as p grows
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float_binomial_cdf(x, n, mid) > 0.5 * alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wilson_bounds_by_roots(x: int, n: int, z: float) -> tuple[float, float]:
    # the bounds solve (p_hat - p)^2 = z^2 p(1-p)/n; solve the quadratic directly
    p_hat = x / n
    a = 1.0 + z * z / n
    b = -(2.0 * p_hat + z * z / n)
    c = p_hat * p_hat
    roots = np.roots([a, b, c])
    lo, hi = sorted(float(r.real) for r in roots)
    return lo, hi
