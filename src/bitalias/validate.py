"""Monte-Carlo validation of the statistical guarantees.

Each run simulates the relevant experiment under a known true alias and
reports the observed frequency with its binomial standard error: interval
coverage for a chosen estimator, the false acceptance rate at an out-of-range
alias, or the false rejection rate at an in-range alias.  Every kind counts
the draws inside one count range: the acceptance region (for false rejection,
one minus that share), or the run of counts whose interval contains the alias.
The draws come from one seeded stream in fixed chunks, which give the numbers
one call for all of them would, so memory does not depend on the number of
trials and time grows linearly with it; an empty range takes no draws.
"""

from __future__ import annotations

import math

import numpy as np

from .confidence import METHODS, _first, _normal_half, _z_for, confidence_interval
from .errors import DomainError
from .qualification import AliasLimits, _as_limits, acceptance_region
from .simulate import rng_stream
from .special import (Record, _as_choice, _as_count, _as_devices, _as_probability,
                      _check_alpha, _spans)

KINDS = ("coverage", "far", "frr")


class CoverageParams(Record):
    """Interval coverage at a fixed true alias."""

    method: str
    p: float
    devices: int
    alpha: float

    def __post_init__(self):
        self.__dict__.update(method=_as_choice(self.method, "method", METHODS),
                             p=_as_probability(self.p, "p"), devices=_as_devices(self.devices),
                             alpha=_check_alpha(self.alpha))


class QualificationParams(Record):
    """Acceptance behavior of the two-sided test at a fixed true alias."""

    devices: int
    limits: AliasLimits
    alpha: float
    p: float

    def __post_init__(self):
        self.__dict__.update(p=_as_probability(self.p, "p"), devices=_as_devices(self.devices),
                             limits=_as_limits(self.limits), alpha=_check_alpha(self.alpha))


class MonteCarloEstimate(Record):
    kind: str
    value: float
    std_error: float
    trials: int


def monte_carlo_validate(kind: str, params, trials: int, seed: int,
                         task: int = 0) -> MonteCarloEstimate:
    """Estimate one guarantee frequency from seeded simulation.

    ``task`` selects an independent substream so grid sweeps can give every
    cell its own reproducible randomness from one campaign seed.
    """
    _as_choice(kind, "kind", KINDS)
    record = CoverageParams if kind == "coverage" else QualificationParams
    if not isinstance(params, record):
        raise DomainError(f"kind {kind!r} needs {record.__name__}, got {type(params).__name__}")
    trials = _as_count(trials, "trials", 1000)
    rng = rng_stream(seed, task)
    if kind == "coverage":
        p, n, counted = _coverage_run(params)
    else:
        p, region = params.p, acceptance_region(params.devices, params.limits, params.alpha)
        n, counted = region.devices, None if region.is_empty else (region.x_l, region.x_u)
    inside = 0
    if counted is not None:
        low, high = counted
        for a, b in _spans(trials, 8):
            draws = rng.binomial(n, p, size=b - a)
            inside += int(np.count_nonzero((draws >= low) & (draws <= high)))
    value = 1.0 - inside / trials if kind == "frr" else inside / trials
    return MonteCarloEstimate(kind=kind, value=value,
                              std_error=math.sqrt(value * (1.0 - value) / trials),
                              trials=trials)


def _coverage_run(params: CoverageParams):
    """(p, n, (first, last) or None): the counts whose interval contains p.
    Both bounds rise with the count, so they form one run; lower(0) = 0 <= p
    and upper(n) = 1 >= p, so only its other two ends take a call to settle."""
    p, n, alpha = params.p, params.devices, params.alpha
    half = _normal_half(p, n, _z_for(alpha))

    def interval(x: int):
        return confidence_interval(params.method, x, n, alpha)

    first = 0 if interval(0).upper >= p else _first(
        lambda x: interval(x).upper >= p, math.ceil(n * (p - half)), "run end", limit=n)
    last = n if interval(n).lower <= p else _first(
        lambda x: interval(x).lower > p, math.floor(n * (p + half)) + 1, "run end", limit=n) - 1
    return p, n, (first, last) if first <= last else None
