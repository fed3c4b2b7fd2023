"""Monte-Carlo validation of the statistical guarantees.

Each run simulates the relevant experiment under a known true alias and
reports the observed frequency with its binomial standard error: interval
coverage for a chosen estimator, the false acceptance rate at an out-of-range
alias, or the false rejection rate at an in-range alias.  Draw counts repeat
heavily, so each interval is computed once per distinct count, not per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import METHODS, confidence_interval
from .errors import DomainError
from .qualification import AliasLimits, acceptance_region
from .response import _per_distinct
from .simulate import rng_stream
from .special import _as_probability

KINDS = ("coverage", "far", "frr")


@dataclass(frozen=True)
class CoverageParams:
    """Interval coverage at a fixed true alias."""

    method: str
    p: float
    devices: int
    alpha: float


@dataclass(frozen=True)
class QualificationParams:
    """Acceptance behavior of the two-sided test at a fixed true alias."""

    devices: int
    limits: AliasLimits
    alpha: float
    p: float


@dataclass(frozen=True)
class MonteCarloEstimate:
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
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    if trials < 1000:
        raise DomainError("trials must be at least 1000")
    rng = rng_stream(seed, task)
    if kind == "coverage":
        value = _coverage_frequency(params, trials, rng)
    else:
        accept = _acceptance_frequency(params, trials, rng)
        value = accept if kind == "far" else 1.0 - accept
    return MonteCarloEstimate(kind=kind, value=value,
                              std_error=math.sqrt(value * (1.0 - value) / trials),
                              trials=trials)


def _coverage_frequency(params: CoverageParams, trials: int,
                        rng: np.random.Generator) -> float:
    if params.method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {params.method!r}")
    p = _as_probability(params.p, "p")
    n = params.devices
    draws = rng.binomial(n, p, size=trials)
    covered = _per_distinct(
        draws, lambda x: confidence_interval(params.method, x, n, params.alpha).contains(p))
    return sum(covered) / trials


def _acceptance_frequency(params: QualificationParams, trials: int,
                          rng: np.random.Generator) -> float:
    p = _as_probability(params.p, "p")
    n = params.devices
    region = acceptance_region(n, params.limits, params.alpha)
    draws = rng.binomial(n, p, size=trials)
    if region.is_empty:
        return 0.0
    inside = np.count_nonzero((draws >= region.x_l) & (draws <= region.x_u))
    return inside / trials
