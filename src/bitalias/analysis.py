"""End-to-end analysis: pipeline orchestration.

``analyze`` runs measurements through noise removal, counting, interval
estimation, and the qualification test, producing a report for every position
plus a campaign summary.  Verdicts always come from the exact test, while the
reported interval uses the configured estimator (Wilson by default).  Every
statistic depends on a position's count alone, so it is evaluated once per
distinct count: ``reports[t]`` is position t's report, and equal counts share
one object.

Rendering lives in ``report``, which needs no numpy; ``render_report``,
``REPORT_FORMATS`` and ``CSV_HEADER`` are imported from there and stay
reachable here.
"""

from __future__ import annotations

from .confidence import METHODS, Interval, confidence_interval
from .entropy import EntropySpec, limits_from_spec, min_entropy_from_limits, shannon_entropy
from .errors import DomainError
from .qualification import (AcceptanceRegion, AliasLimits, EarlyStopAdvice,
                            TestVerdict, acceptance_region, early_stop_decision,
                            test_position)
from .report import CSV_HEADER, REPORT_FORMATS, render_report
from .response import MeasurementTensor, PositionCounts, _per_distinct, count_ones, \
    derive_noise_free_response
from .special import Record, _as_choice, _as_probability, _check_alpha


class EarlyStopConfig(Record):
    """Early-abort settings: flagging level and tolerated flagged fraction."""

    alpha: float = 0.01
    max_flag_fraction: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _as_probability(self.max_flag_fraction, "max_flag_fraction")


class AnalysisConfig(Record):
    """What to test and how to report it.

    Exactly one of ``limits`` and ``entropy_spec`` must be given; an entropy
    requirement is converted to alias limits when the config is built, so a
    floor that no finite test can verify is rejected there.
    """

    alpha: float = 0.01
    limits: AliasLimits | None = None
    entropy_spec: EntropySpec | None = None
    ci_method: str = "wilson"
    early_stop: EarlyStopConfig | None = None
    output_format: str = "text"

    def __post_init__(self):
        _check_alpha(self.alpha)
        if (self.limits is None) == (self.entropy_spec is None):
            raise DomainError("provide exactly one of limits and entropy_spec")
        _as_choice(self.ci_method, "ci_method", METHODS)
        _as_choice(self.output_format, "output_format", REPORT_FORMATS)
        self.resolved_limits()

    def resolved_limits(self) -> AliasLimits:
        if self.limits is not None:
            return self.limits
        return limits_from_spec(self.entropy_spec)


class PositionReport(Record):
    """Everything the report knows about a position with a given count.

    ``AnalysisResult.reports[t]`` is position t's report; positions with
    equal counts share one object, and ``enumerate`` gives the index.
    Entropies are given twice: at the point estimate and at the worst case
    over the interval (the endpoint farther from 0.5), the conservative
    figure a security analysis should quote.
    """

    ones: int
    devices: int
    alias: float
    interval: Interval
    verdict: TestVerdict
    min_entropy: float
    shannon_entropy: float
    min_entropy_worst: float
    shannon_entropy_worst: float


class AnalysisSummary(Record):
    """Campaign-level outcome; repeats and tie_count are None when the input
    was pre-counted and no raw tensor existed."""

    devices: int
    positions: int
    repeats: int | None
    tie_count: int | None
    accepted: int
    rejected: int
    region: AcceptanceRegion
    early_stop: EarlyStopAdvice | None


class AnalysisResult(Record):
    config: AnalysisConfig
    reports: tuple[PositionReport, ...]
    summary: AnalysisSummary

    @property
    def all_accepted(self) -> bool:
        return self.summary.rejected == 0


def analyze_counts(counts: PositionCounts, cfg: AnalysisConfig, *,
                   repeats: int | None = None,
                   tie_count: int | None = None) -> AnalysisResult:
    """Analysis from the sufficient statistic (counts of 1s, device count)."""
    limits = cfg.resolved_limits()
    n = counts.devices
    region = acceptance_region(n, limits, cfg.alpha)

    def report(x: int) -> PositionReport:
        interval = confidence_interval(cfg.ci_method, x, n, cfg.alpha)
        p_hat = x / n
        worst = interval.lower if abs(interval.lower - 0.5) > abs(interval.upper - 0.5) \
            else interval.upper
        return PositionReport(
            ones=x, devices=n, alias=p_hat, interval=interval,
            verdict=test_position(x, n, limits, cfg.alpha),
            min_entropy=min_entropy_from_limits(p_hat),
            shannon_entropy=shannon_entropy(p_hat),
            min_entropy_worst=min_entropy_from_limits(worst),
            shannon_entropy_worst=shannon_entropy(worst))

    reports = tuple(_per_distinct(counts.ones, report))
    accepted = sum(r.verdict.accepted for r in reports)
    advice = None if cfg.early_stop is None else early_stop_decision(
        counts, limits, cfg.early_stop.alpha, cfg.early_stop.max_flag_fraction)
    summary = AnalysisSummary(
        devices=n, positions=counts.positions, repeats=repeats, tie_count=tie_count,
        accepted=accepted, rejected=counts.positions - accepted,
        region=region, early_stop=advice)
    return AnalysisResult(config=cfg, reports=reports, summary=summary)


def analyze(m: MeasurementTensor, cfg: AnalysisConfig) -> AnalysisResult:
    """Full pipeline from raw measurements: noise removal, counting, intervals,
    verdicts, and the campaign summary."""
    response = derive_noise_free_response(m)
    counts = count_ones(response)
    return analyze_counts(counts, cfg, repeats=m.repeats, tie_count=response.tie_count)
