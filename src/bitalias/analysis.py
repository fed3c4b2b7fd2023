"""End-to-end analysis: pipeline orchestration and report rendering.

``analyze`` runs measurements through noise removal, counting, interval
estimation, and the qualification test, producing a report for every position
plus a campaign summary.  ``render_report`` serializes the result as an
aligned text table, JSON, or CSV; all three are byte-stable for fixed input.
Verdicts always come from the exact test, while the reported interval uses
the configured estimator (Wilson by default).  Every statistic depends on a
position's count alone, so it is evaluated once per distinct count:
``reports[t]`` is position t's report, and equal counts share one object.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

from .confidence import METHODS, Interval, confidence_interval
from .entropy import EntropySpec, limits_from_spec, min_entropy_from_limits, shannon_entropy
from .errors import DomainError
from .qualification import (AcceptanceRegion, AliasLimits, EarlyStopAdvice,
                            TestVerdict, acceptance_region, early_stop_decision,
                            test_position)
from .response import MeasurementTensor, PositionCounts, _per_distinct, count_ones, \
    derive_noise_free_response
from .special import _as_probability, _check_alpha

CSV_HEADER = "t,x,N,p_hat,ci_lo,ci_hi,p_val_lo,p_val_hi,accepted,min_entropy,shannon_entropy"


@dataclass(frozen=True)
class EarlyStopConfig:
    """Early-abort settings: flagging level and tolerated flagged fraction."""

    alpha: float = 0.01
    max_flag_fraction: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _as_probability(self.max_flag_fraction, "max_flag_fraction")


@dataclass(frozen=True)
class AnalysisConfig:
    """What to test and how to report it.

    Exactly one of ``limits`` and ``entropy_spec`` must be given; an entropy
    requirement is converted to alias limits before any statistics run.
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
        if self.ci_method not in METHODS:
            raise DomainError(f"ci_method must be one of {METHODS}, got {self.ci_method!r}")
        if self.output_format not in REPORT_FORMATS:
            raise DomainError(
                f"output_format must be one of {REPORT_FORMATS}, got {self.output_format!r}")

    def resolved_limits(self) -> AliasLimits:
        if self.limits is not None:
            return self.limits
        return limits_from_spec(self.entropy_spec)


@dataclass(frozen=True)
class PositionReport:
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


@dataclass(frozen=True)
class AnalysisSummary:
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


@dataclass(frozen=True)
class AnalysisResult:
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


def render_report(result: AnalysisResult, fmt: str | None = None) -> bytes:
    """Serialize an analysis result; the format defaults to the config's."""
    fmt = result.config.output_format if fmt is None else fmt
    if fmt not in REPORT_FORMATS:
        raise DomainError(f"unknown report format {fmt!r}, expected one of {REPORT_FORMATS}")
    return _RENDERERS[fmt](result)


def _num(v: float) -> str:
    return f"{v:.6g}"


def _render_csv(result: AnalysisResult) -> bytes:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for t, r in enumerate(result.reports):
        out.write(",".join((
            str(t), str(r.ones), str(r.devices), _num(r.alias),
            _num(r.interval.lower), _num(r.interval.upper),
            _num(r.verdict.p_value_lower), _num(r.verdict.p_value_upper),
            "1" if r.verdict.accepted else "0",
            _num(r.min_entropy), _num(r.shannon_entropy))) + "\n")
    return out.getvalue().encode("ascii")


def _config_payload(cfg: AnalysisConfig, limits: AliasLimits) -> dict:
    return {
        "alpha": cfg.alpha,
        "p_l": limits.p_l,
        "p_u": limits.p_u,
        "ci_method": cfg.ci_method,
        "entropy_spec": None if cfg.entropy_spec is None else
            {"kind": cfg.entropy_spec.kind, "value": cfg.entropy_spec.value},
        "early_stop": None if cfg.early_stop is None else
            {"alpha": cfg.early_stop.alpha,
             "max_flag_fraction": cfg.early_stop.max_flag_fraction},
        "per_position_alpha": True,  # no multiple-testing correction across positions
    }


def _render_json(result: AnalysisResult) -> bytes:
    region = result.summary.region
    advice = result.summary.early_stop
    payload = {
        "config": _config_payload(result.config, region.limits),
        "summary": {
            "devices": result.summary.devices,
            "positions": result.summary.positions,
            "repeats": result.summary.repeats,
            "tie_count": result.summary.tie_count,
            "accepted": result.summary.accepted,
            "rejected": result.summary.rejected,
            "region": {"empty": region.is_empty, "x_l": region.x_l, "x_u": region.x_u},
            "early_stop": None if advice is None else {
                "decision": advice.decision,
                "flagged_positions": list(advice.flagged_positions),
                "p_values_low": list(advice.p_values_low),
                "p_values_high": list(advice.p_values_high),
            },
        },
        "positions": [{
            "t": t,
            "x": r.ones,
            "n": r.devices,
            "p_hat": r.alias,
            "ci": {"method": r.interval.method, "lower": r.interval.lower,
                   "upper": r.interval.upper, "alpha": r.interval.alpha},
            "p_value_lower": r.verdict.p_value_lower,
            "p_value_upper": r.verdict.p_value_upper,
            "accepted": r.verdict.accepted,
            "min_entropy": r.min_entropy,
            "shannon_entropy": r.shannon_entropy,
            "min_entropy_ci_worst": r.min_entropy_worst,
            "shannon_entropy_ci_worst": r.shannon_entropy_worst,
        } for t, r in enumerate(result.reports)],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def _render_text(result: AnalysisResult) -> bytes:
    s = result.summary
    region = s.region
    out = io.StringIO()
    repeats = "-" if s.repeats is None else str(s.repeats)
    ties = "-" if s.tie_count is None else str(s.tie_count)
    out.write(f"devices={s.devices} positions={s.positions} repeats={repeats} ties={ties}\n")
    out.write(f"limits: p_l={_num(region.limits.p_l)} p_u={_num(region.limits.p_u)} "
              f"alpha={_num(result.config.alpha)} ci_method={result.config.ci_method}\n")
    if region.is_empty:
        out.write("acceptance region: empty (no count can qualify at this device count)\n")
    else:
        out.write(f"acceptance region: x_l={region.x_l} x_u={region.x_u} "
                  f"(per-position alpha, no multiplicity correction)\n")
    out.write(f"accepted={s.accepted} rejected={s.rejected}\n")
    if s.early_stop is not None:
        adv = s.early_stop
        out.write(f"early-stop: decision={adv.decision} "
                  f"flagged={len(adv.flagged_positions)}/{s.positions}\n")
    out.write("\n")
    out.write(f"{'t':>6} {'x':>8} {'p_hat':>10} {'ci_lo':>10} {'ci_hi':>10} "
              f"{'p_val_lo':>10} {'p_val_hi':>10} {'ok':>3} {'h_min':>9} {'h_shan':>9}\n")
    for t, r in enumerate(result.reports):
        out.write(f"{t:>6d} {r.ones:>8d} {r.alias:>10.6g} "
                  f"{r.interval.lower:>10.6g} {r.interval.upper:>10.6g} "
                  f"{r.verdict.p_value_lower:>10.3g} {r.verdict.p_value_upper:>10.3g} "
                  f"{'yes' if r.verdict.accepted else 'no':>3} "
                  f"{r.min_entropy:>9.6g} {r.shannon_entropy:>9.6g}\n")
    return out.getvalue().encode("ascii")


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}
REPORT_FORMATS = tuple(_RENDERERS)
