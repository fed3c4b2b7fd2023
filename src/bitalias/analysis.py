"""End-to-end analysis: pipeline orchestration.

``analyze`` runs measurements through noise removal, counting, interval
estimation, and the qualification test, producing a report for every position
plus a campaign summary.  Verdicts come from the exact test, which accepts a
count exactly when its Clopper-Pearson interval lies strictly inside the
limits, not from the reported interval (Wilson by default): a Wilson interval
can lie inside (0.48, 0.52) beside "no", as at n = 20000 with x = 9782 or
10218.  Every statistic depends on a position's count alone, so it is
evaluated once per distinct count: ``reports[t]`` is position t's report, and
equal counts share one object.

``render_report`` writes a result as a byte-stable text table, JSON or CSV.
Each format renders a shared report's text around the position index once;
only a JSON report's early-stop p-value lists are encoded one value per
position.  Nothing here needs numpy, and ``json`` loads only for JSON.
"""

from __future__ import annotations

from .confidence import METHODS, Interval, confidence_interval
from .entropy import EntropySpec, limits_from_spec, min_entropy_from_limits, shannon_entropy
from .errors import DomainError
from .qualification import (AcceptanceRegion, AliasLimits, EarlyStopAdvice, TestVerdict,
                            _as_limits, acceptance_region, early_stop_decision, test_position)
from .response import MeasurementTensor, PositionCounts, count_ones, derive_noise_free_response
from .special import Record, _as_choice, _as_count, _as_probability, _check_alpha, _per_distinct


class EarlyStopConfig(Record):
    """Early-abort settings: flagging level and tolerated flagged fraction."""

    alpha: float = 0.01
    max_flag_fraction: float = 0.0

    def __post_init__(self):
        self.__dict__.update(alpha=_check_alpha(self.alpha), max_flag_fraction=_as_probability(
            self.max_flag_fraction, "max_flag_fraction"))


class AnalysisConfig(Record):
    """What to test and how to report it.

    Give ``limits`` (an `AliasLimits` or a pair) or ``entropy_spec``.  Either is
    checked once, when the config is built, and kept as an `AliasLimits` in
    ``limits``, so a floor that no finite test can verify is rejected there.
    Both may be given if they agree, as in a config rebuilt from its own fields.
    """

    alpha: float = 0.01
    limits: AliasLimits | None = None
    entropy_spec: EntropySpec | None = None
    ci_method: str = "wilson"
    early_stop: EarlyStopConfig | None = None
    output_format: str = "text"

    def __post_init__(self):
        alpha, spec = _check_alpha(self.alpha), self.entropy_spec
        limits = None if self.limits is None else _as_limits(self.limits)
        if limits is None and spec is None:
            raise DomainError("provide limits or entropy_spec")
        self.__dict__.update(
            alpha=alpha, ci_method=_as_choice(self.ci_method, "ci_method", METHODS),
            output_format=_as_choice(self.output_format, "output_format", REPORT_FORMATS),
            limits=limits if spec is None else limits_from_spec(spec))
        if limits not in (None, band := self.limits):
            raise DomainError(f"limits differ from the floor's band ({band.p_l}, {band.p_u})")


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
    repeats = None if repeats is None else _as_count(repeats, "repeats", 1)
    tie_count = None if tie_count is None else _as_count(tie_count, "tie_count")
    limits, n = cfg.limits, counts.devices
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


CSV_HEADER = "t,x,N,p_hat,ci_lo,ci_hi,p_val_lo,p_val_hi,accepted,min_entropy,shannon_entropy"


def render_report(result: AnalysisResult, fmt: str | None = None) -> bytes:
    """Serialize an analysis result; the format defaults to the config's."""
    fmt = result.config.output_format if fmt is None else fmt
    return _RENDERERS[_as_choice(fmt, "report format", REPORT_FORMATS)](result)


def _num(v: float) -> str:
    return f"{v:.6g}"


def _rows(reports, pair, sep: str = "", index: str = "") -> str:
    """Every position's row, joined by ``sep``.

    ``pair(r)`` gives the text before and after a position's index.  It runs
    once per distinct report object, and position t's row is that head, then
    ``format(t, index)``, then that tail."""
    distinct = {id(r): r for r in reports}
    pairs = {key: pair(r) for key, r in distinct.items()}
    return sep.join([f"{head}{t:{index}}{tail}" for t, (head, tail)
                     in enumerate(map(pairs.__getitem__, map(id, reports)))])


def _csv_pair(r) -> tuple[str, str]:
    return "", "," + ",".join((
        str(r.ones), str(r.devices), _num(r.alias),
        _num(r.interval.lower), _num(r.interval.upper),
        _num(r.verdict.p_value_lower), _num(r.verdict.p_value_upper),
        "1" if r.verdict.accepted else "0",
        _num(r.min_entropy), _num(r.shannon_entropy))) + "\n"


def _render_csv(result: AnalysisResult) -> bytes:
    return (CSV_HEADER + "\n" + _rows(result.reports, _csv_pair)).encode("ascii")


def _render_json(result: AnalysisResult) -> bytes:
    import json

    def pair(r) -> tuple[str, str]:
        # r's object, indented to its depth in "positions"; with sorted keys,
        # "t" (the only "" value) falls between "shannon_entropy_ci_worst" and "x"
        text = json.dumps({
            "t": "", "x": r.ones, "n": r.devices, "p_hat": r.alias,
            "ci": {"method": r.interval.method, "lower": r.interval.lower,
                   "upper": r.interval.upper, "alpha": r.interval.alpha},
            "p_value_lower": r.verdict.p_value_lower,
            "p_value_upper": r.verdict.p_value_upper,
            "accepted": r.verdict.accepted,
            "min_entropy": r.min_entropy,
            "shannon_entropy": r.shannon_entropy,
            "min_entropy_ci_worst": r.min_entropy_worst,
            "shannon_entropy_ci_worst": r.shannon_entropy_worst,
        }, indent=2, sort_keys=True)
        head, _, tail = ("    " + text.replace("\n", "\n    ")).partition('""')
        return head, tail

    cfg, s = result.config, result.summary
    advice = s.early_stop
    payload = {
        "config": {
            "alpha": cfg.alpha,
            "p_l": s.region.limits.p_l,
            "p_u": s.region.limits.p_u,
            "ci_method": cfg.ci_method,
            "entropy_spec": None if cfg.entropy_spec is None else
                {"kind": cfg.entropy_spec.kind, "value": cfg.entropy_spec.value},
            "early_stop": None if cfg.early_stop is None else
                {"alpha": cfg.early_stop.alpha,
                 "max_flag_fraction": cfg.early_stop.max_flag_fraction},
            "per_position_alpha": True,  # no multiple-testing correction across positions
        },
        "summary": {
            "devices": s.devices,
            "positions": s.positions,
            "repeats": s.repeats,
            "tie_count": s.tie_count,
            "accepted": s.accepted,
            "rejected": s.rejected,
            "region": {"empty": s.region.is_empty, "x_l": s.region.x_l, "x_u": s.region.x_u},
            "early_stop": None if advice is None else {
                "decision": advice.decision,
                "flagged_positions": list(advice.flagged_positions),
                "p_values_low": list(advice.p_values_low),
                "p_values_high": list(advice.p_values_high),
            },
        },
        "positions": [],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if result.reports:  # the summary's "positions" is a number, so this is the list
        before, _, after = text.partition('"positions": []')
        text = "".join((before, '"positions": [\n',
                        _rows(result.reports, pair, sep=",\n"), "\n  ]", after))
    return text.encode("ascii")


def _render_text(result: AnalysisResult) -> bytes:
    s = result.summary
    region = s.region
    repeats = "-" if s.repeats is None else str(s.repeats)
    ties = "-" if s.tie_count is None else str(s.tie_count)
    lines = [
        f"devices={s.devices} positions={s.positions} repeats={repeats} ties={ties}",
        f"limits: p_l={_num(region.limits.p_l)} p_u={_num(region.limits.p_u)} "
        f"alpha={_num(result.config.alpha)} ci_method={result.config.ci_method}",
        "acceptance region: empty (no count can qualify at this device count)"
        if region.is_empty else f"acceptance region: x_l={region.x_l} x_u={region.x_u} "
        "(per-position alpha, no multiplicity correction)",
        f"accepted={s.accepted} rejected={s.rejected}"]
    if s.early_stop is not None:
        lines.append(f"early-stop: decision={s.early_stop.decision} "
                     f"flagged={len(s.early_stop.flagged_positions)}/{s.positions}")
    lines += ["", f"{'t':>6} {'x':>8} {'p_hat':>10} {'ci_lo':>10} {'ci_hi':>10} "
              f"{'p_val_lo':>10} {'p_val_hi':>10} {'ok':>3} {'h_min':>9} {'h_shan':>9}",
              _rows(result.reports, _text_pair, index=">6d")]
    return "\n".join(lines).encode("ascii")


def _text_pair(r) -> tuple[str, str]:
    return "", (f" {r.ones:>8d} {r.alias:>10.6g} "
                f"{r.interval.lower:>10.6g} {r.interval.upper:>10.6g} "
                f"{r.verdict.p_value_lower:>10.3g} {r.verdict.p_value_upper:>10.3g} "
                f"{'yes' if r.verdict.accepted else 'no':>3} "
                f"{r.min_entropy:>9.6g} {r.shannon_entropy:>9.6g}\n")


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}
REPORT_FORMATS = tuple(_RENDERERS)
