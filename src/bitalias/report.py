"""Report rendering: an analysis result as a text table, JSON, or CSV.

``render_report`` serializes an ``analysis.AnalysisResult``; all three
formats are byte-stable for fixed input.  The module needs no arrays, so the
command-line parser can read ``REPORT_FORMATS`` without loading numpy, and it
imports ``json`` only when a JSON report is rendered.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING

from .special import _as_choice

if TYPE_CHECKING:
    from .analysis import AnalysisConfig, AnalysisResult
    from .qualification import AliasLimits

CSV_HEADER = "t,x,N,p_hat,ci_lo,ci_hi,p_val_lo,p_val_hi,accepted,min_entropy,shannon_entropy"


def render_report(result: AnalysisResult, fmt: str | None = None) -> bytes:
    """Serialize an analysis result; the format defaults to the config's."""
    fmt = result.config.output_format if fmt is None else fmt
    return _RENDERERS[_as_choice(fmt, "report format", REPORT_FORMATS)](result)


def _num(v: float) -> str:
    return f"{v:.6g}"


def _row_texts(reports, fmt) -> list[str]:
    """``fmt(r)`` for every report, formatted once per distinct report.

    Positions with equal counts share one report object, so the text after
    each position's index is formatted once and reused."""
    distinct = {id(r): r for r in reports}
    text = {key: fmt(r) for key, r in distinct.items()}
    return [text[id(r)] for r in reports]


def _csv_row(r) -> str:
    return ",".join((
        str(r.ones), str(r.devices), _num(r.alias),
        _num(r.interval.lower), _num(r.interval.upper),
        _num(r.verdict.p_value_lower), _num(r.verdict.p_value_upper),
        "1" if r.verdict.accepted else "0",
        _num(r.min_entropy), _num(r.shannon_entropy)))


def _render_csv(result: AnalysisResult) -> bytes:
    rows = _row_texts(result.reports, _csv_row)
    body = "".join(f"{t},{row}\n" for t, row in enumerate(rows))
    return (CSV_HEADER + "\n" + body).encode("ascii")


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
    import json

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
    rows = _row_texts(result.reports, _text_row)
    out.write("".join(f"{t:>6d} {row}\n" for t, row in enumerate(rows)))
    return out.getvalue().encode("ascii")


def _text_row(r) -> str:
    return (f"{r.ones:>8d} {r.alias:>10.6g} "
            f"{r.interval.lower:>10.6g} {r.interval.upper:>10.6g} "
            f"{r.verdict.p_value_lower:>10.3g} {r.verdict.p_value_upper:>10.3g} "
            f"{'yes' if r.verdict.accepted else 'no':>3} "
            f"{r.min_entropy:>9.6g} {r.shannon_entropy:>9.6g}")


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}
REPORT_FORMATS = tuple(_RENDERERS)
