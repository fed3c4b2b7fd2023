"""Report rendering: an analysis result as a text table, JSON, or CSV.

``render_report`` serializes an ``analysis.AnalysisResult``; all three
formats are byte-stable for fixed input, and each renders once per distinct
count: positions with equal counts share one report, whose text around the
position index is formatted once.  The module needs no arrays, so ``analyze``
renders a report without loading numpy, and it imports ``json`` only when a
JSON report is rendered.
"""

from __future__ import annotations

from .special import _as_choice

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
