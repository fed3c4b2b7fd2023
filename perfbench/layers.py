"""Traced in-process run: per-layer figures for one workload.

    python3 perfbench/layers.py --workload W --seed S --dir DIR

Calls the public functions the CLI calls for the workload, in this process,
and times every layer from outside: the calls this script makes are spans,
and the package functions those calls reach are replaced, where the calling
module looks them up, by wrappers that add up calls, total time and self time
(duration minus the time of wrapped calls inside).  Nothing in the package
changes.  Peak memory comes from a second, untraced pass under tracemalloc.

Every layer figure is measured on the workload's own operation.  Where the
operation does not reach a layer (the vote on pre-counted input, the planners
in an analysis), the figure comes from a small reference sweep that reaches
every layer: a 68 x 64 x 4 campaign analysed with Clopper-Pearson and early
stop, and three small planner and Monte-Carlo calls.

Writes DIR/spans.json (spans with name, start, end and parent, plus the
per-layer aggregates) when it ends, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from bitalias import (AliasLimits, AnalysisConfig, CoverageParams, EarlyStopConfig,
                      PopulationSpec, QualificationParams, acceptance_region, analyze,
                      analyze_counts, binomial_range_mass, derive_noise_free_response,
                      load_counts, load_measurements, monte_carlo_validate,
                      plan_devices_exact, plan_devices_frr, render_report,
                      simulate_population, write_measurements)

from workloads import ALPHA, ANALYZE_WORKLOADS, BETA, LIMITS, PLAN_QUERIES, TRIALS

RANGE_MASS_REPEATS = 3
SWEEP_FILE = "sweep.csv"

# (module, function name, layer span name): the lookups the wrappers replace.
WRAPPED = (
    ("analysis", "derive_noise_free_response", "response.vote"),
    ("analysis", "count_ones", "response.count"),
    ("analysis", "confidence_interval", "confidence.interval"),
    ("analysis", "test_position", "qualification.test"),
    ("analysis", "acceptance_region", "qualification.region"),
    ("analysis", "early_stop_decision", "qualification.early_stop"),
    ("analysis", "min_entropy_from_limits", "entropy"),
    ("analysis", "shannon_entropy", "entropy"),
    ("confidence", "confidence_interval", "confidence.interval"),
    ("confidence", "beta_quantile", "special.beta_quantile"),
    ("qualification", "acceptance_region", "qualification.region"),
    ("qualification", "binomial_cdf", "special.tail"),
    ("qualification", "binomial_sf", "special.tail"),
    ("qualification", "binomial_range_mass", "special.range_mass"),
    ("validate", "confidence_interval", "confidence.interval"),
    ("validate", "acceptance_region", "qualification.region"),
)


class Tracer:
    """Span recorder kept in memory and written out once.

    Calls made by this script are recorded one by one; calls reached through
    the wrappers are many (one per position), so they are aggregated per
    (layer, enclosing recorded span).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int], list] = {}
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self._stack: list[list] = []  # [child time, id of nearest recorded span]
        self._saved: list[tuple] = []

    def reset_stats(self) -> None:
        self.stats = {}

    def _enter(self, record: bool, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else None
        span_id = len(self.spans) if record else parent
        if record:
            self.spans.append({"id": span_id, "name": name, "parent": parent})
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float, record: bool) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[0]
        if record:
            self.spans[frame[1]].update(start=start, end=end)
        else:
            agg = self.aggregates.setdefault((name, frame[1]), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call as a recorded span."""
        frame = self._enter(True, name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, name, start, time.perf_counter(), True)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = self._enter(False, name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, name, start, time.perf_counter(), False)
        return traced

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(f"bitalias.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        aggregates = [{"name": name, "parent": parent, "calls": calls,
                       "total_s": total, "self_s": self_s}
                      for (name, parent), (calls, total, self_s) in self.aggregates.items()]
        path.write_text(json.dumps({"spans": self.spans, "aggregates": aggregates}, indent=1))


def peak_mb(fn, *args) -> float:
    """Peak traced allocation, in MB, while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def analysis_facts(tensor, result, report: bytes, path: Path, load) -> dict:
    """Facts and peak-memory figures of one analysis, measured untraced."""
    ones = np.array([r.ones for r in result.reports])
    facts = {"input_bytes": path.stat().st_size,
             "load_peak_mb": peak_mb(load, path),
             "render_peak_mb": peak_mb(render_report, result),
             "report_bytes": len(report),
             "distinct_ratio": np.unique(ones).size / ones.size}
    if tensor is not None:
        facts["vote_peak_mb"] = peak_mb(derive_noise_free_response, tensor)
        facts["ties"] = result.summary.tie_count
    return facts


def run_analysis(tracer: Tracer, path: Path, cfg, counts: bool):
    load = load_counts if counts else load_measurements
    data = tracer.call("formats.load", load, path)
    if counts:
        result = tracer.call("analysis.analyze", analyze_counts, data, cfg)
    else:
        result = tracer.call("analysis.analyze", analyze, data, cfg)
    report = tracer.call("analysis.render", render_report, result)
    return load, None if counts else data, result, report


def range_mass_us(plans) -> float:
    """Median time of one binomial_range_mass call over each FRR plan's final
    region, at the lower inner-band alias."""
    per_plan = []
    for plan in plans:
        region = acceptance_region(plan.devices, plan.limits, plan.alpha)
        times = []
        for _ in range(RANGE_MASS_REPEATS):
            start = time.perf_counter()
            binomial_range_mass(region.x_l, region.x_u, plan.devices, plan.inner[0])
            times.append(time.perf_counter() - start)
        per_plan.append(statistics.median(times) * 1e6)
    return statistics.median(per_plan)


def run_plan_queries(tracer: Tracer, seed: int) -> tuple[dict, list]:
    answers = {}
    frr_plans = []
    for q in PLAN_QUERIES:
        p = q.params
        if q.kind == "width":
            plan = tracer.call("confidence.plan_width", plan_devices_exact,
                               p["method"], p["width"], ALPHA)
            answers[q.name] = plan.devices
        elif q.kind == "frr":
            plan = tracer.call("qualification.plan_frr", plan_devices_frr,
                               AliasLimits(*p["limits"]), p["inner"], ALPHA, BETA)
            answers[q.name] = plan.devices
            frr_plans.append(plan)
        elif q.kind == "validate-frr":
            params = QualificationParams(devices=p["devices"], limits=AliasLimits(*p["limits"]),
                                         alpha=ALPHA, p=p["p"])
            tracer.call("validate.mc", monte_carlo_validate, "frr", params, TRIALS, seed)
        else:
            params = CoverageParams(method=p["method"], p=p["p"], devices=p["devices"],
                                    alpha=ALPHA)
            tracer.call("validate.mc", monte_carlo_validate, "coverage", params, TRIALS, seed)
    return answers, frr_plans


def run_sweep(tracer: Tracer, seed: int, directory: Path) -> tuple[tuple, list]:
    """Reference sweep: every layer once, at a small size."""
    spec = PopulationSpec(devices=68, positions=64, repeats=4, seed=seed, alias=0.5,
                          flip_noise=0.1)
    tensor = tracer.call("simulate.generate", simulate_population, spec)
    path = directory / SWEEP_FILE
    write_measurements(tensor, path)
    cfg = AnalysisConfig(alpha=ALPHA, limits=AliasLimits(*LIMITS), ci_method="clopper_pearson",
                         early_stop=EarlyStopConfig(alpha=ALPHA), output_format="json")
    load, data, result, report = run_analysis(tracer, path, cfg, counts=False)
    tracer.call("confidence.plan_width", plan_devices_exact, "clopper_pearson", 0.2, ALPHA)
    limits = AliasLimits(0.3, 0.7)
    plan = tracer.call("qualification.plan_frr", plan_devices_frr, limits, (0.4, 0.6),
                       ALPHA, BETA)
    tracer.call("validate.mc", monte_carlo_validate, "far",
                QualificationParams(devices=200, limits=limits, alpha=ALPHA, p=0.25),
                1000, seed)
    return (load, data, result, report, path), [plan]


def layer_metrics(stats: dict, facts: dict) -> dict:
    """Per-layer figures of one part of the run; None where it did not reach
    the layer."""
    def total(layer):
        return stats[layer][1] if layer in stats else None

    def calls(layer):
        return stats[layer][0] if layer in stats else None

    def per_call_us(layer):
        return stats[layer][1] / stats[layer][0] * 1e6 if layer in stats else None

    load_s = total("formats.load")
    analyze = stats.get("analysis.analyze")
    return {
        "formats.load_s": load_s,
        "formats.load_mb_per_s": None if load_s is None
        else facts["input_bytes"] / 1e6 / load_s,
        "formats.input_bytes": facts.get("input_bytes"),
        "formats.load_peak_mb": facts.get("load_peak_mb"),
        "response.vote_s": total("response.vote"),
        "response.count_s": total("response.count"),
        "response.vote_peak_mb": facts.get("vote_peak_mb"),
        "response.ties": facts.get("ties"),
        "confidence.interval_s": total("confidence.interval"),
        "confidence.interval_calls": calls("confidence.interval"),
        "special.beta_quantile_us": per_call_us("special.beta_quantile"),
        "special.tail_us": per_call_us("special.tail"),
        "special.range_mass_us": facts.get("range_mass_us"),
        "qualification.test_s": total("qualification.test"),
        "qualification.test_calls": calls("qualification.test"),
        "qualification.region_s": total("qualification.region"),
        "qualification.early_stop_s": total("qualification.early_stop"),
        "qualification.plan_frr_s": total("qualification.plan_frr"),
        "confidence.plan_width_s": total("confidence.plan_width"),
        "validate.mc_s": total("validate.mc"),
        "entropy.s": total("entropy"),
        "analysis.analyze_s": None if analyze is None else analyze[1],
        "analysis.self_s": None if analyze is None else analyze[2],
        "analysis.distinct_ratio": facts.get("distinct_ratio"),
        "analysis.render_s": total("analysis.render"),
        "analysis.render_peak_mb": facts.get("render_peak_mb"),
        "analysis.report_bytes": facts.get("report_bytes"),
        "simulate.generate_s": facts.get("generate_s", total("simulate.generate")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--generate-s", type=float, default=None,
                        help="generation time of the workload's input, from the generator")
    args = parser.parse_args()
    directory = Path(args.dir)
    tracer = Tracer()
    tracer.install()
    out = {}
    op_facts = {} if args.generate_s is None else {"generate_s": args.generate_s}
    if args.workload == "plan-scale":
        start = time.perf_counter()
        answers, frr_plans = tracer.call("op", run_plan_queries, tracer, args.seed)
        out["op_s"] = time.perf_counter() - start
        out["answers"] = answers
        op_analysis = None
    else:
        wl = ANALYZE_WORKLOADS[args.workload]
        early = None if wl.early_stop_alpha is None else EarlyStopConfig(alpha=wl.early_stop_alpha)
        cfg = AnalysisConfig(alpha=ALPHA, limits=AliasLimits(*LIMITS), ci_method=wl.ci_method,
                             early_stop=early, output_format=wl.report_format)
        path = directory / wl.file
        start = time.perf_counter()
        load, data, result, report = tracer.call(
            "op", run_analysis, tracer, path, cfg, wl.input_format == "counts")
        out["op_s"] = time.perf_counter() - start
        out["report_sha256"] = hashlib.sha256(report).hexdigest()
        op_analysis = (load, data, result, report, path)
        frr_plans = []
    op_stats = tracer.stats
    tracer.reset_stats()
    sweep_analysis, sweep_plans = tracer.call("sweep", run_sweep, tracer, args.seed, directory)
    sweep_stats = tracer.stats
    tracer.uninstall()
    tracer.dump(directory / "spans.json")

    # Untraced pass: peak memory and the range-mass probe.
    if op_analysis is not None:
        load, data, result, report, path = op_analysis
        op_facts.update(analysis_facts(data, result, report, path, load))
        del op_analysis, data, result, report
    if frr_plans:
        op_facts["range_mass_us"] = range_mass_us(frr_plans)
    load, data, result, report, path = sweep_analysis
    sweep_facts = analysis_facts(data, result, report, path, load)
    sweep_facts["range_mass_us"] = range_mass_us(sweep_plans)

    op = layer_metrics(op_stats, op_facts)
    sweep = layer_metrics(sweep_stats, sweep_facts)
    out["metrics"] = {k: op[k] if op[k] is not None else sweep[k] for k in op}
    out["from_sweep"] = sorted(k for k in op if op[k] is None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
