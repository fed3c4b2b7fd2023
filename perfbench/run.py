"""Benchmark of the bitalias CLI, end to end and per layer.

    python3 perfbench/run.py --workload dense-binary --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout that holds `src/bitalias`.  The package
is used from that source tree; nothing is installed.  The workloads are in
perfbench/workloads.py and every metric is described in
perfbench/metrics.json.

BENCHMARK.json gates on dense-binary and plan-scale.  sram-counts and
paper-csv are pure-Python workloads whose run-to-run spread on a shared
2-CPU machine reached the 0.25 bound; they stay runnable for before/after
comparisons by hand.

With `--trace 0` the runner generates the workload's inputs from the seed
(outside timing), times a fresh interpreter's `import bitalias.cli` plus
`build_parser()` (`setup_s`), and then runs the workload's operation again and
again, one child process at a time, until `--seconds` have passed and at
least three operations are done.  An operation is one `bitalias analyze`
process, or for plan-scale one pass over the query list with one process per
query.  Wall time runs from spawn to exit; CPU time and peak RSS come from
`os.wait4` on each child.  This process imports neither numpy nor bitalias,
so the children it spawns start from a small parent: Linux carries a
parent's high-water RSS into a child's `ru_maxrss` across fork and exec.

With `--trace 1` it runs the operation once as a child, then once in-process
with every layer timed (perfbench/layers.py), and reports the per-layer
figures.

Every output is checked by perfbench/check.py, which uses scipy and not
bitalias.  A CLI invocation fails on a wrong exit code, a timeout, a report
that differs from the first one, or a report that fails the check.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
Results, with the machine's facts, are also written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import ANALYZE_WORKLOADS, PLAN_QUERIES, WORKLOADS, sha256_file

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_OPS = 3
SETUP_SPAWNS = {0: 7, 1: 3}  # timed interpreter starts per run, by trace mode
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = "import bitalias.cli as cli; cli.build_parser()"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Child:
    name: str
    rc: int | None  # None when killed by the timeout
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    sha256: str = ""


def env_for(package: bool) -> dict:
    """Environment of a child: the checkout's src/ on the path for children
    that run bitalias, and no extra path for the checker."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if package:
        env["PYTHONPATH"] = str(SRC)
    return env


def spawn(name: str, argv: list[str], out: Path, package: bool = True) -> Child:
    """Run one child to completion; its stdout goes to `out`, its stderr
    next to it.  Resource use comes from wait4 on this child alone."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT,
                                env=env_for(package))
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rc = None if proc.returncode == -signal.SIGKILL else proc.returncode
    return Child(name=name, rc=rc, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, out=out)


def run_json(name: str, argv: list[str], out: Path, package: bool) -> dict:
    """Run a helper script of the benchmark and parse its JSON line."""
    child = spawn(name, argv, out, package)
    if child.rc != 0:
        err = out.with_suffix(".err").read_text(errors="replace")[-2000:]
        raise BenchError(f"{name} exited with {child.rc}:\n{err}")
    return json.loads(out.read_text().splitlines()[-1])


def preflight() -> None:
    if not (SRC / "bitalias" / "__init__.py").is_file():
        raise BenchError(f"no src/bitalias under {ROOT}; run from the root of a checkout")


def measure_setup(directory: Path, count: int) -> list[Child]:
    argv = [sys.executable, "-c", SETUP_CODE]
    spawn("setup-warmup", argv, directory / "setup.out")  # bytecode compiled, caches warm
    children = [spawn("setup", argv, directory / "setup.out") for _ in range(count)]
    for child in children:
        if child.rc != 0:
            raise BenchError("importing bitalias.cli failed: "
                             + (directory / "setup.err").read_text()[-2000:])
    return children


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "bitalias", *args]


def run_operation(workload: str, seed: int, directory: Path, index: int) -> list[Child]:
    """One operation: the children it spawned, one after another."""
    if workload == "plan-scale":
        return [spawn(q.name, cli(*q.argv(seed)), directory / f"pass{index}-{q.name}.out")
                for q in PLAN_QUERIES]
    wl = ANALYZE_WORKLOADS[workload]
    path = (directory / wl.file).relative_to(ROOT)
    return [spawn("report", cli(*wl.argv(str(path))), directory / f"op{index}-report.out")]


def run_operations(workload: str, seed: int, directory: Path, seconds: float,
                   min_ops: int) -> list[list[Child]]:
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(run_operation(workload, seed, directory, len(ops)))
        for child in ops[-1]:
            child.sha256 = sha256_file(child.out)
            if len(ops) == 1:
                child.out = child.out.rename(directory / f"{child.name}.out")
            elif child.sha256 == next(c for c in ops[0] if c.name == child.name).sha256:
                child.out.unlink()  # identical to the first; a differing one is kept
    return ops


def judge(ops: list[list[Child]], verdict: dict) -> tuple[int, int, list[str], list[str]]:
    """Count attempted and failed invocations; return the reasons for the
    failures, split into known defects and everything else."""
    queries = verdict["queries"]
    first = {c.name: c for c in ops[0]}
    attempted = failed = 0
    known, other = [], []
    for op in ops:
        for child in op:
            attempted += 1
            q = queries[child.name]
            is_known = False
            if child.rc is None:
                reason = f"{child.name}: timed out after {CHILD_TIMEOUT_S:g} s"
            elif child.rc != q["expected_rc"]:
                reason = f"{child.name}: exit code {child.rc}, expected {q['expected_rc']}"
            elif child.sha256 != first[child.name].sha256:
                reason = f"{child.name}: output differs from the first invocation's"
            elif not q["ok"]:
                reason = f"{child.name}: " + "; ".join(q["problems"])
                is_known = q.get("known_defect", False)
            else:
                continue
            failed += 1
            (known if is_known else other).append(reason)
    return attempted, failed, sorted(set(known)), other


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_facts(versions: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout is usually not a git repository
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), **versions, "git_commit": commit}


def load_metric_specs() -> dict:
    specs = json.loads((HERE / "metrics.json").read_text())
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        declared = json.loads(bench.read_text())
        for group in ("end_to_end", "per_layer"):
            names = [m["name"] for m in declared[group]]
            if names != list(specs[group]):
                raise BenchError(f"{group} metrics in BENCHMARK.json and "
                                 f"perfbench/metrics.json differ")
    return specs


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    specs = load_metric_specs()
    directory = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    manifest = None
    if workload != "plan-scale":
        manifest = run_json("generate", [sys.executable, str(HERE / "generate.py"),
                                         "--workload", workload, "--seed", str(seed),
                                         "--out", str(directory)],
                            directory / "generate.out", package=True)
    setup = measure_setup(directory, SETUP_SPAWNS[trace])
    ops = run_operations(workload, seed, directory, seconds if trace == 0 else 0,
                         MIN_OPS if trace == 0 else 1)
    verdict = run_json("check", [sys.executable, str(HERE / "check.py"),
                                 "--workload", workload, "--dir", str(directory)],
                       directory / "check.json", package=False)
    attempted, failed, known, other = judge(ops, verdict)
    if not verdict["self_check"]:
        other.append("checker self-check: a report with one flipped verdict was accepted")

    walls = [sum(c.wall_s for c in op) for op in ops]
    cpus = [sum(c.cpu_s for c in op) for op in ops]
    rsss = [max(c.rss_mb for c in op) for op in ops]
    setup_s = statistics.median(c.wall_s for c in setup)
    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss,
               "setup_s": [c.wall_s for c in setup]}
    result = {"workload": workload, "seed": seed, "trace": trace,
              "machine": machine_facts(verdict["versions"]),
              "input": manifest, "samples": samples,
              "setup_peak_rss_mb": max(c.rss_mb for c in setup),
              "runner_peak_rss_mb": _self_rss_mb(),
              "attempted": attempted, "failed": failed,
              "known_defects": known, "failures": other, "check": verdict}

    if trace == 0:
        metrics = {name: statistics.median(samples[name]) for name in specs["end_to_end"]}
    else:
        layer = run_json("layers", [sys.executable, str(HERE / "layers.py"),
                                    "--workload", workload, "--seed", str(seed),
                                    "--dir", str(directory)]
                         + ([] if manifest is None
                            else ["--generate-s", repr(manifest["generate_s"])]),
                         directory / "layers.json", package=True)
        other += _cross_check(workload, ops[0], layer)
        metrics = dict(layer["metrics"])
        metrics["cli.setup_peak_rss_mb"] = result["setup_peak_rss_mb"]
        metrics["cli.failed_ratio"] = failed / attempted
        metrics["trace.overhead_s"] = layer["op_s"] + len(ops[0]) * setup_s - walls[0]
        result["layers_from_sweep"] = layer["from_sweep"]
        missing = set(specs["per_layer"]) - set(metrics)
        if missing:
            raise BenchError(f"per-layer metrics not measured: {sorted(missing)}")
    group = "end_to_end" if trace == 0 else "per_layer"
    result["metrics"] = {name: {"value": metrics[name], "unit": specs[group][name]["unit"]}
                         for name in specs[group]}
    result["correct"] = not other
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1))
    _cleanup(directory)
    return result


def _cross_check(workload: str, first_op: list[Child], layer: dict) -> list[str]:
    """The in-process run must produce what the CLI produced."""
    if workload != "plan-scale":
        if layer["report_sha256"] != first_op[0].sha256:
            return ["in-process report differs from the CLI report"]
        return []
    problems = []
    for child in first_op:
        answer = layer["answers"].get(child.name)
        if answer is not None and f"devices={answer} " not in child.out.read_text():
            problems.append(f"{child.name}: in-process answer {answer} differs from the CLI")
    return problems


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cleanup(directory: Path) -> None:
    """Drop the large inputs and reports; keep manifests, verdicts and spans."""
    for path in directory.iterdir():
        if path.suffix in (".csv", ".puf") or path.name == "report.out":
            path.unlink()


def summary_lines(result: dict) -> list[str]:
    samples = result["samples"]
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']}"]
    if result["trace"] == 0:
        for name, values in samples.items():
            unit = result["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            what = "interpreter starts" if name == "setup_s" else "operations"
            lines.append(f"  {name:<12} {med:12.6g} {unit:<5} median of {len(values)} {what}, "
                         f"quartiles {q1:.6g} .. {q3:.6g}")
    else:
        for name, metric in result["metrics"].items():
            lines.append(f"  {name:<28} {metric['value']:14.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  failed_ratio {ratio:12.6g} ratio {result['failed']} of "
                 f"{result['attempted']} CLI invocations")
    lines.append(f"  setup child peak RSS {result['setup_peak_rss_mb']:.1f} MB, "
                 f"runner peak RSS {result['runner_peak_rss_mb']:.1f} MB")
    for reason in result["known_defects"]:
        lines.append(f"  known defect, counted as failed: {reason}")
    for reason in result["failures"][:10]:
        lines.append(f"  FAILED: {reason}")
    m = result["machine"]
    lines.append(f"  machine: {m['nproc']} CPUs, {m['cpu_model']}, Python {m['python']}, "
                 f"numpy {m['numpy']}, scipy {m['scipy']}, commit {m['git_commit']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        preflight()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print("\n".join(summary_lines(result)))
    if args.workload != "all":
        result = results[0]
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
