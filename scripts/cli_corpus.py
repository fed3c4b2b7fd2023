#!/usr/bin/env python3
"""Run a fixed corpus of ``bitalias`` CLI invocations and fingerprint each.

    python scripts/cli_corpus.py OUT [ID ...]

Writes small seeded fixtures with the package's public writers into
OUT/fixtures, then runs every invocation (or only the given ids) as a child
process of this tree's package, each in its own empty directory OUT/<id>.  It
prints one JSON line per invocation: its id, its argv, the exit code, the
sha256 of stdout, the last line of stderr and the sha256 of every file the
invocation wrote.  OUT must be empty or absent.

The lines hold no absolute path or timing, so two runs of one tree print the
same lines, and "same outputs" between two trees is a ``diff`` of their runs:

    python scripts/cli_corpus.py /tmp/a > a.jsonl
    python other-tree/scripts/cli_corpus.py /tmp/b > b.jsonl
    diff a.jsonl b.jsonl
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

METHODS = ("normal", "wilson", "clopper_pearson")
REPORTS = ("text", "json", "csv")
PAPER, BINARY, TIED, COUNTS, README, BAD = (
    f"../fixtures/{name}" for name in
    ("paper.csv", "paper.puf", "tied.puf", "counts.csv", "readme.csv", "bad.csv"))
# the benchmark's plan-scale queries, by their names in perfbench/workloads.py
PLAN_SCALE = {
    "width-cp-0.01": ["plan", "width", "--width", "0.01", "--method", "clopper_pearson"],
    "width-cp-0.001": ["plan", "width", "--width", "0.001", "--method", "clopper_pearson"],
    "width-wilson-0.001": ["plan", "width", "--width", "0.001", "--method", "wilson"],
    "frr-default": ["plan", "frr", "--p-low", "0.45", "--p-high", "0.55",
                    "--inner-low", "0.48", "--inner-high", "0.52"],
    "frr-0.495": ["plan", "frr", "--p-low", "0.495", "--p-high", "0.505",
                  "--inner-low", "0.4975", "--inner-high", "0.5025"],
    "frr-0.497": ["plan", "frr", "--p-low", "0.497", "--p-high", "0.503",
                  "--inner-low", "0.4985", "--inner-high", "0.5015"],
    "frr-0.4975": ["plan", "frr", "--p-low", "0.4975", "--p-high", "0.5025",
                   "--inner-low", "0.4985", "--inner-high", "0.5015"],
    "validate-frr": ["validate", "--kind", "frr", "--p", "0.4985", "--p-low", "0.497",
                     "--p-high", "0.503", "--devices", "2671077", "--seed", "1"],
    "validate-coverage": ["validate", "--kind", "coverage", "--method", "clopper_pearson",
                          "--p", "0.5", "--devices", "6653", "--seed", "1"],
}


def write_fixtures(folder: Path) -> None:
    from bitalias import (PopulationSpec, count_ones, derive_noise_free_response,
                          simulate_population, write_counts, write_measurements)

    folder.mkdir()
    paper = simulate_population(PopulationSpec(devices=680, positions=128, repeats=5,
                                               seed=5, alias="linear", flip_noise=0.05))
    write_measurements(paper, folder / "paper.csv", "csv")
    write_measurements(paper, folder / "paper.puf", "binary")
    write_counts(count_ones(derive_noise_free_response(paper)), folder / "counts.csv")
    # an even repeat count gives ties in the vote; 77 positions pad each row
    tied = simulate_population(PopulationSpec(devices=64, positions=77, repeats=4,
                                              seed=3, alias=0.5, flip_noise=0.1))
    write_measurements(tied, folder / "tied.puf", "binary")
    (folder / "readme.csv").write_bytes(b"2,3,2\n0,1,0\n0,1,1\n1,1,0\n1,0,0\n")
    (folder / "bad.csv").write_bytes(b"2,3,1\n0,1,0\n0,2,1\n")


def invocations() -> list[tuple[str, list[str]]]:
    runs = []
    for method in METHODS:
        for report in REPORTS:
            runs.append((f"analyze-csv-{method}-{report}",
                         ["analyze", PAPER, "--ci-method", method, "--format", report]))
    for report in REPORTS:
        runs.append((f"analyze-binary-{report}", ["analyze", BINARY, "--format", report]))
        runs.append((f"analyze-counts-{report}", ["analyze", "--counts", COUNTS,
                                                  "--ci-method", "clopper_pearson",
                                                  "--format", report]))
    for method in METHODS:
        runs.append((f"analyze-tied-{method}", ["analyze", TIED, "--ci-method", method]))
    runs += [
        ("analyze-readme", ["analyze", README]),
        ("analyze-early-stop-text", ["analyze", PAPER, "--early-stop-alpha", "0.01"]),
        ("analyze-early-stop-json", ["analyze", BINARY, "--early-stop-alpha", "0.01",
                                     "--max-flag-fraction", "0.5", "--format", "json"]),
        ("analyze-out-json", ["analyze", PAPER, "--format", "json", "--out", "report.json"]),
        ("analyze-out-csv", ["analyze", TIED, "--format", "csv", "--out", "report.csv"]),
        ("analyze-alpha-1e-6", ["analyze", PAPER, "--alpha", "1e-6",
                                "--ci-method", "clopper_pearson"]),
        ("analyze-min-entropy", ["analyze", PAPER, "--min-entropy", "0.9"]),
        ("analyze-shannon-entropy", ["analyze", BINARY, "--shannon-entropy", "0.99"]),
        ("analyze-entropy-and-limits", ["analyze", PAPER, "--min-entropy", "0.9",
                                        "--p-low", "0.4"]),
        ("analyze-both-entropies", ["analyze", PAPER, "--min-entropy", "0.9",
                                    "--shannon-entropy", "0.99"]),
        # JSON through each branch of its renderer: entropy floors, early
        # stop on counts, an empty acceptance region and a tied campaign
        ("analyze-counts-min-entropy-early-stop-json",
         ["analyze", "--counts", COUNTS, "--min-entropy", "0.9", "--early-stop-alpha", "0.01",
          "--format", "json"]),
        ("analyze-shannon-entropy-json", ["analyze", PAPER, "--shannon-entropy", "0.99",
                                          "--format", "json"]),
        ("analyze-readme-json", ["analyze", README, "--format", "json"]),
        ("analyze-tied-json", ["analyze", TIED, "--format", "json"]),
        ("analyze-missing-file", ["analyze", "../fixtures/missing.csv"]),
        ("analyze-malformed", ["analyze", BAD]),
        ("early-stop-csv", ["early-stop", PAPER]),
        ("early-stop-tied", ["early-stop", TIED]),
        ("early-stop-counts", ["early-stop", "--counts", COUNTS]),
        ("early-stop-fraction", ["early-stop", PAPER, "--max-flag-fraction", "0.5"]),
        ("early-stop-readme", ["early-stop", README]),
        ("check-accept", ["check", "--x", "340", "--n", "680"]),
        ("check-reject", ["check", "--x", "300", "--n", "680"]),
        ("check-x-above-n", ["check", "--x", "700", "--n", "680"]),
        ("check-min-entropy", ["check", "--x", "340", "--n", "680", "--min-entropy", "0.99"]),
        ("check-limits-reversed", ["check", "--x", "3", "--n", "6",
                                   "--p-low", "0.6", "--p-high", "0.5"]),
    ]
    runs += [(f"plan-scale-{name}", argv) for name, argv in PLAN_SCALE.items()]
    for method in METHODS:
        runs.append((f"plan-width-0.1-{method}", ["plan", "width", "--width", "0.1",
                                                  "--method", method]))
        # the count overflowed a float before it was capped
        runs.append((f"plan-width-1e-160-{method}", ["plan", "width", "--width", "1e-160",
                                                     "--method", method]))
    runs += [
        ("plan-width-alpha-1e-6", ["plan", "width", "--width", "0.05", "--alpha", "1e-6"]),
        ("plan-width-capacity", ["plan", "width", "--width", "0.0005", "--method", "wilson"]),
        ("plan-width-normal-capacity", ["plan", "width", "--width", "1e-100",
                                        "--method", "normal"]),
        ("plan-width-convergence", ["plan", "width", "--width", "0.5", "--alpha", "1e-300"]),
        ("plan-width-zero", ["plan", "width", "--width", "0"]),
        ("plan-frr-beta", ["plan", "frr", "--inner-low", "0.48", "--inner-high", "0.52",
                           "--beta", "0.001"]),
        ("plan-frr-entropy", ["plan", "frr", "--min-entropy", "0.95",
                              "--inner-low", "0.49", "--inner-high", "0.51"]),
        ("plan-frr-capacity", ["plan", "frr", "--p-low", "0.4999", "--p-high", "0.5001",
                               "--inner-low", "0.49995", "--inner-high", "0.50005"]),
        ("plan-frr-bad-band", ["plan", "frr", "--inner-low", "0.4", "--inner-high", "0.52"]),
        ("validate-far", ["validate", "--kind", "far", "--p", "0.56", "--devices", "680",
                          "--seed", "2", "--trials", "20000"]),
        ("validate-frr-empty", ["validate", "--kind", "frr", "--p", "0.5", "--devices", "10",
                                "--seed", "3", "--trials", "20000"]),
        ("validate-coverage-wilson", ["validate", "--kind", "coverage", "--method", "wilson",
                                      "--p", "0.3", "--devices", "680", "--seed", "4",
                                      "--trials", "20000"]),
        ("validate-coverage-low", ["validate", "--kind", "coverage", "--method", "normal",
                                   "--p", "0.001", "--devices", "50", "--seed", "5",
                                   "--trials", "20000"]),
        ("validate-coverage-high", ["validate", "--kind", "coverage", "--p", "0.999",
                                    "--devices", "50", "--seed", "6", "--trials", "20000"]),
        ("validate-few-trials", ["validate", "--kind", "far", "--p", "0.56", "--devices", "680",
                                 "--seed", "2", "--trials", "10"]),
        ("curve-default", ["curve"]),
        ("curve-alias-cp", ["curve", "--sweep", "alias", "--devices", "7",
                            "--grid", "0.1,0.25,0.9", "--method", "clopper_pearson"]),
        ("curve-grid", ["curve", "--grid", "2,20,200,5000", "--p-hat", "0.3"]),
        ("curve-normal-alias", ["curve", "--sweep", "alias", "--method", "normal"]),
        ("curve-out", ["curve", "--method", "clopper_pearson", "--out", "curve.csv"]),
        ("simulate-csv", ["simulate", "--devices", "20", "--positions", "16", "--repeats", "3",
                          "--seed", "1", "--noise", "0.1", "--out", "sim.csv"]),
        ("simulate-binary", ["simulate", "--devices", "20", "--positions", "13", "--repeats",
                             "4", "--seed", "2", "--format", "binary", "--out", "sim.puf"]),
        ("simulate-linear", ["simulate", "--devices", "8", "--positions", "32", "--seed", "3",
                             "--alias", "linear", "--out", "sim.csv"]),
        ("simulate-list", ["simulate", "--devices", "8", "--positions", "2", "--seed", "4",
                           "--alias", "0.1,0.9", "--out", "sim.csv"]),
        ("simulate-unknown-profile", ["simulate", "--devices", "8", "--positions", "2",
                                      "--seed", "4", "--alias", "zebra", "--out", "sim.csv"]),
        ("simulate-nan", ["simulate", "--devices", "8", "--positions", "2", "--seed", "4",
                          "--alias", "nan", "--out", "sim.csv"]),
        ("no-command", []),
        ("help", ["--help"]),
    ]
    for command in (["analyze"], ["plan"], ["plan", "width"], ["plan", "frr"], ["check"],
                    ["early-stop"], ["simulate"], ["curve"], ["validate"]):
        runs.append(("help-" + "-".join(command), [*command, "--help"]))
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(out: Path, ident: str, argv: list[str]) -> dict:
    cwd = out / ident
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "bitalias", *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    return {"id": ident, "argv": argv, "exit": proc.returncode,
            "stdout_sha256": sha256(proc.stdout), "stderr_last": lines[-1] if lines else "",
            "files": {path.name: sha256(path.read_bytes()) for path in sorted(cwd.iterdir())}}


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    runs = invocations()
    chosen = sys.argv[2:]
    unknown = set(chosen) - {ident for ident, _ in runs}
    if unknown:
        sys.exit(f"unknown ids: {', '.join(sorted(unknown))}")
    write_fixtures(out / "fixtures")
    for ident, argv in runs:
        if not chosen or ident in chosen:
            print(json.dumps(run(out, ident, argv)), flush=True)


if __name__ == "__main__":
    main()
