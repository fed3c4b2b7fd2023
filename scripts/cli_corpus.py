#!/usr/bin/env python3
"""Run a fixed corpus of ``bitalias`` CLI invocations and fingerprint each.

    python scripts/cli_corpus.py OUT [ID ...]

Writes small seeded fixtures with the package's public writers into
OUT/fixtures, then runs every invocation (or only the given ids) as a child
process of this tree's package, each in its own empty directory OUT/<id>.  It
prints one JSON line per invocation: its id, its argv, the exit code, the
sha256 of stdout, the last line of stderr and the sha256 of every file the
invocation wrote.  OUT must be empty or absent.

Every invocation sees COLUMNS=80, since argparse sizes help text from it.  A
JSON report is hashed after rounding each float to 12 significant digits, as
its full-precision floats come from libm.  A help id's line names the Python
minor version that printed it, since argparse's layout changes between them.

The lines hold no absolute path or timing, so two runs of one tree print the
same lines.  ``tests/cli_corpus.jsonl`` holds this tree's lines, which tier-1
compares with ``run_in_process`` (the same lines without child processes);
a change to any output rewrites it with

    python scripts/cli_corpus.py OUT > tests/cli_corpus.jsonl

and "same outputs" between two trees is a ``diff`` of their runs:

    python scripts/cli_corpus.py /tmp/a > a.jsonl
    python other-tree/scripts/cli_corpus.py /tmp/b > b.jsonl
    diff a.jsonl b.jsonl
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import PLAN_QUERIES  # the benchmark's plan-scale queries

METHODS = ("normal", "wilson", "clopper_pearson")
REPORTS = ("text", "json", "csv")
(PAPER, BINARY, TIED, COUNTS, README, BAD, COUNTS_1E20, COUNTS_HUGE, CAMPAIGN_CSV,
 CAMPAIGN_BINARY) = (
    f"../fixtures/{name}" for name in
    ("paper.csv", "paper.puf", "tied.puf", "counts.csv", "readme.csv", "bad.csv",
     "counts-1e20.csv", "counts-huge.csv", "campaign.csv", "campaign.puf"))
WIDE_LIMITS = ["--p-low", "0.3", "--p-high", "0.7"]
# an integer of 401 digits, past any float
HUGE = "1" + "0" * 400
# files whose one bad token or number is thousands of characters long, each
# echoed in a short error line: id -> file name, text
LONG = "1" * 5000
LONG_TOKEN_FILES = {
    "analyze-counts-header-5000-digits": ("header-5000-digits.csv", f"{LONG},2\n1,1\n"),
    "analyze-counts-count-5000-digits": ("count-5000-digits.csv", f"5,2\n{LONG},3\n"),
    "analyze-counts-count-3000-digits": ("count-3000-digits.csv", f"5,2\n{LONG[:3000]},3\n"),
    "analyze-counts-t-4000-digits": ("t-4000-digits.csv", f"1,{LONG[:4000]}\n1\n"),
    "analyze-field-3000-chars": ("field-3000-chars.csv", f"1,2,1\n{LONG[:3000]},0\n"),
    "analyze-n-4000-digits": ("n-4000-digits.csv", f"{LONG[:4000]},1,1\n0\n"),
}
# the target widths of the width planner's pinned answers in tests/test_search.py
WIDTHS = ("0.9", "0.3", "0.05", "0.01", "0.001", "0.00086", "0.0005")


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
    campaign = simulate_population(PopulationSpec(devices=64, positions=77, repeats=4,
                                                  seed=11, alias="linear", flip_noise=0.2))
    write_measurements(campaign, folder / "campaign.csv", "csv")
    write_measurements(campaign, folder / "campaign.puf", "binary")
    (folder / "readme.csv").write_bytes(b"2,3,2\n0,1,0\n0,1,1\n1,1,0\n1,0,0\n")
    (folder / "bad.csv").write_bytes(b"2,3,1\n0,1,0\n0,2,1\n")
    # device counts that overflow a float, or the incomplete beta's prefactor
    (folder / "counts-1e20.csv").write_bytes(b"100000000000000000000,1\n5\n")
    (folder / "counts-huge.csv").write_bytes(f"{HUGE},1\n5\n".encode())
    for name, text in LONG_TOKEN_FILES.values():
        (folder / name).write_bytes(text.encode())


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
    # a second tied campaign, noisier and with a linear alias profile, as CSV
    # and as binary, under wide limits
    for fmt, path in (("csv", CAMPAIGN_CSV), ("binary", CAMPAIGN_BINARY)):
        for report in ("text", "csv"):
            runs.append((f"analyze-campaign-{fmt}-{report}",
                         ["analyze", path, "--format", report, "--early-stop-alpha", "0.01",
                          *WIDE_LIMITS]))
        runs.append((f"early-stop-campaign-{fmt}", ["early-stop", path, *WIDE_LIMITS]))
    runs += [
        ("analyze-readme", ["analyze", README]),
        ("analyze-early-stop-text", ["analyze", PAPER, "--early-stop-alpha", "0.01"]),
        ("analyze-early-stop-json", ["analyze", BINARY, "--early-stop-alpha", "0.01",
                                     "--max-flag-fraction", "0.5", "--format", "json"]),
        ("analyze-out-json", ["analyze", PAPER, "--format", "json", "--out", "report.json"]),
        ("analyze-out-csv", ["analyze", TIED, "--format", "csv", "--out", "report.csv"]),
        ("analyze-alpha-1e-6", ["analyze", PAPER, "--alpha", "1e-6",
                                "--ci-method", "clopper_pearson"]),
        # Clopper-Pearson refuses alpha below 1e-12, where its upper bound would read 1.0
        ("analyze-alpha-1e-17", ["analyze", PAPER, "--alpha", "1e-17",
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
        # the fraction sets only the early-stop forecast, so alone it is a usage error
        ("analyze-flag-fraction-alone", ["analyze", PAPER, "--max-flag-fraction", "2"]),
        ("early-stop-csv", ["early-stop", PAPER]),
        ("early-stop-tied", ["early-stop", TIED]),
        ("early-stop-counts", ["early-stop", "--counts", COUNTS]),
        ("early-stop-fraction", ["early-stop", PAPER, "--max-flag-fraction", "0.5"]),
        ("early-stop-readme", ["early-stop", README]),
        ("check-accept", ["check", "--x", "340", "--n", "680"]),
        ("check-reject", ["check", "--x", "300", "--n", "680"]),
        ("check-x-above-n", ["check", "--x", "700", "--n", "680"]),
        ("check-min-entropy", ["check", "--x", "340", "--n", "680", "--min-entropy", "0.99"]),
        # floors whose alias band rounds to (0, 1)
        ("check-min-entropy-1e-17", ["check", "--x", "5", "--n", "10", "--min-entropy", "1e-17"]),
        ("check-shannon-entropy-1e-15", ["check", "--x", "5", "--n", "10",
                                         "--shannon-entropy", "1e-15"]),
        ("check-limits-reversed", ["check", "--x", "3", "--n", "6",
                                   "--p-low", "0.6", "--p-high", "0.5"]),
        # each ended in an OverflowError traceback before it became a usage error
        ("analyze-counts-n-1e20", ["analyze", "--counts", COUNTS_1E20]),
        ("analyze-counts-n-401-digits", ["analyze", "--counts", COUNTS_HUGE]),
        ("check-n-401-digits", ["check", "--x", "5", "--n", HUGE]),
        # a verdict from tails past their stated accuracy, before the device cap
        ("check-n-1e15", ["check", "--x", "450000031464265", "--n", "1000000000000000"]),
        # the ends of the device-count rule and of the trial floor
        ("check-n-0", ["check", "--x", "0", "--n", "0"]),
        ("curve-grid-0", ["curve", "--grid", "0"]),
        ("curve-grid-10000001", ["curve", "--grid", "10000001"]),
        # past int()'s default limit of 4300 digits
        ("curve-grid-5001-digits", ["curve", "--grid", "1" * 5001]),
        ("curve-alias-devices-0", ["curve", "--sweep", "alias", "--devices", "0"]),
        ("validate-devices-0", ["validate", "--kind", "far", "--p", "0.5", "--devices", "0",
                                "--seed", "1", "--trials", "1000"]),
        ("validate-trials-999", ["validate", "--kind", "far", "--p", "0.56", "--devices", "680",
                                 "--seed", "2", "--trials", "999"]),
        ("curve-grid-1e20", ["curve", "--method", "clopper_pearson",
                             "--grid", "100000000000000000000"]),
        ("validate-far-devices-1e20", ["validate", "--kind", "far", "--p", "0.5",
                                       "--devices", "100000000000000000000", "--seed", "1",
                                       "--trials", "1000"]),
    ]
    runs += [(ident, ["analyze", *["--counts"] * ("counts" in ident), f"../fixtures/{name}"])
             for ident, (name, _) in LONG_TOKEN_FILES.items()]
    runs += [(f"plan-scale-{query.name}", query.argv(1)) for query in PLAN_QUERIES]
    for method in METHODS:
        runs.append((f"plan-width-0.1-{method}", ["plan", "width", "--width", "0.1",
                                                  "--method", method]))
        # the count overflowed a float before it was capped
        runs.append((f"plan-width-1e-160-{method}", ["plan", "width", "--width", "1e-160",
                                                     "--method", method]))
    for alpha in ("0.01", "1e-6"):
        for method in METHODS:
            runs += [(f"plan-width-{width}-{method}-alpha-{alpha}",
                      ["plan", "width", "--width", width, "--method", method, "--alpha", alpha])
                     for width in WIDTHS]
    runs += [
        ("plan-width-alpha-1e-6", ["plan", "width", "--width", "0.05", "--alpha", "1e-6"]),
        # Clopper-Pearson refuses alpha below 1e-12, where it would plan 6424
        # devices for 6432, and raise a capacity error for 7334
        ("plan-width-cp-alpha-1e-15", ["plan", "width", "--width", "0.1", "--method",
                                       "clopper_pearson", "--alpha", "1e-15"]),
        ("plan-width-cp-alpha-1e-17", ["plan", "width", "--width", "0.1", "--method",
                                       "clopper_pearson", "--alpha", "1e-17"]),
        ("plan-width-capacity", ["plan", "width", "--width", "0.0005", "--method", "wilson"]),
        ("plan-width-normal-capacity", ["plan", "width", "--width", "1e-100",
                                        "--method", "normal"]),
        # the Clopper-Pearson floor on alpha, ahead of a beta quantile that stalls
        ("plan-width-convergence", ["plan", "width", "--width", "0.5", "--alpha", "1e-300"]),
        ("plan-width-zero", ["plan", "width", "--width", "0"]),
        ("plan-width-alpha-underflow", ["plan", "width", "--width", "0.1", "--alpha", "5e-324"]),
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
        # refused, where it would print 0.660681 for 0.321361
        ("curve-cp-alpha-1e-17", ["curve", "--method", "clopper_pearson", "--sweep", "devices",
                                  "--grid", "680", "--alpha", "1e-17"]),
        ("curve-normal-alias", ["curve", "--sweep", "alias", "--method", "normal"]),
        ("curve-normal-devices", ["curve", "--method", "normal", "--sweep", "devices"]),
        ("curve-wilson-alias", ["curve", "--method", "wilson", "--sweep", "alias"]),
        ("curve-clopper_pearson-alias", ["curve", "--method", "clopper_pearson",
                                         "--sweep", "alias"]),
        # grid tokens that are no number, each named by the rule it breaks
        ("curve-grid-comma", ["curve", "--grid", ","]),
        ("curve-grid-empty-token", ["curve", "--grid", "5,,"]),
        ("curve-grid-1e3", ["curve", "--grid", "1e3"]),
        ("curve-alias-grid-text", ["curve", "--sweep", "alias", "--grid", "x"]),
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
        ("simulate-alias-list-above-one", ["simulate", "--devices", "8", "--positions", "2",
                                           "--seed", "4", "--alias", "0.5,1.5", "--out",
                                           "sim.csv"]),
        ("simulate-alias-list-text", ["simulate", "--devices", "8", "--positions", "2",
                                      "--seed", "4", "--alias", "0.5,abc", "--out", "sim.csv"]),
        # 139 KB of CSV lines, written and drawn over several 64 KiB blocks
        ("simulate-csv-blocks", ["simulate", "--devices", "300", "--positions", "77",
                                 "--repeats", "3", "--alias", "linear", "--noise", "0.1",
                                 "--seed", "7", "--out", "sim.csv"]),
        ("simulate-binary-blocks", ["simulate", "--devices", "300", "--positions", "77",
                                    "--repeats", "3", "--alias", "linear", "--noise", "0.1",
                                    "--seed", "7", "--format", "binary", "--out", "sim.puf"]),
        ("simulate-seed-negative", ["simulate", "--devices", "2", "--positions", "2",
                                    "--seed", "-1", "--out", "sim.csv"]),
        ("validate-seed-negative", ["validate", "--kind", "far", "--p", "0.5", "--devices", "10",
                                    "--seed", "-1"]),
        ("no-command", []),
        ("help", ["--help"]),
    ]
    for command in (["analyze"], ["plan"], ["plan", "width"], ["plan", "frr"], ["check"],
                    ["early-stop"], ["simulate"], ["curve"], ["validate"]):
        runs.append(("help-" + "-".join(command), [*command, "--help"]))
    return runs


def fingerprint(data: bytes, json_report: bool) -> str:
    """sha256 of data; of a JSON report, after rounding its floats to 12 digits."""
    if json_report and data:
        rounded = json.loads(data, parse_float=lambda text: float(f"{float(text):.12g}"))
        data = json.dumps(rounded).encode()
    return hashlib.sha256(data).hexdigest()


def record(ident: str, argv: list[str], code: int, stdout: bytes, stderr: str,
           cwd: Path) -> dict:
    """The line of one invocation that ran in cwd, in either mode."""
    json_report = "json" in argv
    lines = stderr.strip().splitlines()
    line = {"id": ident, "argv": argv, "exit": code,
            "stdout_sha256": fingerprint(stdout, json_report),
            "stderr_last": lines[-1] if lines else "",
            "files": {path.name: fingerprint(path.read_bytes(), json_report)
                      for path in sorted(cwd.iterdir())}}
    if ident.startswith("help"):
        line["python"] = "%d.%d" % sys.version_info[:2]
    return line


def run_child(out: Path, ident: str, argv: list[str]) -> dict:
    cwd = out / ident
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "bitalias", *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    return record(ident, argv, proc.returncode, proc.stdout,
                  proc.stderr.decode(errors="replace"), cwd)


def run_in_process(out: Path, ident: str, argv: list[str]) -> dict:
    """``run_child``'s line from ``bitalias.cli.main`` in this process, run in
    OUT/<id> with COLUMNS=80; the working directory and COLUMNS are restored."""
    from bitalias.cli import main

    cwd = out / ident
    cwd.mkdir()
    home, stdout, stderr = os.getcwd(), io.StringIO(), io.StringIO()
    os.chdir(cwd)
    try:
        with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(stdout), \
                redirect_stderr(stderr):
            try:
                code = main(argv)
            except Exception:  # a child prints the traceback and exits 1
                code = 1
                stderr.write(traceback.format_exc())
    finally:
        os.chdir(home)
    return record(ident, argv, code, stdout.getvalue().encode(), stderr.getvalue(), cwd)


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
            print(json.dumps(run_child(out, ident, argv)), flush=True)


if __name__ == "__main__":
    main()
