import io
import json
import math
import re
from functools import partial

import numpy as np
import pytest

from bitalias.cli import main
from bitalias.errors import BitAliasError, CapacityError, DomainError, FormatError
from bitalias.formats import write_counts, write_measurements
from bitalias.response import (MeasurementTensor, PositionCounts, count_ones,
                               derive_noise_free_response)
from bitalias.simulate import PopulationSpec, simulate_population


@pytest.fixture
def campaign_files(tmp_path):
    """A tied campaign (even repeats, T % 8 = 5) as binary and CSV files, and
    its voted counts as a counts file: name -> path."""
    m = simulate_population(PopulationSpec(devices=64, positions=77, repeats=4, seed=11,
                                           alias="linear", flip_noise=0.2))
    paths = {name: str(tmp_path / f"campaign.{name}") for name in ("binary", "csv", "counts")}
    write_measurements(m, paths["binary"], fmt="binary")
    write_measurements(m, paths["csv"], fmt="csv")
    write_counts(count_ones(derive_noise_free_response(m)), paths["counts"])
    return paths


@pytest.fixture
def balanced_file(tmp_path):
    spec = PopulationSpec(devices=680, positions=16, repeats=3, seed=2, alias=0.5,
                          flip_noise=0.02)
    path = tmp_path / "pop.csv"
    write_measurements(simulate_population(spec), path, fmt="csv")
    return path


def test_parser_choices_copy_their_modules():
    # the parser names each command's choices without importing its module
    from bitalias import analysis, cli, simulate, validate
    assert cli.ALIAS_PROFILE_NAMES == tuple(simulate.ALIAS_PROFILES)
    assert cli.REPORT_FORMATS == analysis.REPORT_FORMATS
    assert cli.VALIDATE_KINDS == validate.KINDS


class TestAnalyzeCommand:
    def test_rejections_exit_one(self, balanced_file, capsys):
        rc = main(["analyze", str(balanced_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "acceptance region: x_l=340 x_u=340" in out

    def test_all_accepted_exit_zero(self, tmp_path):
        counts = PositionCounts(devices=680, ones=np.full(4, 340))
        path = tmp_path / "counts.csv"
        write_counts(counts, path)
        rc = main(["analyze", str(path), "--counts"])
        assert rc == 0

    def test_json_report_to_file(self, balanced_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["analyze", str(balanced_file), "--format", "json",
                   "--out", str(out)])
        assert rc in (0, 1)
        payload = json.loads(out.read_bytes())
        assert payload["summary"]["positions"] == 16

    def test_entropy_floor_flags(self, balanced_file, capsys):
        rc = main(["analyze", str(balanced_file), "--min-entropy", "0.9"])
        out = capsys.readouterr().out
        assert "p_l=0.464113" in out
        assert rc in (0, 1)

    def test_conflicting_limit_flags(self, balanced_file, capsys):
        rc = main(["analyze", str(balanced_file), "--min-entropy", "0.9",
                   "--p-low", "0.4"])
        assert rc == 2
        for argv in (["check", "--x", "5", "--n", "10", "--min-entropy", "0.9",
                      "--p-high", "0.6"],
                     ["check", "--x", "5", "--n", "10", "--min-entropy", "0.9",
                      "--shannon-entropy", "0.9"],
                     ["analyze", str(balanced_file), "--min-entropy", "0.9",
                      "--shannon-entropy", "0.9"]):
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("explicit limits or an entropy floor, not both") == 2
        assert err.count("at most one of --min-entropy and --shannon-entropy") == 2

    @pytest.mark.parametrize("fraction", ["2", "0.5", "0"])
    def test_flag_fraction_without_early_stop_exits_two(self, balanced_file, capsys, fraction):
        # the fraction only sets the early-stop forecast, so alone it is an error,
        # not a flag silently ignored
        assert main(["analyze", str(balanced_file), "--max-flag-fraction", fraction]) == 2
        assert capsys.readouterr() == ("", "error: --max-flag-fraction needs --early-stop-alpha\n")
        argv = ["analyze", str(balanced_file), "--early-stop-alpha", "0.01",
                "--max-flag-fraction", fraction]
        assert main(argv) == (2 if fraction == "2" else 1)

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2,1\n0,7\n")
        assert main(["analyze", str(bad)]) == 2

    def test_header_too_large_for_memory_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "huge.csv"
        bad.write_bytes(b"2,1000000000000000,1\n0\n0\n")
        assert main(["analyze", str(bad)]) == 2
        assert capsys.readouterr().err == \
            "error: line 2: expected 1000000000000000 values, found 1\n"

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 2

    def test_usage_error_exits_two(self, capsys):
        assert main(["analyze"]) == 2
        assert main(["frobnicate"]) == 2


class TestPlanCommand:
    def test_width_planning(self, capsys):
        assert main(["plan", "width", "--width", "0.1", "--method", "wilson"]) == 0
        assert "devices=658" in capsys.readouterr().out
        assert main(["plan", "width", "--width", "0.1", "--method",
                     "clopper_pearson"]) == 0
        assert "devices=680" in capsys.readouterr().out

    def test_normal_width_at_tiny_alpha(self, capsys):
        # 1 - alpha/2 rounds to 1.0 here; alpha/2 itself does not
        assert main(["plan", "width", "--width", "0.01", "--method", "normal",
                     "--alpha", "1e-20"]) == 0
        assert "devices=871618" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ("normal", "wilson", "clopper_pearson"))
    @pytest.mark.parametrize("width", ("0.1", "0.003"))
    def test_width_plan_meets_the_width_that_curve_prints(self, capsys, method, width):
        assert main(["plan", "width", "--width", width, "--method", method]) == 0
        n = re.search(r"devices=(\d+)", capsys.readouterr().out).group(1)
        assert main(["curve", "--method", method, "--sweep", "devices", "--p-hat", "0.5",
                     "--grid", n]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == n and float(row[1]) <= float(width)

    def test_frr_planning_smoke(self, capsys):
        rc = main(["plan", "frr", "--inner-low", "0.3", "--inner-high", "0.7",
                   "--p-low", "0.1", "--p-high", "0.9", "--beta", "0.2",
                   "--alpha", "0.05"])
        assert rc == 0
        assert "method=frr" in capsys.readouterr().out


class TestCheckCommand:
    def test_accept_exit_zero(self, capsys):
        assert main(["check", "--x", "340", "--n", "680"]) == 0
        assert "accepted=yes" in capsys.readouterr().out

    def test_reject_exit_one(self, capsys):
        assert main(["check", "--x", "300", "--n", "680"]) == 1
        assert "accepted=no" in capsys.readouterr().out


class TestEarlyStopCommand:
    def test_clean_counts_continue(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        write_counts(PositionCounts(devices=50, ones=np.full(6, 25)), path)
        assert main(["early-stop", str(path), "--counts"]) == 0
        assert "decision=continue" in capsys.readouterr().out

    def test_bad_position_aborts(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        write_counts(PositionCounts(devices=50, ones=np.array([25, 10, 26])), path)
        assert main(["early-stop", str(path), "--counts"]) == 1
        out = capsys.readouterr().out
        assert "decision=abort" in out
        assert "flagged=1/3" in out

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_measurement_file_is_voted_then_counted(self, tmp_path, capsys, fmt):
        # 50 devices whose voted counts are 25, 10 and 26; the third repeat
        # of every device disagrees with the first two and must be outvoted.
        voted = np.zeros((50, 3), dtype=np.uint8)
        for t, x in enumerate((25, 10, 26)):
            voted[:x, t] = 1
        bits = np.stack([voted, voted, 1 - voted], axis=2)
        path = tmp_path / "m.dat"
        write_measurements(MeasurementTensor(bits=bits), path, fmt=fmt)
        assert main(["early-stop", str(path)]) == 1
        assert capsys.readouterr().out == "decision=abort flagged=1/3 positions=1\n"


class TestSimulateCommand:
    def test_deterministic_binary_output(self, tmp_path):
        args = ["simulate", "--devices", "20", "--positions", "64", "--repeats", "3",
                "--noise", "0.05", "--seed", "9", "--format", "binary"]
        a, b = tmp_path / "a.puf", tmp_path / "b.puf"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_alias_vector_argument(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["simulate", "--devices", "5", "--positions", "3", "--seed", "1",
                   "--alias", "0.0,0.5,1.0", "--out", str(out)])
        assert rc == 0
        from bitalias.formats import load_measurements
        m = load_measurements(out)
        assert m.positions == 3

    def test_unknown_alias_token_exits_two(self, tmp_path):
        for alias in ("zebra", "nan"):  # test_one_message_per_rule pins the messages
            rc = main(["simulate", "--devices", "2", "--positions", "2", "--seed", "1",
                       "--alias", alias, "--out", str(tmp_path / "x.csv")])
            assert rc == 2
            assert not (tmp_path / "x.csv").exists()


class TestCurveCommand:
    def test_devices_sweep_csv(self, capsys):
        rc = main(["curve", "--method", "wilson", "--sweep", "devices",
                   "--grid", "20,658"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "n,width"
        assert out[1].startswith("20,")
        assert float(out[2].split(",")[1]) <= 0.1

    def test_alias_sweep_default_grid(self, capsys):
        rc = main(["curve", "--sweep", "alias", "--devices", "20"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "p_hat,width"
        assert len(out) == 102

    def test_malformed_grid_exits_two(self, capsys):
        assert main(["curve", "--grid", "abc"]) == 2
        assert "error:" in capsys.readouterr().err


# Runs `python -m bitalias ARGS...` through runpy and prints, as the last line
# of stderr, a JSON report: the exit code; the package's submodules loaded;
# which modules that start-up must not pay for were loaded; whether numpy was
# loaded and whether it could be; every module loaded from outside the stdlib,
# numpy and bitalias; OPENBLAS_NUM_THREADS and the thread count (1 where /proc
# is missing).  Modules loaded before the command (site hooks, editable-install
# finders) are left out; modules without a file (built-ins) are allowed.
_PROBE = """
import sys
started = set(sys.modules)
import runpy
try:
    runpy.run_module("bitalias", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
new = {name: mod for name, mod in list(sys.modules.items()) if name not in started}
import importlib.util, json, os, sysconfig
numpy = importlib.util.find_spec("numpy")
def under(*dirs):
    return tuple(os.path.realpath(d) + os.sep for d in dirs)
paths = sysconfig.get_paths()
packages = under(os.path.dirname(sys.modules["bitalias"].__file__),
                 *([os.path.dirname(numpy.origin)] if numpy else []))
stdlib = under(paths["stdlib"], paths["platstdlib"])
site = under(paths["purelib"], paths["platlib"])  # may sit inside the stdlib
def foreign(path):
    path = os.path.realpath(path)
    return not (path.startswith(packages) or path.startswith(stdlib)
                and not path.startswith(site))
print(json.dumps({
    "exit": code,
    "package": " ".join(sorted(name[9:] for name in new if name.startswith("bitalias."))),
    "forbidden": sorted({"dataclasses", "inspect", "statistics", "typing", "pathlib"} & set(new)),
    "numpy": {"loaded": "numpy" in sys.modules, "importable": numpy is not None},
    "foreign": sorted(name for name, mod in new.items()
                      if getattr(mod, "__file__", None) and foreign(mod.__file__)),
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1,
}), file=sys.stderr)
"""
_BASE = "cli confidence errors special"
_LIMITS = "cli confidence errors qualification special"
_FILES = "cli confidence errors formats qualification response special"
_ANALYZE = "analysis cli confidence entropy errors formats qualification response special"
# Each command loads only the submodules it runs: qualification for limits,
# entropy for an entropy floor, analysis only in analyze.  Each runs both where
# numpy cannot be imported (python -S) and where it can, and never loads it.
# id -> argv, exit code, submodules, a whole line of stdout (None: no stdout)
_NUMPY_FREE = {
    "no-command": ([], 2, _BASE, None),
    "plan-width": (["plan", "width", "--width", "0.1"], 0, _BASE,
                   "devices=680 method=clopper_pearson target_width=0.1 alpha=0.01"),
    "plan-width-wilson": (["plan", "width", "--width", "0.1", "--method", "wilson"], 0, _BASE,
                          "devices=658 method=wilson target_width=0.1 alpha=0.01"),
    "plan-frr": (["plan", "frr", "--inner-low", "0.48", "--inner-high", "0.52"], 0, _LIMITS,
                 "devices=6653 method=frr p_l=0.45 p_u=0.55 inner=(0.48, 0.52) alpha=0.01 "
                 "beta=0.01"),
    "check": (["check", "--x", "340", "--n", "680"], 0, _LIMITS,
              "x=340 n=680 accepted=yes p_value_lower=0.00498567 p_value_upper=0.00498567 "
              "alpha=0.01"),
    "check-reject": (["check", "--x", "300", "--n", "680"], 1, _LIMITS,
                     "x=300 n=680 accepted=no p_value_lower=0.691473 "
                     "p_value_upper=8.14698e-09 alpha=0.01"),
    "check-entropy": (["check", "--x", "340", "--n", "680", "--min-entropy", "0.9"], 1,
                      "cli confidence entropy errors qualification special",
                      "x=340 n=680 accepted=no p_value_lower=0.0331515 "
                      "p_value_upper=0.0331515 alpha=0.01"),
    "curve": (["curve"], 0, _BASE, "2,0.876574"),
    "curve-alias": (["curve", "--method", "wilson", "--sweep", "alias"], 0, _BASE, "0,0.249105"),
    "curve-alias-cp": (["curve", "--sweep", "alias", "--devices", "7", "--grid", "0.1,0.25,0.9",
                        "--method", "clopper_pearson"], 0, _BASE, "0.25,0.762016"),
    "curve-grid": (["curve", "--grid", "2,20,200,5000", "--p-hat", "0.3"], 0, _BASE,
                   "5000,0.0333686"),
    "analyze-help": (["analyze", "--help"], 0, _BASE, "positional arguments:"),
    "analyze": (["analyze", "{readme}"], 1, _ANALYZE, "accepted=0 rejected=3"),
    "analyze-json": (["analyze", "{readme}", "--format", "json"], 1, _ANALYZE,
                     '    "rejected": 3,'),
    "analyze-csv": (["analyze", "{readme}", "--format", "csv"], 1, _ANALYZE,
                    "t,x,N,p_hat,ci_lo,ci_hi,p_val_lo,p_val_hi,accepted,min_entropy,"
                    "shannon_entropy"),
    "analyze-binary": (["analyze", "{binary}"], 1, _ANALYZE,
                       "devices=64 positions=77 repeats=4 ties=776"),
    "analyze-campaign-csv": (["analyze", "{csv}"], 1, _ANALYZE,
                             "devices=64 positions=77 repeats=4 ties=776"),
    "analyze-counts": (["analyze", "--counts", "{counts}"], 1, _ANALYZE,
                       "devices=64 positions=77 repeats=- ties=-"),
    "early-stop": (["early-stop", "{readme}"], 0, _FILES,
                   "decision=continue flagged=0/3 positions=-"),
    "early-stop-binary": (["early-stop", "{binary}"], 1, _FILES, "decision=abort flagged=35/77 "
                          "positions=0,1,2,3,4,5,6,7,8,9,10,11,12,13,17,18,19,54,57,58,59,61,62,"
                          "63,65,66,67,68,70,71,72,73,74,75,76"),
    "early-stop-csv": (["early-stop", "{csv}"], 1, _FILES, "decision=abort flagged=35/77 "
                       "positions=0,1,2,3,4,5,6,7,8,9,10,11,12,13,17,18,19,54,57,58,59,61,62,"
                       "63,65,66,67,68,70,71,72,73,74,75,76"),
}
_VALIDATE = ["validate", "--p", "0.5", "--devices", "100", "--trials", "1000", "--seed", "1"]
# argv, exit code, submodules, stdout line, site packages, OPENBLAS_NUM_THREADS given
_CHILDREN = [pytest.param(*row, site, None, id=f"{name}-{'site' if site else 'S'}")
             for name, row in _NUMPY_FREE.items() for site in (False, True)] + [
    # validate loads numpy, whose OpenBLAS starts a busy-waiting worker per
    # CPU: the CLI asks for one thread unless the user says otherwise
    pytest.param([*_VALIDATE, "--kind", kind], 0,
                 "cli confidence errors qualification simulate special validate", line, True,
                 blas, id=f"validate-{kind}-site" + (f"-blas-{blas}" if blas else ""))
    for kind, line, blas in (
        ("coverage", "kind=coverage value=0.994 std_error=0.00244213 trials=1000", None),
        ("frr", "kind=frr value=1 std_error=0 trials=1000", None),
        ("frr", "kind=frr value=1 std_error=0 trials=1000", "3"))]


@pytest.mark.parametrize("argv, code, modules, line, site, blas", _CHILDREN)
def test_command_in_a_fresh_interpreter(campaign_files, tmp_path, argv, code, modules, line,
                                        site, blas):
    import os
    import subprocess
    import sys

    import bitalias
    readme = tmp_path / "readme.csv"
    readme.write_text("2,3,2\n0,1,0\n0,1,1\n1,1,0\n1,0,0\n")
    argv = [arg.format(readme=readme, **campaign_files) for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bitalias.__file__)),
           "OPENBLAS_NUM_THREADS": blas}
    proc = subprocess.run([sys.executable, *([] if site else ["-S"]), "-c", _PROBE, *argv],
                          capture_output=True, text=True,
                          env={key: value for key, value in env.items() if value is not None})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    threads, forbidden = report.pop("threads"), report.pop("forbidden")
    numpy = "validate" in modules
    assert report == {"exit": code, "package": modules, "foreign": [], "blas": blas or "1",
                      "numpy": {"loaded": numpy, "importable": site}}
    assert forbidden == [] or numpy  # numpy itself loads inspect
    assert threads == 1 or blas is not None  # a user's own setting is not pinned
    assert (proc.stdout == "") if line is None else (line in proc.stdout.splitlines())


class TestValidateCommand:
    def test_coverage_run(self, capsys):
        rc = main(["validate", "--kind", "coverage", "--method", "wilson",
                   "--p", "0.5", "--devices", "50", "--alpha", "0.05",
                   "--trials", "2000", "--seed", "3"])
        assert rc == 0
        assert "kind=coverage" in capsys.readouterr().out

    def test_far_run(self, capsys):
        rc = main(["validate", "--kind", "far", "--p", "0.55", "--devices", "680",
                   "--trials", "2000", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind=far" in out

    @pytest.mark.parametrize("argv, line", [
        (["--kind", "frr", "--p", "0.4985", "--p-low", "0.497", "--p-high", "0.503",
          "--devices", "2671077"],
         "kind=frr value=0.00975 std_error=0.000310724 trials=100000"),
        (["--kind", "coverage", "--method", "clopper_pearson", "--p", "0.5",
          "--devices", "6653"],
         "kind=coverage value=0.9904 std_error=0.000308348 trials=100000"),
    ], ids=["frr", "coverage"])
    def test_benchmark_queries_pinned_at_seed_one(self, capsys, argv, line):
        # the two validate queries of perfbench's plan-scale workload
        assert main(["validate", *argv, "--seed", "1"]) == 0
        assert capsys.readouterr().out == line + "\n"


class TestDeviceCap:
    # Every device count is at most special.DEVICE_CAP = 10^7, where the
    # binomial tails' stated accuracy ends: `output` is a whole line that the
    # cap itself prints; test_one_message_per_rule sends one device more.
    @pytest.mark.parametrize("argv, output", [
        (["check", "--x", "5000000", "--n", "{n}"],
         "x=5000000 n={n} accepted=yes p_value_lower=0 p_value_upper=0 alpha=0.01"),
        (["analyze", "--counts", "{counts}", "--format", "csv"],
         "0,5000000,{n},0.5,0.499593,0.500407,0,0,1,1,1"),
        (["curve", "--grid", "{n}"], "{n},0.000814548"),
        (["validate", "--kind", "far", "--p", "0.5", "--devices", "{n}", "--seed", "1",
          "--trials", "1000"], "kind=far value=1 std_error=0 trials=1000"),
    ], ids=["check", "counts-header", "curve-grid", "validate-devices"])
    def test_cap_runs(self, tmp_path, capsys, argv, output):
        counts = tmp_path / "counts.csv"
        counts.write_text("10000000,1\n5000000\n")
        assert main([arg.format(n=10_000_000, counts=counts) for arg in argv]) == 0
        out, err = capsys.readouterr()
        assert err == "" and output.format(n=10_000_000) in out.splitlines()


def _counts_file(n, folder):
    path = folder / "counts.csv"
    path.write_text(f"{n},1\n0\n")
    return str(path)


# rule -> the error it raises and its one message, as the special checker or
# confidence._first that applies it words it
_RULES = {
    "devices": (DomainError, "n must lie in [{}, 10000000], got {}"),
    "trials": (DomainError, "trials must be >= 1000, got {}"),
    "unreachable": (CapacityError, "width {} unreachable below 10000000 devices"),
    "alpha": (DomainError, "alpha must lie in (0, 1), got {}"),
    "underflow": (DomainError, "alpha must be >= 1e-323, where alpha/2 > 0, got {}"),
    "cp-floor": (DomainError, "alpha must be >= 1e-12 for clopper_pearson, got {}"),
    "probability": (DomainError, "{} must lie in {}, got {}"),
    "real": (DomainError, "{} must be a real number, got {!r}"),
    "choice": (DomainError, "{} must be one of {}, got {!r}"),
    "floor": (DomainError, "{} floor {} rounds to the band (0, 1)"),
    "integer": (DomainError, "{} must be an integer, got {!r}"),
    "seed": (DomainError, "seed must be >= 0, got {}"),
}


def _says(rule, *args):
    """The error type and message of ``rule`` for ``args``."""
    error, message = _RULES[rule]
    return error, message.format(*args)


# Device counts outside [1, 10^7]: (n, id, n as a message echoes it).  Each
# of 10^20 and 401 digits once ended in an OverflowError traceback with exit
# 1, the code of a rejection, and `check --n 10^15` once printed accepted=yes
# from a tail 14 times too small.  argparse's int() converts at most 4300
# digits, so only a library call is given 5001 (the corpus id
# curve-grid-5001-digits pins `curve --grid`), and only ci_width takes a real n.
_BAD_N = [(-1, "-1", "-1"), (0, "0", "0"), (10_000_001, "10000001", "10000001"),
          (10**15, "1e15", "1000000000000000"),
          (10**20, "1e20", "1000000000000000000… (21 digits)"),
          (10**400, "401-digits", "1000000000000000000… (401 digits)"),
          (10**5000, "5001-digits", "1000000000000000000… (5001 digits)"),
          (math.nan, "nan", "nan")]
_WIDTHS = (0.00081454, 0.0008, 0.0005, 1e-05, 1e-100, 1e-160, 5e-324)
_KINDS = ("coverage", "far", "frr")
_METHODS = ("normal", "wilson", "clopper_pearson")


def _validate(kind, flag, value):
    args = {"--p": 0.5, "--devices": 50, "--alpha": 0.01, "--trials": 1000, flag: value}
    return ["validate", "--kind", kind, "--seed", "1", *(str(a) for kv in args.items() for a in kv)]


def _rule_cases():
    """(entry point, the error type and message it gives) for every entry
    point of each argument rule.  An entry point is an argv for the CLI, whose
    message is its `error:` line, or a call of the library, whose message is
    its exception's.  An argv item that is a function of the test's folder
    gives a path there, writing the file first if it is an input."""
    from bitalias import (AliasLimits, AnalysisConfig, EntropySpec, Interval, PopulationSpec,
                          acceptance_probability, acceptance_region, analyze_counts,
                          binomial_cdf, ci_width, confidence_interval, limits_from_spec,
                          monte_carlo_validate, plan_devices_exact, plan_devices_frr,
                          render_report)
    from bitalias.validate import CoverageParams, QualificationParams
    cli = {  # name -> argv of n
        "check-n": lambda n: ["check", "--x", "0", "--n", str(n)],
        "counts-header": lambda n: ["analyze", "--counts", partial(_counts_file, n)],
        "curve-grid": lambda n: ["curve", "--grid", str(n)],
        "curve-devices": lambda n: ["curve", "--sweep", "alias", "--devices", str(n)],
        **{f"validate-{kind}-devices": partial(_validate, kind, "--devices") for kind in _KINDS},
    }
    library = {  # name -> (call of n, least n allowed)
        "binomial_cdf": (lambda n: binomial_cdf(0, n, 0.5), 0),
        "ci_width": (lambda n: ci_width("wilson", 0.5, n, 0.01), 1),
        "confidence_interval": (lambda n: confidence_interval("wilson", 0, n, 0.01), 1),
        "acceptance_region": (lambda n: acceptance_region(n, (0.45, 0.55), 0.01), 1),
    }
    for n, label, shown in _BAD_N:
        for name, argv in cli.items():
            if label not in ("5001-digits", "nan"):
                expected = _says("devices", 1, shown)
                if name == "counts-header" and n < 1:  # the file format's own rule
                    expected = FormatError, "line 1: dimensions must all be >= 1"
                yield pytest.param(argv(n), expected, id=f"{name}-{label}")
        for name, (call, least) in library.items():
            if label != "nan" or name == "ci_width":
                expected = None if least <= n <= 10_000_000 else _says("devices", least, shown)
                yield pytest.param(partial(call, n), expected, id=f"{name}-{label}")
    huge = "1000000000000000000… (5001 digits)"
    yield pytest.param(partial(binomial_cdf, 10**5000, 10, 0.5),
                       (DomainError, f"k must not exceed n, got k={huge}, n=10"), id="binomial_cdf-k")
    yield pytest.param(partial(acceptance_probability, 10**5000, 0.5,
                               acceptance_region(680, (0.45, 0.55), 0.01)),
                       (DomainError, f"region was built for n=680, not n={huge}"),
                       id="acceptance_probability-n")
    params = QualificationParams(devices=680, limits=(0.45, 0.55), alpha=0.01, p=0.5)
    for trials in (999, 0):
        for kind in _KINDS:
            yield pytest.param(_validate(kind, "--trials", trials), _says("trials", trials),
                               id=f"validate-{kind}-trials-{trials}")
        yield pytest.param(partial(monte_carlo_validate, "far", params, trials, 1),
                           _says("trials", trials), id=f"monte_carlo_validate-trials-{trials}")
    for kind in _KINDS:
        yield pytest.param(_validate(kind, "--alpha", 0), _says("alpha", 0.0),
                           id=f"validate-{kind}-alpha-0")
        yield pytest.param(_validate(kind, "--p", 1.5), _says("probability", "p", "[0, 1]", 1.5),
                           id=f"validate-{kind}-p-1.5")
    # 0.5 * 5e-324 rounds to 0.0: the Clopper-Pearson lower bound was once 0.0
    underflow = _says("underflow", 5e-324)
    for method in _METHODS:
        yield pytest.param(["plan", "width", "--width", "0.1", "--method", method, "--alpha",
                            "5e-324"], underflow, id=f"plan-width-{method}-alpha")
    for method in _METHODS:
        yield pytest.param(partial(confidence_interval, method, 5, 10, 5e-324), underflow,
                           id=f"confidence_interval-{method}-alpha")
    yield pytest.param(partial(plan_devices_exact, "normal", 0.1, 5e-324), underflow,
                       id="plan_devices_exact-alpha")
    yield pytest.param(partial(confidence_interval, "normal", 5, 10, 0.0), _says("alpha", 0.0),
                       id="confidence_interval-alpha-0")
    # Clopper-Pearson states no bound below alpha = 1e-12, where it would print
    # 6424 devices for 6432, a width of 0.660681 for 0.321361 and a coverage of 1
    cp = "clopper_pearson"
    floor = {  # name -> call of alpha
        "confidence_interval": partial(confidence_interval, cp, 5, 10),
        "ci_width": partial(ci_width, cp, 0.5, 680),
        "plan_devices_exact": partial(plan_devices_exact, cp, 0.1),
        "analyze_counts": lambda alpha: analyze_counts(PositionCounts(680, (5,)), AnalysisConfig(
            limits=(0.45, 0.55), alpha=alpha, ci_method=cp)),
        "monte_carlo_validate": lambda alpha: monte_carlo_validate(
            "coverage", CoverageParams(cp, 0.5, 680, alpha), 1000, 1),
    }
    for name, call in floor.items():
        yield pytest.param(partial(call, 1e-15), _says("cp-floor", 1e-15), id=f"{name}-cp-alpha")
    for name, argv in (
            ("plan-width", ["plan", "width", "--width", "0.1", "--method", cp, "--alpha", "1e-15"]),
            ("analyze", ["analyze", "--counts", partial(_counts_file, 680), "--ci-method", cp,
                         "--alpha", "1e-17"]),
            ("curve", ["curve", "--method", cp, "--grid", "680", "--alpha", "1e-17"]),
            ("validate-coverage", _validate("coverage", "--alpha", 1e-17))):
        alpha = float(argv[argv.index("--alpha") + 1])
        yield pytest.param(argv, _says("cp-floor", alpha), id=f"{name}-cp-alpha")
    # (z / width)^2 passes the cap between the first two widths and overflows a
    # float below about 1.2e-154
    planners = {f"plan_devices_exact-{m}": partial(plan_devices_exact, m) for m in _METHODS}
    for width in _WIDTHS:
        for method in _METHODS:
            yield pytest.param(["plan", "width", "--width", str(width), "--method", method],
                               _says("unreachable", width), id=f"plan-width-{method}-{width}")
        for name, plan in planners.items():
            yield pytest.param(partial(plan, width, 0.01), _says("unreachable", width),
                               id=f"{name}-{width}")
    entropy = "per-position entropy", "(0, 1]"
    yield pytest.param(["analyze", "--counts", partial(_counts_file, 10), "--min-entropy", "0"],
                       _says("probability", *entropy, 0.0), id="analyze-min-entropy-0")
    for kind, value in (("min", 1.5), ("min", 0.0), ("shannon", 0.0)):
        yield pytest.param(partial(EntropySpec, kind, value),
                           _says("probability", *entropy, value), id=f"EntropySpec-{kind}-{value}")
    # floors whose band (1 - p_u, p_u) rounds to (0, 1): 2**-h rounds to 1
    # below about 8e-17 bits, and the Shannon band below about 3e-15
    for kind, what, value in (("min", "min-entropy", 1e-17), ("shannon", "Shannon entropy", 1e-15)):
        yield pytest.param(["check", "--x", "5", "--n", "10", f"--{kind}-entropy", str(value)],
                           _says("floor", what, value), id=f"check-{kind}-entropy-{value}")
        yield pytest.param(partial(limits_from_spec, EntropySpec(kind, value)),
                           _says("floor", what, value), id=f"limits_from_spec-{kind}-{value}")
    # a --grid token is read by the checker of its abscissa
    for grid, token in ((",", ""), ("5,,", ""), ("1e3", "1e3")):
        yield pytest.param(["curve", "--grid", grid], _says("integer", "n", token),
                           id=f"curve-grid-{grid}")
    yield pytest.param(["curve", "--sweep", "alias", "--grid", "x"], _says("real", "p_hat", "x"),
                       id="curve-alias-grid-x")
    simulate = ["simulate", "--devices", "2", "--positions", "2", "--out",
                lambda folder: str(folder / "x.csv"), "--seed"]
    yield pytest.param([*simulate, "-1"], _says("seed", -1), id="simulate-seed--1")
    simulate += ["1", "--alias"]
    for kind in _KINDS:
        yield pytest.param(_validate(kind, "--seed", -1), _says("seed", -1),
                           id=f"validate-{kind}-seed--1")
    yield pytest.param([*simulate, "zebra"],
                       _says("choice", "alias profile", ("balanced", "linear"), "zebra"),
                       id="simulate-alias-zebra")
    for alias, value in (("nan", math.nan), ("0.5,1.5", 1.5)):
        yield pytest.param([*simulate, alias], _says("probability", "alias", "[0, 1]", value),
                           id=f"simulate-alias-{alias}")
    yield pytest.param([*simulate, "0.5,abc"], _says("real", "alias", "abc"),
                       id="simulate-alias-0.5,abc")
    limits, reports = AliasLimits(0.45, 0.55), ("text", "json", "csv")
    names = {  # name -> (call of a name, what the message calls it, the choices)
        "Interval": (lambda b: Interval(0.4, 0.6, 0.01, b), "method", _METHODS),
        "confidence_interval": (lambda b: confidence_interval(b, 5, 10, 0.01), "method",
                                _METHODS),
        "ci_width": (lambda b: ci_width(b, 0.5, 10, 0.01), "method", _METHODS),
        "plan_devices_exact": (lambda b: plan_devices_exact(b, 0.1, 0.01), "method", _METHODS),
        "AnalysisConfig-ci_method": (lambda b: AnalysisConfig(limits=limits, ci_method=b),
                                     "ci_method", _METHODS),
        "AnalysisConfig-output_format": (
            lambda b: AnalysisConfig(limits=limits, output_format=b), "output_format", reports),
        "render_report": (lambda b: render_report(analyze_counts(
            PositionCounts(10, (5,)), AnalysisConfig(limits=limits)), b), "report format",
            reports),
        "EntropySpec": (lambda b: EntropySpec(b, 0.9), "entropy kind", ("min", "shannon")),
        "monte_carlo_validate-kind": (lambda b: monte_carlo_validate(
            b, CoverageParams("wilson", 0.5, 30, 0.05), 1000, 1), "kind", _KINDS),
        "monte_carlo_validate-method": (lambda b: monte_carlo_validate(
            "coverage", CoverageParams(b, 0.5, 30, 0.05), 1000, 1), "method", _METHODS),
        "PopulationSpec-alias": (lambda b: PopulationSpec(2, 3, 1, seed=0, alias=b),
                                 "alias profile", ("balanced", "linear")),
        "write_measurements": (lambda b: write_measurements(
            MeasurementTensor(bits=np.zeros((1, 1, 1))), io.BytesIO(), b), "measurement format",
            ("csv", "binary")),
    }
    for name, (call, what, choices) in names.items():
        yield pytest.param(partial(call, "bogus"), _says("choice", what, choices, "bogus"),
                           id=f"{name}-bogus")
    yield pytest.param(partial(plan_devices_frr, limits, (0.40, 0.52), 0.01, 0.01),
                       (DomainError, "inner band must satisfy p_l < p_k < p_v < p_u, got "
                        "(0.45, 0.4, 0.52, 0.55)"), id="plan_devices_frr-inner")


@pytest.mark.parametrize("entry, expected", _rule_cases())
def test_one_message_per_rule(tmp_path, capsys, entry, expected):
    # each rule is stated once, in a special checker or confidence._first,
    # and echoes a long value in a short line
    if isinstance(entry, list):
        line = f"error: {expected[1]}"
        code = main([arg(tmp_path) if callable(arg) else arg for arg in entry])
        assert (code, *capsys.readouterr()) == (2, "", line + "\n")
        assert len(line) < 80
    elif expected is None:  # a binomial of no trials
        entry()
    else:
        with pytest.raises(BitAliasError) as err:
            entry()
        assert (type(err.value), str(err.value)) == expected
