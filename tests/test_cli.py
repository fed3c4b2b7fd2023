import hashlib
import json

import numpy as np
import pytest

from bitalias.cli import main
from bitalias.formats import write_counts, write_measurements
from bitalias.response import MeasurementTensor, PositionCounts
from bitalias.simulate import PopulationSpec, simulate_population


@pytest.fixture
def balanced_file(tmp_path):
    spec = PopulationSpec(devices=680, positions=16, repeats=3, seed=2, alias=0.5,
                          flip_noise=0.02)
    path = tmp_path / "pop.csv"
    write_measurements(simulate_population(spec), path, fmt="csv")
    return path


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

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2,1\n0,7\n")
        assert main(["analyze", str(bad)]) == 2

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
        rc = main(["simulate", "--devices", "2", "--positions", "2", "--seed", "1",
                   "--alias", "zebra", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


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

    @pytest.mark.parametrize("method,sweep,digest", [
        ("normal", "devices", "ade5a4d2bf091c6abc18de9b26d042ec70804c74f0dfaf826addde028b10dfd4"),
        ("normal", "alias", "1bdf879eccd204de5fb71c09312a88c373ab95d97f26250ab4d09fc7f3a080ed"),
        ("wilson", "devices", "76c0f1001a2c0aa4eacadc9e6d56d053f1739e92e77dd05e2d83fe27dd0263b0"),
        ("wilson", "alias", "ef614949781c76377b2f3436f6f00d8e3036ba31fceda78379a020b72e80e18c"),
        ("clopper_pearson", "devices",
         "8b474b366dd83f40ac27aca2090c3299b1ea872eaa345024f08b55d982174dee"),
        ("clopper_pearson", "alias",
         "658e3d0eec614b8dc73a0be95d4dfc943cdc7fcd60c258c9391aeba1c4e59e2d"),
    ])
    def test_default_grid_output_pinned(self, capsys, method, sweep, digest):
        assert main(["curve", "--method", method, "--sweep", sweep]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


class TestModuleEntryPoint:
    def test_python_m_invocation(self):
        import os
        import subprocess
        import sys

        import bitalias
        src = os.path.dirname(os.path.dirname(bitalias.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "bitalias", "plan", "width",
             "--width", "0.1", "--method", "wilson"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "devices=658" in proc.stdout


# Runs CLI commands in a fresh interpreter and prints, as JSON, every module
# imported along the way whose file lies outside the stdlib, numpy and bitalias.
# Modules loaded at startup (editable-install finders, site hooks) are left out;
# modules without a file (built-ins, Cython's shared modules) are allowed.
_IMPORT_PROBE = """
import sys
started = set(sys.modules)
import io, json, os, sysconfig
from contextlib import redirect_stdout
from bitalias.cli import main
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 1), argv
import numpy, bitalias
def under(*dirs):
    return tuple(os.path.realpath(d) + os.sep for d in dirs)
paths = sysconfig.get_paths()
packages = under(os.path.dirname(numpy.__file__), os.path.dirname(bitalias.__file__))
stdlib = under(paths["stdlib"], paths["platstdlib"])
site = under(paths["purelib"], paths["platlib"])  # may sit inside the stdlib
def allowed(path):
    path = os.path.realpath(path)
    return path.startswith(packages) or (path.startswith(stdlib)
                                         and not path.startswith(site))
foreign = sorted(
    name for name, mod in list(sys.modules.items()) if name not in started
    and getattr(mod, "__file__", None) and not allowed(mod.__file__))
print(json.dumps(foreign))
"""


class TestRuntimeDependencies:
    def test_commands_import_only_stdlib_numpy_and_bitalias(self):
        import os
        import subprocess
        import sys

        import bitalias
        src = os.path.dirname(os.path.dirname(bitalias.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        commands = [
            ["plan", "width", "--width", "0.1", "--method", "clopper_pearson"],
            ["plan", "frr", "--inner-low", "0.48", "--inner-high", "0.52"],
            ["check", "--x", "340", "--n", "680"],
            ["curve", "--method", "wilson", "--sweep", "alias"],
            ["validate", "--kind", "coverage", "--p", "0.5", "--devices", "50",
             "--trials", "1000", "--seed", "1"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


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
