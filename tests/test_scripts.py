import hashlib
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# sha256 of each CSV that scripts/width_curves.py writes
WIDTH_CURVE_FILES = {
    "accuracy_at_campaign_sizes.csv":
        "805a60969a237eb53b16058ccca4839f2d7ca0e8d21d2394d4708bbe2bb012f0",
    "width_over_alias.csv": "3c457f07c458f482b546471aaa6ff48d3a427bf79a2c1141211743a9ec561f17",
    "width_over_devices.csv": "136a175cee07c244fa57e8057dcdc047bf175e1c4bab2b1ce5f35bcb1b1b36d5",
}


def test_width_curves_csv_bytes(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "width_curves.py"), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == WIDTH_CURVE_FILES


def test_cli_corpus_lines(tmp_path):
    ids = ["check-accept", "plan-width-capacity", "curve-out", "help-plan-frr"]
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_corpus.py"), str(tmp_path), *ids],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["id"] for line in lines] == ids
    for line in lines:
        assert set(line) == {"id", "argv", "exit", "stdout_sha256", "stderr_last", "files"}
        assert len(line["stdout_sha256"]) == 64
    check, capacity, curve, help_ = lines
    assert check["argv"] == ["check", "--x", "340", "--n", "680"] and check["exit"] == 0
    assert capacity["exit"] == 2
    assert capacity["stderr_last"] == "error: width 0.0005 unreachable below 10000000 devices"
    assert curve["stdout_sha256"] == hashlib.sha256(b"").hexdigest()
    assert curve["files"] == {"curve.csv": hashlib.sha256(
        (tmp_path / "curve-out" / "curve.csv").read_bytes()).hexdigest()}
    assert (help_["exit"], help_["stderr_last"], help_["files"]) == (0, "", {})
