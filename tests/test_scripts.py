import hashlib
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
