#!/usr/bin/env python3
"""Emit interval-width curves as CSV files: width over device count at a
balanced alias, width over alias at a fixed count, and the accuracy
achievable at historical campaign sizes.  Output lands in ./curves/ unless a
directory is given."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bitalias.confidence import ALIAS_GRID, DEVICE_GRID, ci_width

# a few historical campaign sizes, for context on achievable accuracy
HISTORICAL_DEVICE_COUNTS = (4, 45, 125, 160, 193, 996)
# estimators in column order
COLUMNS = ("wilson", "clopper_pearson", "normal")


def dump(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(f"{v:.6g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines) - 1} rows)")


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("curves")
    out_dir.mkdir(parents=True, exist_ok=True)
    alpha = 0.01

    dump(out_dir / "width_over_devices.csv", f"n,{','.join(COLUMNS)}",
         [(n, *(ci_width(m, 0.5, n, alpha) for m in COLUMNS)) for n in DEVICE_GRID])
    dump(out_dir / "width_over_alias.csv", f"p_hat,{','.join(COLUMNS)}",
         [(p, *(ci_width(m, p, 20, alpha) for m in COLUMNS)) for p in ALIAS_GRID])
    dump(out_dir / "accuracy_at_campaign_sizes.csv", "n,clopper_pearson_width",
         [(n, ci_width("clopper_pearson", 0.5, n, alpha)) for n in HISTORICAL_DEVICE_COUNTS])


if __name__ == "__main__":
    main()
