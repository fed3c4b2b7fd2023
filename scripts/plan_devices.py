#!/usr/bin/env python3
"""Reproduce the device-planning figures: counts needed for a target interval
width under each estimator, and the count needed to keep the false rejection
rate of the qualification test under control."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bitalias import METHODS, AliasLimits, ci_width, plan_devices_exact, plan_devices_frr


def main() -> None:
    alpha = 0.01
    width = 0.1
    print(f"target width {width} at alpha {alpha} (interval 0.5 +- {width / 2}):")
    for method in METHODS:
        # the normal approximation plans every count, the others even counts
        n, step = plan_devices_exact(method, width, alpha).devices, 1 if method == "normal" else 2
        w_at, w_before = (ci_width(method, 0.5, m, alpha) for m in (n, n - step))
        print(f"  {method:<21} {n:>6} devices "
              f"(width {w_at:.5f}; {n - step} gives {w_before:.5f})")

    limits = AliasLimits(0.45, 0.55)
    inner = (0.48, 0.52)
    beta = 0.01
    start = time.perf_counter()
    plan = plan_devices_frr(limits, inner, alpha, beta)
    elapsed = time.perf_counter() - start
    print(f"\nfalse-rejection plan for limits ({limits.p_l}, {limits.p_u}), "
          f"inner band {inner}, alpha {alpha}, beta {beta}:")
    print(f"  {plan.devices} devices (found in {elapsed:.2f}s)")


if __name__ == "__main__":
    main()
