#!/usr/bin/env python3
"""Monte-Carlo sweep over the statistical guarantees: coverage of all three
interval estimators across alias values and device counts, the false
acceptance rate of the qualification test at the band edges, and the false
rejection rate at the planned device count.  One seed drives the whole sweep;
every cell gets its own substream."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bitalias import (AliasLimits, CoverageParams, QualificationParams,
                      monte_carlo_validate, plan_devices_frr)

SEED = 20260808
TRIALS = 100_000
LIMITS = AliasLimits(0.45, 0.55)
INNER = (0.48, 0.52)


def main() -> None:
    start = time.perf_counter()
    task = 0

    print(f"coverage, alpha=0.05, {TRIALS} trials per cell")
    print(f"{'method':<17} {'n':>4}  " + "  ".join(f"p={0.05 + 0.1 * i:.2f}" for i in range(10)))
    for method in ("wilson", "clopper_pearson", "normal"):
        for devices in (10, 50, 200):
            cells = []
            for i in range(10):
                p = round(0.05 + 0.1 * i, 2)
                est = monte_carlo_validate(
                    "coverage", CoverageParams(method, p=p, devices=devices, alpha=0.05),
                    trials=TRIALS, seed=SEED, task=task)
                task += 1
                cells.append(f"{est.value:.4f}")
            print(f"{method:<17} {devices:>4}  " + "  ".join(cells))

    print(f"\nqualification test at limits ({LIMITS.p_l}, {LIMITS.p_u}), alpha=0.01")
    for devices in (100, 680):
        for p in (LIMITS.p_l, LIMITS.p_u):
            est = monte_carlo_validate(
                "far", QualificationParams(devices=devices, limits=LIMITS,
                                           alpha=0.01, p=p),
                trials=TRIALS, seed=SEED, task=task)
            task += 1
            print(f"  far  n={devices:>5} p={p:.2f}: {est.value:.5f} "
                  f"(+3sg {est.value + 3 * est.std_error:.5f}, bound 0.01)")
    devices = plan_devices_frr(LIMITS, INNER, 0.01, 0.01).devices
    print(f"  planned devices for inner band {INNER}, beta=0.01: {devices}")
    for p in INNER:
        est = monte_carlo_validate(
            "frr", QualificationParams(devices=devices, limits=LIMITS, alpha=0.01, p=p),
            trials=10_000, seed=SEED, task=task)
        task += 1
        print(f"  frr  n={devices:>5} p={p:.2f}: {est.value:.5f} "
              f"(+3sg {est.value + 3 * est.std_error:.5f}, bound 0.01)")

    print(f"\ntotal {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
