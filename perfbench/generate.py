"""Seeded input generator for the analyze workloads.

    python3 perfbench/generate.py --workload paper-csv --seed 7 --out DIR

Builds the workload's input with the public `simulate_population`,
`write_measurements` and `write_counts`, writes it into DIR, and prints a
manifest (file, size, sha256, shape, generation time) as one JSON line, so
two runs can be shown to use identical inputs.  The same seed gives the same
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bitalias import (PopulationSpec, PositionCounts, count_ones, derive_noise_free_response,
                      simulate_population, write_counts, write_measurements)

from workloads import ANALYZE_WORKLOADS, sha256_file

COUNT_BLOCKS = 8


def _split(total: int, parts: int) -> list[int]:
    return [total // parts + (i < total % parts) for i in range(parts)]


def generate(name: str, seed: int, out: Path) -> dict:
    wl = ANALYZE_WORKLOADS[name]
    path = out / wl.file
    generate_s = 0.0
    if wl.input_format == "counts":
        # One repeat, so the vote is the identity and each count is a
        # Binomial(devices, alias) draw.  Devices are simulated in blocks,
        # each from its own seed, to keep the generator's memory small.
        blocks = [PopulationSpec(devices=size, positions=wl.positions, repeats=1,
                                 seed=seed * COUNT_BLOCKS + i, alias=wl.alias)
                  for i, size in enumerate(_split(wl.devices, COUNT_BLOCKS))]
        ones = 0
        for spec in blocks:
            start = time.perf_counter()
            tensor = simulate_population(spec)
            generate_s += time.perf_counter() - start
            ones = ones + count_ones(derive_noise_free_response(tensor)).ones
        write_counts(PositionCounts(devices=wl.devices, ones=ones), path)
    else:
        spec = PopulationSpec(devices=wl.devices, positions=wl.positions,
                              repeats=wl.repeats, seed=seed, alias=wl.alias,
                              flip_noise=wl.noise)
        start = time.perf_counter()
        tensor = simulate_population(spec)
        generate_s = time.perf_counter() - start
        write_measurements(tensor, path, fmt=wl.input_format)
    return {"workload": name, "seed": seed, "file": wl.file,
            "bytes": path.stat().st_size, "sha256": sha256_file(path),
            "shape": [wl.devices, wl.positions, wl.repeats],
            "generate_s": generate_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ANALYZE_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(generate(args.workload, args.seed, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
