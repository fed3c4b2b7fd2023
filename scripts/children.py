#!/usr/bin/env python3
"""Measure ``python -m bitalias`` children: exit code, wall and CPU time, peak RSS.

    python scripts/children.py bounds {validate,simulate,files}
    python scripts/children.py ab TREE_A TREE_B ARGV...

``bounds NAME`` runs one memory check of the tier-1 tests
(``test_children_bounds`` in tests/test_scripts.py): children that differ
only in the size of their input, whose peak RSS may differ by less than 4 MB.
It prints a line per child and per gap, and exits 1 when a child gives
another exit code than expected or a traceback, or a gap reaches the limit.
The simulate and files checks write their files into a new directory
children.tmp under the current directory and remove it at the end.

``ab TREE_A TREE_B ARGV...`` pins itself, and so its children, to the lowest
CPU it may run on, where ``os.sched_setaffinity`` exists, and says which.  It
runs ``bitalias ARGV`` on the ``src`` of each tree once unmeasured, so that
both run from cached bytecode, then in 10 pairs, alternating which side goes
first.  For wall time, CPU time and peak RSS it prints A's median and
quartiles, B's median, the change in %, in how many of the pairs B was
lower and whether the metric moved: "gain" when B was lower in at least 9 of
the 10 pairs and A's median exceeds B's by more than A's interquartile range,
"loss" for the mirror case, "unresolved" otherwise.  Then it says whether all
20 children gave the same exit code and output, and exits 1 when they did
not.

Children may write bytecode caches into the trees.  Peak RSS comes from
``os.wait4`` on each child.  A child runs in this parent's memory until it
starts Python, and Linux counts the parent's peak resident pages in the
child's peak.  So this parent imports only os, sys, subprocess, time and, for
the files check, random, and it reads a child's output a block at a time.
"""

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_MB = 4
PAIRS = 10
BLOCK = 1 << 16
SCRATCH = "children.tmp"

VALIDATE = ["validate", "--kind", "frr", "--p", "0.4985", "--p-low", "0.497",
            "--p-high", "0.503", "--devices", "2671077", "--seed", "1"]
SIMULATE = ["simulate", "--devices", "1024", "--positions", "4096", "--noise", "0.05",
            "--seed", "1"]
REPEATS = 5
# files check: (format, devices, positions) in its seeded writer's order, and the exit
# codes of analyze (1: it rejects a position) and early-stop (1: it says abort) on each
CAMPAIGNS = {("binary", 512, 4096): (1, 0), ("binary", 4096, 4096): (0, 0),
             ("csv", 512, 512): (1, 1), ("csv", 4096, 512): (1, 0)}
FILE = os.path.join(SCRATCH, "campaign-{1}.{0}")
# name: (files to write, {child: (argv, exit code)}, [(gap, larger child, smaller child)])
BOUNDS = {
    "validate": ((), {f"--trials {trials}": ([*VALIDATE, "--trials", trials], 0)
                      for trials in ("100000", "10000000")},
                 [("validate peak RSS growth", "--trials 10000000", "--trials 100000")]),
    "simulate": ((), {f"simulate --format {fmt} --repeats {repeats}": (
        [*SIMULATE, "--repeats", repeats, "--format", fmt,
         "--out", os.path.join(SCRATCH, "simulated." + fmt)], 0)
        for fmt, repeats in (("csv", "6"), ("binary", "6"), ("binary", "1"))},
        [("CSV over binary peak RSS", "simulate --format csv --repeats 6",
          "simulate --format binary --repeats 6"),
         ("6 over 1 repeats peak RSS", "simulate --format binary --repeats 6",
          "simulate --format binary --repeats 1")]),
    "files": (tuple(CAMPAIGNS),
              {f"{fmt} {command} {devices} devices": ([command, FILE.format(fmt, devices)], want)
               for (fmt, devices, _), wants in CAMPAIGNS.items()
               for command, want in zip(("analyze", "early-stop"), wants)},
              [(f"{fmt} analyze peak RSS growth", f"{fmt} analyze 4096 devices",
                f"{fmt} analyze 512 devices") for fmt in ("binary", "csv")]),
}


def measure(argv: list[str], tree: str = ROOT) -> tuple:
    """(exit code, wall s, CPU s, peak RSS MB, last 64 KiB of stdout and stderr, their hash
    within this process) of ``python -m bitalias ARGV`` with TREE's ``src`` as PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # see ab
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "bitalias", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output, digest = b"", 0
    with child.stdout:
        while block := child.stdout.read(BLOCK):
            output, digest = (output + block)[-BLOCK:], hash((digest, block))
    _, status, usage = os.wait4(child.pid, 0)
    return (os.waitstatus_to_exitcode(status), time.perf_counter() - start,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, output.decode(errors="replace"), digest)


def write_campaign(fmt: str, devices: int, positions: int, rng) -> None:
    """Random rows, a device or a line at a time; 8 divides T, so no padding bits."""
    with open(FILE.format(fmt, devices), "wb") as f:
        if fmt == "binary":
            dims = (devices, positions, REPEATS)
            f.write(b"PUFB\x01" + b"".join(d.to_bytes(4, "little") for d in dims))
            for _ in range(devices):
                f.write(rng.randbytes(REPEATS * positions // 8))
        else:
            f.write(f"{devices},{positions},{REPEATS}\n".encode())
            for _ in range(devices * REPEATS):
                bits = format(rng.getrandbits(positions), f"0{positions}b")
                f.write(",".join(bits).encode() + b"\n")


def bounds(name: str) -> int:
    campaigns, children, gaps = BOUNDS[name]
    os.mkdir(SCRATCH)
    try:
        if campaigns:
            import random
            rng = random.Random(19)
            for fmt, devices, positions in campaigns:
                write_campaign(fmt, devices, positions, rng)
        peaks = {}
        for label, (argv, want) in children.items():
            code, _, _, peaks[label], output, _ = measure(argv)
            size = f", {os.path.getsize(argv[-1])} bytes" if "--out" in argv else ""
            print(f"{label}: exit {code} (want {want}){size}, peak RSS {peaks[label]:.1f} MB")
            # a child that writes its result to --out prints nothing
            if code != want or "Traceback" in output or ("--out" in argv and output):
                sys.exit(output or f"exit {code}")
        for label, larger, smaller in gaps:
            peaks[label] = peaks[larger] - peaks[smaller]
            print(f"{label}: {peaks[label]:.1f} MB (limit {LIMIT_MB} MB)")
        return int(any(peaks[label] >= LIMIT_MB for label, _, _ in gaps))
    finally:
        for entry in os.listdir(SCRATCH):
            os.remove(os.path.join(SCRATCH, entry))
        os.rmdir(SCRATCH)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated linearly."""
    ordered = sorted(values)

    def at(q: float) -> float:
        i, frac = divmod((len(ordered) - 1) * q, 1)
        low = ordered[int(i)]
        return low + (ordered[min(int(i) + 1, len(ordered) - 1)] - low) * frac

    return at(0.25), at(0.5), at(0.75)


def verdict(a: list[float], b: list[float]) -> str:
    """"gain" when B is lower than A in all but a tenth of the pairs (9 of 10)
    and A's median exceeds B's by more than A's interquartile range, "loss"
    for the mirror case, "unresolved" otherwise."""
    low, median, high = quartiles(a)
    gap = median - quartiles(b)[1]
    need = len(a) - len(a) // 10
    if sum(y < x for x, y in zip(a, b)) >= need and gap > high - low:
        return "gain"
    if sum(y > x for x, y in zip(a, b)) >= need and -gap > high - low:
        return "loss"
    return "unresolved"


def ab(trees: dict[str, str], argv: list[str]) -> int:
    # CPUs of one machine may differ in speed, and unpinned children land on
    # either: pin this parent, and so every child, to its lowest allowed CPU.
    pinned = "not pinned"
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        pinned = f"pinned to CPU {cpu}"
    # One child per tree first writes its bytecode cache: a tree that held a
    # cache the other lacked would start faster, 9 pairs in 10 on dense-binary.
    for side in "AB":
        measure(argv, trees[side])
    runs = {"A": [], "B": []}
    for pair in range(PAIRS):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            runs[side].append(measure(argv, trees[side]))
    print(f"A: {trees['A']}\nB: {trees['B']}\n"
          f"{PAIRS} alternated pairs, {pinned}, of: bitalias {' '.join(argv)}")
    for column, metric, unit, digits in ((1, "wall_s", "s", 3), (2, "cpu_s", "s", 3),
                                         (3, "peak_rss_mb", "MB", 1)):
        a, b = ([run[column] for run in runs[side]] for side in "AB")
        low, median, high = quartiles(a)
        b_median = quartiles(b)[1]
        lower = sum(y < x for x, y in zip(a, b))
        print(f"{metric}: A {median:.{digits}f} {unit} (quartiles {low:.{digits}f} to "
              f"{high:.{digits}f}), B {b_median:.{digits}f} {unit}, "
              f"{100 * (b_median - median) / median:+.1f} %, B lower in {lower} of {PAIRS}, "
              f"{verdict(a, b)}")
    outcomes = {side: {(run[0], run[5]): run[4] for run in runs[side]} for side in "AB"}
    if len(outcomes["A"] | outcomes["B"]) == 1:
        print(f"outputs: same, exit {runs['A'][0][0]}")
        return 0
    print("outputs: differ")
    for side, seen in outcomes.items():
        for (code, _), output in seen.items():
            last = output.strip().splitlines()[-1:] or [""]
            print(f"  {side}: exit {code}, last line {last[0]!r}")
    return 1


def main(args: list[str]) -> int:
    if args[:1] == ["bounds"] and len(args) == 2 and args[1] in BOUNDS:
        return bounds(args[1])
    if args[:1] == ["ab"] and len(args) >= 3:
        trees = {side: os.path.abspath(tree) for side, tree in zip("AB", args[1:3])}
        missing = [tree for tree in trees.values()
                   if not os.path.isfile(os.path.join(tree, "src", "bitalias", "__init__.py"))]
        if not missing:
            return ab(trees, args[3:])
        print(f"no src/bitalias under {', '.join(missing)}", file=sys.stderr)
        return 2
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
