"""Output checker for the benchmark, independent of bitalias.

    python3 perfbench/check.py --workload W --dir DIR

Reads the workload's input and the CLI's output from DIR and recomputes every
expected value with numpy and scipy; it never imports bitalias.

* analyze workloads: the counts (and the majority vote with its parity
  tie-break, for measurement files), every position's verdict exactly, the
  accepted/rejected totals and the acceptance region, and p-values, interval
  bounds and entropies to the tolerances below.
* plan-scale: each answer's certificate.  For a width plan N is even and
  width(N) <= target < width(N - 2); for an FRR plan FRR(N) <= beta and no
  count in the 50-count window below N meets beta; a Monte-Carlo estimate lies
  within 5 standard errors of the exact value.

A negative self-check runs the same comparison on a copy of the report with
one verdict flipped (one answer moved, for plan-scale) and must see it fail.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import beta as beta_dist
from scipy.stats import binom, norm

from workloads import (ALPHA, ANALYZE_WORKLOADS, BETA, KNOWN_DEFECTS, LIMITS, PLAN_QUERIES,
                       TRIALS)

# Full-precision JSON numbers.  The package agrees with scipy to about 3e-11
# at these sizes; the slack leaves room for a more accurate numerical core.
FULL = {"rtol": 1e-8, "atol": 1e-300}
# Text and CSV reports round to 6 significant digits (at most 5e-6 relative).
SIX_DIGITS = {"rtol": 1e-5, "atol": 1e-300}
# The text table prints p-values to 3 significant digits.
THREE_DIGITS = {"rtol": 6e-3, "atol": 1e-300}
# Planner certificates: relative slack on the width and FRR comparisons.
CERT_RTOL = 1e-10
MC_SIGMAS = 5.0
FRR_CERTIFY_WINDOW = 50  # the window plan_devices_frr documents
BLOCK_DEVICES = 256  # devices unpacked at a time when reading measurement files


# --- inputs -----------------------------------------------------------------

def _vote_block(bits: np.ndarray, first_device: int) -> tuple[np.ndarray, int]:
    """Majority vote over repeats of a (devices, repeats, positions) block;
    ties resolve to 1 when device index + position index is even."""
    repeats = bits.shape[1]
    totals = bits.sum(axis=1, dtype=np.int32)
    ties = 2 * totals == repeats
    devices = np.arange(first_device, first_device + bits.shape[0])[:, None]
    even = (devices + np.arange(bits.shape[2])[None, :]) % 2 == 0
    voted = np.where(ties, even, 2 * totals > repeats)
    return voted.sum(axis=0, dtype=np.int64), int(ties.sum())


def read_counts(path: Path) -> tuple[int, np.ndarray, int | None]:
    header, body = path.read_bytes().split(b"\n", 1)
    devices, positions = (int(v) for v in header.split(b","))
    ones = np.array(body.split(b","), dtype=np.int64)
    if ones.size != positions:
        raise ValueError(f"counts file holds {ones.size} counts, header says {positions}")
    return devices, ones, None


def read_csv(path: Path) -> tuple[int, np.ndarray, int]:
    payload = path.read_bytes()
    header, body = payload.split(b"\n", 1)
    devices, positions, repeats = (int(v) for v in header.split(b","))
    rows = np.frombuffer(body, dtype=np.uint8).reshape(devices, repeats, 2 * positions)
    separators = rows[:, :, 1::2]
    if not ((separators[:, :, :-1] == ord(",")).all()
            and (separators[:, :, -1] == ord("\n")).all()):
        raise ValueError("unexpected separator in measurement CSV")
    ones = np.zeros(positions, dtype=np.int64)
    ties = 0
    for start in range(0, devices, BLOCK_DEVICES):
        block = rows[start:start + BLOCK_DEVICES, :, 0::2] - ord("0")
        counts, block_ties = _vote_block(block, start)
        ones += counts
        ties += block_ties
    return devices, ones, ties


def read_binary(path: Path) -> tuple[int, np.ndarray, int]:
    payload = path.read_bytes()
    if payload[:5] != b"PUFB\x01":
        raise ValueError("bad magic or version")
    devices, positions, repeats = np.frombuffer(payload[5:17], dtype="<u4").astype(int)
    row_bytes = (positions + 7) // 8
    packed = np.frombuffer(payload[17:], dtype=np.uint8).reshape(devices, repeats, row_bytes)
    ones = np.zeros(positions, dtype=np.int64)
    ties = 0
    for start in range(0, devices, BLOCK_DEVICES):
        block = np.unpackbits(packed[start:start + BLOCK_DEVICES], axis=2,
                              bitorder="little")[:, :, :positions]
        counts, block_ties = _vote_block(block, start)
        ones += counts
        ties += block_ties
    return int(devices), ones, ties


READERS = {"counts": read_counts, "csv": read_csv, "binary": read_binary}


# --- expected statistics ----------------------------------------------------

def entropies(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h_min = -np.log2(np.maximum(p, 1.0 - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        h_shan = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    h_shan = np.where((p == 0.0) | (p == 1.0), 0.0, h_shan)
    return h_min, h_shan


def interval(method: str, x: np.ndarray, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    if method == "wilson":
        z = norm.ppf(1.0 - 0.5 * alpha)
        p = x / n
        z2_n = z * z / n
        center = (p + 0.5 * z2_n) / (1.0 + z2_n)
        half = (z / (1.0 + z2_n)) * np.sqrt(p * (1.0 - p) / n + 0.25 * z2_n / n)
        return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)
    if method == "clopper_pearson":
        with np.errstate(invalid="ignore"):
            lower = np.where(x > 0, beta_dist.ppf(0.5 * alpha, x, n - x + 1), 0.0)
            upper = np.where(x < n, beta_dist.ppf(1.0 - 0.5 * alpha, x + 1, n - x), 1.0)
        return lower, upper
    raise ValueError(f"unsupported interval method {method!r}")


def p_values(x, n, limits=LIMITS):
    """(P[X >= x | p_l], P[X <= x | p_u]): the lower and upper test p-values."""
    return binom.sf(x - 1, n, limits[0]), binom.cdf(x, n, limits[1])


def region(n, limits=LIMITS, alpha=ALPHA) -> tuple[int, int] | None:
    xs = np.arange(n + 1)
    low, up = p_values(xs, n, limits)
    inside = np.flatnonzero((low < 0.5 * alpha) & (up < 0.5 * alpha))
    return (int(inside[0]), int(inside[-1])) if inside.size else None


def expected_analysis(wl, devices: int, ones: np.ndarray) -> dict:
    n = devices
    p_hat = ones / n
    low, up = p_values(ones, n)
    lower, upper = interval(wl.ci_method, ones, n, ALPHA)
    h_min, h_shan = entropies(p_hat)
    worst = np.where(np.abs(lower - 0.5) > np.abs(upper - 0.5), lower, upper)
    worst_min, worst_shan = entropies(worst)
    cols = {"t": np.arange(ones.size), "x": ones, "n": np.full(ones.size, n),
            "p_hat": p_hat, "ci_lo": lower, "ci_hi": upper,
            "p_val_lo": low, "p_val_hi": up,
            "accepted": (low < 0.5 * ALPHA) & (up < 0.5 * ALPHA),
            "min_entropy": h_min, "shannon_entropy": h_shan,
            "min_entropy_worst": worst_min, "shannon_entropy_worst": worst_shan}
    if wl.early_stop_alpha is not None:
        es_low, es_high = binom.cdf(ones, n, LIMITS[0]), binom.sf(ones - 1, n, LIMITS[1])
        cols["es_low"], cols["es_high"] = es_low, es_high
        cols["flagged"] = np.minimum(es_low, es_high) < wl.early_stop_alpha
    return cols


# --- reports ----------------------------------------------------------------

def parse_json(blob: bytes) -> tuple[dict, dict]:
    payload = json.loads(blob)
    positions = payload["positions"]
    cols = {
        "t": np.array([p["t"] for p in positions]),
        "x": np.array([p["x"] for p in positions]),
        "n": np.array([p["n"] for p in positions]),
        "p_hat": np.array([p["p_hat"] for p in positions], dtype=float),
        "ci_lo": np.array([p["ci"]["lower"] for p in positions], dtype=float),
        "ci_hi": np.array([p["ci"]["upper"] for p in positions], dtype=float),
        "p_val_lo": np.array([p["p_value_lower"] for p in positions], dtype=float),
        "p_val_hi": np.array([p["p_value_upper"] for p in positions], dtype=float),
        "accepted": np.array([p["accepted"] for p in positions], dtype=bool),
        "min_entropy": np.array([p["min_entropy"] for p in positions], dtype=float),
        "shannon_entropy": np.array([p["shannon_entropy"] for p in positions], dtype=float),
        "min_entropy_worst": np.array([p["min_entropy_ci_worst"] for p in positions], dtype=float),
        "shannon_entropy_worst": np.array([p["shannon_entropy_ci_worst"] for p in positions],
                                          dtype=float),
    }
    summary = payload["summary"]
    meta = {"config": payload["config"], "summary": summary,
            "ci": {(p["ci"]["method"], p["ci"]["alpha"]) for p in positions}}
    early = summary.get("early_stop")
    if early is not None:
        cols["es_low"] = np.array(early["p_values_low"], dtype=float)
        cols["es_high"] = np.array(early["p_values_high"], dtype=float)
        flagged = np.zeros(len(positions), dtype=bool)
        flagged[np.array(early["flagged_positions"], dtype=np.int64)] = True
        cols["flagged"] = flagged
    return cols, meta


def parse_csv_report(blob: bytes) -> tuple[dict, dict]:
    lines = blob.decode("ascii").splitlines()
    header = lines[0].split(",")
    table = np.array([ln.split(",") for ln in lines[1:]])
    cols = {}
    for i, name in enumerate(header):
        key = "n" if name == "N" else name
        if key in ("t", "x", "n"):
            cols[key] = table[:, i].astype(np.int64)
        elif key == "accepted":
            cols[key] = table[:, i] == "1"
        else:
            cols[key] = table[:, i].astype(float)
    accepted = int(cols["accepted"].sum())
    return cols, {"summary": {"accepted": accepted, "rejected": len(table) - accepted}}


_TEXT_SUMMARY = re.compile(
    r"devices=(\d+) positions=(\d+) repeats=(\S+) ties=(\S+)\n"
    r"limits: p_l=(\S+) p_u=(\S+) alpha=(\S+) ci_method=(\S+)\n"
    r"acceptance region: (?:x_l=(\d+) x_u=(\d+) .*|empty.*)\n"
    r"accepted=(\d+) rejected=(\d+)\n")


def parse_text(blob: bytes) -> tuple[dict, dict]:
    text = blob.decode("ascii")
    m = _TEXT_SUMMARY.match(text)
    if m is None:
        raise ValueError("text report header does not match the documented layout")
    rows = text.split("\n\n", 1)[1].splitlines()[1:]
    table = np.array([row.split() for row in rows])
    cols = {"t": table[:, 0].astype(np.int64), "x": table[:, 1].astype(np.int64),
            "p_hat": table[:, 2].astype(float), "ci_lo": table[:, 3].astype(float),
            "ci_hi": table[:, 4].astype(float), "p_val_lo": table[:, 5].astype(float),
            "p_val_hi": table[:, 6].astype(float), "accepted": table[:, 7] == "yes",
            "min_entropy": table[:, 8].astype(float),
            "shannon_entropy": table[:, 9].astype(float)}
    meta = {"summary": {
        "devices": int(m[1]), "positions": int(m[2]), "repeats": m[3], "ties": m[4],
        "limits": (float(m[5]), float(m[6])), "alpha": float(m[7]), "ci_method": m[8],
        "region": None if m[9] is None else (int(m[9]), int(m[10])),
        "accepted": int(m[11]), "rejected": int(m[12])}}
    return cols, meta


PARSERS = {"json": parse_json, "csv": parse_csv_report, "text": parse_text}


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: dict) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} values, expected {want.shape[0]}"]
    ok = np.isclose(got, want, rtol=tol["rtol"], atol=tol["atol"])
    if ok.all():
        return []
    i = int(np.flatnonzero(~ok)[0])
    return [f"{name}: {int((~ok).sum())} values outside rtol {tol['rtol']:g}, "
            f"first at position {i}: {got[i].item()!r} against {want[i].item()!r}"]


def _equal(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} values, expected {want.shape[0]}"]
    bad = np.flatnonzero(got != want)
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{name}: {bad.size} mismatches, first at position {i}: "
            f"{got[i].item()!r} against {want[i].item()!r}"]


def compare_analysis(wl, cols: dict, meta: dict, want: dict, devices: int,
                     ties: int | None) -> list[str]:
    problems = []
    for key in ("t", "x", "n", "accepted", "flagged"):
        if key in cols:
            problems += _equal(key, cols[key], want[key])
    if wl.report_format == "json":
        tols = dict.fromkeys(("p_hat", "ci_lo", "ci_hi", "p_val_lo", "p_val_hi", "min_entropy",
                              "shannon_entropy", "min_entropy_worst", "shannon_entropy_worst",
                              "es_low", "es_high"), FULL)
    else:
        tols = dict.fromkeys(("p_hat", "ci_lo", "ci_hi", "p_val_lo", "p_val_hi",
                              "min_entropy", "shannon_entropy"), SIX_DIGITS)
        if wl.report_format == "text":
            tols["p_val_lo"] = tols["p_val_hi"] = THREE_DIGITS
    for key, tol in tols.items():
        if key in cols:
            problems += _close(key, cols[key], want[key], tol)
        else:
            problems.append(f"{key}: missing from the report")

    accepted = int(want["accepted"].sum())
    summary = meta["summary"]
    if (summary["accepted"], summary["rejected"]) != (accepted, want["x"].size - accepted):
        problems.append(f"totals accepted={summary['accepted']} rejected={summary['rejected']}, "
                        f"expected {accepted} and {want['x'].size - accepted}")
    expected_region = region(devices)
    if wl.report_format == "json":
        problems += _check_json_meta(wl, meta, want, devices, expected_region)
    elif wl.report_format == "text":
        got = (summary["devices"], summary["positions"], summary["repeats"], summary["ties"],
               summary["ci_method"], summary["region"])
        exp = (devices, want["x"].size, str(wl.repeats), str(ties), wl.ci_method,
               expected_region)
        if got != exp:
            problems.append(f"text summary {got}, expected {exp}")
    return problems


def _check_json_meta(wl, meta, want, devices, expected_region) -> list[str]:
    problems = []
    cfg = meta["config"]
    if (cfg["alpha"], cfg["p_l"], cfg["p_u"], cfg["ci_method"]) != (ALPHA, *LIMITS, wl.ci_method):
        problems.append(f"config {cfg}")
    if meta["ci"] != {(wl.ci_method, ALPHA)}:
        problems.append(f"interval method/alpha {sorted(meta['ci'])}")
    summary = meta["summary"]
    if (summary["devices"], summary["positions"], summary["repeats"], summary["tie_count"]) \
            != (devices, want["x"].size, None, None):
        problems.append("summary dimensions")
    r = summary["region"]
    got_region = None if r["empty"] else (r["x_l"], r["x_u"])
    if got_region != expected_region:
        problems.append(f"region {got_region}, expected {expected_region}")
    if wl.early_stop_alpha is not None:
        decision = "abort" if want["flagged"].any() else "continue"
        if summary["early_stop"]["decision"] != decision:
            problems.append(f"early-stop decision {summary['early_stop']['decision']}, "
                            f"expected {decision}")
    return problems


def check_analyze(wl, directory: Path) -> dict:
    devices, ones, ties = READERS[wl.input_format](directory / wl.file)
    want = expected_analysis(wl, devices, ones)
    cols, meta = PARSERS[wl.report_format]((directory / "report.out").read_bytes())
    problems = compare_analysis(wl, cols, meta, want, devices, ties)
    # Negative self-check: one flipped verdict must be caught.
    flipped = dict(cols, accepted=cols["accepted"].copy())
    flipped["accepted"][0] = not flipped["accepted"][0]
    self_check = bool(compare_analysis(wl, flipped, meta, want, devices, ties))
    all_accepted = bool(want["accepted"].all())
    return {"queries": {"report": {"ok": not problems, "problems": problems[:10],
                                   "expected_rc": 0 if all_accepted else 1}},
            "self_check": self_check,
            "facts": {"devices": devices, "positions": int(ones.size), "ties": ties,
                      "accepted": int(want["accepted"].sum()),
                      "distinct_counts": int(np.unique(ones).size)}}


# --- planner certificates ---------------------------------------------------

def worst_width(method: str, n: int, alpha: float = ALPHA) -> float:
    x = np.array([n // 2])
    lower, upper = interval(method, x, n, alpha)
    return float(upper[0] - lower[0])


def frr(ns: np.ndarray, limits, inner, alpha: float = ALPHA) -> np.ndarray:
    """Exact false rejection rate max over the inner band's endpoints, per n."""
    ns = np.asarray(ns, dtype=np.int64)
    half = 0.5 * alpha
    # largest x with P[X <= x | p_u] < alpha/2, from the quantile then nudged
    x_u = binom.ppf(half, ns, limits[1]).astype(np.int64) - 1
    # smallest x with P[X >= x | p_l] < alpha/2
    x_l = binom.isf(half, ns, limits[0]).astype(np.int64) + 1
    for _ in range(3):
        x_u = np.where(binom.cdf(x_u + 1, ns, limits[1]) < half, x_u + 1, x_u)
        x_u = np.where(binom.cdf(x_u, ns, limits[1]) >= half, x_u - 1, x_u)
        x_l = np.where(binom.sf(x_l - 2, ns, limits[0]) < half, x_l - 1, x_l)
        x_l = np.where(binom.sf(x_l - 1, ns, limits[0]) >= half, x_l + 1, x_l)
    rates = [1.0 - (binom.cdf(x_u, ns, p) - binom.cdf(x_l - 1, ns, p)) for p in inner]
    return np.where(x_l > x_u, 1.0, np.maximum(*rates))


def _field(output: str, name: str) -> str:
    m = re.search(rf"\b{name}=(\S+)", output)
    if m is None:
        raise ValueError(f"no {name}= in output {output.strip()!r}")
    return m[1]


def check_query(q, output: str) -> list[str]:
    p = q.params
    if q.kind == "width":
        n = int(_field(output, "devices"))
        if n < 2 or n % 2:
            return [f"devices={n} is not an even count >= 2"]
        problems = []
        if worst_width(p["method"], n) > p["width"] * (1 + CERT_RTOL):
            problems.append(f"width({n}) = {worst_width(p['method'], n)!r} exceeds {p['width']}")
        if n > 2 and worst_width(p["method"], n - 2) <= p["width"] * (1 - CERT_RTOL):
            problems.append(f"not minimal: width({n - 2}) = "
                            f"{worst_width(p['method'], n - 2)!r} meets {p['width']}")
        return problems
    if q.kind == "frr":
        n = int(_field(output, "devices"))
        window = np.arange(max(1, n - FRR_CERTIFY_WINDOW), n + 1)
        rates = frr(window, p["limits"], p["inner"])
        problems = []
        if rates[-1] > BETA * (1 + CERT_RTOL):
            problems.append(f"FRR({n}) = {float(rates[-1])!r} exceeds beta {BETA}")
        smaller = np.flatnonzero(rates[:-1] <= BETA * (1 - CERT_RTOL))
        if smaller.size:
            first = smaller[0]
            problems.append(f"not minimal: {smaller.size} counts in the "
                            f"{FRR_CERTIFY_WINDOW}-count window below {n} meet beta, "
                            f"the smallest {window[first]} with "
                            f"FRR {float(rates[first])!r}")
        return problems
    if q.kind.startswith("validate"):
        value = float(_field(output, "value"))
        trials = int(_field(output, "trials"))
        n = p["devices"]
        if q.kind == "validate-frr":
            exact = float(frr(np.array([n]), p["limits"], (p["p"], p["p"]))[0])
        else:
            xs = np.arange(n + 1)
            lower, upper = interval(p["method"], xs, n, ALPHA)
            covered = (lower <= p["p"]) & (p["p"] <= upper)
            exact = float(binom.pmf(xs, n, p["p"])[covered].sum())
        sigma = (exact * (1.0 - exact) / trials) ** 0.5
        problems = []
        if trials != TRIALS:
            problems.append(f"trials={trials}, expected {TRIALS}")
        if abs(value - exact) > MC_SIGMAS * sigma:
            problems.append(f"estimate {value} is more than {MC_SIGMAS:g} standard errors "
                            f"from the exact {exact!r}")
        std_error = float(_field(output, "std_error"))
        if not np.isclose(std_error, (value * (1 - value) / trials) ** 0.5, **SIX_DIGITS):
            problems.append(f"std_error={std_error} does not match value and trials")
        return problems
    raise ValueError(q.kind)


def check_plan(directory: Path) -> dict:
    queries = {}
    for q in PLAN_QUERIES:
        output = (directory / f"{q.name}.out").read_text()
        try:
            problems = check_query(q, output)
        except ValueError as exc:
            problems = [str(exc)]
        known = (bool(problems) and q.name in KNOWN_DEFECTS
                 and f"devices={KNOWN_DEFECTS[q.name]} " in output)
        queries[q.name] = {"ok": not problems, "known_defect": known,
                           "problems": problems, "expected_rc": 0}
    # Negative self-check: an answer two devices above a width plan is not minimal.
    first = PLAN_QUERIES[0]
    output = (directory / f"{first.name}.out").read_text()
    n = int(_field(output, "devices"))
    self_check = bool(check_query(first, output.replace(f"devices={n} ", f"devices={n + 2} ")))
    return {"queries": queries, "self_check": self_check, "facts": {}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    directory = Path(args.dir)
    if args.workload == "plan-scale":
        verdict = check_plan(directory)
    else:
        verdict = check_analyze(ANALYZE_WORKLOADS[args.workload], directory)
    verdict["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
