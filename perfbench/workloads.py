"""Workload definitions and the file hash shared by the runner, generator,
checker and tracer.

This module imports neither numpy nor bitalias, so the runner can load it and
stay a lean parent for the processes whose memory it measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

# The CLI's defaults, which the workloads rely on.
ALPHA = 0.01
BETA = 0.01
LIMITS = (0.45, 0.55)
TRIALS = 100_000


@dataclass(frozen=True)
class AnalyzeWorkload:
    """One `bitalias analyze` command on one generated input file."""

    name: str
    input_format: str  # "counts", "csv" or "binary"
    file: str
    devices: int
    positions: int
    repeats: int
    alias: float | str
    noise: float
    ci_method: str
    report_format: str
    early_stop_alpha: float | None = None

    def argv(self, path: str) -> list[str]:
        args = ["analyze", path, "--ci-method", self.ci_method,
                "--format", self.report_format]
        if self.input_format == "counts":
            args.append("--counts")
        if self.early_stop_alpha is not None:
            args += ["--early-stop-alpha", repr(self.early_stop_alpha)]
        return args


@dataclass(frozen=True)
class Query:
    """One planner or validation query of the plan-scale workload."""

    name: str
    kind: str  # "width", "frr", "validate-frr" or "validate-coverage"
    params: dict = field(default_factory=dict)

    def argv(self, seed: int) -> list[str]:
        p = self.params
        if self.kind == "width":
            return ["plan", "width", "--width", repr(p["width"]), "--method", p["method"]]
        if self.kind == "frr":
            return ["plan", "frr", "--p-low", repr(p["limits"][0]),
                    "--p-high", repr(p["limits"][1]),
                    "--inner-low", repr(p["inner"][0]), "--inner-high", repr(p["inner"][1])]
        if self.kind == "validate-frr":
            return ["validate", "--kind", "frr", "--p", repr(p["p"]),
                    "--p-low", repr(p["limits"][0]), "--p-high", repr(p["limits"][1]),
                    "--devices", str(p["devices"]), "--seed", str(seed)]
        if self.kind == "validate-coverage":
            return ["validate", "--kind", "coverage", "--method", p["method"],
                    "--p", repr(p["p"]), "--devices", str(p["devices"]),
                    "--seed", str(seed)]
        raise ValueError(f"unknown query kind {self.kind!r}")


ANALYZE_WORKLOADS = {w.name: w for w in (
    # SRAM scale, pre-counted: the statistics layers and the JSON renderer.
    AnalyzeWorkload("sram-counts", "counts", "sram_counts.csv", devices=680,
                    positions=65536, repeats=1, alias=0.5, noise=0.0,
                    ci_method="wilson", report_format="json", early_stop_alpha=0.01),
    # The paper's N and M as CSV: the Python CSV parser and Clopper-Pearson.
    AnalyzeWorkload("paper-csv", "csv", "paper.csv", devices=680, positions=2048,
                    repeats=5, alias="linear", noise=0.05,
                    ci_method="clopper_pearson", report_format="csv"),
    # Large bit-packed file with an even repeat count: loading and the vote.
    AnalyzeWorkload("dense-binary", "binary", "dense.puf", devices=4096,
                    positions=4096, repeats=6, alias=0.5, noise=0.05,
                    ci_method="wilson", report_format="text"),
)}

PLAN_QUERIES = (
    Query("width-cp-0.01", "width", {"width": 0.01, "method": "clopper_pearson"}),
    Query("width-cp-0.001", "width", {"width": 0.001, "method": "clopper_pearson"}),
    Query("width-wilson-0.001", "width", {"width": 0.001, "method": "wilson"}),
    Query("frr-default", "frr", {"limits": LIMITS, "inner": (0.48, 0.52)}),
    Query("frr-0.495", "frr", {"limits": (0.495, 0.505), "inner": (0.4975, 0.5025)}),
    Query("frr-0.497", "frr", {"limits": (0.497, 0.503), "inner": (0.4985, 0.5015)}),
    Query("frr-0.4975", "frr", {"limits": (0.4975, 0.5025), "inner": (0.4985, 0.5015)}),
    Query("validate-frr", "validate-frr",
          {"devices": 2671077, "limits": (0.497, 0.503), "p": 0.4985}),
    Query("validate-coverage", "validate-coverage",
          {"devices": 6653, "method": "clopper_pearson", "p": 0.5}),
)

# Answers of `plan frr` that are not the smallest device count meeting beta:
# the FRR curve alternates with parity, and the planner's 50-count certify
# window sits below its binary-search bracket rather than below the answer.
# The checker counts these invocations as failed; it reports them as known
# only while the planner returns exactly these answers.
KNOWN_DEFECTS = {
    "frr-0.497": 2671077,
    "frr-0.4975": 6008979,
}

WORKLOADS = (*ANALYZE_WORKLOADS, "plan-scale")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
