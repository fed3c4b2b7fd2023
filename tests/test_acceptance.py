"""Acceptance gate: one test per numbered criterion, each printing a PASS line
with the measured values (run with -s to see them on passing runs).

Criteria 1-6, 8, and 9 are deterministic; criterion 7 is the seeded
Monte-Carlo guarantee suite; criterion 10 drives the command line end to end.
"""

import json
import math
import time

import numpy as np
import pytest

from bitalias.analysis import CSV_HEADER, AnalysisConfig, analyze, render_report
from bitalias.cli import main
from bitalias.confidence import confidence_interval, plan_devices_exact
from bitalias.entropy import (EntropySpec, limits_from_spec, min_entropy_from_limits,
                              shannon_entropy)
from bitalias.formats import load_measurements, write_counts
from bitalias.qualification import (AliasLimits, acceptance_probability,
                                    acceptance_region, early_stop_p_values,
                                    plan_devices_frr)
from bitalias.response import PositionCounts
from bitalias.validate import (CoverageParams, QualificationParams,
                               monte_carlo_validate)

from oracles import exact_binomial_cdf, exact_binomial_sf

LIMITS = AliasLimits(0.45, 0.55)


def test_criterion_1_device_planning_counts():
    start = time.perf_counter()
    normal = plan_devices_exact("normal", 0.1, 0.01).devices
    cp = plan_devices_exact("clopper_pearson", 0.1, 0.01).devices
    wilson = plan_devices_exact("wilson", 0.1, 0.01).devices
    elapsed = time.perf_counter() - start
    print(f"criterion 1: PASS - normal={normal} clopper_pearson={cp} "
          f"wilson={wilson} in {elapsed:.3f}s")
    assert normal == 664
    assert cp == 680
    assert wilson == 658
    assert elapsed < 1.0


def test_criterion_2_wilson_widths_at_20():
    w_half = confidence_interval("wilson", 10, 20, 0.01).width
    w_zero = confidence_interval("wilson", 0, 20, 0.01).width
    print(f"criterion 2: PASS - width(p=0.5)={w_half:.6f} width(p=0)={w_zero:.6f}")
    assert w_half == pytest.approx(0.499, abs=1e-3)
    assert w_zero == pytest.approx(0.249, abs=1e-3)


def test_criterion_3_acceptance_region_and_mass():
    region = acceptance_region(680, LIMITS, 0.01)
    mass = acceptance_probability(680, 0.5, region)
    print(f"criterion 3: PASS - region=({region.x_l}, {region.x_u}) "
          f"mass_at_half={mass:.5f}")
    assert (region.x_l, region.x_u) == (340, 340)
    assert mass == pytest.approx(0.03, abs=0.005)


def test_criterion_4_frr_device_plan():
    start = time.perf_counter()
    plan = plan_devices_frr(LIMITS, (0.48, 0.52), 0.01, 0.01)
    elapsed = time.perf_counter() - start

    def frr_ok(n):
        region = acceptance_region(n, LIMITS, 0.01)
        if region.is_empty:
            return False
        return all(1.0 - acceptance_probability(n, p, region) <= 0.01
                   for p in (0.48, 0.52))

    note = "" if plan.devices == 6674 else \
        " (6674 also meets the target; the certified minimum sits below it)"
    print(f"criterion 4: PASS - devices={plan.devices} in {elapsed:.2f}s{note}")
    assert plan.devices == 6674 or 6624 <= plan.devices <= 6674
    assert frr_ok(plan.devices)
    assert not frr_ok(plan.devices - 1)
    assert elapsed < 30.0


def test_criterion_5_early_stop_forecast():
    p_low, _ = early_stop_p_values(10, 50, LIMITS)
    print(f"criterion 5: PASS - forecast p-value={p_low:.6g}")
    assert 1.5e-4 <= p_low < 2.5e-4  # 2e-4 to one significant digit


def test_criterion_6_entropy_fixtures():
    limits = limits_from_spec(EntropySpec("min", 0.9))
    h_min = min_entropy_from_limits(0.55)
    h_sh = shannon_entropy(0.55)
    print(f"criterion 6: PASS - p_u={limits.p_u:.5f} p_l={limits.p_l:.5f} "
          f"h_min(0.55)={h_min:.5f} h_shannon(0.55)={h_sh:.5f}")
    assert limits.p_u == pytest.approx(0.5359, abs=1e-4)
    assert limits.p_l == pytest.approx(0.4641, abs=1e-4)
    assert h_min == pytest.approx(0.8625, abs=1e-4)
    assert h_sh == pytest.approx(0.9928, abs=1e-4)


def test_criterion_7_monte_carlo_guarantees():
    start = time.perf_counter()
    seed = 20260808
    task = 0

    coverage_failures = []
    for devices in (10, 50, 200):
        for i in range(10):
            p = round(0.05 + 0.1 * i, 2)
            est = monte_carlo_validate(
                "coverage",
                CoverageParams("clopper_pearson", p=p, devices=devices, alpha=0.05),
                trials=100_000, seed=seed, task=task)
            task += 1
            if est.value < 0.95 - 3 * est.std_error:
                coverage_failures.append((devices, p, est.value))

    far_failures = []
    for devices in (100, 680):
        for p in (LIMITS.p_l, LIMITS.p_u):
            est = monte_carlo_validate(
                "far", QualificationParams(devices=devices, limits=LIMITS,
                                           alpha=0.01, p=p),
                trials=100_000, seed=seed, task=task)
            task += 1
            if est.value > 0.01 + 3 * est.std_error:
                far_failures.append((devices, p, est.value))

    frr_failures = []
    frr_devices = plan_devices_frr(LIMITS, (0.48, 0.52), 0.01, 0.01).devices
    for p in (0.48, 0.52):
        est = monte_carlo_validate(
            "frr", QualificationParams(devices=frr_devices, limits=LIMITS, alpha=0.01, p=p),
            trials=10_000, seed=seed, task=task)
        task += 1
        if est.value > 0.01 + 3 * est.std_error:
            frr_failures.append((frr_devices, p, est.value))

    elapsed = time.perf_counter() - start
    print(f"criterion 7: PASS - 30 coverage cells, 4 far cells, 2 frr cells, "
          f"no violations, in {elapsed:.1f}s")
    assert coverage_failures == []
    assert far_failures == []
    assert frr_failures == []
    assert elapsed < 300.0


def test_criterion_8_oracle_equivalence():
    from bitalias.special import binomial_cdf, binomial_sf

    worst = 0.0
    for n in range(1, 31):
        for pnum in range(1, 10):
            p = pnum / 10
            for x in range(n + 1):
                exact_cdf = exact_binomial_cdf(x, n, p)
                exact_sf = exact_binomial_sf(x, n, p)
                worst = max(worst,
                            abs(binomial_cdf(x, n, p) - exact_cdf),
                            abs(binomial_sf(x, n, p) - exact_sf))
    assert worst < 1e-12

    for n in (1, 2, 17, 100):
        for method in ("normal", "wilson", "clopper_pearson"):
            for x in range(n + 1):
                a = confidence_interval(method, x, n, 0.01)
                b = confidence_interval(method, n - x, n, 0.01)
                assert a.lower == pytest.approx(1.0 - b.upper, abs=1e-10)
    print(f"criterion 8: PASS - worst tail deviation {worst:.2e}, "
          f"symmetry holds at N in (1, 2, 17, 100)")


def test_criterion_9_curve_command_figures(tmp_path, capsys):
    assert main(["curve", "--method", "normal", "--sweep", "devices",
                 "--alpha", "0.01", "--grid", "165,166"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    widths = {int(ln.split(",")[0]): float(ln.split(",")[1]) for ln in rows[1:]}
    assert math.ceil((2.5758293035489004 / 0.2) ** 2) == 166
    assert widths[166] <= 0.2 < widths[165]

    assert main(["curve", "--method", "clopper_pearson", "--sweep", "devices",
                 "--alpha", "0.01", "--grid", "193"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    cp_width_193 = float(rows[1].split(",")[1])
    assert cp_width_193 > 0.1  # 193 devices leave the width above 0.1
    print(f"criterion 9: PASS - normal width {widths[166]:.6f} at 166 "
          f"(0.2 first reached there), clopper_pearson width {cp_width_193:.4f} at 193")


def test_criterion_10_end_to_end_round_trip(tmp_path, capsys):
    measurements = tmp_path / "population.puf"
    rc = main(["simulate", "--devices", "680", "--positions", "256",
               "--repeats", "5", "--alias", "0.5", "--noise", "0.05",
               "--seed", "424242", "--out", str(measurements), "--format", "binary"])
    assert rc == 0

    # library-side analysis of the same file for reference values
    tensor = load_measurements(measurements)
    cfg = AnalysisConfig(alpha=0.01, limits=LIMITS, ci_method="wilson")
    result = analyze(tensor, cfg)

    outputs = {}
    for fmt in ("text", "json", "csv"):
        out = tmp_path / f"report.{fmt}"
        rc = main(["analyze", str(measurements), "--format", fmt, "--out", str(out)])
        assert rc == 1  # balanced population: most positions rejected at N=680
        outputs[fmt] = out.read_bytes()
        assert outputs[fmt] == render_report(result, fmt)  # byte round-trip

    payload = json.loads(outputs["json"])
    assert payload["summary"]["positions"] == 256
    assert payload["summary"]["region"] == {"empty": False, "x_l": 340, "x_u": 340}
    for rep, entry in zip(result.reports, payload["positions"]):
        assert entry["x"] == rep.ones
        assert entry["p_hat"] == rep.alias
        assert entry["accepted"] == rep.verdict.accepted

    csv_lines = outputs["csv"].decode().strip().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 256 + 1
    for rep, line in zip(result.reports, csv_lines[1:]):
        fields = line.split(",")
        assert int(fields[1]) == rep.ones
        assert float(fields[3]) == pytest.approx(rep.alias, rel=1e-5)
        assert fields[8] == ("1" if rep.verdict.accepted else "0")

    table = [ln for ln in outputs["text"].decode().splitlines()
             if ln and ln.lstrip()[0].isdigit()]
    assert len(table) == 256
    for rep, line in zip(result.reports, table):
        fields = line.split()
        assert int(fields[1]) == rep.ones
        assert float(fields[2]) == pytest.approx(rep.alias, rel=1e-5)

    # exit-code contract: 0 all accepted, 1 some rejected, 2 parse error
    perfect = tmp_path / "perfect.csv"
    write_counts(PositionCounts(devices=680, ones=np.full(4, 340)), perfect)
    assert main(["analyze", str(perfect), "--counts"]) == 0
    broken = tmp_path / "broken.csv"
    broken.write_bytes(b"2,2,1\n0,1\n0,duck\n")
    assert main(["analyze", str(broken)]) == 2

    accepted = sum(1 for rep in result.reports if rep.verdict.accepted)
    print(f"criterion 10: PASS - 256 positions, {accepted} accepted, "
          f"all three formats byte-stable and reparsed")
