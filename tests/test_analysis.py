import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from bitalias import analysis
from bitalias import qualification as qual
from bitalias.analysis import (CSV_HEADER, REPORT_FORMATS, AnalysisConfig, EarlyStopConfig,
                               PositionReport, analyze, analyze_counts, render_report)
from bitalias.confidence import confidence_interval
from bitalias.entropy import (EntropySpec, limits_from_spec, min_entropy_from_limits,
                              shannon_entropy)
from bitalias.errors import PerfectEntropyError
from bitalias.qualification import AliasLimits
from bitalias.response import MeasurementTensor, PositionCounts
from bitalias.simulate import PopulationSpec, simulate_population

LIMITS = AliasLimits(0.45, 0.55)
# repeated counts, including 0 and N = 680
REPEATED_ONES = np.array([0, 680, 340, 340, 0, 100, 680, 100, 339, 340, 0, 1, 679, 340, 341, 679])
LIMIT_SOURCES = {
    "limits": {"limits": LIMITS},
    "min-entropy": {"entropy_spec": EntropySpec("min", 0.9)},
    "shannon-entropy": {"entropy_spec": EntropySpec("shannon", 0.99)},
}


def balanced_result(positions=8, seed=3, **cfg_kw):
    spec = PopulationSpec(devices=680, positions=positions, repeats=1, seed=seed)
    cfg = AnalysisConfig(alpha=0.01, limits=LIMITS, **cfg_kw)
    return analyze(simulate_population(spec), cfg)


class TestAnalysisConfig:
    def test_entropy_spec_resolves(self):
        spec = EntropySpec("min", 0.9)
        cfg = AnalysisConfig(alpha=0.01, entropy_spec=spec)
        assert cfg.limits == limits_from_spec(spec)
        assert cfg.limits.p_u == pytest.approx(2.0 ** -0.9, abs=1e-12)

    def test_a_floor_is_converted_once_per_analysis(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "limits_from_spec",
                            lambda spec: calls.append(spec) or limits_from_spec(spec))
        spec = EntropySpec("shannon", 0.99)
        analyze_counts(PositionCounts(680, REPEATED_ONES), AnalysisConfig(entropy_spec=spec))
        assert calls == [spec]

    @pytest.mark.parametrize("source", ["min-entropy", "shannon-entropy"])
    def test_rebuilt_from_its_fields_with_the_band(self, source):
        # the band is kept in limits, and a config given both accepts it
        spec = LIMIT_SOURCES[source]["entropy_spec"]
        cfg = AnalysisConfig(alpha=0.05, entropy_spec=spec, early_stop=EarlyStopConfig())
        rebuilt = AnalysisConfig(**{name: getattr(cfg, name) for name in cfg.__match_args__})
        assert rebuilt == cfg and hash(rebuilt) == hash(cfg)
        assert rebuilt.limits == limits_from_spec(spec)

    @pytest.mark.parametrize("kind", ["min", "shannon"])
    def test_full_bit_rejected_when_built(self, kind):
        with pytest.raises(PerfectEntropyError):
            AnalysisConfig(entropy_spec=EntropySpec(kind, 1.0))


class TestAnalyze:
    def test_only_balanced_counts_accepted(self):
        result = balanced_result(positions=64)
        region = result.summary.region
        assert (region.x_l, region.x_u) == (340, 340)
        for rep in result.reports:
            assert rep.verdict.accepted == (rep.ones == 340)
        assert result.summary.accepted + result.summary.rejected == 64

    def test_single_device_rejects_everything(self):
        m = MeasurementTensor(bits=np.ones((1, 8, 1), dtype=np.uint8))
        result = analyze(m, AnalysisConfig(alpha=0.01, limits=LIMITS))
        assert result.summary.region.is_empty
        assert result.summary.accepted == 0
        # one device pins nothing down: z^2/(2(1+z^2)) half-width around p=1
        z2 = 2.5758293035489004 ** 2
        expected = z2 / (1.0 + z2)
        for rep in result.reports:
            assert rep.interval.width == pytest.approx(expected, abs=1e-9)
            assert rep.interval.upper - rep.interval.lower > 0.85

    def test_constant_tensor_rejected_everywhere(self):
        m = MeasurementTensor(bits=np.ones((50, 12, 3), dtype=np.uint8))
        result = analyze(m, AnalysisConfig(alpha=0.01, limits=LIMITS))
        assert {rep.alias for rep in result.reports} == {1.0}
        assert result.summary.accepted == 0

    def test_verdicts_recomputable(self):
        result = balanced_result(positions=16)
        for rep in result.reports:
            assert qual.test_position(rep.ones, rep.devices, LIMITS, 0.01) == rep.verdict
        # repeated counts, including 0 and N: each position matches its own rebuild
        ones = np.array([0, 680, 340, 340, 0, 100, 680, 100, 339, 340, 0, 1, 679])
        for method in ("normal", "wilson", "clopper_pearson"):
            cfg = AnalysisConfig(alpha=0.01, limits=LIMITS, ci_method=method)
            result = analyze_counts(PositionCounts(devices=680, ones=ones), cfg)
            assert len(result.reports) == ones.size
            for t, x in enumerate(ones.tolist()):
                interval = confidence_interval(method, x, 680, 0.01)
                worst = interval.lower if abs(interval.lower - 0.5) > \
                    abs(interval.upper - 0.5) else interval.upper
                assert result.reports[t] == PositionReport(
                    ones=x, devices=680, alias=x / 680, interval=interval,
                    verdict=qual.test_position(x, 680, LIMITS, 0.01),
                    min_entropy=min_entropy_from_limits(x / 680),
                    shannon_entropy=shannon_entropy(x / 680),
                    min_entropy_worst=min_entropy_from_limits(worst),
                    shannon_entropy_worst=shannon_entropy(worst))

    def test_equal_counts_share_one_report(self):
        cfg = AnalysisConfig(alpha=0.01, limits=LIMITS)
        result = analyze_counts(PositionCounts(devices=680, ones=REPEATED_ONES), cfg)
        for i, j in itertools.combinations(range(REPEATED_ONES.size), 2):
            same = REPEATED_ONES[i] == REPEATED_ONES[j]
            assert (result.reports[i] is result.reports[j]) == same

    def test_deterministic(self):
        a = balanced_result(positions=8)
        b = balanced_result(positions=8)
        assert render_report(a, "json") == render_report(b, "json")

    def test_early_stop_included_when_configured(self):
        result = balanced_result(positions=8,
                                 early_stop=EarlyStopConfig(alpha=0.01))
        assert result.summary.early_stop is not None

    def test_analyze_votes_and_counts_once_through_the_analysis_names(self, monkeypatch):
        # perfbench/layers.py times these two layers by replacing these names
        calls = []
        for name in ("derive_noise_free_response", "count_ones"):
            original = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda arg, name=name, original=original:
                                calls.append(name) or original(arg))
        result = balanced_result(positions=8)
        assert calls == ["derive_noise_free_response", "count_ones"]
        assert result.summary.repeats == 1 and result.summary.tie_count == 0

    def test_counts_mode_has_no_tensor_fields(self):
        counts = PositionCounts(devices=680, ones=np.array([340, 100]))
        result = analyze_counts(counts, AnalysisConfig(alpha=0.01, limits=LIMITS))
        assert result.summary.repeats is None
        assert result.summary.tie_count is None
        assert result.reports[0].verdict.accepted
        assert not result.reports[1].verdict.accepted

    @pytest.mark.parametrize("alpha", [np.float32(0.03125), "0.03125"], ids=["float32", "text"])
    def test_numpy_scalars_render_like_plain_numbers(self, alpha):
        def results(devices, repeats, ties, alpha, fraction):
            spec = PopulationSpec(devices=devices, positions=16, repeats=repeats, seed=3,
                                  alias="linear", flip_noise=0.1)
            cfg = AnalysisConfig(alpha=alpha, limits=LIMITS, early_stop=EarlyStopConfig(
                alpha=alpha, max_flag_fraction=fraction))
            counts = PositionCounts(devices=devices, ones=REPEATED_ONES % 68)
            return (analyze(simulate_population(spec), cfg),
                    analyze_counts(counts, cfg, repeats=repeats, tie_count=ties))

        odd = results(np.int64(68), np.int64(4), np.int64(2), alpha, np.float32(0.25))
        plain = results(68, 4, 2, 0.03125, 0.25)
        for fmt in REPORT_FORMATS:
            assert [render_report(r, fmt) for r in odd] == [render_report(r, fmt) for r in plain]

    def test_worst_case_entropy_uses_far_endpoint(self):
        counts = PositionCounts(devices=680, ones=np.array([400]))
        result = analyze_counts(counts, AnalysisConfig(alpha=0.01, limits=LIMITS))
        rep = result.reports[0]
        # upper bound is farther from 0.5 than the lower bound here
        assert rep.min_entropy_worst < rep.min_entropy


class TestRenderReport:
    def test_csv_row_count_and_header(self):
        result = balanced_result(positions=8)
        lines = render_report(result, "csv").decode().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 8 + 1

    def test_csv_values_reparse(self):
        result = balanced_result(positions=8)
        lines = render_report(result, "csv").decode().strip().splitlines()
        for t, (rep, line) in enumerate(zip(result.reports, lines[1:])):
            fields = line.split(",")
            assert int(fields[0]) == t
            assert int(fields[1]) == rep.ones
            assert int(fields[2]) == rep.devices
            assert float(fields[3]) == pytest.approx(rep.alias, rel=1e-5)
            assert float(fields[4]) == pytest.approx(rep.interval.lower, rel=1e-5)
            assert float(fields[5]) == pytest.approx(rep.interval.upper, rel=1e-5)
            assert fields[8] == ("1" if rep.verdict.accepted else "0")

    def test_json_roundtrip_exact(self):
        result = balanced_result(positions=8)
        blob = render_report(result, "json")
        payload = json.loads(blob)
        assert payload["summary"]["devices"] == 680
        assert len(payload["positions"]) == 8
        for t, (rep, entry) in enumerate(zip(result.reports, payload["positions"])):
            assert entry["t"] == t
            assert (entry["x"], entry["n"]) == (rep.ones, rep.devices)
            # full precision, exact
            assert entry["p_hat"] == rep.alias
            assert entry["ci"] == {"method": rep.interval.method, "lower": rep.interval.lower,
                                   "upper": rep.interval.upper, "alpha": rep.interval.alpha}
            assert entry["p_value_lower"] == rep.verdict.p_value_lower
            assert entry["p_value_upper"] == rep.verdict.p_value_upper
            assert entry["accepted"] == rep.verdict.accepted
            assert entry["min_entropy"] == rep.min_entropy
            assert entry["shannon_entropy"] == rep.shannon_entropy
            assert entry["min_entropy_ci_worst"] == rep.min_entropy_worst
            assert entry["shannon_entropy_ci_worst"] == rep.shannon_entropy_worst
        # byte-stable: rendering twice is identical
        assert render_report(result, "json") == blob

    def test_text_table_shape(self):
        result = balanced_result(positions=8)
        text = render_report(result, "text").decode()
        lines = text.splitlines()
        assert lines[0].startswith("devices=680 positions=8")
        table = [ln for ln in lines if ln and ln.lstrip()[0].isdigit()]
        assert len(table) == 8

    def test_empty_reports_render_everywhere(self):
        base = balanced_result(positions=2)
        empty = type(base)(config=base.config, reports=(), summary=base.summary)
        csv_lines = render_report(empty, "csv").decode().strip().splitlines()
        assert csv_lines == [CSV_HEADER]
        assert json.loads(render_report(empty, "json"))["positions"] == []
        assert render_report(empty, "text")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_certain_positions_print_no_negative_zero(self, fmt):
        # alias 0 and 1, whose worst-case endpoints are there too, have 0 bits
        # of min-entropy, rendered as 0 and never as -0
        result = analyze_counts(PositionCounts(devices=680, ones=[0, 680, 340]),
                                AnalysisConfig(alpha=0.01, limits=LIMITS))
        assert [r.min_entropy_worst for r in result.reports][:2] == [0.0, 0.0]
        tokens = re.split(rb"[\s,:\[\]{}]+", render_report(result, fmt))
        assert b"0" in tokens or b"0.0" in tokens
        assert b"-0" not in tokens and b"-0.0" not in tokens


# sha256 of the text and csv reports, early stop on.  JSON is left out: its
# full-precision floats may differ in the last bits between libm builds.
PINNED_REPORTS = {
    ("normal", "campaign", "text"):
        "d6172b0f7320b2a15ad2f675a2666bcebd04e3989fa1c53155bb11caab1dd20c",
    ("normal", "campaign", "csv"):
        "a08762869986fb8e3cda02d979293b6c764f3bab79c692feba93481158157cad",
    ("normal", "counts", "text"):
        "97ec919ebc120e3f2d4bea6af18035db223950317e103e05ea64883fa88845dd",
    ("normal", "counts", "csv"):
        "c78636c8592ec34febf02eb5d22235684f464c61c2d620c51dba7996954792e4",
    ("wilson", "campaign", "text"):
        "6370b78f84d6a47ace4b8f31d5896a8224fb0b559a8bec82d8138a850e381800",
    ("wilson", "campaign", "csv"):
        "9a610108629e9cc567927ff83ba19b7c064b131eb93377c139c4ac6c8aef2653",
    ("wilson", "counts", "text"):
        "c6c17968f65cab1e49f7a971d906432c08b1cae223e6d23c8cc92f15defb7c9d",
    ("wilson", "counts", "csv"):
        "7f29692af4f34dcf1b36cb42ba737bffebc1f424c24aa4403bb23dc7d3b6810d",
    ("clopper_pearson", "campaign", "text"):
        "68f682366adc8d0ee9669c2cfd2c21e5c39bb826af652541611a5c1fc2db5dcc",
    ("clopper_pearson", "campaign", "csv"):
        "d1f596f9dedfd3a2a8da73453924a8cd9a2432782f336e24f176741fe7026e8d",
    ("clopper_pearson", "counts", "text"):
        "c876cb7863f011c4d267e1ee101d913e5d56d8922fbcfe53ac0d8ce5eb8048d0",
    ("clopper_pearson", "counts", "csv"):
        "3550e4045d9a2ac3e6f0d8802bb4ebdb2365d7a3e33fd2e50a7add2d34f6f6ff",
}

@pytest.fixture(scope="module")
def paper_campaign():
    """The paper's 680 devices x 256 positions x 5 repeats, seed 42."""
    return simulate_population(PopulationSpec(devices=680, positions=256, repeats=5,
                                              seed=42, alias="linear", flip_noise=0.05))


@pytest.mark.parametrize("method,source,fmt", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(paper_campaign, method, source, fmt):
    cfg = AnalysisConfig(alpha=0.01, limits=LIMITS, ci_method=method,
                         early_stop=EarlyStopConfig(alpha=0.01))
    if source == "campaign":
        result = analyze(paper_campaign, cfg)
    else:
        result = analyze_counts(PositionCounts(devices=680, ones=REPEATED_ONES), cfg)
    digest = hashlib.sha256(render_report(result, fmt)).hexdigest()
    assert digest == PINNED_REPORTS[method, source, fmt]


def reference_json(result) -> bytes:
    """The JSON report built the direct way: one dict per position and one
    indented dump of the whole payload."""
    cfg, s = result.config, result.summary
    advice = s.early_stop
    payload = {
        "config": {
            "alpha": cfg.alpha,
            "p_l": s.region.limits.p_l,
            "p_u": s.region.limits.p_u,
            "ci_method": cfg.ci_method,
            "entropy_spec": None if cfg.entropy_spec is None else
                {"kind": cfg.entropy_spec.kind, "value": cfg.entropy_spec.value},
            "early_stop": None if cfg.early_stop is None else
                {"alpha": cfg.early_stop.alpha,
                 "max_flag_fraction": cfg.early_stop.max_flag_fraction},
            "per_position_alpha": True,
        },
        "summary": {
            "devices": s.devices,
            "positions": s.positions,
            "repeats": s.repeats,
            "tie_count": s.tie_count,
            "accepted": s.accepted,
            "rejected": s.rejected,
            "region": {"empty": s.region.is_empty, "x_l": s.region.x_l, "x_u": s.region.x_u},
            "early_stop": None if advice is None else {
                "decision": advice.decision,
                "flagged_positions": list(advice.flagged_positions),
                "p_values_low": list(advice.p_values_low),
                "p_values_high": list(advice.p_values_high),
            },
        },
        "positions": [{
            "t": t,
            "x": r.ones,
            "n": r.devices,
            "p_hat": r.alias,
            "ci": {"method": r.interval.method, "lower": r.interval.lower,
                   "upper": r.interval.upper, "alpha": r.interval.alpha},
            "p_value_lower": r.verdict.p_value_lower,
            "p_value_upper": r.verdict.p_value_upper,
            "accepted": r.verdict.accepted,
            "min_entropy": r.min_entropy,
            "shannon_entropy": r.shannon_entropy,
            "min_entropy_ci_worst": r.min_entropy_worst,
            "shannon_entropy_ci_worst": r.shannon_entropy_worst,
        } for t, r in enumerate(result.reports)],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


@pytest.fixture(scope="module")
def tied_campaign():
    """680 devices x 64 positions x 4 repeats: the even repeat count gives ties."""
    return simulate_population(PopulationSpec(devices=680, positions=64, repeats=4,
                                              seed=7, alias="linear", flip_noise=0.1))


@pytest.mark.parametrize("early_stop", [False, True], ids=["no-early-stop", "early-stop"])
@pytest.mark.parametrize("source", sorted(LIMIT_SOURCES))
@pytest.mark.parametrize("method", ["normal", "wilson", "clopper_pearson"])
def test_json_report_equals_one_dict_per_position(tied_campaign, method, source, early_stop):
    cfg = AnalysisConfig(alpha=0.01, ci_method=method, **LIMIT_SOURCES[source],
                         early_stop=EarlyStopConfig(alpha=0.01) if early_stop else None)
    result = analyze(tied_campaign, cfg)
    assert result.summary.tie_count > 0
    assert len({id(r) for r in result.reports}) < len(result.reports)
    assert render_report(result, "json") == reference_json(result)


@pytest.mark.parametrize("case", ["repeated-counts", "empty-region", "one-position",
                                  "no-positions"])
def test_json_report_equals_one_dict_per_position_edge_cases(case):
    cfg = AnalysisConfig(alpha=0.01, limits=LIMITS, early_stop=EarlyStopConfig(alpha=0.01))
    if case == "empty-region":
        result = analyze_counts(PositionCounts(devices=3, ones=np.array([1, 2, 1, 0])), cfg)
        assert result.summary.region.is_empty
    elif case == "one-position":
        result = analyze_counts(PositionCounts(devices=680, ones=np.array([340])), cfg)
    else:
        result = analyze_counts(PositionCounts(devices=680, ones=REPEATED_ONES), cfg)
        if case == "no-positions":
            result = type(result)(config=result.config, reports=(), summary=result.summary)
    assert render_report(result, "json") == reference_json(result)
