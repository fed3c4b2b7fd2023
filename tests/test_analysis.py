import json

import numpy as np
import pytest

from bitalias import qualification as qual
from bitalias.analysis import (CSV_HEADER, AnalysisConfig, EarlyStopConfig,
                               PositionReport, analyze, analyze_counts, render_report)
from bitalias.confidence import confidence_interval
from bitalias.entropy import EntropySpec, min_entropy_from_limits, shannon_entropy
from bitalias.errors import DomainError
from bitalias.qualification import AliasLimits
from bitalias.response import MeasurementTensor, PositionCounts
from bitalias.simulate import PopulationSpec, simulate_population

LIMITS = AliasLimits(0.45, 0.55)


def balanced_result(positions=8, seed=3, **cfg_kw):
    spec = PopulationSpec(devices=680, positions=positions, repeats=1, seed=seed)
    cfg = AnalysisConfig(alpha=0.01, limits=LIMITS, **cfg_kw)
    return analyze(simulate_population(spec), cfg)


class TestAnalysisConfig:
    def test_requires_exactly_one_limit_source(self):
        with pytest.raises(DomainError):
            AnalysisConfig(alpha=0.01)
        with pytest.raises(DomainError):
            AnalysisConfig(alpha=0.01, limits=LIMITS,
                           entropy_spec=EntropySpec("min", 0.9))

    def test_entropy_spec_resolves(self):
        cfg = AnalysisConfig(alpha=0.01, entropy_spec=EntropySpec("min", 0.9))
        limits = cfg.resolved_limits()
        assert limits.p_u == pytest.approx(2.0 ** -0.9, abs=1e-12)

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            AnalysisConfig(limits=LIMITS, ci_method="jeffreys")


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
            again = qual.test_position(rep.ones, rep.devices, LIMITS, 0.01,
                                       position=rep.position)
            assert again == rep.verdict
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
                    position=t, ones=x, devices=680, alias=x / 680, interval=interval,
                    verdict=qual.test_position(x, 680, LIMITS, 0.01, position=t),
                    min_entropy=min_entropy_from_limits(x / 680),
                    shannon_entropy=shannon_entropy(x / 680),
                    min_entropy_worst=min_entropy_from_limits(worst),
                    shannon_entropy_worst=shannon_entropy(worst))

    def test_deterministic(self):
        a = balanced_result(positions=8)
        b = balanced_result(positions=8)
        assert render_report(a, "json") == render_report(b, "json")

    def test_early_stop_included_when_configured(self):
        result = balanced_result(positions=8,
                                 early_stop=EarlyStopConfig(alpha=0.01))
        assert result.summary.early_stop is not None

    def test_counts_mode_has_no_tensor_fields(self):
        counts = PositionCounts(devices=680, ones=np.array([340, 100]))
        result = analyze_counts(counts, AnalysisConfig(alpha=0.01, limits=LIMITS))
        assert result.summary.repeats is None
        assert result.summary.tie_count is None
        assert result.reports[0].verdict.accepted
        assert not result.reports[1].verdict.accepted

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
        for rep, line in zip(result.reports, lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == rep.position
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
        for rep, entry in zip(result.reports, payload["positions"]):
            assert entry["p_hat"] == rep.alias  # full precision, exact
            assert entry["ci"]["lower"] == rep.interval.lower
            assert entry["accepted"] == rep.verdict.accepted
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

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            render_report(balanced_result(positions=2), "yaml")
