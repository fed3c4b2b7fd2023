"""What every public record type promises: immutability, equality and hashing
by field within one class, defaults, strict construction, field order, repr,
copy and pickle."""

import copy
import pickle
import re

import numpy as np
import pytest

from bitalias import analysis, confidence, entropy, qualification, response, simulate, validate
from bitalias.errors import DomainError

LIMITS = qualification.AliasLimits(p_l=0.45, p_u=0.55)
INTERVAL = confidence.Interval(lower=0.25, upper=0.75, alpha=0.05, method="wilson")
VERDICT = qualification.TestVerdict(ones=340, p_value_upper=0.001, p_value_lower=0.002,
                                    alpha=0.01, accepted=True)
REGION = qualification.AcceptanceRegion(devices=680, limits=LIMITS, alpha=0.01, x_l=330,
                                        x_u=350)
CONFIG = analysis.AnalysisConfig(alpha=0.05, limits=LIMITS, entropy_spec=None,
                                 ci_method="clopper_pearson",
                                 early_stop=analysis.EarlyStopConfig(), output_format="json")
REPORT = analysis.PositionReport(ones=340, devices=680, alias=0.5, interval=INTERVAL,
                                 verdict=VERDICT, min_entropy=1.0, shannon_entropy=1.0,
                                 min_entropy_worst=0.9, shannon_entropy_worst=0.95)
SUMMARY = analysis.AnalysisSummary(devices=680, positions=1, repeats=5, tie_count=0,
                                   accepted=1, rejected=0, region=REGION, early_stop=None)
BITS = np.array([[[0, 1], [1, 1], [0, 0]], [[1, 1], [0, 1], [1, 0]]], dtype=np.uint8)
VOTED = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)

# (class, keyword arguments in positional order, field names in order); each
# call of the class with these arguments builds an equal, fresh record
CASES = [
    (confidence.Interval, dict(lower=0.25, upper=0.75, alpha=0.05, method="wilson"), None),
    (confidence.PlanResult, dict(devices=658, alpha=0.01, method="frr", target_width=0.1,
                                 limits=LIMITS, inner=(0.48, 0.52), beta=0.01), None),
    (qualification.AliasLimits, dict(p_l=0.45, p_u=0.55), None),
    (qualification.AcceptanceRegion, dict(devices=680, limits=LIMITS, alpha=0.01, x_l=330,
                                          x_u=350), None),
    (qualification.TestVerdict, dict(ones=340, p_value_upper=0.001, p_value_lower=0.002,
                                     alpha=0.01, accepted=True), None),
    (qualification.EarlyStopAdvice, dict(p_values_low=(0.5, 0.001), p_values_high=(0.4, 0.6),
                                         flagged_positions=(1,), decision="abort"), None),
    (entropy.EntropySpec, dict(kind="min", value=0.9), None),
    (analysis.EarlyStopConfig, dict(alpha=0.05, max_flag_fraction=0.1), None),
    (analysis.AnalysisConfig, dict(alpha=0.05, limits=LIMITS, entropy_spec=None,
                                   ci_method="clopper_pearson",
                                   early_stop=analysis.EarlyStopConfig(),
                                   output_format="json"), None),
    (analysis.PositionReport, dict(ones=340, devices=680, alias=0.5, interval=INTERVAL,
                                   verdict=VERDICT, min_entropy=1.0, shannon_entropy=1.0,
                                   min_entropy_worst=0.9, shannon_entropy_worst=0.95), None),
    (analysis.AnalysisSummary, dict(devices=680, positions=1, repeats=5, tie_count=0,
                                    accepted=1, rejected=0, region=REGION, early_stop=None),
     None),
    (analysis.AnalysisResult, dict(config=CONFIG, reports=(REPORT,), summary=SUMMARY), None),
    (response.MeasurementTensor, dict(bits=BITS), ("rows", "positions", "repeats")),
    (response.NoiseFreeResponse, dict(bits=VOTED, tie_count=1),
     ("rows", "positions", "repeats", "tie_count")),
    (response.PositionCounts, dict(devices=4, ones=(1, 3, 0)), None),
    (simulate.PopulationSpec, dict(devices=4, positions=3, repeats=2, seed=7, alias="linear",
                                   flip_noise=0.1), None),
    (simulate.PopulationSpec, dict(devices=4, positions=3, repeats=2, seed=7,
                                   alias=(0.1, 0.5, 0.9), flip_noise=0.1), None),
    (validate.CoverageParams, dict(method="wilson", p=0.5, devices=50, alpha=0.05), None),
    (validate.QualificationParams, dict(devices=680, limits=LIMITS, alpha=0.01, p=0.5), None),
    (validate.MonteCarloEstimate, dict(kind="far", value=0.001, std_error=0.0001,
                                       trials=1000), None),
]
IDS = [cls.__name__ + ("-tuple-alias" if isinstance(kwargs.get("alias"), tuple) else "")
       for cls, kwargs, _ in CASES]
UNHASHABLE = (response.MeasurementTensor, response.NoiseFreeResponse)  # ndarray fields
# the cases whose first argument is required; every config field has a default
REQUIRED = [pytest.param(c, id=i) for c, i in zip(CASES, IDS)
            if c[0] not in (analysis.EarlyStopConfig, analysis.AnalysisConfig)]


def _fields(case):
    cls, kwargs, fields = case
    return tuple(kwargs) if fields is None else fields


@pytest.fixture(params=range(len(CASES)), ids=IDS)
def case(request):
    return CASES[request.param]


def test_every_public_record_type_is_covered():
    import bitalias
    records = {name for name in bitalias.__all__ if isinstance(getattr(bitalias, name), type)
               and hasattr(getattr(bitalias, name), "__match_args__")}
    assert records == {cls.__name__ for cls, _, _ in CASES}


class TestEquality:
    def test_equal_fields_compare_equal(self, case):
        cls, kwargs, _ = case
        a, b = cls(**kwargs), cls(**kwargs)
        assert a is not b
        assert a == b and not a != b

    def test_another_class_is_never_equal(self, case):
        cls, kwargs, _ = case
        record = cls(**kwargs)
        for other_cls, other_kwargs, _ in CASES:
            if other_cls is not cls:
                other = other_cls(**other_kwargs)
                assert record != other and not record == other
        assert record != tuple(kwargs.values())

    def test_a_different_field_is_unequal(self):
        assert INTERVAL != confidence.Interval(0.25, 0.75, 0.05, "normal")
        assert response.NoiseFreeResponse(VOTED, 1) != response.NoiseFreeResponse(VOTED, 2)
        assert response.MeasurementTensor(BITS[:, :, :1]) != response.NoiseFreeResponse(
            BITS[:, :, 0], 0)

    def test_equal_records_hash_alike(self, case):
        cls, kwargs, _ = case
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(cls(**kwargs))
        else:
            assert hash(cls(**kwargs)) == hash(cls(**kwargs))
            assert len({cls(**kwargs), cls(**kwargs)}) == 1


class TestImmutability:
    def test_setting_a_field_raises(self, case):
        cls, kwargs, _ = case
        record = cls(**kwargs)
        name = _fields(case)[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert not hasattr(record, "not_a_field")

    def test_deleting_a_field_raises(self, case):
        cls, kwargs, _ = case
        record = cls(**kwargs)
        name = _fields(case)[-1]
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


class TestDefaults:
    def test_plan_result(self):
        plan = confidence.PlanResult(devices=658, alpha=0.01, method="wilson")
        assert (plan.target_width, plan.limits, plan.inner, plan.beta) == (None,) * 4

    def test_early_stop_config(self):
        cfg = analysis.EarlyStopConfig()
        assert (cfg.alpha, cfg.max_flag_fraction) == (0.01, 0.0)

    def test_analysis_config(self):
        cfg = analysis.AnalysisConfig(limits=LIMITS)
        assert (cfg.alpha, cfg.entropy_spec, cfg.ci_method, cfg.early_stop,
                cfg.output_format) == (0.01, None, "wilson", None, "text")
        assert cfg == analysis.AnalysisConfig(0.01, LIMITS)

    def test_population_spec(self):
        spec = simulate.PopulationSpec(devices=4, positions=3, repeats=2, seed=7)
        assert (spec.alias, spec.flip_noise) == (0.5, 0.0)
        assert spec == simulate.PopulationSpec(4, 3, 2, 7, 0.5, 0.0)


class TestConstruction:
    @pytest.mark.parametrize("case", REQUIRED)
    def test_missing_argument(self, case):
        cls, kwargs, _ = case
        # bits defaults to None, which the parsers' packed path needs, and
        # None is no tensor
        error = DomainError if cls is response.MeasurementTensor else TypeError
        first, *rest = kwargs
        with pytest.raises(error):
            cls(**{name: kwargs[name] for name in rest})

    def test_unknown_argument(self, case):
        cls, kwargs, _ = case
        with pytest.raises(TypeError):
            cls(**kwargs, not_a_field=1)

    def test_doubled_argument(self, case):
        cls, kwargs, _ = case
        with pytest.raises(TypeError):
            cls(next(iter(kwargs.values())), **kwargs)

    def test_too_many_positional_arguments(self, case):
        cls, kwargs, _ = case
        with pytest.raises(TypeError):
            cls(*kwargs.values(), *kwargs.values())

    def test_positional_order(self, case):
        cls, kwargs, _ = case
        assert cls(*kwargs.values()) == cls(**kwargs)

    def test_field_order(self, case):
        cls, _, _ = case
        assert cls.__match_args__ == _fields(case)

    def test_noise_free_response_matches_positionally(self):
        match response.NoiseFreeResponse(VOTED, 1):
            case response.NoiseFreeResponse(rows, positions, repeats, tie_count):
                assert rows.tolist() == [[6], [1]]
                assert (positions, repeats, tie_count) == (3, 1, 1)
            case _:
                pytest.fail("no positional match")


# id -> (class, fields given as numpy scalars or numeric strings, the same
# fields as plain Python numbers): a record keeps what its checks return
ODD_NUMBERS = {
    "Interval-numpy": (confidence.Interval, dict(lower=np.float32(0.25), upper=np.float64(0.75),
                                                 alpha=np.float32(0.0625), method="wilson"),
                       dict(lower=0.25, upper=0.75, alpha=0.0625, method="wilson")),
    "Interval-text": (confidence.Interval, dict(lower="0.25", upper="0.75", alpha="0.05",
                                                method="wilson"),
                      dict(lower=0.25, upper=0.75, alpha=0.05, method="wilson")),
    "EarlyStopConfig-numpy": (analysis.EarlyStopConfig, dict(alpha=np.float32(0.0625),
                                                             max_flag_fraction=np.float32(0.25)),
                              dict(alpha=0.0625, max_flag_fraction=0.25)),
    "EarlyStopConfig-text": (analysis.EarlyStopConfig, dict(alpha="0.05", max_flag_fraction="0.1"),
                             dict(alpha=0.05, max_flag_fraction=0.1)),
    "AnalysisConfig-numpy": (analysis.AnalysisConfig, dict(alpha=np.float32(0.0625), limits=LIMITS),
                             dict(alpha=0.0625, limits=LIMITS)),
    "AnalysisConfig-text": (analysis.AnalysisConfig, dict(alpha="0.05", limits=LIMITS),
                            dict(alpha=0.05, limits=LIMITS)),
    "PositionCounts-numpy": (response.PositionCounts, dict(devices=np.int64(4),
                                                           ones=(np.int64(1), 3, 0)),
                             dict(devices=4, ones=(1, 3, 0))),
    "PopulationSpec-numpy": (simulate.PopulationSpec,
                             dict(devices=np.int64(4), positions=np.int64(3), repeats=np.int64(2),
                                  seed=np.uint8(7), alias=np.float32(0.5), flip_noise="0.1"),
                             dict(devices=4, positions=3, repeats=2, seed=7, alias=0.5,
                                  flip_noise=0.1)),
}


@pytest.mark.parametrize("cls, odd, plain", ODD_NUMBERS.values(), ids=ODD_NUMBERS)
def test_checked_numbers_are_kept_as_python_numbers(cls, odd, plain):
    record, expected = cls(**odd), cls(**plain)
    assert record == expected and hash(record) == hash(expected)
    assert ([type(getattr(record, name)) for name in cls.__match_args__]
            == [type(getattr(expected, name)) for name in cls.__match_args__])


@pytest.mark.parametrize("alias", [[0.1, 0.5, 0.9], np.array([0.1, 0.5, 0.9])],
                         ids=["list", "array"])
def test_an_alias_vector_is_kept_as_a_tuple(alias):
    spec = simulate.PopulationSpec(devices=4, positions=3, repeats=2, seed=7, alias=alias)
    as_tuple = simulate.PopulationSpec(devices=4, positions=3, repeats=2, seed=7,
                                       alias=(0.1, 0.5, 0.9))
    assert spec == as_tuple and hash(spec) == hash(as_tuple)
    assert type(spec.alias) is tuple and {type(a) for a in spec.alias} == {float}


class TestRepr:
    def test_names_the_class_and_its_fields_in_order(self, case):
        cls, kwargs, _ = case
        text = repr(cls(**kwargs))
        assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
        starts = [re.search(rf"\b{name}=", text) for name in _fields(case)]
        assert all(starts)
        assert [m.start() for m in starts] == sorted(m.start() for m in starts)

    def test_shows_field_values(self):
        assert repr(INTERVAL) == "Interval(lower=0.25, upper=0.75, alpha=0.05, method='wilson')"


class TestCopyAndPickle:
    def test_copy_round_trip(self, case):
        cls, kwargs, _ = case
        record = cls(**kwargs)
        clone = copy.copy(record)
        assert type(clone) is cls and clone == record
        with pytest.raises(AttributeError):
            setattr(clone, _fields(case)[0], None)

    def test_pickle_round_trip(self, case):
        cls, kwargs, _ = case
        record = cls(**kwargs)
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is cls and clone == record
        assert repr(clone) == repr(record)
        with pytest.raises(AttributeError):
            setattr(clone, _fields(case)[0], None)
