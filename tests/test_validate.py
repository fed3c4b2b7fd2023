import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from bitalias import special, validate
from bitalias.confidence import METHODS, confidence_interval
from bitalias.qualification import AliasLimits, acceptance_region
from bitalias.simulate import rng_stream
from bitalias.validate import (CoverageParams, QualificationParams, _coverage_run,
                               monte_carlo_validate)

LIMITS = AliasLimits(0.45, 0.55)


class TestMonteCarloValidate:
    def test_coverage_exact_interval_meets_nominal(self):
        est = monte_carlo_validate(
            "coverage", CoverageParams("clopper_pearson", p=0.5, devices=100, alpha=0.05),
            trials=20_000, seed=11)
        assert est.value >= 0.95 - 3 * est.std_error

    def test_wilson_mean_coverage_near_nominal(self):
        grid = [0.05 + 0.1 * i for i in range(10)]
        values = []
        for task, p in enumerate(grid):
            est = monte_carlo_validate(
                "coverage", CoverageParams("wilson", p=p, devices=50, alpha=0.05),
                trials=20_000, seed=11, task=task)
            values.append(est.value)
        assert abs(sum(values) / len(values) - 0.95) < 0.02

    def test_far_bounded_by_alpha(self):
        est = monte_carlo_validate(
            "far", QualificationParams(devices=680, limits=LIMITS, alpha=0.01, p=0.55),
            trials=20_000, seed=5)
        assert est.value <= 0.01 + 3 * est.std_error

    def test_far_zero_on_empty_region(self):
        est = monte_carlo_validate(
            "far", QualificationParams(devices=10, limits=LIMITS, alpha=0.01, p=0.5),
            trials=1000, seed=5)
        assert est.value == 0.0

    def test_frr_complements_acceptance(self):
        params = QualificationParams(devices=680, limits=LIMITS, alpha=0.01, p=0.5)
        far = monte_carlo_validate("far", params, trials=10_000, seed=9)
        frr = monte_carlo_validate("frr", params, trials=10_000, seed=9)
        assert far.value + frr.value == pytest.approx(1.0, abs=1e-12)

    def test_reproducible_for_fixed_seed(self):
        params = CoverageParams("normal", p=0.3, devices=40, alpha=0.05)
        a = monte_carlo_validate("coverage", params, trials=5000, seed=21)
        b = monte_carlo_validate("coverage", params, trials=5000, seed=21)
        assert a.value == b.value

    def test_standard_error_formula(self):
        est = monte_carlo_validate(
            "coverage", CoverageParams("wilson", p=0.5, devices=30, alpha=0.05),
            trials=5000, seed=2)
        assert est.std_error == pytest.approx(
            (est.value * (1 - est.value) / est.trials) ** 0.5, abs=1e-15)


def _per_draw_coverage(method, p, n, alpha, trials, seed, task=0):
    """Coverage by building the interval for every draw: the share of seeded
    draws whose interval contains p, with its binomial standard error."""
    draws = rng_stream(seed, task).binomial(n, p, size=trials).tolist()
    tally = Counter(draws)
    covered = sum(k for x, k in tally.items()
                  if confidence_interval(method, x, n, alpha).contains(p))
    value = covered / trials
    return value, math.sqrt(value * (1.0 - value) / trials)


CHUNK = special._BLOCK_BYTES // 8  # int64 draws per span


@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
@pytest.mark.parametrize("kind, params", [
    ("coverage", CoverageParams("wilson", p=0.3, devices=680, alpha=0.01)),
    ("far", QualificationParams(devices=680, limits=LIMITS, alpha=0.01, p=0.55)),
    ("frr", QualificationParams(devices=2671077, limits=AliasLimits(0.497, 0.503),
                                alpha=0.01, p=0.4985)),
])
def test_chunked_draws_equal_one_array_of_draws(kind, params, trials):
    # the draws come in chunks; the count is the one a single array of all
    # the trials gives, also when trials sits at a chunk edge
    est = monte_carlo_validate(kind, params, trials=trials, seed=29, task=3)
    if kind == "coverage":
        expected = _per_draw_coverage(params.method, params.p, params.devices, params.alpha,
                                      trials, 29, 3)
    else:
        region = acceptance_region(params.devices, params.limits, params.alpha)
        draws = rng_stream(29, 3).binomial(region.devices, params.p, size=trials)
        inside = int(((draws >= region.x_l) & (draws <= region.x_u)).sum())
        value = 1.0 - inside / trials if kind == "frr" else inside / trials
        expected = value, math.sqrt(value * (1.0 - value) / trials)
    assert (est.value, est.std_error) == expected


@pytest.mark.parametrize("trials", [10**5, 10**6])
def test_draws_take_memory_independent_of_trials(trials):
    # numpy reports its buffers to tracemalloc; all trials held at once
    # would take 8 bytes each (1.1 and 10 MB here)
    params = QualificationParams(devices=2671077, limits=AliasLimits(0.497, 0.503),
                                 alpha=0.01, p=0.4985)
    monte_carlo_validate("frr", params, trials=1000, seed=1)  # what a first call loads
    tracemalloc.start()
    try:
        monte_carlo_validate("frr", params, trials=trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


IDENTITY_DEVICES = (1, 2, 10, 100, 680, 6653)
IDENTITY_ALIASES = (0.0, 0.001, 0.3, 0.5, 0.999, 1.0)
IDENTITY_ALPHAS = (0.5, 0.05, 1e-6)


@pytest.mark.parametrize("method", METHODS)
def test_coverage_matches_per_draw_reference_on_grid(method):
    for task, (n, p, alpha) in enumerate(itertools.product(
            IDENTITY_DEVICES, IDENTITY_ALIASES, IDENTITY_ALPHAS)):
        est = monte_carlo_validate("coverage", CoverageParams(method, p, n, alpha),
                                   trials=1000, seed=17, task=task)
        expected = _per_draw_coverage(method, p, n, alpha, 1000, 17, task)
        assert (est.value, est.std_error) == expected, (n, p, alpha)


def test_coverage_matches_per_draw_reference_at_random_shapes():
    rng = random.Random(20261018)
    for task in range(50):
        method = rng.choice(METHODS)
        n = int(10 ** rng.uniform(0, 5))
        p = rng.random()
        alpha = 10 ** -rng.uniform(0.3, 9)
        est = monte_carlo_validate("coverage", CoverageParams(method, p, n, alpha),
                                   trials=1000, seed=23, task=task)
        expected = _per_draw_coverage(method, p, n, alpha, 1000, 23, task)
        assert (est.value, est.std_error) == expected, (method, n, p, alpha)


@pytest.mark.parametrize("method", METHODS)
def test_covering_run_equals_linear_scan(monkeypatch, method):
    # the scan computes every interval, so the search reuses them
    interval = functools.lru_cache(maxsize=None)(confidence_interval)
    monkeypatch.setattr(validate, "confidence_interval", interval)
    for n, alpha in itertools.product(range(1, 151), IDENTITY_ALPHAS):
        intervals = [interval(method, x, n, alpha) for x in range(n + 1)]
        for p in IDENTITY_ALIASES:
            covering = [x for x, ci in enumerate(intervals) if ci.contains(p)]
            run = _coverage_run(CoverageParams(method, p, n, alpha))
            if covering:
                assert covering == list(range(covering[0], covering[-1] + 1))
                assert run == (p, n, (covering[0], covering[-1])), (n, p, alpha)
            else:
                assert run == (p, n, None), (n, p, alpha)


def test_coverage_takes_a_handful_of_interval_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(validate, "confidence_interval",
                        lambda *args: calls.append(args) or confidence_interval(*args))
    monte_carlo_validate("coverage", CoverageParams("clopper_pearson", 0.5, 6653, 0.01),
                         trials=100_000, seed=1)
    assert len(calls) <= 12


@pytest.mark.parametrize("kind, params", [
    ("coverage", CoverageParams("wilson", p=0.5, devices=680, alpha=0.01)),
    ("far", QualificationParams(devices=680, limits=LIMITS, alpha=0.01, p=0.55)),
    ("frr", QualificationParams(devices=680, limits=LIMITS, alpha=0.01, p=0.5)),
    ("far", QualificationParams(devices=10, limits=LIMITS, alpha=0.01, p=0.5)),
])
def test_value_is_a_plain_float(kind, params):
    est = monte_carlo_validate(kind, params, trials=1000, seed=4)
    assert type(est.value) is float and type(est.std_error) is float

