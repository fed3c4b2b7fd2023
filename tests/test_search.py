"""The count searches behind the acceptance region and the planners.

Pins the answers and probe sequences the searches must keep, and checks the
region against its definition.
"""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalias import confidence as conf
from bitalias import qualification as qual
from bitalias.confidence import PLANNER_DEVICE_CAP, _first, plan_devices_exact
from bitalias.errors import CapacityError
from bitalias.qualification import AliasLimits, acceptance_region, plan_devices_frr
from bitalias.special import binomial_cdf, binomial_sf

# (limits, inner band, answer, probe count, sha256 of the comma-joined probes)
# for the planner-scale FRR queries at alpha = beta = 0.01.  The FRR curve is
# not monotone in n, so the answer depends on the probe sequence, and the
# last two answers are not the smallest counts meeting beta.
FRR_PROBES = (
    ((0.45, 0.55), (0.48, 0.52), 6653, 66,
     "6103ba96cdbb02bb6533bd38323650ece9d7af61a03465a187296f4dd4937634"),
    ((0.495, 0.505), (0.4975, 0.5025), 961460, 90,
     "dad6a5f0ad86fdfaefa2d3bb34937e5876a8dc70a6ef59b5540096bcfc1b3115"),
    ((0.497, 0.503), (0.4985, 0.5015), 2671077, 45,
     "a132bc562714492b82a975ef04a4e04a377f76d617bc2be9d2ac385b494f53de"),
    ((0.4975, 0.5025), (0.4985, 0.5015), 6008979, 47,
     "602f2e93fc1ddd6965ccb86b85e8a63b45e386ae971536aeb636791190687572"),
)


@pytest.mark.parametrize("limits, inner, answer, count, digest", FRR_PROBES)
def test_frr_planner_probe_sequence_pinned(monkeypatch, limits, inner, answer, count,
                                           digest):
    probes = []

    def recording_region(n, *args):
        probes.append(n)
        return acceptance_region(n, *args)

    monkeypatch.setattr(qual, "acceptance_region", recording_region)
    assert plan_devices_frr(limits, inner, 0.01, 0.01).devices == answer
    assert len(probes) == count
    assert hashlib.sha256(",".join(map(str, probes)).encode()).hexdigest() == digest


def _cap(width):
    return f"width {width} unreachable below 10000000 devices"


# plan_devices_exact answers (or CapacityError messages) by method, alpha and
# target width.
WIDTH_PLANS = {
    "wilson": {
        0.5: (2, 6, 182, 4550, 454936, 615112, 1819746),
        0.05: (2, 40, 1534, 38412, 3841456, 5193966, _cap(0.0005)),
        0.01: (2, 68, 2648, 66344, 6634890, 8970920, _cap(0.0005)),
        1e-6: (6, 242, 9548, 239258, _cap(0.001), _cap(0.00086), _cap(0.0005)),
    },
    "clopper_pearson": {
        0.5: (2, 10, 220, 4748, 456934, 617436, 1823744),
        0.05: (4, 48, 1574, 38612, 3843458, 5196292, _cap(0.0005)),
        0.01: (6, 78, 2690, 66546, 6636894, 8973248, _cap(0.0005)),
        1e-6: (16, 260, 9600, 239470, _cap(0.001), _cap(0.00086), _cap(0.0005)),
    },
}
WIDTHS = (0.9, 0.3, 0.05, 0.01, 0.001, 0.00086, 0.0005)


@pytest.mark.parametrize("method", sorted(WIDTH_PLANS))
def test_width_planner_answers_pinned(method):
    for alpha, answers in WIDTH_PLANS[method].items():
        for width, expected in zip(WIDTHS, answers):
            if isinstance(expected, str):
                with pytest.raises(CapacityError) as err:
                    plan_devices_exact(method, width, alpha)
                assert str(err.value) == expected
            else:
                assert plan_devices_exact(method, width, alpha).devices == expected


@pytest.mark.parametrize("method", sorted(WIDTH_PLANS))
def test_width_plan_search_certifies_its_answer(monkeypatch, method):
    # the outcomes of the probes made by the outward search and the bisection:
    # the answer N met the target, and N = 2 or N - 2 was probed and failed,
    # so no even count below N is left to try
    probed = {}

    def recording(ok, *args, **kwargs):
        def seen(n):
            probed[n] = ok(n)
            return probed[n]
        return _first(seen, *args, **kwargs)

    monkeypatch.setattr(conf, "_first", recording)
    for alpha, answers in WIDTH_PLANS[method].items():
        for width, answer in zip(WIDTHS, answers):
            if isinstance(answer, int):
                probed.clear()
                assert plan_devices_exact(method, width, alpha).devices == answer
                assert probed[answer] is True
                assert answer == 2 or probed[answer - 2] is False, (alpha, width)


SCAN_LIMITS = ((0.45, 0.55), (0.001, 0.01), (0.9, 0.999))
SCAN_ALPHAS = (0.5, 0.01, 1e-6, 1e-300)


@pytest.mark.parametrize("limits", SCAN_LIMITS)
def test_region_equals_linear_scan(limits):
    p_l, p_u = limits
    for n in range(1, 301):
        cdf = [binomial_cdf(x, n, p_u) for x in range(n + 1)]
        sf = [binomial_sf(x, n, p_l) for x in range(n + 1)]
        for alpha in SCAN_ALPHAS:
            half = 0.5 * alpha
            inside = [x for x in range(n + 1) if cdf[x] < half and sf[x] < half]
            r = acceptance_region(n, limits, alpha)
            if inside:
                assert inside == list(range(inside[0], inside[-1] + 1))
                assert (r.x_l, r.x_u) == (inside[0], inside[-1]), (n, alpha)
            else:
                assert r.is_empty, (n, alpha)


def _full_range_region(n, limits, alpha):
    """The region by bisecting each endpoint over all of [0, n]."""
    p_l, p_u = limits
    half = 0.5 * alpha

    def first(ok):  # smallest x in (0, n] with ok, given ok(n) and not ok(0)
        lo, hi = 0, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        return hi

    if not (binomial_cdf(0, n, p_u) < half and binomial_sf(n, n, p_l) < half):
        return None, None
    x_u = first(lambda x: not binomial_cdf(x, n, p_u) < half) - 1
    x_l = first(lambda x: binomial_sf(x, n, p_l) < half)
    return (x_l, x_u) if x_l <= x_u else (None, None)


def test_region_equals_full_range_bisection_at_random_scale():
    rng = random.Random(20261018)
    for _ in range(200):
        n = int(10 ** rng.uniform(0, 7))
        p_l = rng.uniform(0.001, 0.9)
        p_u = rng.uniform(p_l + 1e-4, min(0.999, p_l + 0.2))
        alpha = 10 ** -rng.uniform(0.3, 30)
        limits = AliasLimits(p_l, p_u)
        r = acceptance_region(n, limits, alpha)
        assert (r.x_l, r.x_u) == _full_range_region(n, (p_l, p_u), alpha), (n, limits, alpha)


def test_bracket_from_one_doubles_to_the_cap():
    probes = []

    def never(n):
        probes.append(n)
        return False

    with pytest.raises(CapacityError) as err:
        _first(never, 1, "beta 0.01")
    assert str(err.value) == "beta 0.01 unreachable below 10000000 devices"
    assert probes == [2 ** k for k in range(24)] + [PLANNER_DEVICE_CAP]


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("start", [20, 21, 10 ** 9])
def test_start_clamped_to_a_failing_limit_raises_after_one_probe(step, start):
    probes = []

    def never(n):
        probes.append(n)
        return False

    with pytest.raises(CapacityError) as err:
        _first(never, start, "target", step, limit=20)
    assert str(err.value) == "target unreachable below 20 devices"
    assert probes == [20]


@given(st.sampled_from([1, 2]), st.integers(1, 3000), st.data())
def test_outward_search_matches_plain_bisection(step, cells, data):
    limit = cells * step
    threshold = data.draw(st.integers(1, limit + 2 * step), label="threshold")
    start = step * data.draw(st.integers(-100, cells + 100), label="start / step")
    probes = []

    def ok(x):
        probes.append(x)
        return x >= threshold

    if threshold > limit:
        with pytest.raises(CapacityError) as err:
            _first(ok, start, "target", step, limit)
        assert str(err.value) == f"target unreachable below {limit} devices"
    else:
        assert _first(ok, start, "target", step, limit) == -(-threshold // step) * step
    assert all(0 < x <= limit and x % step == 0 for x in probes)
    assert len(probes) == len(set(probes))


def _counting(monkeypatch, module, *names):
    calls = []
    for name in names:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("n, limits", [
    (6008979, (0.4975, 0.5025)), (961460, (0.495, 0.505)),
    (6653, (0.45, 0.55)), (4096, (0.45, 0.55))])
def test_region_costs_a_handful_of_tail_calls(monkeypatch, n, limits):
    calls = _counting(monkeypatch, qual, "binomial_cdf", "binomial_sf")
    assert not acceptance_region(n, limits, 0.01).is_empty
    assert len(calls) <= 8


# worst_case_width calls of the benchmark's plan-scale width queries, each one
# a probe of the outward search or the bisection
@pytest.mark.parametrize("method, width, answer, count", [
    ("clopper_pearson", 0.01, 66546, 4),
    ("clopper_pearson", 0.001, 6636894, 4),
    ("wilson", 0.001, 6634890, 6),
])
def test_width_plan_probe_counts_pinned(monkeypatch, method, width, answer, count):
    calls = _counting(monkeypatch, conf, "worst_case_width")
    assert plan_devices_exact(method, width, 0.01).devices == answer
    assert len(calls) == count


def test_width_plan_beta_quantile_budget(monkeypatch):
    calls = _counting(monkeypatch, conf, "beta_quantile")
    assert plan_devices_exact("clopper_pearson", 0.001, 0.01).devices == 6636894
    assert len(calls) <= 8
