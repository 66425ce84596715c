"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import math
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rqclattice  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from layers import TraceRecorder  # noqa: E402
from spans import Tracer, package_modules  # noqa: E402
from stats import nearest_rank, pooled_mean_and_error, tail_latency, tail_percentile  # noqa: E402


# -- request generation -----------------------------------------------------


@pytest.mark.parametrize("make", [W.exact_grid_requests, W.cold_cli_requests, W.montecarlo_requests])
def test_requests_are_a_function_of_the_seed(make):
    assert make(7) == make(7)
    a, b = make(7), make(8)
    assert a != b  # another order (and other Monte Carlo seeds)
    assert sorted(r.rid for r in a) == sorted(r.rid for r in b)  # the same work
    assert len({r.rid for r in a}) == len(a)


def test_montecarlo_seeds_are_distinct_and_seeded():
    reqs = W.montecarlo_requests(3)
    seeds = [r.p["seed"] for r in reqs]
    assert len(set(seeds)) == len(seeds)
    other = {r.rid: r.p["seed"] for r in W.montecarlo_requests(4)}
    assert all(other[r.rid] != r.p["seed"] for r in reqs)


def test_montecarlo_check_requests_top_up_each_point_to_its_pooled_count():
    timed, check = W._montecarlo_requests(5)
    assert W._montecarlo_requests(5) == (timed, check)
    seeds = [r.p["seed"] for r in timed + check]
    assert len(set(seeds)) == len(seeds)
    pooled = {W.mc_point_key(*pt[:5]): pt[9] for pt in W.MC_POINTS}
    totals = {}
    for req in timed + check:
        totals[req.p["point"]] = totals.get(req.p["point"], 0) + req.p["samples"]
    assert totals == pooled
    assert all(1 < r.p["samples"] <= W.MC_CHECK_CHUNK and r.p["threads"] == 1 for r in check)


def test_every_request_has_a_reference():
    refs = W.load_references()
    for req in W.exact_grid_requests(0):
        p = req.p
        assert W.exact_key(p["k"], p["n"], p["q"], p["t"], p["bc"], p["gauge_fix"]) in refs["exact"]
    assert {r.rid for r in W.cold_cli_requests(0)} == set(refs["cli"])
    assert {r.p["point"] for r in W.montecarlo_requests(0)} == set(refs["mc"])
    assert set(W.KNOWN_DEFECTS) <= set(refs["mc"])


# -- statistics -------------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(100) == pytest.approx(90.0)
    assert tail_percentile(1000) == pytest.approx(99.0)
    assert tail_percentile(112) == pytest.approx(100 * (1 - 10 / 112))
    assert tail_percentile(20) == 50.0 and tail_percentile(5) == 50.0
    for n in (20, 37, 112, 1000):
        values = list(range(1, n + 1))
        value, pct, count = tail_latency(values)
        assert count == n
        assert sum(v > value for v in values) >= 10 or pct == 50.0


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 0) == 1.0
    assert tail_latency(list(range(1, 101))) == (90, 90.0, 100)


def test_pooled_error_matches_raw_samples():
    import random

    rng = random.Random(1)
    groups_raw = [[rng.expovariate(1.0) for _ in range(n)] for n in (5, 17, 40)]
    summaries = [(statistics.fmean(g), statistics.stdev(g) / math.sqrt(len(g)), len(g)) for g in groups_raw]
    flat = [x for g in groups_raw for x in g]
    mean, se, total = pooled_mean_and_error(summaries)
    assert total == len(flat)
    assert mean == pytest.approx(statistics.fmean(flat), rel=1e-12)
    assert se == pytest.approx(statistics.stdev(flat) / math.sqrt(len(flat)), rel=1e-12)


# -- tracing ----------------------------------------------------------------


def _bindings():
    """Identity of every attribute of every rqclattice module and class."""
    seen = {}
    for mod in package_modules(rqclattice):
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    seen[(value.__qualname__, cattr)] = id(cvalue)
    return seen


def test_tracer_wraps_reimports_and_restores_everything():
    before = _bindings()
    original = rqclattice.plaquette.build_table
    original_gate = rqclattice.montecarlo.sample_haar_gate
    tracer = Tracer(rqclattice)
    with tracer:
        # one wrapper for the defining module and every re-import
        assert rqclattice.lattice.build_table is rqclattice.plaquette.build_table
        assert rqclattice.plaquette.build_table is not original
        assert rqclattice.montecarlo.sample_haar_gate is not original_gate
        assert rqclattice.sample_haar_gate is rqclattice.montecarlo.sample_haar_gate
        assert rqclattice.lattice.wg_gram is rqclattice.weingarten.wg_gram
        rqclattice.frame_potential_transfer(rqclattice.build_geometry(4, 2, 2), 2)
        rqclattice.weingarten.wg_gram(2, 4)
    assert _bindings() == before
    assert tracer.calls("plaquette.build_table") == 1
    assert tracer.calls("lattice.frame_potential_transfer") == 1
    assert tracer.calls("weingarten.wg_gram") == 1
    assert tracer.calls("exact.RationalFunction.evaluate") > 0


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer(rqclattice):
            rqclattice.build_geometry(1, 2, 2)
    assert _bindings() == before


def test_self_time_excludes_children():
    geom = rqclattice.build_geometry(6, 3, 3)
    recorder = TraceRecorder(rqclattice)
    with recorder:
        rqclattice.frame_potential_transfer(geom, 2)
    stats = recorder.tracer.stats
    name = "lattice.frame_potential_transfer[exact]"
    calls, inclusive, self_time = stats[name]
    assert calls == 1 and 0 < self_time < inclusive
    # every other span ran inside this call: the self times partition its duration
    others = sum(v[2] for k, v in stats.items() if k != name)
    assert self_time + others == pytest.approx(inclusive, rel=1e-6)
    assert recorder.tracer.group_s["lattice.transfer_exact_s"] == pytest.approx(inclusive)
    assert recorder.evaluate_calls > 0 and recorder.readout()["evaluate_distinct"] <= recorder.evaluate_calls


# -- correctness gate -------------------------------------------------------


def _exact_grid(seed=0):
    wl = W.ExactGrid(seed)
    wl.ks = (2,)
    wl.setup()
    return wl


@pytest.mark.parametrize("backend, error", [("exact", Fraction(1, 10**30)), ("float", Fraction(1, 10**6))])
def test_wrong_reference_counts_in_fail_frac(backend, error):
    wl = _exact_grid()
    req = next(r for r in wl.requests if r.p["backend"] == backend and r.p["k"] == 2 and r.p["n"] == 4)
    p = req.p
    key = W.exact_key(p["k"], p["n"], p["q"], p["t"], p["bc"], p["gauge_fix"])
    loop = run.Loop(wl)
    loop.one(req)
    assert loop.checks.failed == 0 and loop.checks.fail_frac == 0.0
    wl.refs[key] *= 1 + error
    loop.one(req)
    assert loop.checks.attempted == 2 and loop.checks.failed == 1
    assert loop.checks.fail_frac == 0.5 and loop.checks.unexpected_failed == 1


def test_raising_request_counts_as_failed_operation():
    wl = _exact_grid()
    loop = run.Loop(wl)
    bad = W._request("bad", "transfer", backend="exact", k=2, n=1, q=2, t=2, bc="open", gauge_fix=False)
    loop.one(bad)
    assert loop.ops == 1 and loop.ops_failed == 1 and loop.checks.unexpected_failed == 1


def test_known_defect_counts_in_fail_frac_but_not_as_unexpected():
    checks = W.Checks()
    point = next(iter(W.KNOWN_DEFECTS))
    checks.check(False, point, known_defect=W.KNOWN_DEFECTS[point])
    checks.check(True, "other")
    assert checks.fail_frac == 0.5 and checks.unexpected_failed == 0


def test_same_result_tolerates_float_rounding_only():
    assert W.same_result({"a": 1.0, "b": "x"}, {"a": 1.0 + 1e-13, "b": "x"})
    assert not W.same_result({"a": 1.0}, {"a": 1.001})
    assert not W.same_result({"a": "1/2"}, {"a": "1/3"})
    assert not W.same_result({"a": 1}, {"a": 1, "b": 2})
    rows = [{"k": "1"}] * 3
    assert W.same_result({"sha256": W.digest(rows), "rows": 3}, rows)
    assert not W.same_result({"sha256": W.digest(rows), "rows": 3}, rows[:2])


def test_module_objects_are_not_wrapped():
    with Tracer(rqclattice):
        assert isinstance(rqclattice.bounds, types.ModuleType)
