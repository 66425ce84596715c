import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import rqclattice.lattice as lattice
from rqclattice.characters import partitions
from rqclattice.errors import BudgetExceededError, PoleError
from rqclattice.lattice import (
    _plan,
    build_geometry,
    frame_potential_direct,
    frame_potential_special,
    frame_potential_transfer,
    _frame_potential_bruteforce,
)
from rqclattice.perms import MOMENT_CAP, haar_frame_potential
from rqclattice.weingarten import wg_symbolic


class TestGeometry:
    def test_n4_t2_open(self):
        g = build_geometry(4, 2, 2, "open")
        assert [[gate.qudits for gate in layer] for layer in g.layers] == [
            [(1, 2), (3, 4)],
            [(2, 3)],
        ]

    def test_n4_t2_periodic(self):
        g = build_geometry(4, 2, 2, "periodic")
        assert [[gate.qudits for gate in layer] for layer in g.layers] == [
            [(1, 2), (3, 4)],
            [(2, 3), (4, 1)],
        ]

    def test_n5_t3_open(self):
        g = build_geometry(5, 2, 3, "open")
        assert [[gate.qudits for gate in layer] for layer in g.layers] == [
            [(1, 2), (3, 4)],
            [(2, 3), (4, 5)],
            [(1, 2), (3, 4)],
            [(2, 3), (4, 5)],
        ]

    def test_depth_is_2t_minus_2(self):
        for t in (2, 3, 5):
            assert len(build_geometry(6, 2, t).layers) == 2 * (t - 1)

    def test_every_leg_consumed_once(self):
        for bc in ("open", "periodic"):
            g = build_geometry(6, 2, 3, bc)
            # each gate emits two legs and absorbs exactly two
            absorbed = {}
            for src, qudit, dst in g.legs:
                absorbed[dst] = absorbed.get(dst, 0) + 1
            assert len(g.legs) == 2 * g.n_gates
            assert all(count == 2 for count in absorbed.values())
            assert set(absorbed) == set(range(g.n_gates))

    def test_each_leg_goes_to_the_next_gate_on_its_qudit(self):
        # the consumer acts on the qudit, and no gate of a layer strictly
        # between source and consumer (counted cyclically) touches it
        for bc in ("open", "periodic"):
            for n in range(2, 14):
                for t in range(0, 6):
                    g = build_geometry(n, 2, t, bc)
                    depth = len(g.layers)
                    for src, qudit, dst in g.legs:
                        source, consumer = g.gates[src], g.gates[dst]
                        assert qudit in source.qudits and qudit in consumer.qudits
                        gap = (consumer.layer - source.layer) % depth or depth
                        for step in range(1, gap):
                            layer = g.layers[(source.layer + step) % depth]
                            assert all(qudit not in h.qudits for h in layer)

    def test_open_boundary_skips_layers(self):
        # qudit 1 of n=4 is idle on odd layers; its leg must skip to the next even layer
        g = build_geometry(4, 2, 3, "open")
        legs = {(src, qudit): dst for src, qudit, dst in g.legs}
        gate_a0 = g.layers[0][0]  # (1,2) at layer 0
        gate_a2 = g.layers[2][0]  # (1,2) at layer 2
        assert legs[(gate_a0.gid, 1)] == gate_a2.gid

    def test_json_round_trip(self):
        g = build_geometry(5, 3, 2, "open")
        blob = json.loads(json.dumps(g.to_json_dict()))
        assert blob["layers"] == [[[1, 2], [3, 4]], [[2, 3], [4, 5]]]
        assert blob["q"] == 3

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_geometry(1, 2, 2)
        with pytest.raises(ValueError):
            build_geometry(4, 1, 2)
        with pytest.raises(ValueError):
            build_geometry(4, 2, -1)
        with pytest.raises(ValueError):
            build_geometry(4, 2, 2, "twisted")


class TestSpecialValues:
    def test_t0(self):
        assert frame_potential_special(4, 2, 0, 2) == 2**16
        assert frame_potential_special(3, 3, 0, 1) == 3**6

    def test_t1(self):
        assert frame_potential_special(6, 2, 1, 2) == 8
        assert frame_potential_special(4, 3, 1, 3) == 36
        assert frame_potential_special(5, 2, 1, 2) == 4  # floor(n/2) gates

    def test_t1_requires_k_at_most_q_squared(self):
        with pytest.raises(ValueError):
            frame_potential_special(4, 2, 1, 5)

    def test_evaluators_delegate(self):
        g = build_geometry(4, 2, 1, "open")
        assert frame_potential_transfer(g, 2).value == 4
        assert frame_potential_direct(g, 2).value == 4
        g0 = build_geometry(4, 2, 0, "open")
        assert frame_potential_transfer(g0, 2).value == 65536


class TestHandAnchors:
    """n=4, t=2, k=2, q=2 contractions worked out by hand from the k=2 rules."""

    def test_open_is_66_over_25(self):
        g = build_geometry(4, 2, 2, "open")
        expected = Fraction(66, 25)  # 2 + 4 (q/(q^2+1))^2 at q=2
        assert _frame_potential_bruteforce(g, 2) == expected
        assert frame_potential_direct(g, 2).value == expected
        assert frame_potential_transfer(g, 2).value == expected

    def test_periodic_is_1314_over_625(self):
        g = build_geometry(4, 2, 2, "periodic")
        expected = Fraction(1314, 625)  # 2 + 4 (q/(q^2+1))^4 at q=2
        assert _frame_potential_bruteforce(g, 2) == expected
        assert frame_potential_direct(g, 2).value == expected
        assert frame_potential_transfer(g, 2).value == expected


class TestOracleStack:
    @pytest.mark.parametrize(
        "n,t,k,q,bc",
        [
            (4, 2, 2, 2, "open"),
            (4, 2, 2, 3, "periodic"),
            (4, 3, 2, 2, "open"),
            (4, 2, 3, 2, "open"),
            (5, 2, 2, 2, "periodic"),
            (2, 3, 2, 2, "periodic"),
        ],
    )
    def test_bruteforce_direct_transfer_agree(self, n, t, k, q, bc):
        g = build_geometry(n, q, t, bc)
        bf = _frame_potential_bruteforce(g, k)
        assert frame_potential_direct(g, k).value == bf
        assert frame_potential_transfer(g, k).value == bf

    def test_per_gate_closure(self):
        # single-gate chain with self-wrapped legs contracts to k!
        for k in (1, 2, 3):
            for q in (2, 3):
                g = build_geometry(2, q, 3, "open")
                assert frame_potential_direct(g, k).value == math.factorial(k)
                assert frame_potential_transfer(g, k).value == math.factorial(k)

    def test_k1_always_one(self):
        for n, t, bc in ((4, 2, "open"), (5, 3, "open"), (6, 2, "periodic")):
            g = build_geometry(n, 2, t, bc)
            assert frame_potential_direct(g, 1).value == 1
            assert frame_potential_transfer(g, 1).value == 1

    def test_haar_floor(self):
        for n, t, k in ((4, 3, 2), (5, 2, 3), (6, 4, 2)):
            g = build_geometry(n, 2, t, "open")
            assert frame_potential_transfer(g, k).value >= math.factorial(k)

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    def test_routes_agree_at_large_q(self, bc):
        # q^(2nk) and the scaled weights overflow int64 long before q = 1000
        g = build_geometry(4, 1000, 2, bc)
        assert frame_potential_direct(g, 3).value == frame_potential_transfer(g, 3).value

    def test_gauge_fix_matches_unfixed(self):
        for bc in ("open", "periodic"):
            g = build_geometry(5, 2, 3, bc)
            assert (
                frame_potential_transfer(g, 3, gauge_fix=True).value
                == frame_potential_transfer(g, 3).value
            )
            assert (
                frame_potential_direct(g, 3, gauge_fix=True).value
                == frame_potential_direct(g, 3).value
            )


class TestFloatBackend:
    @pytest.mark.parametrize(
        "n,t,k,bc",
        [(4, 2, 2, "open"), (4, 3, 2, "periodic"), (5, 3, 3, "open"), (8, 4, 2, "open")],
    )
    def test_float_matches_exact_to_1e10(self, n, t, k, bc):
        g = build_geometry(n, 2, t, bc)
        exact = float(frame_potential_transfer(g, k).value)
        approx = frame_potential_transfer(g, k, backend="float").value
        assert abs(approx - exact) / exact < 1e-10

    def test_large_t_haar_approach(self):
        # exact excess at t=12 is 7.2e-6 (wall entropy 2 per period); the float
        # backend must match the exact value, and by t=14 the excess is < 1e-6
        g12 = build_geometry(4, 2, 12, "open")
        exact12 = frame_potential_transfer(g12, 2).value
        fl12 = frame_potential_transfer(g12, 2, backend="float").value
        assert abs(fl12 - float(exact12)) / float(exact12) < 1e-9
        assert Fraction(0) < exact12 - 2 < Fraction(1, 100000)
        g14 = build_geometry(4, 2, 14, "open")
        assert 0 < frame_potential_transfer(g14, 2, backend="float").value - 2 < 1e-6

    def test_bad_backend(self):
        g = build_geometry(4, 2, 2)
        with pytest.raises(ValueError):
            frame_potential_transfer(g, 2, backend="quad")


class TestDecayStructure:
    def test_monotone_decrease_toward_haar(self):
        # empirical check: exact F(t) decreasing toward k! (reported, then asserted
        # on this tested range where it is exact)
        values = []
        for t in range(2, 8):
            g = build_geometry(4, 2, t, "open")
            values.append(frame_potential_transfer(g, 2).value)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 2

    def test_periodic_walls_come_in_pairs(self):
        # periodic spatial chains forbid odd wall numbers: the excess decays about
        # twice as fast (in log slope over t) as for open boundaries
        import math as m

        open_excess, per_excess = [], []
        for t in range(3, 7):
            open_excess.append(
                float(frame_potential_transfer(build_geometry(6, 2, t, "open"), 2).value) - 2
            )
            per_excess.append(
                float(frame_potential_transfer(build_geometry(6, 2, t, "periodic"), 2).value) - 2
            )
        slope_open = (m.log(open_excess[-1]) - m.log(open_excess[0])) / 3
        slope_per = (m.log(per_excess[-1]) - m.log(per_excess[0])) / 3
        ratio = slope_per / slope_open
        assert 1.7 < ratio < 2.3


class TestGuards:
    def test_budget_guard_direct(self):
        g = build_geometry(6, 2, 3, "periodic")
        with pytest.raises(BudgetExceededError):
            frame_potential_direct(g, 3, state_budget=1000)

    def test_budget_guard_transfer(self):
        g = build_geometry(10, 2, 4, "periodic")
        with pytest.raises(BudgetExceededError):
            frame_potential_transfer(g, 3, state_budget=1000)

    def test_budget_checked_before_weight_tables(self, monkeypatch):
        import rqclattice.lattice as lattice

        def no_tables(*args):
            raise AssertionError("weight table built before the budget check")

        monkeypatch.setattr(lattice, "_wg_values_at", no_tables)
        monkeypatch.setattr(lattice, "build_table", no_tables)
        g = build_geometry(6, 2, 3, "periodic")
        with pytest.raises(BudgetExceededError):
            frame_potential_direct(g, 3, state_budget=1000)
        for backend in ("exact", "float"):
            with pytest.raises(BudgetExceededError):
                frame_potential_transfer(g, 3, backend=backend, state_budget=1000)

    def test_each_distinct_plaquette_weight_evaluated_once(self, monkeypatch):
        from rqclattice.exact import RationalFunction
        from rqclattice.plaquette import build_table

        g = build_geometry(4, 2, 2, "open")
        frame_potential_transfer(g, 5, gauge_fix=True)  # warm tables
        calls = []
        evaluate = RationalFunction.evaluate

        def counting(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(RationalFunction, "evaluate", counting)
        frame_potential_transfer(g, 5, gauge_fix=True)
        assert 0 < len(calls) <= len(build_table(5)._weights)

    def test_budget_message_omits_gauge_fix_when_pinning_cannot_help(self):
        # the open n=8, t=3 peak of 24^5 states stays with or without the pin
        g = build_geometry(8, 2, 3, "open")
        for gauge_fix in (False, True):
            with pytest.raises(BudgetExceededError) as exc:
                frame_potential_transfer(g, 4, gauge_fix=gauge_fix)
            assert "reach 7962624 >" in str(exc.value)
            assert "gauge_fix" not in str(exc.value)

    def test_budget_message_suggests_gauge_fix_when_the_pin_fits(self):
        # a k=3 ring at t=3 needs 6^9 states unfixed and 6^8 pinned
        g = build_geometry(8, 2, 3, "periodic")
        with pytest.raises(BudgetExceededError, match="or use gauge_fix"):
            frame_potential_transfer(g, 3)
        fixed = frame_potential_transfer(g, 3, gauge_fix=True)
        assert fixed.gauge_fixed and fixed.value > math.factorial(3)

    def test_bruteforce_budget(self):
        g = build_geometry(6, 2, 3, "open")
        with pytest.raises(BudgetExceededError):
            _frame_potential_bruteforce(g, 3)

    def test_moment_cap(self):
        g = build_geometry(4, 2, 2)
        with pytest.raises(BudgetExceededError):
            frame_potential_transfer(g, 7)

    def test_pole_surfaced_for_k_above_q_squared(self):
        # for d = q^2 < k the Gram system is singular, and for every such
        # (k, q) within the moment cap the unrestricted Weingarten function has
        # a pole at d, so the direct route raises PoleError without trying it,
        # ahead of any budget verdict
        cases = [(k, q) for q in range(2, MOMENT_CAP) for k in range(q * q + 1, MOMENT_CAP + 1)]
        assert cases == [(5, 2), (6, 2)]
        for k, q in cases:
            poles = []
            for ct in partitions(k):
                try:
                    wg_symbolic(ct, k).evaluate(q * q)
                except PoleError:
                    poles.append(ct)
            assert poles, (k, q)
            g = build_geometry(4, q, 2, "open")
            with pytest.raises(PoleError):
                frame_potential_direct(g, k, state_budget=0)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: at k > q^2 the transfer route uses the unrestricted "
        "plaquette weights and gives 120",
    )
    def test_transfer_matches_haar_for_k_above_q_squared(self):
        # one gate on U(4): the frame potential of a Haar unitary
        g = build_geometry(2, 2, 2)
        assert frame_potential_transfer(g, 5).value == haar_frame_potential(5, 4) == 119


class TestResultMetadata:
    def test_fields(self):
        g = build_geometry(4, 3, 2, "periodic")
        res = frame_potential_transfer(g, 2, backend="float")
        assert (res.n, res.q, res.t, res.spatial_bc) == (4, 3, 2, "periodic")
        assert res.method == "transfer"
        assert res.backend == "float"
        assert isinstance(res.value, float)
        exact = frame_potential_direct(g, 2)
        assert isinstance(exact.value, Fraction)
        assert exact.method == "direct"


def _criterion_06_grid():
    """(n, t, k, q, bc) of acceptance criterion 06."""
    return itertools.product((4, 5, 6), (2, 3), (2, 3), (2, 3), ("open", "periodic"))


class TestPlanner:
    """The planner picks the cheaper of the layer-major and column-major orders."""

    @pytest.fixture
    def plans(self, monkeypatch):
        """Record every plan the routes look up, also when over budget."""
        seen = []
        planned = lattice._planned

        def recording(*args):
            seen.append(planned(*args))
            return seen[-1]

        monkeypatch.setattr(lattice, "_planned", recording)
        return seen

    @pytest.mark.parametrize(
        "n,t,bc,order,peak",
        [
            # open chains keep about 2t - 1 spins live column by column
            (8, 3, "open", "column-major", 5),
            (18, 3, "open", "column-major", 5),
            (1024, 4, "open", "column-major", 7),
            (12, 3, "periodic", "column-major", 9),
            # a short ring at long t keeps fewer layer by layer
            (12, 5, "periodic", "layer-major", 14),
            (6, 3, "periodic", "layer-major", 8),
        ],
    )
    def test_budget_message_names_order_step_and_states(self, plans, n, t, bc, order, peak):
        geom = build_geometry(n, 2, t, bc)
        with pytest.raises(BudgetExceededError) as exc:
            frame_potential_transfer(geom, 3, state_budget=5)
        assert (plans[-1].order, plans[-1].peak) == (order, peak)
        step = plans[-1].live.index(1)  # the first state of 6 > 5 entries
        assert f"reach 6 > budget 5 at step {step} of the {order} order" in str(exc.value)

    def test_plan_memoized_per_shape_budget_checked_per_call(self, plans):
        # the scopes depend on neither q, k nor the backend
        for q, k, backend in ((2, 2, "exact"), (3, 3, "float"), (5, 2, "exact")):
            frame_potential_transfer(build_geometry(10, q, 3, "open"), k, backend=backend)
        assert plans[0] is plans[1] is plans[2]
        with pytest.raises(BudgetExceededError):
            frame_potential_transfer(build_geometry(10, 2, 3, "open"), 3, state_budget=6**4)
        assert plans[3] is plans[0]

    def test_n8_t3_k3_fits_default_budget(self, plans):
        geom = build_geometry(8, 2, 3, "open")
        value = frame_potential_transfer(geom, 3).value
        assert plans[-1].peak == 5 and 6**5 <= lattice.DEFAULT_STATE_BUDGET
        assert value == frame_potential_direct(geom, 3, gauge_fix=True).value

    def test_n64_t4_k2_exact_within_default_budget(self, plans):
        geom = build_geometry(64, 2, 4)
        exact = frame_potential_transfer(geom, 2).value
        assert plans[-1].order == "column-major"
        assert 2 ** plans[-1].peak <= lattice.DEFAULT_STATE_BUDGET
        assert exact > 2
        assert frame_potential_transfer(geom, 2, backend="float").value == pytest.approx(
            float(exact), rel=1e-12
        )

    @pytest.mark.parametrize(
        "n,t,k,bc",
        [(8, 3, 3, "open"), (18, 3, 2, "open"), (12, 5, 2, "open"), (12, 3, 2, "periodic")],
    )
    def test_float_matches_exact_to_1e12(self, plans, n, t, k, bc):
        geom = build_geometry(n, 2, t, bc)
        exact = float(frame_potential_transfer(geom, k).value)
        approx = frame_potential_transfer(geom, k, backend="float").value
        assert plans[-1].order == "column-major"
        assert abs(approx - exact) / exact < 1e-12

    def test_exact_equals_forced_layer_major(self, plans, monkeypatch):
        """Criterion 06 grid, both routes, both boundaries, gauge on and off."""
        routes = (frame_potential_direct, frame_potential_transfer)
        cases = []
        for n, t, k, q, bc in _criterion_06_grid():
            geom = build_geometry(n, q, t, bc)
            for route, gauge_fix in itertools.product(routes, (False, True)):
                with pytest.raises(BudgetExceededError):
                    route(geom, k, gauge_fix=gauge_fix, state_budget=0)
                # a layer-major winner would run the same plan twice
                if plans[-1].order == "column-major":
                    cases.append((route, geom, k, gauge_fix))
        assert {route for route, *_ in cases} == set(routes) and len(cases) > 50

        got = [route(geom, k, gauge_fix=gf).value for route, geom, k, gf in cases]

        def layer_major_only(n_vars, factors, candidates, *rest):
            return _plan(n_vars, factors, {"layer-major": candidates["layer-major"]}, *rest)

        monkeypatch.setattr(lattice, "_plan", layer_major_only)
        for (route, geom, k, gauge_fix), value in zip(cases, got):
            assert route(geom, k, gauge_fix=gauge_fix).value == value, (
                route.__name__, geom.n, geom.t, k, geom.q, geom.spatial_bc, gauge_fix
            )

    def test_largest_state_is_k_factorial_to_the_peak(self, plans, monkeypatch):
        """The sweep's largest state has (k!)^peak entries; the gauge axis has size 1."""
        repeats = []
        repeat = np.repeat

        def recording(state, size, axis):
            repeats.append((size, state.size * size))
            return repeat(state, size, axis=axis)

        monkeypatch.setattr(np, "repeat", recording)
        # q moves no state size
        shapes = {(n, t, bc, k) for n, t, k, _, bc in _criterion_06_grid()}
        shapes |= {(n, t, "periodic", 2) for n, t in ((8, 3), (10, 3), (12, 3), (12, 5))}
        for n, t, bc, k in sorted(shapes):
            geom = build_geometry(n, 2, t, bc)
            for route, gauge_fix in itertools.product(
                (frame_potential_direct, frame_potential_transfer), (False, True)
            ):
                del repeats[:]
                route(geom, k, gauge_fix=gauge_fix)
                plan = plans[-1]
                assert len(repeats) == len(plan.steps)
                assert max(size for _, size in repeats) == math.factorial(k) ** plan.peak
                gauge = [s for s, (size, _) in enumerate(repeats) if size == 1]
                assert gauge == ([plan.gauge_var] if gauge_fix else [])
