import dataclasses
import hashlib
import itertools
import json
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

import rqclattice.lattice as lattice
import rqclattice.weingarten as weingarten
from rqclattice.characters import partitions
from rqclattice.errors import BudgetExceededError, PoleError
from rqclattice.lattice import (
    CircuitGeometry,
    build_geometry,
    frame_potential_direct,
    frame_potential_special,
    frame_potential_transfer,
    _frame_potential_bruteforce,
)
from rqclattice.perms import MOMENT_CAP, group_table, haar_frame_potential
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

    def test_shapes_share_one_immutable_layout(self):
        a, b = build_geometry(6, 2, 3, "periodic"), build_geometry(6, 3, 3, "periodic")
        assert (a.q, b.q) == (2, 3)
        for name in ("layers", "gates", "legs"):
            assert getattr(a, name) is getattr(b, name)
            assert type(getattr(a, name)) is tuple
        assert all(type(layer) is tuple for layer in a.layers)
        assert all(type(leg) is tuple for leg in a.legs)
        assert build_geometry(6, 2, 3, "open").legs is not a.legs

    def test_bad_inputs(self):
        # a geometry built directly is checked as build_geometry checks it
        for make in (build_geometry, CircuitGeometry):
            with pytest.raises(ValueError):
                make(1, 2, 2, "open")
            with pytest.raises(ValueError):
                make(4, 1, 2, "open")
            with pytest.raises(ValueError):
                make(4, 2, -1, "open")
            with pytest.raises(ValueError):
                make(4, 2, 2, "twisted")

    def test_geometry_is_its_frozen_hashable_shape(self):
        g = build_geometry(6, 2, 3, "periodic")
        assert [f.name for f in dataclasses.fields(g)] == ["n", "q", "t", "spatial_bc"]
        same, other_q = CircuitGeometry(6, 2, 3, "periodic"), build_geometry(6, 3, 3, "periodic")
        assert g == same and hash(g) == hash(same) and g != other_q
        assert len({g, same, other_q}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 8
        with pytest.raises(ValueError):
            dataclasses.replace(g, q=1)


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

    @pytest.mark.parametrize("backend, kind", [("exact", Fraction), ("float", float)])
    def test_transfer_special_result_in_its_ring(self, backend, kind):
        res = frame_potential_transfer(build_geometry(4, 2, 1, "open"), 2, backend=backend)
        assert (type(res.value), res.value, res.backend, res.method) == (kind, 4, backend, "special")
        if backend == "exact":  # the direct route is exact only
            for t, expected in ((0, 65536), (1, 4)):
                res = frame_potential_direct(build_geometry(4, 2, t, "open"), 2)
                assert (type(res.value), res.value, res.backend, res.method, res.gauge_fixed) == (
                    kind, expected, backend, "special", False
                )

    def test_float_special_past_the_largest_double_is_infinite(self):
        # (6!)^500 has 1429 digits: the float ring gives inf, the exact one the integer
        geom = build_geometry(1000, 3, 1, "open")
        assert frame_potential_transfer(geom, 6, backend="float").value == math.inf
        assert frame_potential_transfer(geom, 6).value == math.factorial(6) ** 500


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
        # q^(2nk) overflows int64 long before q = 1000, so the sweep leaves
        # int64 within its first steps
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

    # sha256 prefixes of float.hex over every entry of the float plaquette table
    # at q, frozen from the Fraction-coefficient evaluation
    @pytest.mark.parametrize("k, q, digest", [
        (1, 2, "fd60998e44d3feb9"), (1, 3, "fd60998e44d3feb9"),
        (2, 2, "7147269bdafe5c91"), (2, 3, "62c8dbe793d2a9d5"),
        (2, 5, "a746fc42bc6db794"), (2, 1000, "62ea662c1791fb97"),
        (3, 2, "2769f39cab00455d"), (3, 3, "b79e826d985224ab"),
        (3, 5, "8374839cccef7c1e"), (3, 1000, "9348bf5a88e10e94"),
        (4, 2, "5adc5490dd4ff809"), (4, 3, "d3f7ce3b8f0b1aab"),
        (4, 5, "48ea40a8a95c2de7"), (4, 1000, "c2b032e0f9a6e626"),
        (5, 2, "11d8d8e416124b3e"), (5, 3, "e00f60065150b226"),
        (5, 5, "9e84cf1e36d210d0"), (5, 1000, "c5c1c04f8a2b528c"),
    ])
    def test_float_table_bits_pinned(self, k, q, digest):
        (table,), _, _ = lattice._plaquette_table(k, q, "float")
        text = ",".join(float.hex(float(x)) for x in table.ravel())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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
    def test_budget_guard_direct(self, monkeypatch):
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "1000")
        g = build_geometry(6, 2, 3, "periodic")
        with pytest.raises(BudgetExceededError):
            frame_potential_direct(g, 3)

    def test_budget_guard_transfer(self, monkeypatch):
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "1000")
        g = build_geometry(10, 2, 4, "periodic")
        with pytest.raises(BudgetExceededError):
            frame_potential_transfer(g, 3)

    def test_budget_checked_before_weight_tables(self, monkeypatch):
        import rqclattice.lattice as lattice

        def no_tables(*args):
            raise AssertionError("weight table built before the budget check")

        # the tables at q are memoized, so the memos and the builders behind them
        monkeypatch.setattr(lattice, "_gram_tables", no_tables)
        monkeypatch.setattr(lattice, "_plaquette_table", no_tables)
        monkeypatch.setattr(lattice, "build_table", no_tables)
        monkeypatch.setattr(lattice, "wg_gram", no_tables)
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "1000")
        g = build_geometry(6, 2, 3, "periodic")
        with pytest.raises(BudgetExceededError):
            frame_potential_direct(g, 3)
        for backend in ("exact", "float"):
            with pytest.raises(BudgetExceededError):
                frame_potential_transfer(g, 3, backend=backend)

    def test_all_states_together_within_1024_budgets(self, monkeypatch):
        """The transfer plan of k=2, n=2, t=1100 holds 4391 entries over its
        1099 steps with a peak of 4: a budget of 4 admits the peak and refuses
        the total, one of 5 admits both."""
        g = build_geometry(2, 2, 1100, "open")
        value = frame_potential_transfer(g, 2).value
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "4")
        with pytest.raises(BudgetExceededError, match="hold 4391 entries over 1099 steps > 1024 x budget 4"):
            frame_potential_transfer(g, 2)
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "5")
        assert frame_potential_transfer(g, 2).value == value

    def test_long_chain_refused_before_weight_tables(self, monkeypatch):
        """k=6 on a 2-qudit chain at t=65537, the gate cap: every state fits
        the default budget, but all of them together hold 6.8e10 entries
        (direct) and 3.4e10 (transfer).  Both exact routes refuse it after
        planning and before any table is looked up; the state budget raises
        this check too."""

        def no_tables(*args):
            raise AssertionError("weight table looked up")

        monkeypatch.setattr(lattice, "_gram_tables", no_tables)
        monkeypatch.setattr(lattice, "_plaquette_table", no_tables)
        g = build_geometry(2, 3, 65537, "open")
        try:
            for route, entries in ((frame_potential_direct, 67946688721), (frame_potential_transfer, 33972826321)):
                with pytest.raises(BudgetExceededError) as exc:
                    route(g, 6)
                assert f"hold {entries} entries" in str(exc.value)
                assert lattice.STATE_BUDGET_ENV in str(exc.value)
            monkeypatch.setenv(lattice.STATE_BUDGET_ENV, str(-(-entries // 1024)))
            with pytest.raises(AssertionError, match="weight table looked up"):
                frame_potential_transfer(g, 6)
        finally:  # the two plans hold about 70 MB
            lattice._shape_plan.cache_clear()

    def test_each_distinct_plaquette_weight_evaluated_once(self, monkeypatch):
        # once per (k, q), however many requests use it
        from rqclattice.exact import RationalFunction
        from rqclattice.plaquette import build_table

        g = build_geometry(4, 2, 2, "open")
        frame_potential_transfer(g, 5)  # warm tables
        lattice._plaquette_table.cache_clear()
        calls = []
        evaluate = RationalFunction.evaluate

        def counting(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(RationalFunction, "evaluate", counting)
        first = frame_potential_transfer(g, 5).value
        assert 0 < len(calls) <= len(build_table(5)._weights)
        evaluated = len(calls)
        assert frame_potential_transfer(build_geometry(5, 2, 2, "open"), 5).value
        assert frame_potential_transfer(g, 5).value == first
        assert len(calls) == evaluated

    def test_gram_solved_once_per_k_and_q(self, monkeypatch):
        # the direct route's tables are memoized per (k, q), whatever the shape
        calls = []
        gram = weingarten.wg_gram

        def counting(k, d):
            calls.append((k, d))
            return gram(k, d)

        monkeypatch.setattr(lattice, "wg_gram", counting)
        lattice._gram_tables.cache_clear()
        shapes = [(4, 2, "open"), (5, 3, "periodic"), (4, 2, "open"), (6, 2, "open")]
        values = [frame_potential_direct(build_geometry(n, 2, t, bc), 3).value for n, t, bc in shapes]
        assert calls == [(3, 4)]
        assert values[0] == values[2]
        frame_potential_direct(build_geometry(4, 3, 2, "open"), 3)
        frame_potential_direct(build_geometry(4, 3, 3, "periodic"), 3)
        assert calls == [(3, 4), (3, 9)]

    def test_budget_message_omits_gauge_fix_when_pinning_cannot_help(self):
        # the open n=8, t=4 chain passes 24^5 states on its way to a pinned
        # peak of 24^6
        g = build_geometry(8, 2, 4, "open")
        for gauge_fix in (False, True):
            with pytest.raises(BudgetExceededError) as exc:
                frame_potential_transfer(g, 4, gauge_fix=gauge_fix)
            assert "reach 7962624 >" in str(exc.value)
            assert "gauge_fix" not in str(exc.value)

    def test_k3_ring_n8_t3_fits_default_budget(self):
        # 6^9 states unpinned, 6^8 pinned
        g = build_geometry(8, 2, 3, "periodic")
        res = frame_potential_transfer(g, 3)
        assert res.gauge_fixed and res.value > math.factorial(3)
        approx = frame_potential_transfer(g, 3, backend="float").value
        assert approx == pytest.approx(float(res.value), rel=1e-12)

    def test_bruteforce_budget(self):
        g = build_geometry(6, 2, 3, "open")
        with pytest.raises(BudgetExceededError):
            _frame_potential_bruteforce(g, 3)

    def test_moment_cap(self):
        g = build_geometry(4, 2, 2)
        with pytest.raises(BudgetExceededError):
            frame_potential_transfer(g, 7)

    def test_pole_surfaced_for_k_above_q_squared(self, monkeypatch):
        # for d = q^2 < k the Gram system is singular, and for every such
        # (k, q) within the moment cap the unrestricted Weingarten function has
        # a pole at d, so the direct route raises PoleError without trying it,
        # ahead of any budget verdict
        cases = [(k, q) for q in range(2, MOMENT_CAP) for k in range(q * q + 1, MOMENT_CAP + 1)]
        assert cases == [(5, 2), (6, 2)]
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "0")
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
                frame_potential_direct(g, k)

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
        shape_plan = lattice._shape_plan

        def recording(*args):
            seen.append(shape_plan(*args))
            return seen[-1]

        monkeypatch.setattr(lattice, "_shape_plan", recording)
        return seen

    @pytest.mark.parametrize(
        "n,t,bc,order,peak",
        [
            # open chains keep about 2t - 1 spins live column by column, one
            # of them pinned
            (8, 3, "open", "column-major", 4),
            (18, 3, "open", "column-major", 4),
            (1024, 4, "open", "column-major", 6),
            (12, 3, "periodic", "column-major", 8),
            # a short ring at long t keeps fewer layer by layer
            (12, 5, "periodic", "layer-major", 13),
            (6, 3, "periodic", "layer-major", 7),
        ],
    )
    def test_budget_message_names_order_step_and_states(self, plans, monkeypatch, n, t, bc, order, peak):
        monkeypatch.setenv(lattice.STATE_BUDGET_ENV, "5")
        geom = build_geometry(n, 2, t, bc)
        with pytest.raises(BudgetExceededError) as exc:
            frame_potential_transfer(geom, 3)
        assert (plans[-1].order, plans[-1].peak) == (order, peak)
        step = plans[-1].live.index(1)  # the first state of 6 > 5 entries
        assert f"reach 6 > budget 5 at step {step} of the {order} order" in str(exc.value)

    def test_plan_memoized_per_shape_budget_checked_per_call(self, plans, monkeypatch):
        # the scopes depend on neither q, k nor the backend
        for q, k, backend in ((2, 2, "exact"), (3, 3, "float"), (5, 2, "exact")):
            frame_potential_transfer(build_geometry(10, q, 3, "open"), k, backend=backend)
        assert plans[0] is plans[1] is plans[2]
        with monkeypatch.context() as m, pytest.raises(BudgetExceededError):
            m.setenv(lattice.STATE_BUDGET_ENV, str(6**3))
            frame_potential_transfer(build_geometry(10, 2, 3, "open"), 3)
        assert plans[3] is plans[0]
        # the other route on the same shapes has one plan of its own
        for q in (2, 3):
            frame_potential_direct(build_geometry(10, q, 3, "open"), 2)
        assert plans[4] is plans[5] is not plans[0]
        assert len(plans[4].steps) == 2 * len(plans[0].steps)

    def test_n8_t3_k3_fits_default_budget(self, plans):
        geom = build_geometry(8, 2, 3, "open")
        value = frame_potential_transfer(geom, 3).value
        assert plans[-1].peak == 4 and 6**4 <= lattice.DEFAULT_STATE_BUDGET
        assert value == frame_potential_direct(geom, 3).value

    def test_exact_k4_n8_t3_open_fits_default_budget(self, plans):
        # 24^5 states unpinned, 24^4 pinned
        geom = build_geometry(8, 2, 3, "open")
        exact = frame_potential_transfer(geom, 4).value
        assert plans[-1].peak == 4
        approx = frame_potential_transfer(geom, 4, backend="float").value
        assert approx == pytest.approx(float(exact), rel=1e-12)

    def test_k3_n16_t5_open_fits_default_budgets(self, plans):
        # 6^9 states unpinned, 6^8 pinned, which the exact ring affords too;
        # its exact value, from the exact transfer route (about 10 s), is
        # written out here
        exact = Fraction(84087225168923629456206220514453519886914074466052636034557, 625 * 10**55)
        geom = build_geometry(16, 2, 5, "open")
        approx = frame_potential_transfer(geom, 3, backend="float").value
        assert plans[-1].peak == 8 and 6**8 <= lattice.DEFAULT_STATE_BUDGET
        assert approx == pytest.approx(float(exact), rel=1e-12)

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
        """Criterion 06 grid, both routes, both boundaries."""
        routes = (frame_potential_direct, frame_potential_transfer)
        cases = []
        for n, t, k, q, bc in _criterion_06_grid():
            geom = build_geometry(n, q, t, bc)
            for route in routes:
                with monkeypatch.context() as m, pytest.raises(BudgetExceededError):
                    m.setenv(lattice.STATE_BUDGET_ENV, "0")
                    route(geom, k)
                # a layer-major winner would run the same plan twice
                if plans[-1].order == "column-major":
                    cases.append((route, geom, k))
        assert {route for route, *_ in cases} == set(routes) and len(cases) > 25

        got = [route(geom, k).value for route, geom, k in cases]

        def layer_major_only(model, n, t, bc):
            n_vars, factors, candidates = model(n, t, bc)
            layer_major = tuple(c for c in candidates if c[0] == "layer-major")
            plans.append(lattice._planned(n_vars, factors, layer_major))
            return plans[-1]

        monkeypatch.setattr(lattice, "_shape_plan", layer_major_only)
        for (route, geom, k), value in zip(cases, got):
            # the plans and programs are warm, and the patch still decides
            assert route(geom, k).value == value, (
                route.__name__, geom.n, geom.t, k, geom.q, geom.spatial_bc
            )
            assert plans[-1].order == "layer-major"

    def test_largest_state_is_k_factorial_to_the_peak(self, plans, monkeypatch):
        """Each step's state has (k!)^live entries per limb, the largest
        (k!)^peak; a pinned spin enters with an axis of size 1, and a re-pin
        gathers no more than the state it starts from."""
        entered, repinned, carried = [], [], []
        program, repin, carry = lattice._program, lattice._repin, lattice._carry

        def recording(plan, k, widths):  # each step as the sweep runs it
            for step in program(plan, k, widths):
                shape, _, axis, gathers, *_ = step
                entered.append((shape[axis], shape))
                # every factor's weights span the step's spin axes at most,
                # after a limb axis of size 1
                for _, index in gathers:
                    assert np.broadcast_shapes(index.shape, (1,) + shape) == (1,) + shape
                yield step

        def recording_repin(state, slot, k):
            out = repin(state, slot, k)
            limbs = len(state)  # the leading axis
            repinned.append((state.size // limbs, out.size // limbs))
            return out

        def recording_carry(state, *args):
            carried.append(len(state))
            return carry(state, *args)

        monkeypatch.setattr(lattice, "_program", recording)
        monkeypatch.setattr(lattice, "_repin", recording_repin)
        monkeypatch.setattr(lattice, "_carry", recording_carry)
        # q moves no state size
        shapes = {(n, t, bc, k) for n, t, k, _, bc in _criterion_06_grid()}
        shapes |= {(n, t, "periodic", 2) for n, t in ((8, 3), (10, 3), (12, 3), (12, 5))}
        in_limbs = 0
        for n, t, bc, k in sorted(shapes):
            geom = build_geometry(n, 2, t, bc)
            order = math.factorial(k)
            for route in (frame_potential_direct, frame_potential_transfer):
                del entered[:], repinned[:], carried[:]
                route(geom, k)
                plan = plans[-1]
                # the program's shapes are the spin axes, alive[s] of them;
                # the limbs, one until the state splits, sit on an axis before them
                assert [len(shape) for _, shape in entered] == _alive(plan)
                in_limbs += bool(carried)
                sizes = [math.prod(shape) for _, shape in entered]
                assert sizes == [order**m for m in plan.live]
                assert max(sizes) == order**plan.peak
                assert [s for s, (size, _) in enumerate(entered) if size == 1] == [
                    s for s, (enters, _) in enumerate(plan.pins) if enters
                ]
                assert len(repinned) == sum(r is not None for _, r in plan.pins)
                assert all(new * order == old <= order**plan.peak for old, new in repinned)
        assert in_limbs  # the k=2 ring at n=12, t=5 splits into limbs


class TestCompiledShapes:
    """Layouts, plans and sweep programs are built once per shape and kept;
    a cold call gives what a warm one gives."""

    @staticmethod
    def clear_caches():
        """Clear every cache the lattice module keeps: layouts, plans,
        programs, gather indices and tables at q."""
        for obj in vars(lattice).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == lattice.__name__:
                obj.cache_clear()

    def test_cold_and_warm_calls_agree(self, caplog):
        """Criterion 06 grid on both routes and rings, and two shapes of the
        benchmark's grid whose exact sweeps split into int64 limbs."""
        runs = [
            (frame_potential_direct, {}),
            (frame_potential_transfer, {}),
            (frame_potential_transfer, {"backend": "float"}),
        ]
        cases = [((n, q, t, bc), k, run) for n, t, k, q, bc in _criterion_06_grid() for run in runs]
        cases += [((12, 2, t, "periodic"), 2, run) for t in (4, 5) for run in runs[1:]]
        rings = set()
        for shape, k, (route, kwargs) in cases:
            self.clear_caches()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="rqclattice"):
                values = [route(build_geometry(*shape), k, **kwargs).value for _ in range(3)]
            cold, *warm = values
            assert type(cold) is (float if kwargs else Fraction)
            assert warm == [cold, cold], (route.__name__, shape, k, kwargs)
            first, *again = _ring_records(caplog)
            assert again == [first, first]
            rings.add("int64 limbs" if "limbs" in first else first)
        assert rings == {"float64", "int64 throughout", "int64 limbs"}

    def test_programs_share_gather_indices_and_k5_keeps_none(self):
        """A kept program takes every index from one cache per (k, width,
        axis layout), so programs of different shapes hold the same index
        objects; a k = 5 program keeps neither itself nor its indices."""

        def indices(program):
            return {id(index): index for _, _, _, gathers, *_ in program for _, index in gathers}

        self.clear_caches()
        plans = [lattice._shape_plan(lattice._transfer_model, n, 3, "open") for n in (6, 8)]
        small, large = (lattice._program(plan, 3, (6,)) for plan in plans)
        assert lattice._program(plans[0], 3, (6,)) is small
        assert indices(small).keys() & indices(large).keys()
        kept = indices(small) | indices(large)
        assert lattice._gather_index.cache_info().currsize == len(kept)
        assert lattice._compiled.cache_info().currsize == 2

        program = lattice._program(plans[0], 5, (120,))
        assert lattice._program(plans[0], 5, (120,)) is not program
        assert len(indices(program)) < sum(len(gathers) for _, _, _, gathers, *_ in program)
        assert lattice._gather_index.cache_info().currsize == len(kept)
        assert lattice._compiled.cache_info().currsize == 2

    def test_axes_ordered_by_drop_step(self):
        """Criterion 06 grid on both routes, and the k=2 rings at n = 8..16,
        t = 3..8 within the default budget.  The plan's `drop_at` is the step
        at which its steps sum each variable out.  Placing each step's spin where
        the program inserts its axis and taking the summed axes off the front
        keeps the live variables ordered by the step that sums them out, ties
        in entry order; `key` inserts the axis there; every gather index
        broadcasts to the step's shape; and the re-pinned axis holds the
        variable that `_pin_schedule` moves the pin to."""
        shapes = {(n, t, bc, k) for n, t, k, _, bc in _criterion_06_grid()}
        shapes |= {(n, t, "periodic", 2) for n in (8, 10, 12, 16) for t in range(3, 9)}
        routes = ((lattice._transfer_model, lambda order: (order,)), (lattice._direct_model, lambda order: (1, 1)))
        checked, steps, inner, repinned = 0, 0, 0, 0
        for (n, t, bc, k), (model, widths) in itertools.product(sorted(shapes), routes):
            order = math.factorial(k)
            plan = lattice._shape_plan(model, n, t, bc)
            if order**plan.peak > lattice.DEFAULT_STATE_BUDGET:
                continue
            drop_at, slots = [], []  # the plan's slots hold variables in entry order
            for s, (_, drops) in enumerate(plan.steps):
                slots.append(s)
                drop_at.append(None)
                for i in drops:
                    drop_at[slots[i]] = s
                slots = [v for i, v in enumerate(slots) if i not in drops]
            assert plan.drop_at == tuple(drop_at)
            _, repins = lattice._pin_schedule(drop_at)
            program = lattice._program(plan, k, widths(order))
            assert len(program) == len(plan.steps)
            spins, shape = [], ()
            for s, (new_shape, key, axis, gathers, drops, terms, repin) in enumerate(program):
                spins.insert(len(spins) + 1 + axis, s)
                assert spins == sorted(spins, key=lambda v: (drop_at[v], v))
                assert new_shape[axis] == (1 if plan.pins[s][0] else order)
                assert np.empty(shape)[key].shape == new_shape[:axis] + (1,) + new_shape[len(new_shape) + axis + 1 :]
                inner += axis == -1
                for _, index in gathers:  # after a limb axis of size 1
                    assert np.broadcast_shapes(index.shape, (1,) + new_shape) == (1,) + new_shape
                # the limb axis comes first, so the d spin axes summed are 1..d
                assert drops == tuple(range(1, len(drops) + 1))
                assert {spins[i - 1] for i in drops} == {v for v in spins if drop_at[v] == s}
                assert terms == math.prod(new_shape[i - 1] for i in drops)
                spins, shape = spins[len(drops) :], new_shape[len(drops) :]
                assert (repin is not None) == (s in repins)
                if repin is not None:
                    # the pin moves to the live variable summed out last
                    assert spins[repin] == max(spins, key=drop_at.__getitem__)
                    shape = shape[:repin] + (1,) + shape[repin + 1 :]
                    repinned += 1
            checked += 1
            steps += len(program)
        # some spins enter innermost, as a view, and some before longer-lived ones
        assert checked > 60 and repinned and 0 < inner < steps

def _dense_sweep(plan, tables, k):
    """The plan's steps with every spin summed over all k! values: no pin.
    Integer tables are summed in Python ints, whatever their dtype."""
    rel = group_table(k).rel
    tables = [t if t.dtype == np.float64 else t.astype(object) for t in tables]
    state = np.ones((), dtype=tables[0].dtype)
    for factors, drops in plan.steps:
        state = np.repeat(state[..., None], len(rel), axis=-1)
        axes = [np.arange(len(rel)).reshape((-1,) + (1,) * (state.ndim - 1 - i))
                for i in range(state.ndim)]
        for a, b, c, tid in factors:
            np.multiply(state, tables[tid][rel[axes[a], axes[b]], rel[axes[a], axes[c]]], out=state)
        if drops:
            state = np.asarray(state.sum(axis=drops), dtype=state.dtype)
    return state[()]


def _alive(plan):
    """Spins in the state at each step, before its sums, pinned ones included."""
    counts, alive = [], 0
    for _, drops in plan.steps:
        alive += 1
        counts.append(alive)
        alive -= len(drops)
    return counts


class TestPinnedSweep:
    """The pinned sweep against the dense sweep over the same steps."""

    def test_pinned_equals_dense(self, monkeypatch, caplog):
        """k=2..4, n=2..8, t=2..3, both boundaries, q in {2, 3}, both routes and
        both rings: every shape whose dense state fits the default budget,
        which includes the criterion 06 grid; and the k=2 rings at t=5,
        n in {8, 12}, whose exact sweeps split into int64 limbs."""
        sweep = lattice._sweep
        plans = []

        def checked(plan, tables, k, bounds=None):
            value = sweep(plan, tables, k, bounds)
            dense = _dense_sweep(plan, tables, k)
            if tables[0].dtype == np.float64:
                assert value == pytest.approx(dense, rel=1e-12)
            else:
                assert type(value) is int and value == dense
            plans.append(plan)
            return value

        monkeypatch.setattr(lattice, "_sweep", checked)
        runs = [
            (frame_potential_direct, {}),
            (frame_potential_transfer, {}),
            (frame_potential_transfer, {"backend": "float"}),
        ]
        covered = set()
        rings = ((2, n, 5, "periodic", 2) for n in (8, 12))
        for k, n, t, bc, q in itertools.chain(itertools.product(
            (2, 3, 4), range(2, 9), (2, 3), ("open", "periodic"), (2, 3)
        ), rings):
            geom = build_geometry(n, q, t, bc)
            budget = lattice.DEFAULT_STATE_BUDGET // math.factorial(k)
            monkeypatch.setenv(lattice.STATE_BUDGET_ENV, str(budget))
            for route, kwargs in runs:
                caplog.clear()
                try:
                    with caplog.at_level(logging.DEBUG, logger="rqclattice"):
                        route(geom, k, **kwargs)
                except BudgetExceededError:
                    continue
                covered.add((n, t, k, q, bc))
                if t == 5 and not kwargs:
                    assert "limbs at the end" in _ring_records(caplog)[0]
        assert set(_criterion_06_grid()) <= covered and len(covered) > 130
        assert {(8, 5, 2, 2, "periodic"), (12, 5, 2, 2, "periodic")} <= covered

        # one connected stretch each, whose pin takes one spin off every step
        # until it is released
        released = False
        for plan in plans:
            alive = _alive(plan)
            assert plan.stretches == 1 and plan.peak == max(alive) - 1
            assert all(a - 1 <= m <= a for m, a in zip(plan.live, alive))
            released |= any(m == a for m, a in zip(plan.live, alive))
        assert released and any(r is not None for plan in plans for _, r in plan.pins)


def _ring_records(caplog):
    """The ring each logged sweep ran in."""
    return [
        r.getMessage().split(", ring ", 1)[1]
        for r in caplog.records
        if r.name == "rqclattice.lattice" and r.levelno == logging.DEBUG
    ]


class TestIntegerRing:
    """The exact sweep runs in int64 under a certified bound and, from the
    operation where the bound cannot be kept, in int64 limbs, or in Python ints
    for tables too wide for limbs and values too long for them."""

    LIMIT = 1 << 62

    # two pair factors f(a^-1 b) on spins 0 and 1; a path 0 - 1 - 2, whose
    # pin moves from spin 0 to spin 1 at step 1
    TWICE = ((0, 1, 0, 0), (0, 1, 0, 0))
    PATH = ((0, 1, 0, 0), (1, 2, 1, 0))

    @pytest.mark.parametrize(
        "factors,column,ring,measured",
        [
            # small signed weights: no measurement
            (TWICE, [3, -2], "int64 throughout", []),
            # the second factor's bound 2^80 is measured, and fails too; every
            # state is a stack of limbs, one here, on its leading axis
            (TWICE, [2**40, -(2**40) + 7], "int64, switched to object at step 1",
             [("max_abs", (1, 1, 2))]),
            # the sum's bound 2 * 2^61 is measured, and fails too: the |entries|
            # add up to 2^62 whatever their signs
            (TWICE[:1], [2**61, -(2**61) + 5], "int64, switched to object at step 1",
             [("abs_sum", (1, 1, 2), (1, 2))]),
            (TWICE[:1], [2**61, 2**61 - 1], "int64, switched to object at step 1",
             [("abs_sum", (1, 1, 2), (1, 2))]),
            # the sum's bound 6 * 2^61 is not, but the measured one keeps int64
            (TWICE[:1], [2**61, 1, -1, 2, 0, -3], "int64 throughout",
             [("abs_sum", (1, 1, 6), (1, 2))]),
            # the sum over the old pin adds one term; the re-pin's bound
            # k! * 2^61 is measured on every spin axis, and fails too
            (PATH, [2**61, -(2**61)], "int64, switched to object at step 1",
             [("abs_sum", (1, 2), (1,))]),
            # an entry of 2^62 or more starts the sweep in Python ints
            (TWICE, [2**62, -1], "object from the start", []),
            (PATH, [-(2**62), 1], "object from the start", []),
            (PATH, [2**100, -(2**90), 1, 0, 5, 7], "object from the start", []),
        ],
    )
    def test_switch_equals_object_oracle(self, monkeypatch, caplog, factors, column, ring, measured):
        k = {2: 2, 6: 3}[len(column)]
        n_vars = 1 + max(max(f[:3]) for f in factors)
        plan = lattice._planned(n_vars, factors, (("given", tuple(range(n_vars))),))
        if factors == self.PATH:
            assert plan.pins[1][1] is not None  # the sweep re-pins at step 1
        table, bound = lattice._exact_table(column)
        assert bound == max(map(abs, column))
        assert table.dtype == (np.int64 if bound < self.LIMIT else object)

        seen = []
        max_abs, abs_sum = lattice._max_abs, lattice._abs_sum

        def spy_max_abs(state):
            seen.append(("max_abs", state.shape))
            return max_abs(state)

        def spy_abs_sum(state, axes):
            seen.append(("abs_sum", state.shape, axes))
            return abs_sum(state, axes)

        monkeypatch.setattr(lattice, "_max_abs", spy_max_abs)
        monkeypatch.setattr(lattice, "_abs_sum", spy_abs_sum)
        with caplog.at_level(logging.DEBUG, logger="rqclattice"):
            value = lattice._sweep(plan, [table[:, None]], k, (bound,))
        dense = _dense_sweep(plan, [table[:, None]], k)
        assert type(value) is int and value == dense
        assert _ring_records(caplog) == [ring]
        assert seen == measured

    def test_abs_sum_bounds_every_sum(self, monkeypatch):
        rng = np.random.default_rng(7)
        monkeypatch.setattr(lattice, "_CHUNK", 16)  # several chunks per state
        for shape in ((1, 6, 6, 6), (6, 1, 6, 6)):
            state = rng.integers(-(2**50), 2**50, size=shape, dtype=np.int64)
            for axes in ((1,), (0, 2), (1, 3), (2,), (0, 1, 2, 3)):
                exact = np.max(np.abs(state.astype(object)).sum(axis=axes))
                bound = lattice._abs_sum(state, axes)
                assert type(bound) is int and exact <= bound <= exact * (1 + 1e-9) + 1

    def test_carry_keeps_the_value_and_bounds_every_limb(self):
        rng = np.random.default_rng(11)
        for bits, limbs, top in itertools.product((31, 44), (1, 2, 4), (2**61, self.LIMIT - 1)):
            state = rng.integers(-top, top, size=(limbs, 64), dtype=np.int64)
            state[:, 0] = top - 1  # the largest remainders and carries
            state[:, 1] = -top
            bound = max(lattice._max_abs(limb) for limb in state)
            value = [sum(int(x) << (bits * j) for j, x in enumerate(column)) for column in state.T]
            out, new_bound, new_top = lattice._carry(state.copy(), bits, bound, top, 2)
            assert [sum(int(x) << (bits * j) for j, x in enumerate(column)) for column in out.T] == value
            assert len(out) > limbs  # the top limb splits off a new one
            assert new_bound >= max(lattice._max_abs(limb) for limb in out) and new_bound * 2 < self.LIMIT
            assert new_top >= lattice._max_abs(out[-1])
            assert (out[:-1] >= 0).all() if limbs == 1 else (out[0] >= 0).all()

    @pytest.mark.parametrize(
        "n,q,t,bc,k,message",
        [
            (4, 2, 3, "open", 4, "6 steps, peak 4 (331776 states), ring int64 throughout"),
            # the ring switches mid-sweep
            (12, 2, 5, "periodic", 2,
             "48 steps, peak 13 (8192 states), ring int64, switched to 44-bit limbs at step 33 "
             "(3 limbs at the end)"),
            (4, 10**10, 2, "open", 2, "3 steps, peak 2 (4 states), ring object from the start"),
        ],
    )
    def test_sweep_logs_its_ring(self, caplog, n, q, t, bc, k, message):
        geom = build_geometry(n, q, t, bc)
        with caplog.at_level(logging.INFO, logger="rqclattice"):
            frame_potential_transfer(geom, k)
        assert _ring_records(caplog) == []
        with caplog.at_level(logging.DEBUG, logger="rqclattice"):
            frame_potential_transfer(geom, k)
            frame_potential_transfer(geom, k, backend="float")
        assert [r.getMessage() for r in caplog.records] == [
            f"sweep: layer-major order, {message}",
            f"sweep: layer-major order, {message.split(', ring ')[0]}, ring float64",
        ]

    @pytest.mark.parametrize(
        "n,q,t,bc,k,ring",
        [
            # the three heaviest exact requests of the benchmark's grid
            (4, 2, 3, "open", 4, "int64 throughout"),
            (12, 2, 5, "periodic", 2, "int64, switched to 44-bit limbs at step 33 (3 limbs at the end)"),
            (12, 2, 4, "periodic", 2, "int64, switched to 44-bit limbs at step 32 (2 limbs at the end)"),
            # the heavy shapes CI checks against the float backend
            (16, 2, 4, "open", 3, "int64, switched to 44-bit limbs at step 21 (4 limbs at the end)"),
            (8, 2, 3, "open", 4, "int64, switched to 42-bit limbs at step 8 (3 limbs at the end)"),
            # at k >= 3 a value stays in limbs however many it needs
            (112, 2, 4, "open", 3, "int64, switched to 44-bit limbs at step 21 (26 limbs at the end)"),
        ],
    )
    def test_heavy_shapes_equal_the_object_ring(self, monkeypatch, caplog, n, q, t, bc, k, ring):
        sweep = lattice._sweep
        results = []

        def both_rings(plan, tables, k, bounds=None):
            value = sweep(plan, tables, k, bounds)
            objects = sweep(plan, [t.astype(object) for t in tables], k, bounds)
            results.append((value, objects))
            return value

        monkeypatch.setattr(lattice, "_sweep", both_rings)
        with caplog.at_level(logging.DEBUG, logger="rqclattice"):
            frame_potential_transfer(build_geometry(n, q, t, bc), k)
        (value, objects), = results
        assert type(value) is int and value == objects
        first, second = _ring_records(caplog)
        assert (first, second) == (ring, "object from the start")

    @pytest.mark.parametrize(
        "m,column,ring",
        [
            # signed 21-bit weights: a carry every step or two, and the top
            # limb splits off a new limb every fourth carry
            (12, [2**20 - 3, -(2**20), 5, -7, 2**19, 1],
             "int64, switched to 40-bit limbs at step 3 (6 limbs at the end)"),
            # one more spin and a negative weight sum: a negative value
            (13, [-(2**20) + 3, -(2**20), 5, -7, 2**19, 1],
             "int64, switched to 40-bit limbs at step 3 (7 limbs at the end)"),
            # the widest table that still takes limbs leaves 31 bits a limb
            (9, [2**30 - 1, -(2**30 - 1), 3, 1, -1, 0],
             "int64, switched to 31-bit limbs at step 3 (9 limbs at the end)"),
            # one bit wider, and the state switches to Python ints
            (9, [2**30, -(2**30 - 1), 3, 1, -1, 0], "int64, switched to object at step 3"),
            # at k=2 a value of more than 8 limbs switches to Python ints
            (24, [2**20, -3],
             "int64, switched to 40-bit limbs at step 4, to object at step 17"),
        ],
    )
    def test_limbs_equal_dense_oracle(self, monkeypatch, caplog, m, column, ring):
        """A cycle of m pair factors f(a^-1 b) over k=3 (or k=2) spins, swept
        in limbs and compared with the unpinned sweep in Python ints."""
        k = {2: 2, 6: 3}[len(column)]
        factors = tuple((i, (i + 1) % m, i, 0) for i in range(m))
        plan = lattice._planned(m, factors, (("given", tuple(range(m))),))
        table, bound = lattice._exact_table(column)
        assert table.dtype == np.int64

        grown = []  # the limb count before and after each carry
        carry = lattice._carry

        def spy_carry(state, *args):
            out = carry(state, *args)
            grown.append((len(state), len(out[0])))
            return out

        monkeypatch.setattr(lattice, "_carry", spy_carry)
        with caplog.at_level(logging.DEBUG, logger="rqclattice"):
            value = lattice._sweep(plan, [table[:, None]], k, (bound,))
        assert type(value) is int and value == _dense_sweep(plan, [table[:, None]], k)
        assert (value < 0) == (m == 13)
        assert _ring_records(caplog) == [ring]
        if "limbs" not in ring:
            assert grown == []
            return
        # the width leaves room for one product by the widest entry, or one
        # sum of as many terms as the peak state holds, after a carry
        widest = max(bound, math.factorial(k) ** plan.peak)
        assert f"{min(44, 61 - widest.bit_length())}-bit limbs" in ring
        # the int64 state splits in two, later carries split the top limb
        assert grown[0] == (1, 2) and len(grown) >= 5
        assert all(after - before in (0, 1) for before, after in grown[1:])
        if "limbs at the end" in ring:
            assert f"({grown[-1][1]} limbs at the end)" in ring

    @pytest.mark.parametrize(
        "n,t,bc,k", [(12, 5, "periodic", 2), (16, 4, "open", 3), (8, 3, "open", 4)]
    )
    def test_limb_record_matches_the_sweep(self, monkeypatch, caplog, n, t, bc, k):
        """The DEBUG record names the plan, the step that splits the state into
        limbs, their width and how many the value needs at the end."""
        sweep, carry, program = lattice._sweep, lattice._carry, lattice._program
        swept, steps, carried = [], [], []

        def spy_sweep(plan, tables, k, bounds=None):
            swept.append((plan, bounds))
            return sweep(plan, tables, k, bounds)

        def spy_program(plan, k, widths):  # each step as the sweep runs it
            for step in program(plan, k, widths):
                steps.append(step[0])  # the spin axes' shape
                yield step

        def spy_carry(state, bits, *args):
            out = carry(state, bits, *args)
            carried.append((len(steps) - 1, bits, len(out[0])))
            return out

        monkeypatch.setattr(lattice, "_sweep", spy_sweep)
        monkeypatch.setattr(lattice, "_carry", spy_carry)
        monkeypatch.setattr(lattice, "_program", spy_program)
        with caplog.at_level(logging.DEBUG, logger="rqclattice"):
            frame_potential_transfer(build_geometry(n, 2, t, bc), k)
        (plan, bounds), = swept
        order = math.factorial(k)
        (switch, bits, _), *_, (_, _, limbs) = carried
        assert len(steps) == len(plan.steps)
        widest = max(*bounds, order**plan.peak)
        assert bits == min(44, 61 - widest.bit_length())
        assert [r.getMessage() for r in caplog.records] == [
            f"sweep: {plan.order} order, {len(plan.steps)} steps, peak {plan.peak} "
            f"({order**plan.peak} states), ring int64, switched to {bits}-bit limbs at step "
            f"{switch} ({limbs} limbs at the end)"
        ]
