import json
import math
from fractions import Fraction

import pytest

from rqclattice.errors import BudgetExceededError, PoleError
from rqclattice.lattice import (
    build_geometry,
    frame_potential_direct,
    frame_potential_special,
    frame_potential_transfer,
    _frame_potential_bruteforce,
)


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

    def test_bruteforce_budget(self):
        g = build_geometry(6, 2, 3, "open")
        with pytest.raises(BudgetExceededError):
            _frame_potential_bruteforce(g, 3)

    def test_moment_cap(self):
        g = build_geometry(4, 2, 2)
        with pytest.raises(BudgetExceededError):
            frame_potential_transfer(g, 7)

    def test_pole_surfaced_for_k_above_q_squared(self):
        # k=5 at q=2: the unrestricted Weingarten function genuinely has a pole
        # at d = q^2 = 4, and the direct route must surface it rather than
        # substitute silently
        g = build_geometry(4, 2, 2, "open")
        with pytest.raises(PoleError):
            frame_potential_direct(g, 5, state_budget=10**9)


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
