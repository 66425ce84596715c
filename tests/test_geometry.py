"""The brickwork shape: its closed-form gate count, column key and gate cap."""

import time

import pytest

from rqclattice import cli
from rqclattice.errors import BudgetExceededError
from rqclattice.geometry import (
    GATE_CAP,
    CircuitGeometry,
    _column,
    _depth,
    _gate_count,
    _layer_pairs,
    _layout,
)
from rqclattice.lattice import build_geometry


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_gate_count_is_that_of_the_layout(bc):
    for n in range(2, 13):
        for t in range(0, 6):
            assert _gate_count(n, _depth(t), bc) == len(CircuitGeometry(n, 2, t, bc).gates)
        for depth in range(0, 7):  # odd depths too: the two-sided Monte Carlo network
            pairs = [p for layer in range(depth) for p in _layer_pairs(n, layer, bc)]
            assert _gate_count(n, depth, bc) == len(pairs)


def test_column_is_the_leftmost_qudit_and_the_wrap_gate_column_0():
    assert [_column(p) for p in _layer_pairs(6, 0, "periodic")] == [1, 3, 5]
    assert [_column(p) for p in _layer_pairs(6, 1, "periodic")] == [2, 4, 0]
    assert [_column(p) for p in _layer_pairs(2, 1, "periodic")] == [0]


class TestGateCap:
    def test_shapes_in_use_are_admitted(self):
        # the largest shapes of the tests, CI, the bench and the README
        for n, t in ((1024, 4), (256, 6), (256, 4), (32, 4), (12, 6)):
            assert _gate_count(n, _depth(t), "open") <= GATE_CAP
            CircuitGeometry(n, 2, t, "open")

    def test_a_shape_at_the_cap_builds(self):
        # a 2-qudit chain has one gate every other layer
        assert _gate_count(2, _depth(GATE_CAP + 1), "open") == GATE_CAP
        geom = CircuitGeometry(2, 2, GATE_CAP + 1, "open")
        _, gates, legs = _layout.__wrapped__(geom.n, geom.t, geom.spatial_bc)  # not kept
        assert len(gates) == GATE_CAP and len(legs) == 2 * GATE_CAP
        with pytest.raises(BudgetExceededError, match=f"{GATE_CAP + 1} gates > cap {GATE_CAP}"):
            CircuitGeometry(2, 2, GATE_CAP + 2, "open")

    def test_refused_before_the_layout(self, monkeypatch):
        import rqclattice.geometry as geometry

        def no_layout(*args):
            raise AssertionError("layout built before the gate cap was checked")

        monkeypatch.setattr(geometry, "_layout", no_layout)
        for make in (CircuitGeometry, build_geometry):
            for bc in ("open", "periodic"):
                with pytest.raises(BudgetExceededError, match="478401 gates|478800 gates"):
                    make(1200, 2, 400, bc)

    @pytest.mark.parametrize("argv", [
        "geometry --n 1200 --t 400",
        "framepotential exact-transfer --n 1200 --q 2 --t 400 --k 2",
        "framepotential exact-transfer --n 1200 --q 2 --t 400 --k 2 --backend float",
        "framepotential exact-direct --n 1200 --q 2 --t 400 --k 2",
    ])
    def test_cli_refuses_fast_with_exit_2(self, argv, capsys):
        start = time.perf_counter()
        assert cli.main(argv.split()) == cli.EXIT_BUDGET
        assert time.perf_counter() - start < 0.5
        assert "478401 gates > cap" in capsys.readouterr().err
