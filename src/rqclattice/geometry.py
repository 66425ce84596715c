"""The brickwork shape, shared by the exact routes and the Monte Carlo oracle.

A time-t circuit on n qudits is reduced to 2(t-1) layers of `_layer_pairs`:
even bricks (1,2),(3,4),..., odd bricks (2,3),(4,5),... and, on odd layers
of a periodic ring of even n, the wrap gate (n,1); an odd-n ring admits no
conflict-free wrap gate, so its layout is the open chain's.  `lattice`
contracts the gates and legs of a :class:`CircuitGeometry` and `montecarlo`
samples the same gates in the same order.  `_gate_count` counts a depth's
gates in closed form, so a shape past GATE_CAP is refused before its layout
is built.  Only the standard library and `errors` are imported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError

# Largest number of gates a CircuitGeometry lays out: n = 1024, t = 4 has
# 3069, and a `geometry` dump of n = 2100, t = 32 (65 069) takes about 1 s
# and 125 MB
GATE_CAP = 1 << 16


@dataclass(frozen=True)
class Gate:
    gid: int
    layer: int
    qudits: tuple[int, int]


@dataclass(frozen=True)
class CircuitGeometry:
    """A checked brickwork shape, with its layer structure and full output-leg
    connectivity.

    `legs` maps every gate output leg to the gate that consumes it, wrapping
    the final layer back to the first (time periodicity): legs[2g] and
    legs[2g + 1] are the two output legs of gate g, in the order of its
    qudits, each (source gid, qudit, consumer gid).  `layers`, `gates` and
    `legs` are the tuples of one layout per (n, t, bc), shared by every
    geometry of that shape whatever its q.  A shape of more than GATE_CAP
    gates raises BudgetExceededError before its layout is built.
    """

    n: int
    q: int
    t: int
    spatial_bc: str

    def __post_init__(self):
        _check_instance(self.n, self.q, self.t, self.spatial_bc)
        gates = _gate_count(self.n, _depth(self.t), self.spatial_bc)
        if gates > GATE_CAP:
            raise BudgetExceededError(f"brickwork of n={self.n}, t={self.t} ({self.spatial_bc}) "
                                      f"has {gates} gates > cap {GATE_CAP}")

    @property
    def layers(self) -> tuple[tuple[Gate, ...], ...]:
        return _layout(self.n, self.t, self.spatial_bc)[0]

    @property
    def gates(self) -> tuple[Gate, ...]:
        return _layout(self.n, self.t, self.spatial_bc)[1]

    @property
    def legs(self) -> tuple[tuple[int, int, int], ...]:
        return _layout(self.n, self.t, self.spatial_bc)[2]

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def to_json_dict(self) -> dict:
        layers = [[list(g.qudits) for g in layer] for layer in self.layers]
        return {"n": self.n, "q": self.q, "t": self.t, "spatial_bc": self.spatial_bc,
                "layers": layers, "legs": [list(leg) for leg in self.legs]}


def _check_instance(n: int, q: int, t: int, spatial_bc: str) -> None:
    """Reject a brickwork instance that no route evaluates."""
    if n < 2:
        raise ValueError("need at least 2 qudits")
    if q < 2:
        raise ValueError("local dimension must be >= 2")
    if t < 0:
        raise ValueError("t must be >= 0")
    if spatial_bc not in ("open", "periodic"):
        raise ValueError(f"unknown boundary condition {spatial_bc!r}")


def _depth(t: int) -> int:
    """The layers of the reduced time-t circuit: 2(t-1), none for t <= 1."""
    return max(0, 2 * (t - 1))


def _layer_pairs(n: int, layer_index: int, spatial_bc: str) -> list[tuple[int, int]]:
    start = 1 if layer_index % 2 == 0 else 2
    pairs = [(a, a + 1) for a in range(start, n, 2)]
    if spatial_bc == "periodic" and layer_index % 2 == 1 and n % 2 == 0:
        pairs.append((n, 1))
    return pairs


def _gate_count(n: int, depth: int, spatial_bc: str) -> int:
    """The gates of `depth` layers of `_layer_pairs`: n // 2 on an even layer,
    (n - 1) // 2 on an odd one, plus the wrap gate of an even-n ring."""
    odd = (n - 1) // 2 + (spatial_bc == "periodic" and n % 2 == 0)
    return n // 2 * ((depth + 1) // 2) + odd * (depth // 2)


def _column(pair: tuple[int, int]) -> int:
    """The column of a gate on qudits `pair`: its leftmost qudit, 0 for the
    ring's wrap gate (n, 1), the one pair whose first qudit is the larger."""
    a, b = pair
    return 0 if a > b else a


@lru_cache(maxsize=256)
def _layout(n: int, t: int, spatial_bc: str) -> tuple[tuple, tuple, tuple]:
    """The gates, layer by layer, all gates and the legs of one checked
    brickwork shape."""
    layers, gates = [], []
    for ell in range(_depth(t)):
        pairs = _layer_pairs(n, ell, spatial_bc)
        layers.append(tuple(Gate(len(gates) + i, ell, pair) for i, pair in enumerate(pairs)))
        gates += layers[-1]

    # a leg on qudit u goes to the next gate on u, the last one's to the
    # first: walking the gates backwards, following[u] is that gate
    following = {u: g.gid for g in reversed(gates) for u in g.qudits}
    legs = []
    for g in reversed(gates):
        for u in reversed(g.qudits):
            legs.append((g.gid, u, following[u]))
            following[u] = g.gid
    return tuple(layers), tuple(gates), tuple(reversed(legs))
