"""Brickwork circuit geometry and exact frame-potential evaluation.

A time-t brickwork circuit on n qudits maps to a lattice of depth 2(t-1)
layers with periodic boundary conditions in time.  The k-th frame potential is
the contraction

    F = sum over (sigma_g, tau_g) per gate of
        prod_g Wg(sigma_g^-1 tau_g, q^2) * prod_{legs g->h} q^ell(tau_g^-1 sigma_h)

which this module evaluates along two routes that differ only in their
weights:

* :func:`frame_potential_direct` works on the hexagonal (sigma, tau)-per-gate
  model with numeric Weingarten weights from the exact Gram system alone,
  solved on class functions and checked against all k! rows (k <= 6).  For
  d = q^2 < k the Gram system is singular and the unrestricted Weingarten
  function has a pole at d, so the route raises PoleError.
* :func:`frame_potential_transfer` works on the reduced triangular model,
  looking up symbolic plaquette weights (character-expansion route), in exact
  rationals or floats.

Both contract through one planned elimination.  :func:`_plan` eliminates the
spins in the cheaper of two orders, the one whose live state peaks lower:
layer-major (a whole layer is live, which a short ring at long t favours) or
column-major, a spatial transfer matrix that keeps about 2t - 1 spins live on
an open chain whatever n is.  It plans each lattice shape once and checks the
state budget on every call, before any weight table is built.
:func:`_sweep` runs the schedule on dense numpy arrays, gathering every
weight at relative elements a^-1 x from the ``rel`` table of
:func:`rqclattice.perms.group_table`.  The number ring is the dtype of the
weight tables: object arrays of Python ints (weights scaled
to integers) for exact results, float64 for the float backend.  The
weights stay independent, so their exact equality on every in-budget
geometry is the package's central oracle; :func:`_frame_potential_bruteforce`
additionally checks both against raw enumeration on tiny instances.

t = 0 and t = 1 are degenerate (no lattice) and use closed forms.  The t = 1
formula (k!)^floor(n/2) follows the lattice model's gate-product form; for odd
n the physical circuit would carry an extra q^(2k) from the idle qudit.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, PoleError
from .exact import scale_to_ints
from .perms import check_moment, group_table
from .plaquette import build_table
from .weingarten import wg_gram, wg_symbolic

STATE_BUDGET_ENV = "RQCLATTICE_STATE_BUDGET"
DEFAULT_STATE_BUDGET = 4_000_000
# both rings hold dense numpy states, but an exact entry is a Python int object
# (often many words), not 8 bytes, so the float backend affords more states
DEFAULT_FLOAT_STATE_BUDGET = 128_000_000


def _state_budget(default: int = DEFAULT_STATE_BUDGET) -> int:
    raw = os.environ.get(STATE_BUDGET_ENV)
    return default if raw is None else int(raw)


@dataclass(frozen=True)
class Gate:
    gid: int
    layer: int
    qudits: tuple[int, int]


@dataclass
class CircuitGeometry:
    """Brickwork layer structure with the full output-leg connectivity.

    Layers alternate even bricks (1,2),(3,4),... and odd bricks (2,3),(4,5),...
    (plus the wrap gate (n,1) on odd layers for periodic chains of even n; an
    odd-n ring admits no conflict-free wrap gate, so its layout coincides with
    open boundaries).  `legs` maps every gate output leg to the gate that
    consumes it, wrapping the final layer back to the first (time periodicity).
    """

    n: int
    q: int
    t: int
    spatial_bc: str
    layers: list[list[Gate]]
    gates: list[Gate]
    legs: list[tuple[int, int, int]]  # (source gid, qudit, consumer gid)
    consumers: list[tuple[int, int]]  # per gid, consumers of its two output legs

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "t": self.t,
            "spatial_bc": self.spatial_bc,
            "layers": [[list(g.qudits) for g in layer] for layer in self.layers],
            "legs": [list(leg) for leg in self.legs],
        }


def _layer_pairs(n: int, layer_index: int, spatial_bc: str) -> list[tuple[int, int]]:
    start = 1 if layer_index % 2 == 0 else 2
    pairs = [(a, a + 1) for a in range(start, n, 2) if a + 1 <= n]
    if spatial_bc == "periodic" and layer_index % 2 == 1 and n % 2 == 0:
        pairs.append((n, 1))
    return pairs


def build_geometry(n: int, q: int, t: int, spatial_bc: str = "open") -> CircuitGeometry:
    """Brickwork lattice geometry for the time-t frame potential (depth 2(t-1))."""
    if n < 2:
        raise ValueError("need at least 2 qudits")
    if q < 2:
        raise ValueError("local dimension must be >= 2")
    if t < 0:
        raise ValueError("t must be >= 0")
    if spatial_bc not in ("open", "periodic"):
        raise ValueError(f"unknown boundary condition {spatial_bc!r}")

    depth = 2 * (t - 1) if t >= 1 else 0
    layers: list[list[Gate]] = []
    gates: list[Gate] = []
    for ell in range(depth):
        layer = []
        for pair in _layer_pairs(n, ell, spatial_bc):
            gate = Gate(gid=len(gates), layer=ell, qudits=pair)
            gates.append(gate)
            layer.append(gate)
        layers.append(layer)

    # owner[ell][u]: the gate of layer ell acting on qudit u
    owner = [{u: g for g in layer for u in g.qudits} for layer in layers]
    legs: list[tuple[int, int, int]] = []
    consumers: list[tuple[int, int]] = []
    for g in gates:
        cons = []
        for u in g.qudits:
            consumer = None
            for step in range(1, depth + 1):
                consumer = owner[(g.layer + step) % depth].get(u)
                if consumer is not None:
                    break
            assert consumer is not None, f"qudit {u} has no consuming gate"
            legs.append((g.gid, u, consumer.gid))
            cons.append(consumer.gid)
        consumers.append((cons[0], cons[1]))

    return CircuitGeometry(
        n=n,
        q=q,
        t=t,
        spatial_bc=spatial_bc,
        layers=layers,
        gates=gates,
        legs=legs,
        consumers=consumers,
    )


@dataclass
class FramePotentialResult:
    """Exact or floating frame-potential value with its provenance."""

    value: Fraction | float
    k: int
    n: int
    q: int
    t: int
    spatial_bc: str
    method: str  # direct | transfer | special
    backend: str  # exact | float
    gauge_fixed: bool = False

    def as_float(self) -> float:
        return float(self.value)


def frame_potential_special(n: int, q: int, t: int, k: int) -> int:
    """Closed forms for the degenerate depths: t=0 -> q^(2nk); t=1 -> (k!)^floor(n/2).

    The t=1 product-of-gate-moments form requires k <= q^2; beyond that the
    per-gate trace moments are combinatorial counts this package does not model.
    """
    if t == 0:
        return q ** (2 * n * k)
    if t == 1:
        if k > q * q:
            raise ValueError(
                f"t=1 closed form needs k <= q^2 (k={k}, q^2={q * q}); "
                "use the Monte Carlo estimator instead"
            )
        return math.factorial(k) ** (n // 2)
    raise ValueError("special values exist only for t in {0, 1}")


def _special_result(geom: CircuitGeometry, k: int) -> FramePotentialResult:
    value = Fraction(frame_potential_special(geom.n, geom.q, geom.t, k))
    return FramePotentialResult(
        value=value,
        k=k,
        n=geom.n,
        q=geom.q,
        t=geom.t,
        spatial_bc=geom.spatial_bc,
        method="special",
        backend="exact",
    )


# ---------------------------------------------------------------------------
# shared contraction: one budget-checked plan, one dense sweep
# ---------------------------------------------------------------------------

# Every weight of both models is invariant under a common left multiplication
# of all spins, so every factor has one shape (anchor, b, c, table_id) with
# weight tables[table_id][rel(anchor, b)][rel(anchor, c)], rel(a, x) = a^-1 x.
# A plaquette J^{s_g}_{s_1 s_2} is (g, c_1, c_2); a pair factor f(a^-1 b) is
# (a, b, a) with a one-column table, since rel(a, a) is the identity, index 0.
_Factor = tuple[int, int, int, int]


@dataclass(frozen=True)
class _Plan:
    """Elimination schedule: variable s enters the state as its last slot at
    step s; steps[s] holds the factors applied then, in state slots, and the
    sorted slots summed out after them.

    `order` names the candidate elimination order the variables were
    relabelled by.  live[s] counts the state axes at step s other than the
    gauge variable's, so that state holds (k!)^live[s] entries; `peak` is the
    largest of them.
    """

    steps: tuple[tuple[tuple[_Factor, ...], tuple[int, ...]], ...]
    gauge_var: int | None
    order: str
    live: tuple[int, ...]
    peak: int


def _plan(
    n_vars: int,
    factors: list[_Factor],
    candidates: dict[str, list[int]],
    gauge_fix: bool,
    group_order: int,
    budget: int,
) -> _Plan:
    """Schedule a contraction over variables 0..n_vars-1 in the candidate
    order of least peak state, and check the state budget.

    `candidates` maps the name of each elimination order to the variables in
    that order; `gauge_fix` pins variable 0.  Each factor is applied at the
    step of its last variable and each variable summed out after its last
    factor.  The schedule depends on the scopes alone, not on q, k or the
    number ring, so it is memoized per lattice shape; the budget needs only
    the memoized peak and k!, so both routes plan, and every call is checked,
    before any weight table is built.  An over-budget message suggests
    gauge_fix only to an unfixed call whose pinned plan fits.
    """
    shape = (
        n_vars,
        tuple(factors),
        tuple((name, tuple(order)) for name, order in candidates.items()),
    )
    plan = _planned(*shape, 0 if gauge_fix else None)
    if group_order**plan.peak > budget:
        s = next(s for s, m in enumerate(plan.live) if group_order**m > budget)
        # pinning one variable lowers the peak by at most one
        pinned_fits = (
            not gauge_fix
            and group_order ** (plan.peak - 1) <= budget
            and group_order ** _planned(*shape, 0).peak <= budget
        )
        raise BudgetExceededError(
            f"contraction state would reach {group_order ** plan.live[s]} > budget "
            f"{budget} at step {s} of the {plan.order} order; raise "
            f"{STATE_BUDGET_ENV}" + (" or use gauge_fix" if pinned_fits else "")
        )
    return plan


@lru_cache(maxsize=256)
def _planned(
    n_vars: int,
    factors: tuple[_Factor, ...],
    candidates: tuple[tuple[str, tuple[int, ...]], ...],
    gauge_var: int | None,
) -> _Plan:
    """The plan of the candidate order with the least peak (the first on a tie)."""
    options = []
    for name, order in candidates:
        pos = [0] * n_vars
        for step, v in enumerate(order):
            pos[v] = step
        relabelled = [(pos[a], pos[b], pos[c], tid) for a, b, c, tid in factors]
        gauge = None if gauge_var is None else pos[gauge_var]
        drop_at = list(range(n_vars))
        for f in relabelled:
            s = max(f[:3])
            for v in f[:3]:
                drop_at[v] = max(drop_at[v], s)
        # live counts in linear time: +1 where a variable enters, -1 after it drops
        delta = [0] * (n_vars + 1)
        for v, d in enumerate(drop_at):
            if v != gauge:
                delta[v] += 1
                delta[d + 1] -= 1
        live = tuple(itertools.accumulate(delta[:n_vars]))
        options.append((max(live), name, live, relabelled, gauge, drop_at))
    peak, name, live, relabelled, gauge, drop_at = min(options, key=lambda o: o[0])

    step_factors: list[list[_Factor]] = [[] for _ in range(n_vars)]
    for f in relabelled:
        step_factors[max(f[:3])].append(f)
    steps = []
    alive: list[int] = []
    for s in range(n_vars):
        alive.append(s)
        slot = {v: i for i, v in enumerate(alive)}
        steps.append((
            tuple((slot[a], slot[b], slot[c], tid) for a, b, c, tid in step_factors[s]),
            tuple(sorted(slot[v] for v in alive if drop_at[v] == s)),
        ))
        alive = [v for v in alive if drop_at[v] > s]
    return _Plan(tuple(steps), gauge, name, live, peak)


def _column_major(geom: CircuitGeometry) -> list[Gate]:
    """Gates sorted by (leftmost qudit, layer); the ring's wrap gate (n, 1)
    counts as column 0.  Sweeping columns keeps about 2t - 1 spins live on an
    open chain, where the layer-major order keeps a whole layer."""
    wrap = (geom.n, 1)
    return sorted(
        geom.gates, key=lambda g: (0 if g.qudits == wrap else g.qudits[0], g.layer)
    )


@lru_cache(maxsize=None)
def _axis_index(size: int, trailing: int) -> np.ndarray:
    """0..size-1 along a state axis that has `trailing` axes after it."""
    index = np.arange(size).reshape((size,) + (1,) * trailing)
    index.setflags(write=False)  # cached arrays are shared by every caller
    return index


def _sweep(plan: _Plan, tables: list[np.ndarray], k: int):
    """Contract a plan over dense factor tables, in the ring of their dtype.

    The state has one axis per live variable; the gauge variable's axis has
    size 1, its one value being the identity (index 0).  float64 tables give
    a float, object tables of Python ints the exact integer.
    """
    rel = group_table(k).rel
    state = np.ones((), dtype=tables[0].dtype)
    for s, (factors, drops) in enumerate(plan.steps):
        size = 1 if s == plan.gauge_var else len(rel)
        state = np.repeat(state[..., None], size, axis=-1)
        last = state.ndim - 1
        for a, b, c, tid in factors:
            ia = _axis_index(state.shape[a], last - a)
            ib = _axis_index(state.shape[b], last - b)
            ic = _axis_index(state.shape[c], last - c)
            np.multiply(state, tables[tid][rel[ia, ib], rel[ia, ic]], out=state)
        if drops:  # summing out every axis returns a scalar, not a 0-d array
            state = np.asarray(state.sum(axis=tuple(drops)), dtype=state.dtype)
    return state[()]


def _scaled_ints(values: list[Fraction]) -> tuple[np.ndarray, int]:
    """The integers v * D over the least common denominator D, in the exact ring."""
    ints, denom = scale_to_ints(values)
    return np.array(ints, dtype=object), denom


# ---------------------------------------------------------------------------
# direct route: hexagonal (sigma, tau) model, Gram-inverse Weingarten weights
# ---------------------------------------------------------------------------


def _wg_values_at(k: int, d: int) -> list[Fraction]:
    """Wg(perms[i], d) for every group element, from the Gram-inverse oracle."""
    gram = wg_gram(k, d)
    return [gram[p] for p in group_table(k).perms]


def frame_potential_direct(
    geom: CircuitGeometry,
    k: int,
    gauge_fix: bool = False,
    state_budget: int | None = None,
) -> FramePotentialResult:
    """Exact frame potential from the hexagonal model.

    Sums over a permutation pair (sigma, tau) per gate with a Weingarten
    factor per gate and a q^ell inner product per leg, contracted by the
    shared planned sweep in scaled integer arithmetic.  An explicit budget
    guards the peak contraction state; raw enumeration of the same sum is kept
    in `_frame_potential_bruteforce` for tiny cross-checks.

    With `gauge_fix` the first gate's sigma is pinned to the identity and the
    result multiplied by k! (exact spin-relabelling symmetry; verified against
    the unfixed sum in the test suite).

    For d = q^2 < k the Gram system is singular and, for every k <= 6, the
    unrestricted Weingarten function has a pole at d; PoleError is raised
    ahead of any budget verdict.
    """
    check_moment(k)
    if geom.t <= 1:
        return _special_result(geom, k)
    q = geom.q
    d = q * q
    if d < k:
        raise PoleError(f"Weingarten function has a pole at d = q^2 = {d} for k={k}")

    # variables sigma_g -> 2g, tau_g -> 2g + 1; table 0: Wg(sigma_g^-1 tau_g) per
    # gate; table 1: q^ell(tau_g^-1 sigma_h) per leg
    factors = [(2 * g, 2 * g + 1, 2 * g, 0) for g in range(geom.n_gates)]
    factors += [(2 * src + 1, 2 * dst, 2 * src + 1, 1) for src, _, dst in geom.legs]
    # layer-major takes a layer's sigmas, then its taus; column-major each
    # gate's pair in turn
    layer_major = [
        2 * g.gid + side for layer in geom.layers for side in (0, 1) for g in layer
    ]
    column_major = [2 * g.gid + side for g in _column_major(geom) for side in (0, 1)]
    candidates = {"layer-major": layer_major, "column-major": column_major}
    budget = _state_budget() if state_budget is None else state_budget
    plan = _plan(
        2 * geom.n_gates,
        factors,
        candidates,
        gauge_fix,
        math.factorial(k),
        budget,
    )

    gt = group_table(k)
    wg, denom = _scaled_ints(_wg_values_at(k, d))
    qpow = np.array([q**c for c in gt.n_cycles.tolist()], dtype=object)
    value = Fraction(_sweep(plan, [wg[:, None], qpow[:, None]], k), denom**geom.n_gates)
    if gauge_fix:
        value *= math.factorial(k)
    return FramePotentialResult(
        value=value,
        k=k,
        n=geom.n,
        q=geom.q,
        t=geom.t,
        spatial_bc=geom.spatial_bc,
        method="direct",
        backend="exact",
        gauge_fixed=gauge_fix,
    )


# ---------------------------------------------------------------------------
# transfer route: triangular plaquette model, one spin per gate
# ---------------------------------------------------------------------------


def frame_potential_transfer(
    geom: CircuitGeometry,
    k: int,
    backend: str = "exact",
    gauge_fix: bool = False,
    state_budget: int | None = None,
) -> FramePotentialResult:
    """Frame potential from the triangular plaquette model, layer by layer.

    Each gate carries one S_k spin; eliminating the per-gate tau sums turns
    the weight into a product of plaquette terms J^{spin_g}_{consumer spins},
    looked up from the symbolic table and evaluated at q.  The contraction
    state carries spins of gates whose plaquette factor or outgoing legs are
    still pending, which handles open-boundary legs that skip layers without
    any boundary-specific weights.

    `backend="exact"` contracts in scaled integers and returns a Fraction;
    `backend="float"` contracts in doubles.
    """
    check_moment(k)
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    if geom.t <= 1:
        res = _special_result(geom, k)
        if backend == "float":
            res.value = float(res.value)
            res.backend = "float"
        return res

    # gate g's spin is variable g, one plaquette per gate
    factors = [(g, c1, c2, 0) for g, (c1, c2) in enumerate(geom.consumers)]
    candidates = {
        "layer-major": [g.gid for layer in geom.layers for g in layer],
        "column-major": [g.gid for g in _column_major(geom)],
    }
    default_budget = (
        DEFAULT_STATE_BUDGET if backend == "exact" else DEFAULT_FLOAT_STATE_BUDGET
    )
    budget = _state_budget(default_budget) if state_budget is None else state_budget
    plan = _plan(
        geom.n_gates,
        factors,
        candidates,
        gauge_fix,
        math.factorial(k),
        budget,
    )

    q = geom.q
    # each distinct plaquette weight is evaluated once, then gathered per key
    weights, cls = build_table(k).key_classes()
    if backend == "exact":
        jval, denom = _scaled_ints([w.evaluate(q) for w in weights])
        value: Fraction | float = Fraction(_sweep(plan, [jval[cls]], k), denom**geom.n_gates)
    else:
        jval = np.array([w.evaluate_float(float(q)) for w in weights])
        value = float(_sweep(plan, [jval[cls]], k))
    if gauge_fix:
        value *= math.factorial(k)
    return FramePotentialResult(
        value=value,
        k=k,
        n=geom.n,
        q=geom.q,
        t=geom.t,
        spatial_bc=geom.spatial_bc,
        method="transfer",
        backend=backend,
        gauge_fixed=gauge_fix,
    )


# ---------------------------------------------------------------------------
# raw enumeration (test oracle)
# ---------------------------------------------------------------------------


def _frame_potential_bruteforce(
    geom: CircuitGeometry, k: int, config_budget: int = 20_000_000
) -> Fraction:
    """Raw (k!)^(2 G) enumeration of the hexagonal model.  Tiny instances only."""
    check_moment(k)
    if geom.t <= 1:
        return Fraction(frame_potential_special(geom.n, geom.q, geom.t, k))
    gt = group_table(k)
    order = gt.order
    n_gates = geom.n_gates
    if order ** (2 * n_gates) > config_budget:
        raise BudgetExceededError(
            f"(k!)^(2G) = {order ** (2 * n_gates)} exceeds brute-force budget"
        )
    q = geom.q
    wg_vals = {
        ct: wg_symbolic(ct, k).evaluate(q * q) for ct in gt.cycle_types
    }
    wg_elem = [wg_vals[gt.cycle_types[c]] for c in gt.ct_index.tolist()]
    mul, inv, ncyc = gt.mul.tolist(), gt.inv.tolist(), gt.n_cycles.tolist()
    qpow = [Fraction(q**e) for e in range(k + 1)]

    total = Fraction(0)
    for assignment in itertools.product(range(order), repeat=2 * n_gates):
        w = Fraction(1)
        for g in range(n_gates):
            w *= wg_elem[mul[inv[assignment[2 * g]]][assignment[2 * g + 1]]]
        if not w:
            continue
        for src, _, dst in geom.legs:
            w *= qpow[ncyc[mul[inv[assignment[2 * src + 1]]][assignment[2 * dst]]]]
        total += w
    return total
