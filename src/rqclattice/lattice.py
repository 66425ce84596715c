"""Exact frame-potential evaluation on the brickwork lattice.

A time-t brickwork circuit on n qudits maps to a lattice of depth 2(t-1)
layers with periodic boundary conditions in time; its shape (gates, layers,
legs, the gate cap) is `geometry`'s.  The k-th frame potential is
the contraction

    F = sum over (sigma_g, tau_g) per gate of
        prod_g Wg(sigma_g^-1 tau_g, q^2) * prod_{legs g->h} q^ell(tau_g^-1 sigma_h)

which this module evaluates in two models, each the other's oracle:

* :func:`frame_potential_direct` works on the hexagonal (sigma, tau)-per-gate
  model with numeric Weingarten weights from the exact Gram system alone,
  solved on class functions and checked against all k! rows (k <= 6).  For
  d = q^2 < k the Gram system is singular and the unrestricted Weingarten
  function has a pole at d, so the route raises PoleError.
* :func:`frame_potential_transfer` works on the reduced triangular model, one
  spin per gate, with symbolic plaquette weights (character-expansion route),
  in exact rationals or floats.

A route states only its model: variables, factors, candidate elimination
orders and weight tables.  One path, :func:`_evaluate`, does the rest.  t = 0
and t = 1 are degenerate (no lattice) and take closed forms (for odd n the
physical t = 1 circuit would carry an extra q^(2k) from the idle qudit).
Otherwise :func:`_plan` picks the candidate order whose live state peaks
lower: layer-major (a whole layer is live, which a short ring at long t
favours) or column-major, which keeps about 2t - 1 spins live on an open chain
whatever n is.  Every weight depends on relative elements a^-1 x only, so the
plan pins one live spin per connected stretch to the identity and re-pins it
by one gather (:func:`_repin`): every state is k! smaller at its peak.

What depends on the brickwork shape alone is built once: each route's plan
is memoized per (route model, n, t, bc), so geometries that differ only in q
share it, and is compiled per k and table widths into a :func:`_program`
(every factor's gather index, shared by all shapes, the axes summed, the
re-pins), kept for k <= 4.  The program orders the state's spin axes by the
step that sums them out, the soonest outermost: long-lived spins sit
innermost, so numpy runs long inner loops even at k = 2, where every axis has
length 2, and each step sums its leading spin axes.
A call checks the state budget, looks up the tables at q (memoized per (k, q)
and ring; exact ones are integers over a denominator D, and the swept value
is divided by D^(number of gates)) and runs :func:`_sweep` on dense numpy
arrays, each state a stack of limbs: float64 for floats; for exact values
int64 under a certified overflow bound, int64 limbs past it, and Python ints
where limbs do not pay, so every exact value is the same in any ring.  The
weights stay independent, so their exact equality on every in-budget geometry
is the package's central oracle; :func:`_frame_potential_bruteforce` checks
both against raw enumeration on tiny instances, and the tests keep the
unpinned sweep as the pinned one's oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, PoleError
from .exact import scale_to_ints
from .geometry import CircuitGeometry, Gate, _column, _layout
from .perms import check_moment, group_table
from .plaquette import build_table
from .weingarten import wg_gram, wg_symbolic

STATE_BUDGET_ENV = "RQCLATTICE_STATE_BUDGET"
DEFAULT_STATE_BUDGET = 4_000_000
# both rings hold dense numpy states, but an exact entry grows past int64 into
# int64 limbs (or Python int objects), not one 8-byte double, so the float
# backend affords more states
DEFAULT_FLOAT_STATE_BUDGET = 128_000_000


def _state_budget(default: int = DEFAULT_STATE_BUDGET) -> int:
    raw = os.environ.get(STATE_BUDGET_ENV)
    return default if raw is None else int(raw)


def build_geometry(n: int, q: int, t: int, spatial_bc: str = "open") -> CircuitGeometry:
    """Brickwork lattice geometry for the time-t frame potential (depth 2(t-1))."""
    return CircuitGeometry(n, q, t, spatial_bc)


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
    gauge_fixed: bool = False  # True for every lattice sweep, which always pins


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


# ---------------------------------------------------------------------------
# shared contraction: one budget-checked plan, one pinned sweep
# ---------------------------------------------------------------------------

# Every weight of both models is invariant under a common left multiplication
# of all spins, so every factor has one shape (anchor, b, c, table_id) with
# weight tables[table_id][rel(anchor, b)][rel(anchor, c)], rel(a, x) = a^-1 x.
# A plaquette J^{s_g}_{s_1 s_2} is (g, c_1, c_2); a pair factor f(a^-1 b) is
# (a, b, a) with a one-column table, since rel(a, a) is the identity, index 0.
_Factor = tuple[int, int, int, int]

# Largest number of state entries one chunk of a re-pin gather or of a
# measured bound holds at once, and the largest index array that is cached: a
# re-pin's, of one entry per state entry (per limb); a compiled program is kept
# where (k!)^2 is at most this, that is for k <= 4.
_CHUNK = 1 << 16
_INDEX_CACHED = 1 << 12

# The exact ring stays in int64 while a certified bound on every |entry| of
# the state is below this; a product or sum of two such entries cannot wrap.
_INT64_LIMIT = 1 << 62

# Past that bound the state splits into int64 limbs of at most _LIMB_BITS bits.
# A limb narrower than _MIN_LIMB_BITS could not take one more product or sum
# after a carry, so such tables switch to Python ints instead.  So does a k = 2
# value of more than _MAX_LIMBS_K2 limbs, whose states are small: on the open
# chain k = 2, t = 4, limbs tie with Python ints at 10 limbs (n = 64) and take
# 1.2 times as long at 21 (n = 128).  At k >= 3 limbs stay faster however many.
_LIMB_BITS = 44
_MIN_LIMB_BITS = 31
_MAX_LIMBS_K2 = 8


@dataclass(frozen=True, eq=False)
class _Plan:
    """Elimination schedule: variable s enters the state as its last slot at
    step s; steps[s] holds the factors applied then, in state slots, and the
    sorted slots summed out after them.

    pins[s] is the pin schedule of step s, (enters, repin): whether variable
    s enters pinned to the identity (an axis of size 1), and the slot, after
    the step's sums, that is re-pinned then (None for no re-pin).  `stretches`
    counts the pinned connected stretches, each worth a factor k!.  `order`
    names the candidate elimination order the variables were relabelled by.
    live[s] counts the state axes at step s other than the pinned one, so that
    state holds (k!)^live[s] entries; `peak` is the largest of them.
    drop_at[v] is the step that sums variable v out.  A plan compares and
    hashes by identity: one is kept per route and shape.
    """

    steps: tuple[tuple[tuple[_Factor, ...], tuple[int, ...]], ...]
    pins: tuple[tuple[bool, int | None], ...]
    stretches: int
    order: str
    live: tuple[int, ...]
    peak: int
    drop_at: tuple[int, ...]


def _plan(model, geom: CircuitGeometry, group_order: int, budget: int) -> _Plan:
    """The plan of route `model` on the shape of `geom`, its state budget
    checked: no state may hold more entries, and all together 1024 times more.

    The schedule depends on the scopes alone, not on q, k or the number ring,
    so `_shape_plan` keeps one per route and (n, t, bc); the budget needs only
    its live counts and k!, so both routes plan, and every call is checked,
    before any weight table is looked up.
    """
    plan = _shape_plan(model, geom.n, geom.t, geom.spatial_bc)
    if group_order**plan.peak > budget:
        s = next(s for s, m in enumerate(plan.live) if group_order**m > budget)
        raise BudgetExceededError(
            f"contraction state would reach {group_order ** plan.live[s]} > budget "
            f"{budget} at step {s} of the {plan.order} order; raise {STATE_BUDGET_ENV}"
        )
    if len(plan.live) * group_order**plan.peak > budget << 10:  # no state exceeds the peak
        work = sum(group_order**m for m in plan.live)
        if work > budget << 10:
            raise BudgetExceededError(
                f"contraction states would hold {work} entries over {len(plan.live)} steps "
                f"> 1024 x budget {budget}; raise {STATE_BUDGET_ENV}"
            )
    return plan


@lru_cache(maxsize=256)
def _shape_plan(model, n: int, t: int, spatial_bc: str) -> _Plan:
    """The plan of the route model `model(n, t, spatial_bc)`, built once per
    route and brickwork shape."""
    return _planned(*model(n, t, spatial_bc))


def _planned(
    n_vars: int,
    factors: tuple[_Factor, ...],
    candidates: tuple[tuple[str, tuple[int, ...]], ...],
) -> _Plan:
    """Schedule a contraction over variables 0..n_vars-1 in the candidate
    order of least pinned peak (the first on a tie).

    `candidates` pairs the name of each elimination order with the variables
    in that order.  Each factor is applied at the step of its last variable
    and each variable summed out after its last factor.
    """
    options = []
    for name, order in candidates:
        pos = [0] * n_vars
        for step, v in enumerate(order):
            pos[v] = step
        relabelled = [(pos[a], pos[b], pos[c], tid) for a, b, c, tid in factors]
        drop_at = list(range(n_vars))
        for f in relabelled:
            s = max(f[:3])
            for v in f[:3]:
                drop_at[v] = max(drop_at[v], s)
        live, repins = _pin_schedule(drop_at)
        options.append((max(live), name, live, repins, relabelled, drop_at))
    peak, name, live, repins, relabelled, drop_at = min(options, key=lambda o: o[0])

    step_factors: list[list[_Factor]] = [[] for _ in range(n_vars)]
    for f in relabelled:
        step_factors[max(f[:3])].append(f)
    steps, pins = [], []
    state: list[int] = []
    for s in range(n_vars):
        enters = not state
        state.append(s)
        slot = {v: i for i, v in enumerate(state)}
        steps.append((
            tuple((slot[a], slot[b], slot[c], tid) for a, b, c, tid in step_factors[s]),
            tuple(sorted(slot[v] for v in state if drop_at[v] == s)),
        ))
        state = [v for v in state if drop_at[v] > s]
        repin = state.index(max(state, key=drop_at.__getitem__)) if s in repins else None
        pins.append((enters, repin))
    stretches = sum(enters for enters, _ in pins)
    return _Plan(tuple(steps), tuple(pins), stretches, name, live, peak, tuple(drop_at))


def _pin_schedule(drop_at: list[int]) -> tuple[tuple[int, ...], frozenset[int]]:
    """Live counts and re-pin steps of one elimination order, in linear time.

    A variable that enters an empty state starts a connected stretch and is
    pinned.  When the pinned variable is summed out, the pin moves to the live
    variable summed out last, but only if the stretch reaches its peak again;
    otherwise the state stays restricted to the old pin until the stretch ends.
    """
    n_vars = len(drop_at)
    # alive[s]: variables in the state at step s, before its sums: +1 where a
    # variable enters, -1 after it drops
    delta = [0] * (n_vars + 1)
    for v, d in enumerate(drop_at):
        delta[v] += 1
        delta[d + 1] -= 1
    alive = list(itertools.accumulate(delta[:n_vars]))
    # ahead[s]: the most variables alive at a later step of the same stretch
    ahead = [0] * n_vars
    for s in range(n_vars - 2, -1, -1):
        if alive[s + 1] > 1:  # step s + 1 does not start a stretch
            ahead[s] = max(alive[s + 1], ahead[s + 1])
    live, repins = [], set()
    pin_drop = None  # the step that sums out the pinned variable
    last_drop = -1  # the last step that sums out a variable entered so far
    for s, (count, drop) in enumerate(zip(alive, drop_at)):
        if count == 1:  # variable s enters an empty state
            pin_drop, top = drop, 0
        top = max(top, count)
        last_drop = max(last_drop, drop)
        live.append(count - (pin_drop is not None))
        if pin_drop == s:
            pin_drop = None
            if last_drop > s and ahead[s] >= top:  # a live variable to re-pin
                pin_drop = last_drop
                repins.add(s)
    return tuple(live), frozenset(repins)


def _column_major(gates: tuple[Gate, ...]) -> list[Gate]:
    """Gates sorted by (column, layer).  Sweeping columns keeps about 2t - 1
    spins live on an open chain, where the layer-major order keeps a whole
    layer."""
    return sorted(gates, key=lambda g: (_column(g.qudits), g.layer))


def _program(plan: _Plan, k: int, widths: tuple[int, ...]) -> tuple[tuple, ...]:
    """The plan's steps compiled for S_k and tables of the given widths, kept
    per (plan, k, widths) with every index shared through `_gather_index` for
    k <= 4; for k >= 5, whose indices hold up to (k!)^3 entries, built on
    every call, sharing its indices only within the program, and not kept."""
    compiled = _compiled if math.factorial(k) ** 2 <= _INDEX_CACHED else _compiled.__wrapped__
    return compiled(plan, k, widths)


@lru_cache(maxsize=1024)
def _compiled(plan: _Plan, k: int, widths: tuple[int, ...]) -> tuple[tuple, ...]:
    """Each step of `_program` is (shape, key, axis, gathers, drops, terms,
    repin), on the state's spin axes ordered by the step that sums them out,
    the soonest outermost and ties in entry order: their shape once the
    entering axis is in (of size 1 if pinned); the index `key` that inserts
    that axis, and the axis, counted from the end; each factor's table id and
    `_gather_index` into its flat table; the spin axes summed out, always the
    leading ones, 1..d after the limb axis, with the terms of each sum; and
    the re-pinned spin axis.  So the spins that live longest sit innermost,
    factor products walk long contiguous loops and sums reduce over outer
    axes, even at k = 2, where every axis has length 2."""
    order = math.factorial(k)
    kept = order**2 <= _INDEX_CACHED
    gather_index = _gather_index if kept else lru_cache(maxsize=None)(_gather_index.__wrapped__)
    program, slots, spins, shape = [], [], (), ()
    for s, ((factors, drops), (enters, repin)) in enumerate(zip(plan.steps, plan.pins)):
        slots.append(s)
        at = sum(plan.drop_at[v] <= plan.drop_at[s] for v in spins)
        spins, shape = spins[:at] + (s,) + spins[at:], shape[:at] + (1 if enters else order,) + shape[at:]
        axes = {v: i for i, v in enumerate(spins)}
        gathers = tuple(
            (tid, gather_index(k, widths[tid], *(
                (shape[axes[slots[x]]], len(spins) - 1 - axes[slots[x]]) for x in (a, b, c))))
            for a, b, c, tid in factors
        )
        slots = [v for i, v in enumerate(slots) if i not in drops]
        d = len(drops)  # the variables summed out now are the d outermost
        pin = None if repin is None else spins.index(slots[repin]) - d
        program.append((
            shape, (Ellipsis, None) + (slice(None),) * (len(spins) - 1 - at), at - len(spins),
            gathers, tuple(range(1, d + 1)), math.prod(shape[:d]), pin,
        ))
        spins, shape = spins[d:], shape[d:]
        if pin is not None:
            shape = shape[:pin] + (1,) + shape[pin + 1 :]
    return tuple(program)


@lru_cache(maxsize=None)
def _gather_index(k: int, width: int, *axes: tuple[int, int]) -> np.ndarray:
    """The flat weight index rel(x_a, x_b) * width + rel(x_a, x_c) of a factor
    on the spin axes a, b, c, each given as (size, number of axes after it),
    broadcast along them after a limb axis of size 1, so that a factor as
    large as a one-limb state has its shape."""
    rel = group_table(k).rel
    ia, ib, ic = (np.arange(size).reshape((size,) + (1,) * trailing) for size, trailing in axes)
    index = (rel[ia, ib] * width + rel[ia, ic])[None]
    index.setflags(write=False)  # cached arrays are shared by every caller
    return index


def _sweep(plan: _Plan, tables: tuple[np.ndarray, ...], k: int, bounds: tuple[int, ...] | None = None):
    """Contract a plan over dense factor tables by running its `_program`.

    The state is a stack of limbs worth sum_j limb_j 2^(bits j) in every ring,
    one limb until it splits, then one spin axis per live variable, ordered by
    the step that sums it out, the soonest first and ties in entry order; the
    pinned variable's axis has size 1, its one value the identity (index 0).
    A spin enters as a view that inserts its axis, repeated k! times unless
    pinned, and each sum reduces axes 1..d.  float64 tables (`bounds` None)
    give a float.  Integer tables, int64 or object, with bounds[i] the largest
    |entry| of tables[i], give the exact integer as a Python int: in int64
    while a certified bound on every |entry|, carried in Python ints (times
    the table's bound at each factor, the number of terms at each sum or
    re-pin), stays below _INT64_LIMIT.  Only where it would not is the state
    measured (`_max_abs` before a factor, `_abs_sum` before a sum or re-pin).
    If that fails too, the stack splits into int64 limbs of `bits` bits, and
    `_carry` runs where the bound per limb needs it; `bits` leaves room for
    one product by the widest entry, or one sum as large as the peak state,
    after a carry.  One switch, `to_object`, joins the limbs into one limb of
    Python ints and casts the tables, for tables too wide for int64 or for
    limbs of _MIN_LIMB_BITS bits, and for k = 2 values past _MAX_LIMBS_K2
    limbs.  The DEBUG record names the ring, the limb width, the step of each
    switch and the limb count at the end.
    """
    gt = group_table(k)
    program = _program(plan, k, tuple(t.shape[1] for t in tables))
    tables = [t.ravel() for t in tables]
    state = np.array([1], dtype=tables[0].dtype)
    bound = None if bounds is None else 1  # a bound on every |limb| in int64
    top = 0  # in limbs, a bound on every |top limb|
    bits = None  # the limb width once the state has split into limbs
    ring = "float64" if bounds is None else "int64 throughout"

    def to_object(record):
        """Leave int64 for Python ints for the rest of the sweep: join the
        limbs into one (a lone limb is only cast) and cast the tables."""
        nonlocal bound, top, bits, state, tables, ring
        joined = state[-1:].astype(object)
        for limb in state[-2::-1]:
            joined = (joined << bits) + limb.astype(object)
        state, tables = joined, [t.astype(object, copy=False) for t in tables]
        bound, top, bits, ring = None, 0, None, record

    def widen(factor, measure):
        """Bound the state after an operation that grows it by `factor` where
        its bound times `factor` reaches the limit: measure an int64 state,
        split it into limbs or carry its limbs, or leave int64."""
        nonlocal bound, top, bits, state, ring
        if bits is None:
            grown = measure()
            if grown < _INT64_LIMIT:
                bound = grown
                return
            # a sum or re-pin adds at most as many terms as the peak state holds
            widest = max(*bounds, gt.order**plan.peak)
            bits = min(_LIMB_BITS, 61 - widest.bit_length())
            if bits < _MIN_LIMB_BITS:
                return to_object(f"int64, switched to object at step {step}")
            ring, top = f"int64, switched to {bits}-bit limbs at step {step}", bound
        state, bound, top = _carry(state, bits, bound, top, factor)
        if k == 2 and len(state) > _MAX_LIMBS_K2:
            return to_object(f"{ring}, to object at step {step}")
        bound, top = bound * factor, top * factor

    if bounds is not None and any(t.dtype != np.int64 for t in tables):
        to_object("object from the start")
    for step, (shape, key, axis, gathers, drops, terms, repin) in enumerate(program):
        # a pinned axis enters as a view: the state it widens is not used again
        state = state[key] if shape[axis] == 1 else state[key].repeat(shape[axis], axis)
        for tid, index in gathers:
            if bound is not None:
                if bound * bounds[tid] < _INT64_LIMIT:
                    bound, top = bound * bounds[tid], top * bounds[tid]
                else:
                    widen(bounds[tid], lambda: _max_abs(state) * bounds[tid])
            np.multiply(state, tables[tid][index], out=state)
        if drops:
            if bound is not None:
                if bound * terms < _INT64_LIMIT:
                    bound, top = bound * terms, top * terms
                else:
                    widen(terms, lambda: _abs_sum(state, drops))
            state = np.add.reduce(state, axis=drops)
        if repin is not None:
            if bound is not None:  # each entry sums k! distinct entries
                if bound * gt.order < _INT64_LIMIT:
                    bound, top = bound * gt.order, top * gt.order
                else:
                    widen(gt.order, lambda: _abs_sum(state, tuple(range(1, state.ndim))))
            state = _repin(state, repin, k)

    if bits is not None:
        ring += f" ({len(state)} limbs at the end)"
    # a record reaches a handler only where logging was configured, which
    # imports it; a process that never did skips the check and the import
    logging = sys.modules.get("logging")
    if logging is not None:
        log = logging.getLogger(__name__)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "sweep: %s order, %d steps, peak %d (%d states), ring %s",
                plan.order, len(plan.steps), plan.peak, gt.order**plan.peak, ring,
            )
    low, *high = state.tolist()
    return sum((limb << (bits * j) for j, limb in enumerate(high, 1)), low) * gt.order**plan.stretches


def _carry(
    state: np.ndarray, bits: int, bound: int, top: int, factor: int
) -> tuple[np.ndarray, int, int]:
    """Carry a stack of int64 limbs of `bits` bits, on the leading axis, so
    that an operation that grows every |limb| by `factor` cannot reach
    _INT64_LIMIT.  `bound` bounds every |limb| and `top` every |top limb|,
    both below the limit; returns the stack and both bounds.

    Each lower limb keeps its remainder mod 2^bits and passes the floor of the
    rest up to the next: an int64 >> is a floor division and & a non-negative
    remainder, so the value stays exact for signed limbs, and the top limb
    carries the sign.  Only where the top limb's bound needs it is the top
    limb measured, and it splits off a new limb while it passes 2^bits.
    Every lower limb is then below 2^bits + 2^(62 - bits), and the top limb
    below 2^bits unless its product with `factor` stays below the limit.
    """
    mask = (1 << bits) - 1
    low = 0  # the bound on every |limb| below the top one
    if len(state) > 1:
        high = state[:-1] >> bits
        state[:-1] &= mask
        state[1:] += high
        carried = -(-bound >> bits)
        low, top = mask + carried, top + carried  # a remainder and a carry in
    if top * factor >= _INT64_LIMIT:
        if len(state) > 1:  # a lone limb, the int64 state, splits unmeasured
            top = _max_abs(state[-1])
        while top > mask:
            high = state[-1:] >> bits
            state[-1] &= mask
            state = np.concatenate((state, high))
            low, top = max(low, mask), -(-top >> bits)
    return state, max(low, top), top


def _max_abs(state: np.ndarray) -> int:
    """The largest |entry| of an int64 state, from two reductions."""
    return max(int(state.max()), -int(state.min()))


def _abs_sum(state: np.ndarray, axes: tuple[int, ...]) -> int:
    """A certified bound on every |sum of an int64 state over `axes`|: the
    largest float64 sum of |entries| over them, in chunks of at most _CHUNK
    entries along the first axis longer than 1, raised to cover rounding."""
    axis = next((i for i, size in enumerate(state.shape) if size > 1), 0)
    rows = max(1, _CHUNK * state.shape[axis] // state.size)
    total, peak = 0.0, 0.0
    for start in range(0, state.shape[axis], rows):
        chunk = state[(slice(None),) * axis + (slice(start, start + rows),)]
        part = np.absolute(chunk, dtype=np.float64).sum(axis=axes)
        if axis in axes:  # the chunks add up to the same sums
            total = total + part
        else:
            peak = max(peak, float(part.max()))
    peak = max(peak, float(np.max(total)))
    # each sum has at most state.size terms, each converted and added with a
    # relative rounding error of at most 2^-53
    return math.ceil(peak * (1 + state.size * 2.0**-50))


def _repin(state: np.ndarray, slot: int, k: int) -> np.ndarray:
    """Pin spin axis `slot` of a stack of limbs whose old pin was just summed
    out; the leading limb axis is carried through.

    The state holds T(x) = F(id, x) of an invariant F(p, x) whose pinned spin
    p is summed out, so that the sum is G(x) = sum_p T(p^-1 x); G is kept at
    x_slot = id, G(id, y) = sum_s T(s^-1, s^-1 y), gathered in chunks of s of
    at most _CHUNK entries.
    """
    order = group_table(k).order
    limbs, spins = state.shape[0], state.shape[1:]
    flat = state.reshape(limbs, -1)
    # small shapes recur, and a state of at most _INDEX_CACHED entries per limb
    # is one chunk, so its index is cached; a large state's are built and not kept
    index = _repin_index if flat.shape[1] <= _INDEX_CACHED else _repin_index.__wrapped__
    chunk = max(1, _CHUNK * order // state.size)
    out = None
    for start in range(0, order, chunk):
        rows = index(k, len(spins), slot, start, min(start + chunk, order))
        part = np.add.reduce(flat.take(rows, axis=1), axis=1)
        if out is None:
            out = part
        else:
            out += part
    return out.reshape((limbs,) + spins[:slot] + (1,) + spins[slot + 1 :])


@lru_cache(maxsize=None)
def _repin_index(k: int, ndim: int, slot: int, start: int, stop: int) -> np.ndarray:
    """Flat indices of (s^-1 y) into a state of `ndim` full axes, for s in
    start..stop-1 (rows) and every y with y_slot = id (columns, C order)."""
    rel = group_table(k).rel
    s = np.arange(start, stop)
    index = np.zeros((len(s), 1), dtype=np.intp)
    for axis in range(ndim):
        column = rel[s, :1] if axis == slot else rel[s]
        index = (index[:, :, None] * len(rel) + column[:, None, :]).reshape(len(s), -1)
    index.setflags(write=False)  # cached arrays are shared by every caller
    return index


def _exact_table(ints: list[int]) -> tuple[np.ndarray, int]:
    """Integer weights as a table of the exact ring, int64 if every |entry| is
    below _INT64_LIMIT and object otherwise, with their largest |entry|."""
    bound = max(map(abs, ints))
    return np.array(ints, dtype=np.int64 if bound < _INT64_LIMIT else object), bound


def _evaluate(
    geom: CircuitGeometry, k: int, method: str, backend: str, model, tables,
) -> FramePotentialResult:
    """The frame potential of one route on `geom`, in `backend`'s ring: the
    route's `model(n, t, bc)`, (n_vars, factors, candidates) for `_planned`,
    and `tables(k, q)`, the memoized (tables, D, bounds) of its weights at q for
    `_sweep` over a denominator D (1 for float).  The budget, STATE_BUDGET_ENV
    or the ring's default, is checked before any table is looked up."""
    if geom.t <= 1:
        method, value, denom = "special", frame_potential_special(geom.n, geom.q, geom.t, k), 1
    else:
        default = DEFAULT_STATE_BUDGET if backend == "exact" else DEFAULT_FLOAT_STATE_BUDGET
        plan = _plan(model, geom, math.factorial(k), _state_budget(default))
        weights, denom, bounds = tables(k, geom.q)
        value = _sweep(plan, weights, k, bounds)
    if backend == "exact":
        value = Fraction(value, denom**geom.n_gates)
    else:
        try:
            value = float(value)
        except OverflowError:  # a t <= 1 closed form past the largest double
            value = math.inf
    return FramePotentialResult(
        value, k, geom.n, geom.q, geom.t, geom.spatial_bc, method, backend, gauge_fixed=method != "special"
    )


# ---------------------------------------------------------------------------
# direct route: hexagonal (sigma, tau) model, Gram-inverse Weingarten weights
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _gram_tables(k: int, q: int) -> tuple[tuple[np.ndarray, ...], int, tuple[int, ...]]:
    """The read-only one-column tables of the direct route at q, with the
    sweep's `bounds`: Wg(x, q^2) from the Gram oracle, scaled to integers
    over their least common denominator D, and q^ell(x).  Memoized, so
    `wg_gram` runs once per (k, q)."""
    gt = group_table(k)
    gram = wg_gram(k, q * q)
    ints, denom = scale_to_ints([gram[p] for p in gt.perms])
    wg, wg_bound = _exact_table(ints)
    qpow, q_bound = _exact_table([q**c for c in gt.n_cycles.tolist()])
    tables = (wg[:, None], qpow[:, None])
    for table in tables:
        table.setflags(write=False)  # cached arrays are shared by every caller
    return tables, denom, (wg_bound, q_bound)


def frame_potential_direct(geom: CircuitGeometry, k: int, gauge_fix: bool = False) -> FramePotentialResult:
    """Exact frame potential from the hexagonal model.

    Sums over a permutation pair (sigma, tau) per gate with a Weingarten
    factor per gate and a q^ell inner product per leg; raw enumeration of the
    same sum is kept in `_frame_potential_bruteforce` for tiny cross-checks.
    For d = q^2 < k the Gram system is singular and, for every k <= 6, the
    unrestricted Weingarten function has a pole at d; PoleError is raised
    ahead of any budget verdict.  `gauge_fix` has no effect: every sweep pins
    one spin to the identity.  The argument is still accepted and will be
    removed.
    """
    check_moment(k)
    d = geom.q * geom.q
    if geom.t > 1 and d < k:
        raise PoleError(f"Weingarten function has a pole at d = q^2 = {d} for k={k}")
    return _evaluate(geom, k, "direct", "exact", _direct_model, _gram_tables)


def _direct_model(n: int, t: int, spatial_bc: str) -> tuple[int, tuple[_Factor, ...], tuple]:
    """Variables sigma_g -> 2g, tau_g -> 2g + 1; table 0: Wg(sigma_g^-1 tau_g)
    per gate; table 1: q^ell(tau_g^-1 sigma_h) per leg.  Layer-major takes a
    layer's sigmas, then its taus; column-major each gate's pair in turn."""
    layers, gates, legs = _layout(n, t, spatial_bc)
    pairs = tuple((2 * g, 2 * g + 1, 2 * g, 0) for g in range(len(gates)))
    bonds = tuple((2 * src + 1, 2 * dst, 2 * src + 1, 1) for src, _, dst in legs)
    return 2 * len(gates), pairs + bonds, (
        ("layer-major", tuple(2 * g.gid + side for layer in layers for side in (0, 1) for g in layer)),
        ("column-major", tuple(2 * g.gid + side for g in _column_major(gates) for side in (0, 1))),
    )


# ---------------------------------------------------------------------------
# transfer route: triangular plaquette model, one spin per gate
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _plaquette_table(k: int, q: int, backend: str) -> tuple[tuple[np.ndarray], int, tuple[int, ...] | None]:
    """The read-only (k!, k!) table of plaquette weights at q in the backend's
    ring, with the sweep's `bounds`: exact weights are scaled to integers over
    their least common denominator D, with their largest |entry|; float ones
    have D = 1 and no bounds.  Memoized, so each class weight is evaluated
    once per (k, q) and ring."""
    weights, cls = build_table(k).key_classes()
    if backend == "exact":
        ints, denom = scale_to_ints([w.evaluate(q) for w in weights])
        values, bound = _exact_table(ints)
        bounds = (bound,)
    else:
        values, denom, bounds = np.array([w.evaluate_float(float(q)) for w in weights]), 1, None
    table = values[cls]
    table.setflags(write=False)  # cached arrays are shared by every caller
    return (table,), denom, bounds


def frame_potential_transfer(
    geom: CircuitGeometry, k: int, backend: str = "exact", gauge_fix: bool = False
) -> FramePotentialResult:
    """Frame potential from the triangular plaquette model.

    Each gate carries one S_k spin; eliminating the per-gate tau sums turns
    the weight into a product of plaquette terms J^{spin_g}_{consumer spins},
    looked up from the symbolic table and evaluated at q.  The contraction
    state carries spins of gates whose plaquette factor or outgoing legs are
    still pending, which handles open-boundary legs that skip layers without
    any boundary-specific weights.

    `backend="exact"` returns a Fraction, `backend="float"` a float.
    `gauge_fix` has no effect: every sweep pins one spin to the identity.  The
    argument is still accepted and will be removed.
    """
    check_moment(k)
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    return _evaluate(
        geom, k, "transfer", backend, _transfer_model,
        lambda k, q: _plaquette_table(k, q, backend),
    )


def _transfer_model(n: int, t: int, spatial_bc: str) -> tuple[int, tuple[_Factor, ...], tuple]:
    """Gate g's spin is variable g, with one plaquette per gate over the
    consumers of its two output legs."""
    layers, gates, legs = _layout(n, t, spatial_bc)
    return len(gates), tuple((g, legs[2 * g][2], legs[2 * g + 1][2], 0) for g in range(len(gates))), (
        ("layer-major", tuple(g.gid for layer in layers for g in layer)),
        ("column-major", tuple(g.gid for g in _column_major(gates))),
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
