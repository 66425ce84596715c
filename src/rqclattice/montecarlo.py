"""Monte Carlo frame-potential estimation by contracting sampled trace networks.

This is the package's floating-point physical oracle: it samples Haar 2-site
gates on the reduced depth-2(t-1) brickwork circuit and averages |Tr|^(2k)
over independent circuits.  It shares no code with the exact lattice
evaluators, only the brickwork shape of `geometry`: the instance check, the
layer layout of open chains and periodic rings (a circuit has the gates of a
`CircuitGeometry`, in the same order), the gate count and the column key.

A trace is a closed tensor network (Markov & Shi, arXiv:quant-ph/0511069).
Each gate is a (q, q, q, q) tensor; each qudit's world line is cut into
segments between its gates, and the trace closes the last segment onto the
first.  The two-sided Tr(U^dagger V) is the same kind of network: V's gates,
then U's gates daggered and in reverse order.  `_plan` schedules a network in
two gate orders, keeps the one whose largest state per sample is smaller and
compiles it once per (n, q, depth, bc, two_sided):

* column-major, qudit by qudit with a ring's wrap gates first: the state
  holds about q^depth entries, so a sample costs about n q^depth;
* layer-major, in order of application: about the dense q^n x q^n product,
  which small chains and deep rings need.

The compiled plan lays every gate out as the matrix its step multiplies (one
gather over the chunk's gates; a qudit with a single gate is traced out
there), and each step of `_traces` is at most one contiguous copy of the
state and one `np.matmul` batched over the samples.  The plan's peak, the
larger of a sample's gates and its largest state, is checked against
PEAK_BUDGET before any stream is drawn.

Sampling is batched over samples.  The estimator splits the samples into
contiguous chunks of CHUNK_ENTRIES // peak samples, at least one, so that a
chunk's arrays hold at most CHUNK_ENTRIES complex entries (1 MB) unless one
sample needs more.  A chunk draws its samples' normals from one Philox
generator, re-keyed for each sample, then runs one Gram-Schmidt kernel over
all its gates (`_haar_from_normals`; no LAPACK) and one contraction.  With
`threads` > 1 a thread pool runs the chunks.

Sampling is reproducible by construction: the gates of sample i are drawn from
a counter-based Philox stream keyed by (seed, i), all gates of a sample in one
call (for the two-sided form U's gates, then V's), and every sample's value is
computed by the same per-sample operations whatever chunk it falls in.  So
results are bit-identical however samples are chunked and scheduled across
threads.

Note the time convention: circuit_trace(t) multiplies the 2(t-1) layers left
after absorbing one layer of each circuit copy, so t=1 is the empty product
with trace q^n.  The absorbed-layer reduction degenerates at t=1 (one merged
layer physically remains), so estimates are compared with exact frame
potentials only for t >= 2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError
from .geometry import _check_instance, _column, _depth, _gate_count, _layer_pairs

# complex entries of a sample's largest array (its gates or a planned state):
# a 4096 x 4096 circuit matrix, so every instance a dense product could hold fits
PEAK_BUDGET = 1 << 24
# complex entries per sample array of one chunk (gates or states): 1 MB
CHUNK_ENTRIES = 1 << 16


@dataclass
class MCEstimate:
    """Sampled frame-potential mean with its standard error."""

    mean: float
    std_error: float
    max_sample: float
    samples: int
    seed: int
    k: int
    n: int
    q: int
    t: int
    two_sided: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... + a[-1] of two or more rows, added in that order.

    np.sum may reorder a short axis (pairwise, once the rest of the array is
    a single entry), which would make a gate's bits depend on its batch.
    """
    s = a[0] + a[1]
    for row in a[2:]:
        s += row
    return s


def _haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from (..., 2, dim, dim) normals, real parts then imaginary.

    The Q factor of a complex Ginibre matrix whose R has a positive diagonal
    is Haar-distributed (Mezzadri, arXiv:math-ph/0609050), and Gram-Schmidt
    gives that Q with no phase fix.  The matrices are one complex
    (dim, dim, N) array with the batch on the last axis.  Right-looking, column
    by column: normalise column i, then project it out of all later columns
    at once, twice (reorthogonalisation).  Every step is elementwise over the
    batch and every sum over rows runs in row order, so a gate's bits do not
    depend on the batch it is in.
    """
    *lead, _, dim, _ = g.shape
    flat = g.reshape(-1, 2, dim, dim)
    a = np.empty((dim, dim, len(flat)), dtype=complex)
    a.real = flat[:, 0].transpose(1, 2, 0)
    a.imag = flat[:, 1].transpose(1, 2, 0)
    for i in range(dim):
        col = a[:, i]
        parts = col.view(float)  # (dim, 2N): real and imaginary parts interleaved
        norm2 = _row_sum(parts * parts)
        col /= np.sqrt(norm2[0::2] + norm2[1::2])
        if i + 1 < dim:
            later, left, right = a[:, i + 1:], col[:, None], col.conj()[:, None]
            for _ in range(2):
                later -= left * _row_sum(right * later)
    return np.ascontiguousarray(a.transpose(2, 0, 1)).reshape(*lead, dim, dim)


def sample_haar_gate(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-random unitary: Gram-Schmidt Q of a complex Ginibre matrix.

    With `count`, a (count, dim, dim) stack of independent gates from one draw;
    its normals come in the same order as `count` single-gate calls, and each
    gate is bit-identical to its single-gate draw.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    return _haar_from_normals(rng.standard_normal(shape))


class _Plan(NamedTuple):
    """One trace network, scheduled and compiled (`_plan`)."""

    pairs: tuple  # qudit pairs of its gates in order of application
    peak: int  # complex entries of a sample's largest array: its gates or a state
    scale: int  # q per qudit that no gate touches
    gathers: tuple  # (daggered, (q^m, entries) flat gate indices) per kind of gate in use
    steps: tuple  # (gather, lo, hi, gate shape, state shape, axes or None, product shape)


def _network(n: int, depth: int, bc: str, two_sided: bool) -> tuple[list, list]:
    """The gates of a trace network in order of application, (draw, pair,
    daggered) each, and the segment labels of each gate's stored axes.

    A gate's stored tensor has axes (out_a, out_b, in_a, in_b) for its pair
    (a, b); a daggered gate's in and out axes trade places.  Segment (x, r)
    of qudit x runs from the r-th gate on x to the next; the last closes onto
    the first, so a qudit with one gate leaves a loop on it.
    """
    pairs = [pair for layer in range(depth) for pair in _layer_pairs(n, layer, bc)]
    g = len(pairs)
    if two_sided:  # a sample draws U's gates, then V's; Tr(U^dagger V)
        net = [(g + i, pair, False) for i, pair in enumerate(pairs)]
        net += [(i, pairs[i], True) for i in reversed(range(g))]
    else:
        net = [(i, pair, False) for i, pair in enumerate(pairs)]
    touches: dict[int, list[int]] = {}
    for pos, (_, pair, _) in enumerate(net):
        for x in pair:
            touches.setdefault(x, []).append(pos)
    legs = [[None] * 4 for _ in net]
    for x, positions in touches.items():
        for r, pos in enumerate(positions):
            _, (a, _), daggered = net[pos]
            side = 0 if x == a else 1
            out_axis, in_axis = (side + 2, side) if daggered else (side, side + 2)
            legs[pos][out_axis] = (x, r)
            legs[pos][in_axis] = (x, (r - 1) % len(positions))
    return net, legs


def _schedule(legs: list, order, q: int) -> tuple[list, int] | None:
    """Contract the gates in `order` into one state: per gate its traced sides,
    shared and new axes and the state axes it keeps, with the peak state;
    None once a state passes PEAK_BUDGET.

    The state's axes are its open segments; a gate's shared segments move to
    the end, in state order, and its new ones are appended.
    """
    state: list = []
    steps, peak = [], 1
    for pos in order:
        labels = legs[pos]
        loops = [side for side in (0, 1) if labels[side] == labels[side + 2]]
        where = {label: i for i, label in enumerate(state)}
        free = [ax for ax in range(4) if ax % 2 not in loops]
        shared = sorted((ax for ax in free if labels[ax] in where), key=lambda ax: where[labels[ax]])
        new = [ax for ax in free if labels[ax] not in where]
        closed = {labels[ax] for ax in shared}
        kept = [i for i, label in enumerate(state) if label not in closed]
        axes = kept + [where[labels[ax]] for ax in shared]
        state = [state[i] for i in kept] + [labels[ax] for ax in new]
        peak = max(peak, q ** len(state))
        if peak > PEAK_BUDGET:
            return None
        steps.append((pos, loops, shared, new, kept, axes))
    return steps, peak


@lru_cache(maxsize=64)
def _plan(n: int, q: int, depth: int, bc: str, two_sided: bool) -> _Plan:
    """The trace network of depth-`depth` circuits, one Tr W or Tr(U^dagger V),
    in whichever gate order peaks lower: column-major (by `_column`, then in
    order of application) or layer-major (in order of application).  Raises
    BudgetExceededError when a sample's gates, or a state in both orders,
    pass PEAK_BUDGET complex entries.
    """
    gates = (2 if two_sided else 1) * _gate_count(n, depth, bc)
    if gates * q**4 > PEAK_BUDGET:
        raise BudgetExceededError(
            f"{gates} gates of q^4 = {q**4} entries exceed budget {PEAK_BUDGET} per sample"
        )
    net, legs = _network(n, depth, bc, two_sided)
    column = sorted(range(len(net)), key=lambda p: (_column(net[p][1]), p))
    candidates = [s for s in (_schedule(legs, column, q), _schedule(legs, range(len(net)), q)) if s]
    if not candidates:
        raise BudgetExceededError(
            f"trace network of n={n}, q={q}, depth {depth} ({bc}) peaks past {PEAK_BUDGET} "
            "complex entries per sample in both gate orders"
        )
    schedule, peak = min(candidates, key=lambda c: c[1])  # a tie keeps column-major
    # a kind of gate: its traced qudits m and whether it enters daggered
    kinds = sorted({(len(loops), net[pos][2]) for pos, loops, *_ in schedule})
    gathers: list[list] = [[] for _ in kinds]  # per kind, (q^m, entries) index blocks
    ends = [0] * len(kinds)
    steps = []
    for pos, loops, shared, new, kept, axes in schedule:
        draw, _, daggered = net[pos]
        index = np.array(draw * q**4)
        for group in [(ax,) for ax in shared + new] + [(side, side + 2) for side in loops]:
            index = np.add.outer(index, np.arange(q) * sum(q ** (3 - ax) for ax in group))
        g = kinds.index((len(loops), daggered))
        gathers[g].append(index.reshape(-1, q ** len(loops)).T)
        lo, ends[g] = ends[g], ends[g] + index.size // q ** len(loops)
        width = len(kept) + len(shared)
        steps.append((
            g, lo, ends[g], (-1, q ** len(shared), q ** len(new)),
            (-1,) + (q,) * width,
            None if axes == list(range(width)) else (0, *(1 + i for i in axes)),
            (-1, q ** len(kept), q ** len(shared)),
        ))
    return _Plan(
        pairs=tuple(pair for _, pair, _ in net),
        peak=max(peak, len(net) * q**4),
        scale=q ** (n - len({x for _, pair, _ in net for x in pair})),
        gathers=tuple((kind[1], np.concatenate(parts, axis=1)) for kind, parts in zip(kinds, gathers)),
        steps=tuple(steps),
    )


def _traces(gates: np.ndarray, plan: _Plan) -> np.ndarray:
    """Traces of the plan's network for each sample of a (S, G, q^2, q^2) gate stack.

    Every gate is first laid out as the (shared, new) matrix its step
    multiplies, by one gather over all gates of a kind (a traced qudit's q
    terms summed in a fixed order; a daggered gate taken conjugated); each
    step is then at most one contiguous copy of the state and one matmul
    batched over the samples.
    """
    s = len(gates)
    flat = gates.reshape(s, -1)
    blocks = []
    for daggered, rows in plan.gathers:
        source = flat.conj() if daggered else flat
        # np.take keeps each sample's row contiguous (source[:, rows[0]] would
        # not), so every matrix of a step has the same strides in any chunk
        block = np.take(source, rows[0], axis=1)
        for row in rows[1:]:
            block += np.take(source, row, axis=1)
        blocks.append(block)
    state = np.ones((s, 1, 1), dtype=complex)
    for g, lo, hi, gate_shape, full, axes, shape in plan.steps:
        if axes is not None:
            state = state.reshape(full).transpose(axes)
        state = np.matmul(state.reshape(shape), blocks[g][:, lo:hi].reshape(gate_shape))
    return state.reshape(s) * plan.scale


def circuit_trace(n: int, q: int, t: int, rng: np.random.Generator, bc: str = "open") -> complex:
    """Trace of a freshly sampled depth-2(t-1) brickwork circuit."""
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_instance(n, q, t, bc)
    plan = _plan(n, q, _depth(t), bc, False)
    normals = rng.standard_normal((1, len(plan.pairs), 2, q * q, q * q))
    return complex(_traces(_haar_from_normals(normals), plan)[0])


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    """The stream of sample `index`: Philox keyed by (seed, index), at its start."""
    # Philox takes a 128-bit key: high word = run seed, low word = sample index
    return np.random.Generator(np.random.Philox(key=(seed << 64) | index))


def _sample_streams(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The streams of samples lo..hi-1 in turn, each equal to `_sample_rng`'s.

    One generator is re-keyed for every sample, which is cheaper than building
    one: its state is set from one dict at a stream's start whose key is
    [index, seed], so only key[0] is written.  Plain lists, not arrays: the
    state setter reads them entry by entry.
    """
    rng = _sample_rng(seed, lo)
    bits = rng.bit_generator
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [lo, seed]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    key = state["state"]["key"]
    for i in range(lo, hi):
        key[0] = i
        bits.state = state
        yield rng


def _chunk_values(q: int, k: int, seed: int, plan: _Plan, lo: int, hi: int) -> np.ndarray:
    """|Tr|^(2k) of samples lo..hi-1, their networks contracted as one stack.

    A value past the largest double is inf.
    """
    d = q * q
    normals = np.empty((hi - lo, len(plan.pairs), 2, d, d))
    for row, rng in zip(normals, _sample_streams(seed, lo, hi)):
        rng.standard_normal(out=row)
    with np.errstate(over="ignore"):
        return np.abs(_traces(_haar_from_normals(normals), plan)) ** (2 * k)


def estimate_frame_potential(
    n: int,
    q: int,
    t: int,
    k: int,
    samples: int,
    seed: int,
    threads: int = 1,
    two_sided: bool = False,
    bc: str = "open",
) -> MCEstimate:
    """Mean of |Tr|^(2k) over independent circuit samples, with error bars.

    The two_sided variant draws independent time-t circuits U, V and averages
    |Tr(U^dagger V)|^(2k), which by Haar invariance estimates the same frame
    potential; the default single-circuit form uses the reduced depth-2(t-1)
    trace.  `bc` selects the open chain or the periodic ring (an odd-n ring has
    no wrap gate).  The heavy-tailed |Tr|^(2k) distribution is why the max
    sample rides along with the standard error.  A sample past the largest
    double (a large k) is inf, and so are the mean and the max sample; the
    standard error is then NaN.

    The single-circuit form needs t >= 2: at t = 1 the reduced circuit is
    empty and its trace moment is q^(2nk), not the frame potential.  The
    instance is checked as a `CircuitGeometry` checks it (not its gate cap:
    the plan's budget stands in), k >= 1 (k > 6 too: no tables are needed)
    and the seed, one word of the key, is in [0, 2^64).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64) (got {seed})")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if threads < 1:
        raise ValueError(f"threads must be >= 1 (got {threads})")
    if t < 2 and not two_sided:
        raise ValueError(
            f"the single-circuit estimate needs t >= 2 (got t={t}); "
            "use the two-sided form (--two-sided) for t < 2"
        )
    _check_instance(n, q, t, bc)
    plan = _plan(n, q, t if two_sided else _depth(t), bc, two_sided)
    size = max(1, CHUNK_ENTRIES // plan.peak)
    chunks = [(lo, min(lo + size, samples)) for lo in range(0, samples, size)]

    def run(chunk: tuple[int, int]) -> np.ndarray:
        return _chunk_values(q, k, seed, plan, *chunk)

    if threads == 1 or len(chunks) == 1:
        parts = [run(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            parts = list(pool.map(run, chunks))
    values = np.concatenate(parts)

    with np.errstate(over="ignore", invalid="ignore"):  # a value past a double: inf, NaN
        mean = float(np.sum(values) / samples)  # numpy pairwise sum, index order fixed
        var = float(np.sum((values - mean) ** 2) / (samples - 1))
    std_error = math.sqrt(var / samples)

    return MCEstimate(
        mean=mean,
        std_error=std_error,
        max_sample=float(np.max(values)),
        samples=samples,
        seed=seed,
        k=k,
        n=n,
        q=q,
        t=t,
        two_sided=two_sided,
    )
