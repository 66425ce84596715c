"""Monte Carlo frame-potential estimation from dense random circuits.

This is the package's floating-point physical oracle: it samples Haar 2-site
gates, multiplies out the reduced depth-2(t-1) brickwork circuit as a dense
q^n x q^n matrix, and averages |Tr|^(2k) over independent circuits.  It shares
no code with the exact lattice evaluators beyond the instance check
(`lattice._check_instance`) and the brickwork layer layout
(`lattice._layer_pairs`), for open chains and periodic rings alike, so a
circuit applies the gates of `lattice.build_geometry` in the same order.

Sampling is batched over samples.  The estimator splits the samples into
contiguous chunks; a chunk stacks the circuits of its samples, runs one QR
over all their gates and multiplies the whole (S, q^n, q^n) stack by one gate
position at a time (`_apply_gates`).  No stacked array of a chunk holds more
than CHUNK_ENTRIES complex entries (1 MB), except that a chunk always holds at
least one sample.  With `threads` > 1 a thread pool runs the chunks.

Sampling is reproducible by construction: the gates of sample i are drawn from
a counter-based Philox stream keyed by (seed, i), all gates of a sample in one
call (for the two-sided form U's gates, then V's), and every sample's value is
computed by the same per-matrix products whatever chunk it falls in.  So
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetExceededError
from .lattice import _check_instance, _layer_pairs

DENSE_DIM_BUDGET = 4096
# complex entries per stacked array of one chunk (circuits or gates): 1 MB
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


def _haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from (..., 2, dim, dim) normals: QR of the Ginibre matrix, phases fixed."""
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2)
    u, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return u * (diag / np.abs(diag))[..., None, :]


def sample_haar_gate(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-random unitary from QR of a complex Ginibre matrix with phase fixing.

    With `count`, a (count, dim, dim) stack of independent gates from one draw;
    its normals come in the same order as `count` single-gate calls.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    return _haar_from_normals(rng.standard_normal(shape))


def _apply_gates(stack: np.ndarray, gates: np.ndarray, pairs: list, n: int, q: int) -> np.ndarray:
    """Left-multiply each matrix of a (S, q^n, q^n) stack by its gates, in order.

    `gates[s, g]` (a q^2 x q^2 matrix) acts on qudits `pairs[g]` = (a, b),
    1-based with qudit 1 most significant, of matrix s.  The products
    alternate between `stack`, which is overwritten, and one spare buffer;
    the one holding the result is returned.

    The general form copies the stack with the two gate axes moved to the
    front and multiplies each matrix's (q^2, q^(n-2) q^n) reshape by its gate:
    the same product, and so the same bits, as for one circuit alone.  For
    even q an adjacent pair (a, a+1) skips the copies and multiplies the
    q^(a-1) slabs of the stack in place of that reshape.  The BLAS kernel
    that computes a column depends on its place in a tile of a few columns;
    for even q every slab starts on a tile boundary, so the slabs get the bits
    of the single product.  For odd q they do not (seen at q = 3), so odd q,
    like the ring's wrap gate (n, 1), takes the general form.
    """
    s, dim = stack.shape[0], q**n
    spare = np.empty_like(stack)
    full = (s,) + (q,) * n + (dim,)
    for g, (a, b) in enumerate(pairs):
        if b == a + 1 and q % 2 == 0:
            slabs = (s, q ** (a - 1), q * q, -1)
            np.matmul(gates[:, g, None], stack.reshape(slabs), out=spare.reshape(slabs))
        else:
            # moved copy in spare, its product in stack, moved back into spare
            np.copyto(spare.reshape(full), np.moveaxis(stack.reshape(full), (a, b), (1, 2)))
            np.matmul(gates[:, g], spare.reshape(s, q * q, -1), out=stack.reshape(s, q * q, -1))
            np.copyto(spare.reshape(full), np.moveaxis(stack.reshape(full), (1, 2), (a, b)))
        stack, spare = spare, stack
    return stack


def _circuit_pairs(n: int, q: int, t: int, bc: str, two_sided: bool = False) -> list[tuple[int, int]]:
    """Gate pairs of one circuit of a time-t estimate, after the instance and
    budget checks: t layers two-sided, the 2(t-1) reduced layers otherwise."""
    _check_instance(n, q, t, bc)
    dim = q**n
    if dim > DENSE_DIM_BUDGET:
        raise BudgetExceededError(f"q^n = {dim} exceeds dense budget {DENSE_DIM_BUDGET}")
    depth = t if two_sided else 2 * (t - 1)
    return [pair for layer in range(depth) for pair in _layer_pairs(n, layer, bc)]


def _circuits(normals: np.ndarray, pairs: list, n: int, q: int) -> np.ndarray:
    """Dense products of circuits from their (S, G, 2, q^2, q^2) gate normals."""
    dim = q**n
    stack = np.zeros((len(normals), dim, dim), dtype=complex)
    stack[:, range(dim), range(dim)] = 1
    return _apply_gates(stack, _haar_from_normals(normals), pairs, n, q)


def circuit_trace(n: int, q: int, t: int, rng: np.random.Generator, bc: str = "open") -> complex:
    """Trace of a freshly sampled depth-2(t-1) brickwork circuit (dense product)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    pairs = _circuit_pairs(n, q, t, bc)
    normals = rng.standard_normal((1, len(pairs), 2, q * q, q * q))
    return complex(np.trace(_circuits(normals, pairs, n, q)[0]))


_ZEROS4 = np.zeros(4, np.uint64)  # a fresh Philox counter and (empty) buffer
_ZEROS4.flags.writeable = False


def _sample_rng(
    seed: int, index: int, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """The stream of sample `index`: Philox keyed by (seed, index), at its start.

    Given `reuse`, a generator this function made, it rekeys and returns that
    generator instead of building one (a quarter of the cost).
    """
    # Philox takes a 128-bit key: high word = run seed, low word = sample index
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=(seed << 64) | index))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": np.array([index, seed], np.uint64)},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return reuse


def _chunk_values(
    n: int, q: int, k: int, seed: int, pairs: list, two_sided: bool, lo: int, hi: int
) -> list[float]:
    """|Tr|^(2k) of samples lo..hi-1, their circuits built as one stack."""
    d = q * q
    per_sample = 2 * len(pairs) if two_sided else len(pairs)
    normals = np.empty((hi - lo, per_sample, 2, d, d))
    rng = None
    for row, i in zip(normals, range(lo, hi)):
        rng = _sample_rng(seed, i, rng)
        rng.standard_normal(out=row)
    if two_sided:
        # sample i's U then V become circuits 2i and 2i+1 of the stack
        stack = _circuits(normals.reshape(2 * (hi - lo), len(pairs), 2, d, d), pairs, n, q)
        traces = [(u.conj().T @ v).trace() for u, v in zip(stack[0::2], stack[1::2])]
    else:
        # row sums of the contiguous diagonals: the same pairwise sums as np.trace
        stack = _circuits(normals, pairs, n, q)
        traces = np.ascontiguousarray(stack.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return [float(abs(complex(tr)) ** (2 * k)) for tr in traces]


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
    sample rides along with the standard error.

    The single-circuit form needs t >= 2: at t = 1 the reduced circuit is
    empty and its trace moment is q^(2nk), not the frame potential.  The
    instance is checked as by `lattice.build_geometry`, k >= 1 (k > 6 too: no
    tables are needed) and the seed, one word of the key, is in [0, 2^64).
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
    pairs = _circuit_pairs(n, q, t, bc, two_sided)
    # complex entries per sample in the largest stacked array: circuits or gates
    entries = (2 if two_sided else 1) * max(q ** (2 * n), len(pairs) * q**4)
    size = max(1, CHUNK_ENTRIES // entries)
    chunks = [(lo, min(lo + size, samples)) for lo in range(0, samples, size)]

    def run(chunk: tuple[int, int]) -> list[float]:
        return _chunk_values(n, q, k, seed, pairs, two_sided, *chunk)

    if threads == 1 or len(chunks) == 1:
        parts = [run(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            parts = list(pool.map(run, chunks))
    values = np.array([v for part in parts for v in part], dtype=float)

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
