"""Monte Carlo frame-potential estimation from dense random circuits.

This is the package's floating-point physical oracle: it samples Haar 2-site
gates, multiplies out the reduced depth-2(t-1) brickwork circuit as a dense
q^n x q^n matrix, and averages |Tr|^(2k) over independent circuits.  It shares
no code with the exact lattice evaluators beyond the brickwork layer layout
(`lattice._layer_pairs`), for open chains and periodic rings alike, so a
circuit applies the gates of `lattice.build_geometry` in the same order.

Sampling is reproducible by construction: the gates of sample i are drawn from
a counter-based Philox stream keyed by (seed, i), all gates of one circuit in
one call, so results are bit-identical regardless of how samples are
scheduled across threads.

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
from .lattice import _layer_pairs

DENSE_DIM_BUDGET = 4096


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


def sample_haar_gate(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-random unitary from QR of a complex Ginibre matrix with phase fixing.

    With `count`, a (count, dim, dim) stack of independent gates from one draw;
    its normals come in the same order as `count` single-gate calls.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    g = rng.standard_normal(shape)
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2)
    u, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return u * (diag / np.abs(diag))[..., None, :]


def _apply_gate(mat: np.ndarray, gate: np.ndarray, a: int, b: int, n: int, q: int) -> np.ndarray:
    """Left-multiply mat by the gate embedded on qudits a, b (1-based)."""
    dim = q**n
    tensor = mat.reshape((q,) * n + (dim,))
    g4 = gate.reshape(q, q, q, q)
    tensor = np.tensordot(g4, tensor, axes=([2, 3], [a - 1, b - 1]))
    # tensordot put the gate output axes in front; restore qudit order
    order = list(range(2, n + 1))
    # insert at the lower position first so the second insert cannot shift it
    for pos, axis in sorted([(a - 1, 0), (b - 1, 1)]):
        order.insert(pos, axis)
    tensor = np.transpose(tensor, order)
    return tensor.reshape(dim, dim)


def _circuit(n: int, q: int, depth: int, bc: str, rng: np.random.Generator) -> np.ndarray:
    """Dense product of a freshly sampled brickwork circuit of `depth` layers."""
    if bc not in ("open", "periodic"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    dim = q**n
    if dim > DENSE_DIM_BUDGET:
        raise BudgetExceededError(f"q^n = {dim} exceeds dense budget {DENSE_DIM_BUDGET}")
    pairs = [pair for layer in range(depth) for pair in _layer_pairs(n, layer, bc)]
    mat = np.eye(dim, dtype=complex)
    for (a, b), gate in zip(pairs, sample_haar_gate(q * q, rng, len(pairs))):
        mat = _apply_gate(mat, gate, a, b, n, q)
    return mat


def circuit_trace(n: int, q: int, t: int, rng: np.random.Generator, bc: str = "open") -> complex:
    """Trace of a freshly sampled depth-2(t-1) brickwork circuit (dense product)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return complex(np.trace(_circuit(n, q, 2 * (t - 1), bc, rng)))


_MASK64 = (1 << 64) - 1


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # Philox takes a 128-bit key: high word = run seed, low word = sample index
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _one_sample(
    n: int, q: int, t: int, k: int, seed: int, index: int, two_sided: bool, bc: str
) -> float:
    rng = _sample_rng(seed, index)
    if two_sided:
        u = _circuit(n, q, t, bc, rng)
        v = _circuit(n, q, t, bc, rng)
        tr = np.trace(u.conj().T @ v)
    else:
        tr = circuit_trace(n, q, t, rng, bc)
    return float(abs(tr) ** (2 * k))


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
    empty and its trace moment is q^(2nk), not the frame potential.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if threads < 1:
        raise ValueError(f"threads must be >= 1 (got {threads})")
    if t < 2 and not two_sided:
        raise ValueError(
            f"the single-circuit estimate needs t >= 2 (got t={t}); "
            "use the two-sided form (--two-sided) for t < 2"
        )
    values = np.empty(samples, dtype=float)
    if threads == 1:
        for i in range(samples):
            values[i] = _one_sample(n, q, t, k, seed, i, two_sided, bc)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {
                pool.submit(_one_sample, n, q, t, k, seed, i, two_sided, bc): i
                for i in range(samples)
            }
            for future, i in futures.items():
                values[i] = future.result()

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
