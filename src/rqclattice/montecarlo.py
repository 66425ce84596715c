"""Monte Carlo frame-potential estimation from dense random circuits.

This is the package's floating-point physical oracle: it samples Haar 2-site
gates, multiplies out the reduced depth-2(t-1) brickwork circuit as a dense
q^n x q^n matrix, and averages |Tr|^(2k) over independent circuits.  It shares
no code with the exact lattice evaluators beyond the open-chain layer layout
(`lattice._layer_pairs`).

Sampling is reproducible by construction: the gates of sample i are drawn from
a counter-based Philox stream keyed by (seed, i), so results are bit-identical
regardless of how samples are scheduled across threads.

Note the time convention: circuit_trace(t) multiplies the 2(t-1) layers left
after absorbing one layer of each circuit copy, so t=1 is the empty product
with trace q^n.  The absorbed-layer reduction degenerates at t=1 (one merged
layer physically remains), so estimates are compared with exact frame
potentials only for t >= 2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .lattice import _layer_pairs

DENSE_DIM_BUDGET = 4096


@dataclass
class MCEstimate:
    """Sampled frame-potential mean with plain and jackknife standard errors."""

    mean: float
    std_error: float
    jackknife_error: float
    max_sample: float
    samples: int
    seed: int
    k: int
    n: int
    q: int
    t: int
    two_sided: bool = False

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "jackknife_error": self.jackknife_error,
            "max_sample": self.max_sample,
            "samples": self.samples,
            "seed": self.seed,
            "k": self.k,
            "n": self.n,
            "q": self.q,
            "t": self.t,
            "two_sided": self.two_sided,
        }


def sample_haar_gate(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from QR of a complex Ginibre matrix with phase fixing."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    u, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return u * (diag / np.abs(diag))


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


def circuit_trace(n: int, q: int, t: int, rng: np.random.Generator) -> complex:
    """Trace of a freshly sampled depth-2(t-1) brickwork circuit (dense product)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    dim = q**n
    if dim > DENSE_DIM_BUDGET:
        raise BudgetExceededError(f"q^n = {dim} exceeds dense budget {DENSE_DIM_BUDGET}")
    mat = np.eye(dim, dtype=complex)
    for layer in range(2 * (t - 1)):
        for a, b in _layer_pairs(n, layer, "open"):
            mat = _apply_gate(mat, sample_haar_gate(q * q, rng), a, b, n, q)
    return complex(np.trace(mat))


_MASK64 = (1 << 64) - 1


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # Philox takes a 128-bit key: high word = run seed, low word = sample index
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _one_sample(n: int, q: int, t: int, k: int, seed: int, index: int, two_sided: bool) -> float:
    rng = _sample_rng(seed, index)
    if two_sided:
        dim = q**n
        if dim > DENSE_DIM_BUDGET:
            raise BudgetExceededError(f"q^n = {dim} exceeds dense budget")
        u = _dense_circuit(n, q, t, rng)
        v = _dense_circuit(n, q, t, rng)
        tr = np.trace(u.conj().T @ v)
    else:
        tr = circuit_trace(n, q, t, rng)
    return float(abs(tr) ** (2 * k))


def _dense_circuit(n: int, q: int, t: int, rng: np.random.Generator) -> np.ndarray:
    dim = q**n
    mat = np.eye(dim, dtype=complex)
    for layer in range(t):
        for a, b in _layer_pairs(n, layer, "open"):
            mat = _apply_gate(mat, sample_haar_gate(q * q, rng), a, b, n, q)
    return mat


def estimate_frame_potential(
    n: int,
    q: int,
    t: int,
    k: int,
    samples: int,
    seed: int,
    threads: int = 1,
    two_sided: bool = False,
) -> MCEstimate:
    """Mean of |Tr|^(2k) over independent circuit samples, with error bars.

    The two_sided variant draws independent time-t circuits U, V and averages
    |Tr(U^dagger V)|^(2k), which by Haar invariance estimates the same frame
    potential; the default single-circuit form uses the reduced depth-2(t-1)
    trace.  The heavy-tailed |Tr|^(2k) distribution is why the max sample and
    a jackknife estimate ride along with the plain standard error.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    values = np.empty(samples, dtype=float)
    if threads <= 1:
        for i in range(samples):
            values[i] = _one_sample(n, q, t, k, seed, i, two_sided)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {
                pool.submit(_one_sample, n, q, t, k, seed, i, two_sided): i
                for i in range(samples)
            }
            for future, i in futures.items():
                values[i] = future.result()

    mean = float(np.sum(values) / samples)  # numpy pairwise sum, index order fixed
    var = float(np.sum((values - mean) ** 2) / (samples - 1))
    std_error = math.sqrt(var / samples)

    # leave-one-out jackknife of the mean (coincides with std_error for the
    # plain mean; kept as an independent consistency readout)
    loo = (np.sum(values) - values) / (samples - 1)
    jbar = float(np.mean(loo))
    jackknife_error = math.sqrt((samples - 1) / samples * float(np.sum((loo - jbar) ** 2)))

    return MCEstimate(
        mean=mean,
        std_error=std_error,
        jackknife_error=jackknife_error,
        max_sample=float(np.max(values)),
        samples=samples,
        seed=seed,
        k=k,
        n=n,
        q=q,
        t=t,
        two_sided=two_sided,
    )
