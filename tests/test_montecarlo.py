import itertools
import math

import numpy as np
import pytest

import rqclattice.montecarlo
from rqclattice.errors import BudgetExceededError
from rqclattice.lattice import build_geometry, frame_potential_transfer
from rqclattice.montecarlo import (
    MCEstimate,
    _apply_gate,
    _sample_rng,
    circuit_trace,
    estimate_frame_potential,
    sample_haar_gate,
)


def _embedded(gate, a, b, n, q):
    """Gate on qudits a, b (1-based, qudit 1 most significant) as a q^n x q^n matrix."""
    shape = (q,) * n
    full = np.zeros((q**n, q**n), dtype=complex)
    for col in range(q**n):
        digits = list(np.unravel_index(col, shape))
        for oa, ob in itertools.product(range(q), repeat=2):
            out = digits.copy()
            out[a - 1], out[b - 1] = oa, ob
            full[np.ravel_multi_index(out, shape), col] += gate[
                oa * q + ob, digits[a - 1] * q + digits[b - 1]
            ]
    return full


class TestApplyGate:
    def test_matches_explicit_embedding_for_every_pair(self):
        q = 2
        rng = np.random.default_rng(5)
        for n in (4, 5):
            dim = q**n
            mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for a, b in itertools.permutations(range(1, n + 1), 2):
                gate = sample_haar_gate(q * q, rng)
                got = _apply_gate(mat, gate, a, b, n, q)
                np.testing.assert_allclose(
                    got, _embedded(gate, a, b, n, q) @ mat, atol=1e-12, err_msg=f"{(a, b)}"
                )


class TestHaarGate:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 9):
            u = sample_haar_gate(dim, rng)
            err = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            assert err < 1e-12

    def test_trace_moments_of_u4(self):
        # E|Tr u|^2 = 1 and E|Tr u|^4 = 2 for Haar U(4)
        n_samples = 20000
        v2 = np.empty(n_samples)
        v4 = np.empty(n_samples)
        for i in range(n_samples):
            tr = abs(np.trace(sample_haar_gate(4, _sample_rng(123, i))))
            v2[i] = tr**2
            v4[i] = tr**4
        se2 = np.std(v2, ddof=1) / math.sqrt(n_samples)
        se4 = np.std(v4, ddof=1) / math.sqrt(n_samples)
        assert abs(np.mean(v2) - 1.0) < 4 * se2
        assert abs(np.mean(v4) - 2.0) < 4 * se4

    def test_stack_matches_single_draws(self):
        stack = sample_haar_gate(4, _sample_rng(8, 0), 5)
        rng = _sample_rng(8, 0)
        assert stack.shape == (5, 4, 4)
        for gate in stack:
            np.testing.assert_array_equal(gate, sample_haar_gate(4, rng))
        assert sample_haar_gate(4, rng, 0).shape == (0, 4, 4)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            sample_haar_gate(1, np.random.default_rng(0))


class TestCircuitTrace:
    def test_t1_is_identity_trace(self):
        rng = np.random.default_rng(5)
        assert circuit_trace(4, 2, 1, rng) == 16
        assert circuit_trace(3, 3, 1, rng) == 27

    def test_trace_bounded_by_dimension(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tr = circuit_trace(4, 2, 3, rng)
            assert abs(tr) <= 16 + 1e-9

    def test_single_gate_chain_trace_moments(self):
        # n=2, t=2: trace of a product of Haar gates on U(4); |Tr|^(2k) -> k!
        n_samples = 20000
        vals = np.empty(n_samples)
        for i in range(n_samples):
            vals[i] = abs(circuit_trace(2, 2, 2, _sample_rng(77, i))) ** 4
        se = np.std(vals, ddof=1) / math.sqrt(n_samples)
        assert abs(np.mean(vals) - 2.0) < 4 * se

    def test_dense_budget(self):
        with pytest.raises(BudgetExceededError):
            circuit_trace(13, 2, 2, np.random.default_rng(0))

    def test_t0_rejected(self):
        with pytest.raises(ValueError):
            circuit_trace(4, 2, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    def test_gates_follow_lattice_geometry(self, monkeypatch, bc):
        applied = []

        def record(mat, gate, a, b, n, q):
            applied.append((a, b))
            return mat

        monkeypatch.setattr(rqclattice.montecarlo, "_apply_gate", record)
        for n in range(2, 8):
            for t in range(1, 5):
                applied.clear()
                circuit_trace(n, 2, t, np.random.default_rng(0), bc)
                assert applied == [g.qudits for g in build_geometry(n, 2, t, bc).gates], (n, t)

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValueError):
            circuit_trace(4, 2, 1, np.random.default_rng(0), "twisted")
        with pytest.raises(ValueError):
            estimate_frame_potential(4, 2, 2, 2, samples=2, seed=0, bc="twisted")


class TestEstimator:
    def test_seed_determinism_across_threads(self):
        a = estimate_frame_potential(4, 2, 2, 2, samples=300, seed=42)
        b = estimate_frame_potential(4, 2, 2, 2, samples=300, seed=42, threads=4)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_different_seeds_differ(self):
        a = estimate_frame_potential(4, 2, 2, 2, samples=300, seed=1)
        b = estimate_frame_potential(4, 2, 2, 2, samples=300, seed=2)
        assert a.mean != b.mean

    def test_fields(self):
        est = estimate_frame_potential(4, 2, 2, 2, samples=200, seed=9)
        assert isinstance(est, MCEstimate)
        assert est.samples == 200 and est.seed == 9
        assert est.max_sample >= est.mean
        assert est.std_error > 0

    def test_agreement_with_exact(self):
        est = estimate_frame_potential(4, 2, 2, 2, samples=20000, seed=314)
        exact = float(frame_potential_transfer(build_geometry(4, 2, 2, "open"), 2).value)
        assert abs(est.mean - exact) < 4 * est.std_error

    @pytest.mark.parametrize("n,t,k,samples", [(4, 2, 3, 30000), (6, 2, 2, 15000)])
    def test_agreement_with_exact_wider(self, n, t, k, samples):
        # overlapping instances beyond the k=2, n=4 core (heavy tails at k=3,
        # hence the larger sample count)
        est = estimate_frame_potential(n, 2, t, k, samples=samples, seed=20240613)
        exact = float(frame_potential_transfer(build_geometry(n, 2, t, "open"), k).value)
        assert abs(est.mean - exact) < 4 * est.std_error

    def test_agreement_with_exact_periodic(self):
        est = estimate_frame_potential(4, 2, 2, 2, samples=20000, seed=11, bc="periodic")
        exact = float(frame_potential_transfer(build_geometry(4, 2, 2, "periodic"), 2).value)
        assert exact == pytest.approx(2.1024)
        assert abs(est.mean - exact) < 4 * est.std_error

    def test_k1_estimates_one(self):
        est = estimate_frame_potential(4, 2, 3, 1, samples=5000, seed=2718)
        assert abs(est.mean - 1.0) < 4 * est.std_error

    def test_two_sided_agrees_with_single(self):
        one = estimate_frame_potential(4, 2, 2, 2, samples=8000, seed=555)
        two = estimate_frame_potential(4, 2, 2, 2, samples=8000, seed=556, two_sided=True)
        combined = math.hypot(one.std_error, two.std_error)
        assert abs(one.mean - two.mean) < 4 * combined

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            estimate_frame_potential(4, 2, 2, 2, samples=1, seed=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate_frame_potential(4, 2, 2, 2, samples=10, seed=0, threads=threads)

    @pytest.mark.parametrize("t", [0, 1])
    def test_single_sided_needs_t2(self, t):
        # the reduced t=1 circuit is empty: its moment is q^(2nk), not F = k!^(n/2)
        with pytest.raises(ValueError, match="--two-sided"):
            estimate_frame_potential(4, 2, t, 2, samples=10, seed=0)
        est = estimate_frame_potential(4, 2, t, 1, samples=10, seed=0, two_sided=True)
        assert est.t == t
