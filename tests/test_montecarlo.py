import itertools
import math

import numpy as np
import pytest

import rqclattice.montecarlo
from rqclattice.errors import BudgetExceededError
from rqclattice.lattice import _layer_pairs, build_geometry, frame_potential_transfer
from rqclattice.montecarlo import (
    CHUNK_ENTRIES,
    MCEstimate,
    _apply_gates,
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


def _one_circuit(gates, pairs, n, q):
    """Reference: one circuit alone, gate by gate, with a tensordot per gate."""
    dim = q**n
    mat = np.eye(dim, dtype=complex)
    for (a, b), gate in zip(pairs, gates):
        tensor = np.tensordot(gate.reshape((q,) * 4), mat.reshape((q,) * n + (dim,)),
                              axes=([2, 3], [a - 1, b - 1]))
        mat = np.moveaxis(tensor, (0, 1), (a - 1, b - 1)).reshape(dim, dim)
    return mat


def _one_sample(n, q, t, k, seed, index, two_sided, bc):
    """Reference: sample `index` on its own, as the per-sample loop computed it."""
    depth = t if two_sided else 2 * (t - 1)
    pairs = [p for layer in range(depth) for p in _layer_pairs(n, layer, bc)]
    rng = _sample_rng(seed, index)
    if two_sided:
        u = _one_circuit(sample_haar_gate(q * q, rng, len(pairs)), pairs, n, q)
        v = _one_circuit(sample_haar_gate(q * q, rng, len(pairs)), pairs, n, q)
        tr = np.trace(u.conj().T @ v)
    else:
        tr = np.trace(_one_circuit(sample_haar_gate(q * q, rng, len(pairs)), pairs, n, q))
    return float(abs(complex(tr)) ** (2 * k))


class TestApplyGate:
    def test_matches_explicit_embedding_for_every_pair(self):
        # a stack of 3 matrices, each with its own gate; (n, 1) is the ring's wrap pair
        rng = np.random.default_rng(5)
        for n, q in ((4, 2), (5, 2), (3, 3)):
            dim = q**n
            stack = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
            for a, b in itertools.permutations(range(1, n + 1), 2):
                gates = sample_haar_gate(q * q, rng, 3)
                got = _apply_gates(stack.copy(), gates[:, None], [(a, b)], n, q)
                for s in range(3):
                    np.testing.assert_allclose(
                        got[s], _embedded(gates[s], a, b, n, q) @ stack[s], atol=1e-12,
                        err_msg=f"{(n, q)}, {(a, b)}, matrix {s}",
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

    def test_reused_stream_starts_afresh(self):
        used = _sample_rng(3, 1)
        used.random(), used.integers(0, 2**31, dtype=np.uint32), used.standard_normal(3)
        rekeyed = _sample_rng(8, 5, used)
        assert rekeyed is used
        np.testing.assert_array_equal(rekeyed.standard_normal(41), _sample_rng(8, 5).standard_normal(41))

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

        def record(stack, gates, pairs, n, q):
            assert gates.shape[:2] == (len(stack), len(pairs))
            applied.extend(pairs)
            return stack

        monkeypatch.setattr(rqclattice.montecarlo, "_apply_gates", record)
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

    @pytest.mark.parametrize("change, match", [
        (dict(k=-1), "k must be"), (dict(k=0), "k must be"),
        (dict(n=1), "qudits"), (dict(q=1), "local dimension"),
        (dict(t=-1, two_sided=True), "t must be"),
        (dict(seed=-3), "seed"), (dict(seed=2**64), "seed"), (dict(seed=2**64 + 5), "seed"),
    ])
    def test_instances_the_exact_routes_reject_are_refused(self, monkeypatch, change, match):
        # refused before any sample stream is made
        monkeypatch.setattr(rqclattice.montecarlo, "_sample_rng", _fail_rng)
        args = dict(n=4, q=2, t=2, k=2, samples=10, seed=0) | change
        with pytest.raises(ValueError, match=match):
            estimate_frame_potential(**args)

    def test_seed_range_ends_and_k_above_the_exact_cap(self):
        # sampling needs no tables, so k above the exact routes' cap is allowed
        for seed, k in ((0, 2), (2**64 - 1, 2), (1, 7)):
            est = estimate_frame_potential(4, 2, 2, k, samples=4, seed=seed)
            assert (est.seed, est.k) == (seed, k)


def _fail_rng(*args):
    raise AssertionError("a sample stream was created")


def _chunked_estimate(monkeypatch, *args, **kwargs):
    """The estimate, its per-sample values in sample order and its chunk sizes."""
    chunks = {}
    run_chunk = rqclattice.montecarlo._chunk_values

    def record(*chunk_args):
        lo, hi = chunk_args[-2:]
        chunks[lo] = run_chunk(*chunk_args)
        assert len(chunks[lo]) == hi - lo
        return chunks[lo]

    monkeypatch.setattr(rqclattice.montecarlo, "_chunk_values", record)
    est = estimate_frame_potential(*args, **kwargs)
    values = [v for lo in sorted(chunks) for v in chunks[lo]]
    assert len(values) == est.samples
    return est, values, [len(chunks[lo]) for lo in sorted(chunks)]


class TestBatching:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_budget_checked_before_any_stream(self, monkeypatch, threads):
        monkeypatch.setattr(rqclattice.montecarlo, "_sample_rng", _fail_rng)
        with pytest.raises(BudgetExceededError):
            estimate_frame_potential(13, 2, 2, 2, samples=8, seed=0, threads=threads)
        with pytest.raises(ValueError, match="boundary"):
            estimate_frame_potential(4, 2, 2, 2, samples=8, seed=0, threads=threads, bc="twisted")

    @pytest.mark.parametrize("n", [4, 5, 8])
    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_values_independent_of_chunks_and_threads(self, monkeypatch, n, bc, two_sided):
        t = 2
        depth = t if two_sided else 2 * (t - 1)
        gates = sum(len(_layer_pairs(n, layer, bc)) for layer in range(depth))
        per_sample = (2 if two_sided else 1) * max(4**n, gates * 16)
        samples = 12 if n < 8 else 8
        reference = None
        for size in (1, 7, samples):
            monkeypatch.setattr(rqclattice.montecarlo, "CHUNK_ENTRIES", size * per_sample)
            for threads in (1, 2, 3):
                est, values, sizes = _chunked_estimate(monkeypatch, n, 2, t, 2, samples=samples, seed=2024 + n,
                                                       threads=threads, two_sided=two_sided, bc=bc)
                assert sizes == [min(size, samples - lo) for lo in range(0, samples, size)]
                hexes = [v.hex() for v in values]
                if reference is None:
                    reference = (hexes, est)
                assert hexes == reference[0], (size, threads)
                assert est == reference[1], (size, threads)

    def test_stacked_arrays_within_chunk_bound(self, monkeypatch):
        seen = []
        haar, apply = rqclattice.montecarlo._haar_from_normals, rqclattice.montecarlo._apply_gates

        def record_haar(normals):
            gates = haar(normals)
            seen.extend([("normals", normals), ("gates", gates)])
            return gates

        def record_apply(stack, gates, pairs, n, q):
            out = apply(stack, gates, pairs, n, q)
            seen.extend([("stack", stack), ("product", out)])
            return out

        monkeypatch.setattr(rqclattice.montecarlo, "_haar_from_normals", record_haar)
        monkeypatch.setattr(rqclattice.montecarlo, "_apply_gates", record_apply)
        for n, samples in ((8, 3), (4, 600)):
            seen.clear()
            estimate_frame_potential(n, 2, 3, 1, samples=samples, seed=1, threads=2, bc="periodic")
            largest = max(array.nbytes for _, array in seen)
            assert largest <= 16 * CHUNK_ENTRIES  # complex128: 16 bytes an entry
            if n == 4:
                assert largest == 16 * CHUNK_ENTRIES  # full chunks of 256 samples
        # two-sided n=8 needs two 2^16-entry circuits per sample: chunks of one sample
        seen.clear()
        estimate_frame_potential(8, 2, 2, 1, samples=2, seed=1, two_sided=True)
        assert {len(array) for name, array in seen if name == "stack"} == {2}

    @pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_values_equal_one_sample_at_a_time(self, monkeypatch, n, q, bc, two_sided):
        est, values, _ = _chunked_estimate(monkeypatch, n, q, 3, 2, samples=10, seed=31,
                                           two_sided=two_sided, bc=bc)
        want = [_one_sample(n, q, 3, 2, 31, i, two_sided, bc) for i in range(10)]
        assert values == want
        assert est.max_sample == max(want)

    # estimates of the per-sample loop this batched estimator replaced, frozen
    # from its output; a relative tolerance absorbs BLAS rounding but not a
    # change in the order of the draws
    FROZEN = [
        ((4, 2, 2, 2), dict(samples=200, seed=42),
         (3.7089826905186145, 1.3948833309790514, 262.31376712818917)),
        ((5, 2, 3, 3), dict(samples=60, seed=7, bc="periodic"),
         (6.776117192324091, 5.3116086592891625, 319.1464680585978)),
        ((4, 2, 2, 2), dict(samples=80, seed=9, two_sided=True, bc="periodic"),
         (1.5710440699091983, 0.28334699755896525, 12.393812071890526)),
        ((3, 3, 2, 2), dict(samples=40, seed=5),
         (1.893912060617906, 0.5979529410109155, 18.67042306455764)),
        ((8, 2, 2, 1), dict(samples=4, seed=3, threads=2),
         (0.22798118974703935, 0.07032757380898313, 0.33445176245025565)),
    ]

    @pytest.mark.parametrize("args,kwargs,frozen", FROZEN)
    def test_streams_stable(self, args, kwargs, frozen):
        est = estimate_frame_potential(*args, **kwargs)
        assert (est.mean, est.std_error, est.max_sample) == pytest.approx(frozen, rel=1e-12)
