import itertools
import math

import numpy as np
import pytest

import rqclattice.montecarlo
from rqclattice.errors import BudgetExceededError
from rqclattice.geometry import _layer_pairs
from rqclattice.lattice import build_geometry, frame_potential_transfer
from rqclattice.montecarlo import (
    CHUNK_ENTRIES,
    MCEstimate,
    _chunk_values,
    _plan,
    _sample_rng,
    _sample_streams,
    _traces,
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


def _dense_trace(gates, pairs, n, q, two_sided):
    """Reference: Tr W, or Tr(U^dagger V) with U's gates first, from dense circuits."""
    if not two_sided:
        return np.trace(_one_circuit(gates, pairs, n, q))
    u = _one_circuit(gates[: len(pairs)], pairs, n, q)
    v = _one_circuit(gates[len(pairs):], pairs, n, q)
    return np.vdot(u, v)  # sum of conj(U) * V entries: Tr(U^dagger V)


def _lapack_haar(normals):
    """Reference: LAPACK QR of the same Ginibre matrices, R's diagonal made positive."""
    z = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    u, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return u * (diag / np.abs(diag))[..., None, :]


class TestTrace:
    # dense references of q^n x q^n matrices; q = 3 stops at n = 6 (729)
    SHAPES = [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 7)]

    @pytest.mark.parametrize("q,n", SHAPES)
    def test_matches_dense_products(self, q, n):
        # every brickwork network of 0..6 layers a circuit, open and ring, one
        # circuit or two; the wrap pair (n, 1) and U's daggered gates included
        rng = np.random.default_rng(100 * q + n)
        for bc, two_sided, depth in itertools.product(("open", "periodic"), (False, True), range(7)):
            plan = _plan(n, q, depth, bc, two_sided)
            pairs = [p for layer in range(depth) for p in _layer_pairs(n, layer, bc)]
            gates = sample_haar_gate(q * q, rng, 2 * len(plan.pairs))
            gates = gates.reshape(2, len(plan.pairs), q * q, q * q)
            got = _traces(gates, plan)
            for s in range(2):
                want = _dense_trace(gates[s], pairs, n, q, two_sided)
                assert abs(got[s] - want) <= 1e-12 * q**n, (bc, two_sided, depth, s)

    def test_reference_circuit_is_the_embedded_product(self):
        # the dense reference multiplies the embedded gates, wrap pair included
        rng = np.random.default_rng(5)
        for n, q, bc in ((4, 2, "periodic"), (5, 2, "open"), (3, 3, "open"), (4, 3, "periodic")):
            pairs = [p for layer in range(3) for p in _layer_pairs(n, layer, bc)]
            gates = sample_haar_gate(q * q, rng, len(pairs))
            want = np.eye(q**n)
            for (a, b), gate in zip(pairs, gates):
                want = _embedded(gate, a, b, n, q) @ want
            np.testing.assert_allclose(_one_circuit(gates, pairs, n, q), want, atol=1e-12)

    def test_plan_keeps_the_lower_peak(self):
        # a deep small ring runs layer-major: the dense 3^4 x 3^4 operator,
        # where column-major would carry the wrap gates' segments (3^12)
        assert _plan(4, 3, 6, "periodic", False).peak == 3**8
        assert _plan(64, 2, 6, "open", False) is _plan(64, 2, 6, "open", False)


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

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_matches_phase_fixed_lapack_qr(self, dim):
        # 10^4 gates against the LAPACK oracle, drawn in four stacks
        rng = np.random.default_rng(dim)
        for _ in range(4):
            normals = rng.standard_normal((2500, 2, dim, dim))
            gates = rqclattice.montecarlo._haar_from_normals(normals)
            assert np.max(np.abs(gates - _lapack_haar(normals))) <= 1e-12
            products = np.matmul(gates.conj().transpose(0, 2, 1), gates)
            assert np.max(np.abs(products - np.eye(dim))) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_gate_bits_independent_of_the_stack(self, dim):
        for count in (1, 2, 3, 17):
            stack = sample_haar_gate(dim, _sample_rng(dim, count), count)
            rng = _sample_rng(dim, count)
            for gate in stack:
                np.testing.assert_array_equal(gate, sample_haar_gate(dim, rng))

    def test_trace_moments_of_u9(self):
        # E|Tr u|^2 = 1 and E|Tr u|^4 = 2 for Haar U(9), the gates of q = 3
        tr = np.abs(np.trace(sample_haar_gate(9, _sample_rng(99, 0), 20000), axis1=1, axis2=2))
        for power, moment in ((2, 1.0), (4, 2.0)):
            values = tr**power
            se = np.std(values, ddof=1) / math.sqrt(len(values))
            assert abs(np.mean(values) - moment) < 4 * se

    def test_reused_stream_starts_afresh(self):
        # the chunk's one generator, re-keyed after each sample used it up
        for i, rekeyed in zip(range(5, 8), _sample_streams(8, 5, 8)):
            fresh = _sample_rng(8, i)
            np.testing.assert_array_equal(rekeyed.standard_normal(41), fresh.standard_normal(41))
            rekeyed.random(), rekeyed.integers(0, 2**31, dtype=np.uint32), rekeyed.standard_normal(3)

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

    def test_peak_budget(self):
        # a deep q = 3 ring peaks past the budget in both gate orders
        with pytest.raises(BudgetExceededError, match="both gate orders"):
            circuit_trace(16, 3, 5, np.random.default_rng(0), "periodic")
        # the dense products stopped at q^n = 4096; an open chain is cheap
        assert abs(circuit_trace(13, 2, 2, np.random.default_rng(0))) <= 2**13

    def test_t0_rejected(self):
        with pytest.raises(ValueError):
            circuit_trace(4, 2, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    def test_gates_follow_lattice_geometry(self, monkeypatch, bc):
        applied = []

        traces = rqclattice.montecarlo._traces

        def record(gates, plan):
            assert gates.shape[:2] == (1, len(plan.pairs))
            applied.extend(plan.pairs)
            return traces(gates, plan)

        monkeypatch.setattr(rqclattice.montecarlo, "_traces", record)
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

    @pytest.mark.parametrize("n,bc", [(16, "open"), (32, "open"), (16, "periodic")])
    def test_agreement_with_exact_past_the_dense_cap(self, n, bc):
        # q^n far past the 4096 the dense products took.  A sample x = |Tr|^(2k)
        # has Var x = F^(2k) - (F^(k))^2, so the error is exact where the
        # 2k-th moment fits its budget: the heavy-tailed sample error of k = 2
        # at n = 32 is a tenth of it.  k = 1 (F = 1) is the sharp check
        geom = build_geometry(n, 2, 3, bc)

        def exact(k):
            try:
                return float(frame_potential_transfer(geom, k, backend="float").value)
            except BudgetExceededError:  # F^(4) of the n = 16 ring
                return None

        for k in (1, 2):
            est = estimate_frame_potential(n, 2, 3, k, samples=4000, seed=20261020, bc=bc)
            mean, second = exact(k), exact(2 * k)
            error = est.std_error if second is None else math.sqrt((second - mean**2) / est.samples)
            assert abs(est.mean - mean) <= 5 * error, (k, est.mean, mean, error)

    def test_long_open_chain(self):
        # n = 64 contracts column by column: its largest array is its gates
        assert _plan(64, 2, 6, "open", False).peak == 189 * 16
        est = estimate_frame_potential(64, 2, 4, 1, samples=100, seed=64)
        assert abs(est.mean - 1.0) <= 5 * est.std_error  # F^(1) = 1 at any depth

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

    def test_value_past_the_largest_double_is_infinite(self):
        # |Tr|^4000 passes the largest double once |Tr| > 1.2; no RuntimeWarning
        est = estimate_frame_potential(4, 2, 2, 2000, samples=20, seed=0)
        assert est.mean == est.max_sample == math.inf
        assert math.isnan(est.std_error)
        finite = estimate_frame_potential(4, 2, 2, 200, samples=20, seed=0)
        assert math.isfinite(finite.mean) and math.isfinite(finite.std_error)


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
        with pytest.raises(BudgetExceededError):  # a deep q = 3 ring
            estimate_frame_potential(16, 3, 5, 2, samples=8, seed=0, threads=threads, bc="periodic")
        with pytest.raises(ValueError, match="boundary"):
            estimate_frame_potential(4, 2, 2, 2, samples=8, seed=0, threads=threads, bc="twisted")

    @pytest.mark.parametrize("n", [4, 5, 8])
    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_values_independent_of_chunks_and_threads(self, monkeypatch, n, bc, two_sided):
        t = 3
        per_sample = _plan(n, 2, t if two_sided else 2 * (t - 1), bc, two_sided).peak
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
        haar, matmul = rqclattice.montecarlo._haar_from_normals, np.matmul

        def record_haar(normals):
            gates = haar(normals)
            seen.extend([("normals", normals), ("gates", gates)])
            return gates

        def record_matmul(state, gate):
            out = matmul(state, gate)
            seen.extend([("state", state), ("gate", gate), ("product", out)])
            return out

        monkeypatch.setattr(rqclattice.montecarlo, "_haar_from_normals", record_haar)
        monkeypatch.setattr(np, "matmul", record_matmul)
        for n, samples in ((8, 3), (4, 600)):
            seen.clear()
            estimate_frame_potential(n, 2, 3, 1, samples=samples, seed=1, threads=2, bc="periodic")
            largest = max(array.nbytes for _, array in seen)
            assert largest <= 16 * CHUNK_ENTRIES  # complex128: 16 bytes an entry
            if n == 4:
                # full chunks of 256 samples, each with a planned peak of 256
                assert largest == 16 * CHUNK_ENTRIES
        # the n = 8 ring at t = 5 runs layer-major, through states of 2^16
        # entries, its planned peak: chunks of one sample
        assert _plan(8, 2, 8, "periodic", False).peak == CHUNK_ENTRIES
        seen.clear()
        estimate_frame_potential(8, 2, 5, 1, samples=2, seed=1, bc="periodic")
        assert {len(array) for name, array in seen if name == "gates"} == {1}
        assert max(array.size for name, array in seen if name == "product") == CHUNK_ENTRIES

    @pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_values_equal_one_sample_at_a_time(self, monkeypatch, n, q, bc, two_sided):
        est, values, _ = _chunked_estimate(monkeypatch, n, q, 3, 2, samples=10, seed=31,
                                           two_sided=two_sided, bc=bc)
        plan = _plan(n, q, 3 if two_sided else 4, bc, two_sided)
        alone = [_chunk_values(q, 2, 31, plan, i, i + 1)[0] for i in range(10)]
        assert values == alone
        assert est.max_sample == max(alone)
        # the dense products sum each trace in another order: equal to rounding
        dense = [_one_sample(n, q, 3, 2, 31, i, two_sided, bc) for i in range(10)]
        assert values == pytest.approx(dense, rel=1e-12, abs=0)

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
