import math
from fractions import Fraction

import pytest

import rqclattice.weingarten
from rqclattice.errors import SingularMatrixError, VerificationError
from rqclattice.exact import Polynomial, RationalFunction
from rqclattice.perms import Perm, cycle_type, enumerate_sk, group_table, sign
from rqclattice.weingarten import (
    WeingartenTable,
    weingarten_table,
    wg_gram,
    wg_in_q,
    wg_restricted,
    wg_symbolic,
)


def P(*coeffs):
    return Polynomial(coeffs)


def test_k1_is_one_over_d():
    assert wg_symbolic((1,), 1) == RationalFunction(P(1), P(0, 1))


def test_k2_matches_hand_gram_inverse():
    # invert [[d^2, d], [d, d^2]] by hand: Wg(id) = 1/(d^2-1), Wg(S) = -1/(d(d^2-1))
    assert wg_symbolic((1, 1), 2) == RationalFunction(P(1), P(-1, 0, 1))
    assert wg_symbolic((2,), 2) == RationalFunction(P(-1), P(0, -1, 0, 1))


def test_wg_gram_small_values():
    assert wg_gram(1, 5) == {Perm.identity(1): Fraction(1, 5)}
    vals = wg_gram(2, 4)
    assert vals[Perm.identity(2)] == Fraction(1, 15)
    assert vals[Perm.from_cycles(2, (1, 2))] == Fraction(-1, 60)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cross_oracle_symbolic_vs_gram(k):
    for d in (k, k + 1, k + 2):
        gram = wg_gram(k, d)
        for p, val in gram.items():
            assert wg_symbolic(cycle_type(p), k).evaluate(d) == val


def test_gram_is_class_function():
    for d in (3, 4):
        vals = wg_gram(3, d)
        by_ct = {}
        for p, v in vals.items():
            by_ct.setdefault(cycle_type(p), set()).add(v)
        assert all(len(s) == 1 for s in by_ct.values())


def test_gram_singular_below_k():
    # the class-sum system is singular exactly when the full Gram matrix is
    for k in (3, 4, 5, 6):
        with pytest.raises(SingularMatrixError):
            wg_gram(k, k - 1)


def test_gram_k6_matches_symbolic():
    for d in (6, 7, 8):
        gram = wg_gram(6, d)
        assert len(gram) == 720
        for p, val in gram.items():
            assert wg_symbolic(cycle_type(p), 6).evaluate(d) == val


def test_gram_exact_at_large_dimension():
    # d^5 is far beyond 2^63: the Gram entries and the row check must stay Python ints
    d = 10**6
    for p, val in wg_gram(5, d).items():
        assert wg_symbolic(cycle_type(p), 5).evaluate(d) == val


def test_gram_full_system_check_catches_corrupted_solve(monkeypatch):
    solve = rqclattice.weingarten._solve

    def corrupt_one_class(rows, rhs):
        y = solve(rows, rhs)
        y[-1] += Fraction(1, 10**9)
        return y

    monkeypatch.setattr(rqclattice.weingarten, "_solve", corrupt_one_class)
    with pytest.raises(VerificationError, match="full k!=24 system"):
        wg_gram(4, 5)


def _dense_gram_inverse(k: int, d: int) -> dict[Perm, Fraction]:
    """Reference: Gauss-Jordan on the full k! x k! Gram matrix in Fractions."""
    gt = group_table(k)
    m = gt.order
    rows = [
        [Fraction(d ** gt.n_cycles[gt.mul[gt.inv[i]][j]]) for j in range(m)]
        for i in range(m)
    ]
    rhs = [Fraction(1 if i == 0 else 0) for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv_p = 1 / rows[col][col]
        rows[col] = [c * inv_p for c in rows[col]]
        rhs[col] *= inv_p
        for r in range(m):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
                rhs[r] -= factor * rhs[col]
    return {gt.perms[i]: rhs[i] for i in range(m)}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_class_sum_solve_equals_dense_gram_inverse(k):
    for d in (k, k + 1, k + 2):
        assert wg_gram(k, d) == _dense_gram_inverse(k, d)


def test_restricted_equals_unrestricted_for_d_at_least_k():
    for k in (2, 3):
        for d in (k, k + 1):
            for p in enumerate_sk(k):
                assert wg_restricted(p, k, d) == wg_symbolic(p, k).evaluate(d)


def test_restricted_single_row_cases():
    # d=1 keeps only the one-row partition (k), whose character is 1
    for p in enumerate_sk(3):
        assert wg_restricted(p, 3, 1) == Fraction(1, 36)
    # k=2, d=1: lambda=(2) only, c_(2)(1) = 2, so chi/(2*2!) = 1/4
    for p in enumerate_sk(2):
        assert wg_restricted(p, 2, 1) == Fraction(1, 4)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_orthogonality_symbolic(k):
    """sum_tau d^ell(tau) Wg(tau^-1 pi, d) = delta_{id, pi} as rational functions."""
    gt = group_table(k)
    table = weingarten_table(k)
    # common denominator form keeps this cheap at k=5
    from rqclattice.exact import poly_gcd

    common = Polynomial([1])
    for ct in gt.cycle_types:
        den = table[ct].den
        g = poly_gcd(common, den)
        common = common * (den // g)
    nums = {}
    for ct in gt.cycle_types:
        scale, rem = divmod(common, table[ct].den)
        assert rem.is_zero()
        nums[ct] = table[ct].num * scale

    d_pow = [Polynomial([0] * e + [1]) for e in range(k + 1)]
    for pi_idx in sorted({0, 1 % gt.order, gt.order - 1}):
        total = Polynomial()
        for tau in range(gt.order):
            ell = gt.n_cycles[tau]
            prod_idx = gt.mul[gt.inv[tau]][pi_idx]
            ct = gt.cycle_types[gt.ct_index[prod_idx]]
            total = total + d_pow[ell] * nums[ct]
        if pi_idx == 0:
            assert RationalFunction(total, common) == RationalFunction.constant(1)
        else:
            assert total.is_zero()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_row_sum_identity(k):
    """sum_tau Wg(tau, d) d^ell(tau) = 1 symbolically (row of G * G^-1)."""
    from rqclattice.perms import conjugacy_class_size

    table = weingarten_table(k)
    total = RationalFunction.constant(0)
    for ct, rf in table.items():
        mono = Polynomial([0] * len(ct) + [1])  # d^ell, ell = number of cycles
        total = total + rf * RationalFunction(mono) * conjugacy_class_size(ct)
    assert total == RationalFunction.constant(1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_asymptotic_order_and_sign(k):
    # Wg(sigma, d) ~ sgn(sigma) / d^(2k - ell(sigma))
    for p in enumerate_sk(k):
        order, lead = wg_symbolic(cycle_type(p), k).asymptotic_order()
        ell = len(cycle_type(p))
        assert order == -(2 * k - ell)
        assert (lead > 0) == (sign(p) > 0)


def test_wg_in_q_substitution():
    # k=2 identity: 1/(d^2-1) -> 1/(q^4-1)
    table = wg_in_q(2)
    assert table[(1, 1)] == RationalFunction(P(1), P(-1, 0, 0, 0, 1))


def test_wg_depends_only_on_cycle_type():
    for p in enumerate_sk(4):
        assert wg_symbolic(p, 4) == wg_symbolic(cycle_type(p), 4)


def test_table_needs_no_group_table(monkeypatch):
    # cycle types come from the partitions of k; S_6 has 720^2 products
    def refuse(k):
        raise AssertionError("group table built")

    monkeypatch.setattr(rqclattice.weingarten, "group_table", refuse)
    table = WeingartenTable(6)
    assert list(dict(table.items())) == list(group_table(6).cycle_types)
