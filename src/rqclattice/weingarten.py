"""Weingarten functions of the unitary group, symbolic and numeric.

Two independent routes are kept side by side on purpose:

* :func:`wg_symbolic` builds Wg(sigma, d) from the character expansion
  (1/k!) sum_lambda chi_lambda(sigma) f_lambda / c_lambda(d), as an exact
  rational function of d.
* :func:`wg_gram` solves the k! x k! Gram system G[sigma, tau] = d^ell(sigma^-1 tau)
  at an integer dimension, with exact fraction arithmetic and no character
  theory at all: reduced to the p(k) class sums (G is convolution by a class
  function), then checked against every one of the k! rows of G.

Their agreement is the central cross-oracle of the package.  Wg is a class
function, so symbolic values are stored per cycle type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .characters import character, content_polynomial, irrep_dimension, partitions
from .errors import BudgetExceededError, SingularMatrixError, VerificationError
from .exact import Polynomial, RationalFunction
from .perms import Perm, cycle_type, group_table

WG_CAP = 6


def _check_k(k: int):
    if not 1 <= k <= WG_CAP:
        raise BudgetExceededError(f"Weingarten tables capped at k={WG_CAP}, got {k}")


@lru_cache(maxsize=None)
def _wg_by_cycle_type(k: int, ct: tuple[int, ...]) -> RationalFunction:
    total = RationalFunction(Polynomial())
    for lam in partitions(k):
        chi = character(lam, ct)
        if chi == 0:
            continue
        f = irrep_dimension(lam)
        total = total + RationalFunction(Polynomial([chi * f]), content_polynomial(lam))
    return total * Fraction(1, math.factorial(k))


def wg_symbolic(sigma, k: int | None = None) -> RationalFunction:
    """Wg(sigma, d) via the character expansion, fully reduced, symbolic in d.

    `sigma` may be a Perm or a cycle-type tuple.  The expansion is the
    unrestricted sum over all partitions of k; for integer d < k the reduced
    function may still have a pole at d, which evaluation surfaces explicitly.
    """
    if isinstance(sigma, Perm):
        ct = cycle_type(sigma)
    else:
        ct = tuple(sigma)
    if k is None:
        k = sum(ct)
    elif sum(ct) != k:
        raise ValueError(f"cycle type {ct} is not a cycle type of S_{k}")
    _check_k(k)
    return _wg_by_cycle_type(k, ct)


class WeingartenTable:
    """All Wg(sigma, d) of S_k, one exact rational function per cycle type."""

    def __init__(self, k: int):
        _check_k(k)
        self.k = k
        self.values = {ct: _wg_by_cycle_type(k, ct) for ct in partitions(k)}

    def __getitem__(self, key) -> RationalFunction:
        if isinstance(key, Perm):
            key = cycle_type(key)
        return self.values[tuple(key)]

    def items(self):
        return self.values.items()


@lru_cache(maxsize=None)
def weingarten_table(k: int) -> WeingartenTable:
    return WeingartenTable(k)


@lru_cache(maxsize=None)
def wg_in_q(k: int) -> dict[tuple[int, ...], RationalFunction]:
    """Wg per cycle type with d = q^2 substituted symbolically, reduced in q."""
    return {
        ct: rf.substitute_power(2) for ct, rf in weingarten_table(k).items()
    }


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gauss-Jordan solve of rows x = rhs; None when the matrix is singular.

    Pivots on the first nonzero entry of each column and works in place.
    """
    m = len(rows)
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv_p = 1 / rows[col][col]
        rows[col] = [c * inv_p for c in rows[col]]
        rhs[col] *= inv_p
        for r in range(m):
            if r == col:
                continue
            factor = rows[r][col]
            if factor == 0:
                continue
            rr, rc = rows[r], rows[col]
            rows[r] = [rr[j] - factor * rc[j] for j in range(m)]
            rhs[r] -= factor * rhs[col]
    return rhs


def wg_gram(k: int, d: int) -> dict[Perm, Fraction]:
    """Weingarten values at integer dimension d from the exact Gram system.

    Wg(., d) is the solution x of G x = e_id for the k! x k! matrix
    G[sigma, tau] = d^ell(sigma^-1 tau); by symmetry of G it is the
    identity-indexed row of G^-1.  G is convolution by the class function
    d^ell, so x is a class function and the system reduces to p(k) equations
    in the class values y_mu (7 at k=5, 11 at k=6):

        M[nu][mu] = sum over tau in class mu of d^ell(g_nu^-1 tau),
        M y = e_(class of id),

    with g_nu any element of class nu.  M is the action of d^ell on the
    centre of the group algebra, so it is singular exactly when G is, i.e.
    for d < k; a zero pivot raises SingularMatrixError.

    The expanded solution is then checked against all k! rows of G in exact
    integer arithmetic (sum_tau d^ell(sigma^-1 tau) X_tau = D delta(sigma, id)
    with X = x D over the least common denominator D), on every call; a
    mismatch raises VerificationError.  Both the reduction and the check use
    only group multiplication and cycle counts, no character theory, so the
    result stays an oracle for :func:`wg_symbolic`.
    """
    _check_k(k)
    if d < 1:
        raise ValueError("d must be >= 1")
    gt = group_table(k)
    m = gt.order
    n_classes = len(gt.cycle_types)
    powers = [d**e for e in range(k + 1)]
    reps = [gt.ct_index.index(c) for c in range(n_classes)]

    rows = []
    for g in reps:
        row = [0] * n_classes
        for tau, prod in enumerate(gt.mul[gt.inv[g]]):
            row[gt.ct_index[tau]] += powers[gt.n_cycles[prod]]
        rows.append([Fraction(c) for c in row])
    id_class = gt.ct_index[0]
    rhs = [Fraction(1 if c == id_class else 0) for c in range(n_classes)]
    y = _solve(rows, rhs)
    if y is None:
        raise SingularMatrixError(f"Gram matrix singular for k={k}, d={d} (need d >= k)")

    denom = math.lcm(*(v.denominator for v in y))
    scaled = [int(v * denom) for v in y]
    x_scaled = [scaled[c] for c in gt.ct_index]
    for sigma in range(m):
        products = gt.mul[gt.inv[sigma]]
        total = sum(powers[gt.n_cycles[p]] * x for p, x in zip(products, x_scaled))
        if total != (denom if sigma == 0 else 0):
            raise VerificationError(
                f"class-sum solve of the Gram system fails row {gt.perms[sigma]} "
                f"of the full k!={m} system at k={k}, d={d}"
            )
    return {gt.perms[i]: y[gt.ct_index[i]] for i in range(m)}


def wg_restricted(sigma: Perm, k: int, d: int) -> Fraction:
    """Weingarten value with the partition sum restricted to at most d rows.

    This is the variant that stays finite for every integer d >= 1, including
    d < k; for d >= k it coincides with the unrestricted expansion.
    """
    _check_k(k)
    if d < 1:
        raise ValueError("d must be >= 1")
    ct = cycle_type(sigma)
    total = Fraction(0)
    for lam in partitions(k):
        if len(lam) > d:
            continue
        chi = character(lam, ct)
        if chi == 0:
            continue
        c_val = content_polynomial(lam).evaluate(d)
        total += Fraction(chi * irrep_dimension(lam)) / c_val
    return total / math.factorial(k)
