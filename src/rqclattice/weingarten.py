"""Weingarten functions of the unitary group, symbolic and numeric.

Two independent routes are kept side by side on purpose:

* :func:`wg_symbolic` builds Wg(sigma, d) from the character expansion
  (1/k!) sum_lambda chi_lambda(sigma) f_lambda / c_lambda(d), as an exact
  rational function of d.
* :func:`wg_gram` inverts the k! x k! Gram matrix G[sigma, tau] = d^ell(sigma^-1 tau)
  at an integer dimension, with exact fraction arithmetic and no character
  theory at all.

Their agreement is the central cross-oracle of the package.  Wg is a class
function, so symbolic values are stored per cycle type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .characters import character, content_polynomial, irrep_dimension, partitions
from .errors import BudgetExceededError, SingularMatrixError
from .exact import Polynomial, RationalFunction
from .perms import Perm, cycle_type, group_table

WG_CAP = 6
GRAM_CAP = 5


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


def wg_gram(k: int, d: int) -> dict[Perm, Fraction]:
    """Weingarten values at integer dimension d from exact Gram-matrix inversion.

    Solves G x = e_id for the k! x k! matrix G[sigma, tau] = d^ell(sigma^-1 tau);
    by symmetry of G the solution vector is the identity-indexed row of G^-1,
    i.e. x[sigma] = Wg(sigma, d).  Requires d >= k for invertibility; a zero
    pivot raises SingularMatrixError.

    Deliberately dumb (dense exact elimination) so it can serve as an oracle.
    Its cost grows as (k!)^3, a few seconds at k=5, so k is capped at
    GRAM_CAP = 5: k=6 raises BudgetExceededError before any work is done.
    """
    _check_k(k)
    if k > GRAM_CAP:
        raise BudgetExceededError(
            f"Gram-matrix inversion capped at k={GRAM_CAP}: dense exact elimination "
            f"grows as (k!)^3 and would take over 20 minutes at k={k}"
        )
    if d < 1:
        raise ValueError("d must be >= 1")
    gt = group_table(k)
    m = gt.order
    powers = [Fraction(d**e) for e in range(k + 1)]
    rows = [
        [powers[gt.n_cycles[gt.mul[gt.inv[i]][j]]] for j in range(m)] for i in range(m)
    ]
    rhs = [Fraction(1 if i == 0 else 0) for i in range(m)]

    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(
                f"Gram matrix singular for k={k}, d={d} (need d >= k)"
            )
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

    return {gt.perms[i]: rhs[i] for i in range(m)}


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
