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
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .characters import (
    _linear_product, box_contents, character, content_polynomial, irrep_dimension, partitions,
)
from .errors import SingularMatrixError, VerificationError
from .exact import RationalFunction, horner, scale_to_ints
from .perms import Perm, check_moment, cycle_type, group_table


@lru_cache(maxsize=None)
def _content_lcm(k: int) -> tuple[list[int], dict[tuple[int, ...], list[int]]]:
    """lcm L(d) of the content polynomials of S_k, and each cofactor L / c_lambda.

    Every c_lambda is a product of linear factors (d + c) over its box
    contents c, so L takes each factor to its highest multiplicity.
    """
    mult = {lam: Counter(box_contents(lam)) for lam in partitions(k)}
    top = Counter()
    for m in mult.values():
        top |= m
    return _linear_product(top.elements()), {
        lam: _linear_product((top - m).elements()) for lam, m in mult.items()
    }


@lru_cache(maxsize=None)
def _wg_by_cycle_type(k: int, ct: tuple[int, ...]) -> RationalFunction:
    """(1/k!) sum_lambda chi_lambda(ct) f_lambda / c_lambda(d) over L(d), reduced once."""
    common, cofactors = _content_lcm(k)
    num = [0] * len(common)
    for lam, cof in cofactors.items():
        weight = character(lam, ct) * irrep_dimension(lam)
        if weight:
            for i, c in enumerate(cof):
                num[i] += weight * c
    return RationalFunction.from_ints(num, [math.factorial(k) * c for c in common])


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
    check_moment(k)
    return _wg_by_cycle_type(k, ct)


@lru_cache(maxsize=None)
def weingarten_table(k: int) -> dict[tuple[int, ...], RationalFunction]:
    """All Wg(sigma, d) of S_k, one exact rational function per cycle type."""
    check_moment(k)
    return {ct: _wg_by_cycle_type(k, ct) for ct in partitions(k)}


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
    import numpy as np

    check_moment(k)
    if d < 1:
        raise ValueError("d must be >= 1")
    gt = group_table(k)
    classes = gt.ct_index.tolist()
    # G as Python ints in an object array: d^k overflows int64 for large d
    gram = np.array([d**e for e in range(k + 1)], dtype=object)[gt.n_cycles[gt.rel]]
    n_classes = len(gt.cycle_types)
    reps = [classes.index(c) for c in range(n_classes)]
    members = [gt.ct_index == c for c in range(n_classes)]
    rows = [[Fraction(sum(gram[g, mu])) for mu in members] for g in reps]
    rhs = [Fraction(1 if c == classes[0] else 0) for c in range(n_classes)]
    y = _solve(rows, rhs)
    if y is None:
        raise SingularMatrixError(f"Gram matrix singular for k={k}, d={d} (need d >= k)")

    scaled, denom = scale_to_ints(y)
    expected = np.zeros(gt.order, dtype=object)
    expected[0] = denom
    wrong = np.flatnonzero(gram.dot(np.array(scaled, dtype=object)[gt.ct_index]) != expected)
    if wrong.size:
        raise VerificationError(
            f"class-sum solve of the Gram system fails row {gt.perms[wrong[0]]} "
            f"of the full k!={gt.order} system at k={k}, d={d}"
        )
    return {p: y[c] for p, c in zip(gt.perms, classes)}


def wg_restricted(sigma: Perm, k: int, d: int) -> Fraction:
    """Weingarten value with the partition sum restricted to at most d rows.

    This is the variant that stays finite for every integer d >= 1, including
    d < k; for d >= k it coincides with the unrestricted expansion.
    """
    check_moment(k)
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
        c_val = horner(content_polynomial(lam), d)
        total += Fraction(chi * irrep_dimension(lam)) / c_val
    return total / math.factorial(k)
