"""Integer partitions, irrep dimensions, symmetric-group characters, content polynomials.

Characters are computed with the Murnaghan-Nakayama recursion over border-strip
removals (implemented on beta-sets) and memoized by (partition, cycle type),
since the Weingarten and plaquette tables re-query the same values heavily.

The content polynomial here is the standard prod_{(i,j) in lambda} (d + j - i).
"""

from __future__ import annotations

import math
from functools import cache

from .exact import int_mul

PARTITION_CAP = 10


def partitions(k: int) -> list[tuple[int, ...]]:
    """All integer partitions of k, weakly decreasing, in descending lexicographic order."""
    if not 1 <= k <= PARTITION_CAP:
        raise ValueError(f"k must be in 1..{PARTITION_CAP}, got {k}")
    return _partitions(k)


@cache
def _partitions(k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def gen(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(maxpart, remaining), 0, -1):
            gen(remaining - part, part, prefix + (part,))

    gen(k, k, ())
    return out


def _check_partition(lam: tuple[int, ...]):
    if not lam or any(a <= 0 for a in lam):
        raise ValueError(f"invalid partition {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")


def hook_lengths(lam: tuple[int, ...]) -> list[list[int]]:
    """Hook lengths of the Young diagram, row by row."""
    _check_partition(lam)
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    return [
        [(row - j) + (cols[j] - i - 1) for j in range(row)]
        for i, row in enumerate(lam)
    ]


def irrep_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the S_k irrep labelled by lam, via the hook-length formula."""
    k = sum(lam)
    denom = 1
    for row in hook_lengths(lam):
        for h in row:
            denom *= h
    f, rem = divmod(math.factorial(k), denom)
    assert rem == 0
    return f


def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character chi_lam evaluated on the class of cycle type mu."""
    _check_partition(lam)
    _check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(tuple(lam), tuple(mu))


@cache
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not lam and not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for newlam, height in _border_strip_removals(lam, r):
        total += (-1) ** height * _mn(newlam, rest)
    return total


def _border_strip_removals(lam: tuple[int, ...], r: int):
    """All ways to remove a border strip of size r, as (smaller partition, strip height).

    Works on the beta-set b_i = lam_i + (rows - 1 - i): removing a strip of
    size r is replacing some b_i by b_i - r when that value is fresh; the strip
    height is the number of beta values jumped over.
    """
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((nb if j == i else c for j, c in enumerate(beta)), reverse=True)
        newlam = tuple(x - (len(newbeta) - 1 - j) for j, x in enumerate(newbeta))
        yield tuple(x for x in newlam if x > 0), height


def box_contents(lam: tuple[int, ...]) -> list[int]:
    """Contents j - i of the boxes (i, j) of the Young diagram, row by row."""
    _check_partition(lam)
    return [j - i for i, row in enumerate(lam, start=1) for j in range(1, row + 1)]


def content_polynomial(lam: tuple[int, ...]) -> list[int]:
    """c_lam(d) = prod over boxes (i,j) of (d + j - i), as integer coefficients, lowest first.

    Degree equals |lam|; the roots are the negated box contents.
    """
    return _linear_product(box_contents(lam))


def _linear_product(contents) -> list[int]:
    """prod over c in contents of (d + c), as integer coefficients, lowest first."""
    poly = [1]
    for c in contents:
        poly = int_mul(poly, [c, 1])
    return poly
