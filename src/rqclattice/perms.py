"""Symmetric-group machinery: permutations, cycle types, distances, enumeration.

Permutations act on {1..k} and are stored as image tuples.  The composition
convention is fixed here once and for all: ``(a * b)(i) = a(b(i))``.  Every
other module goes through this module for group operations, so the convention
cannot drift.

Hot loops elsewhere use :func:`group_table`, which owns the indexing of S_k:
read-only numpy tables of multiplication, inverses, relative elements
a^-1 x, cycle counts and cycle types over all k! elements in lexicographic
order.  No other module keeps its own copy.  numpy is imported when the first
table is built, so callers that never build one (the Weingarten table, the
closed-form bounds) start without it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

from .errors import BudgetExceededError

# Largest degree whose k! permutations are listed one by one.
ENUM_CAP = 8

# The supported moment range, decided here once: group, Weingarten and
# plaquette tables and both lattice routes stop at this k.  The dense
# multiplication table of S_7 would hold 5040^2 (about 2.5e7) entries.
MOMENT_CAP = 6


def check_moment(k: int):
    """Raise BudgetExceededError unless 1 <= k <= MOMENT_CAP."""
    if not 1 <= k <= MOMENT_CAP:
        raise BudgetExceededError(f"moment order capped at k={MOMENT_CAP}, got {k}")


class Perm:
    """A permutation of {1..k}, stored as the tuple of images (images[i-1] = sigma(i))."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        k = len(images)
        if k < 1:
            raise ValueError("permutation degree must be >= 1")
        if sorted(images) != list(range(1, k + 1)):
            raise ValueError(f"not a bijection of 1..{k}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, k: int) -> "Perm":
        return cls(range(1, k + 1))

    @classmethod
    def from_cycles(cls, k: int, *cycles) -> "Perm":
        """Build a permutation of S_k from disjoint cycles, e.g. from_cycles(4, (1, 2), (3, 4))."""
        images = list(range(1, k + 1))
        seen = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise ValueError(f"cycles are not disjoint at {x}")
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition (a * b)(i) = a(b(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        return Perm(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles (including fixed points), each starting at its smallest element."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self.images[start - 1]
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"

    def __str__(self) -> str:
        return cycle_string(self)


def cycle_string(a: Perm) -> str:
    """Compact cycle notation, fixed points omitted; identity prints as 'id'."""
    nontrivial = [c for c in a.cycles() if len(c) > 1]
    if not nontrivial:
        return "id"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in nontrivial)


def compose(a: Perm, b: Perm) -> Perm:
    """Composite under the module convention (a o b)(i) = a(b(i))."""
    return a * b


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Cycle type as a weakly decreasing tuple of cycle lengths summing to the degree."""
    return tuple(sorted((len(c) for c in a.cycles()), reverse=True))


def num_cycles(a: Perm) -> int:
    """Number of cycles ell(a), counting fixed points."""
    return len(a.cycles())


def transposition_distance(a: Perm, b: Perm) -> int:
    """Minimal number of transpositions taking a to b: k - ell(a^-1 b)."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return a.degree - num_cycles(a.inverse() * b)


def sign(a: Perm) -> int:
    """Signature (-1)^(k - ell(a))."""
    return -1 if (a.degree - num_cycles(a)) % 2 else 1


def enumerate_sk(k: int) -> list[Perm]:
    """All k! permutations of S_k in lexicographic order of image tuples (k <= ENUM_CAP)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > ENUM_CAP:
        raise BudgetExceededError(f"k={k} exceeds enumeration cap {ENUM_CAP}")
    return [Perm(p) for p in itertools.permutations(range(1, k + 1))]


def conjugacy_class_size(ct: tuple[int, ...]) -> int:
    """Size of the conjugacy class with the given cycle type: k! / prod(m^a_m a_m!)."""
    k = sum(ct)
    z = 1
    for length in set(ct):
        m = ct.count(length)
        z *= length**m * math.factorial(m)
    return math.factorial(k) // z


def _longest_increasing_subsequence(seq) -> int:
    """Length of the longest increasing subsequence (patience sorting, O(k log k))."""
    import bisect

    tails: list[int] = []
    for x in seq:
        pos = bisect.bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def haar_frame_potential(k: int, d: int) -> int:
    """Haar frame potential of U(d) at moment k, exact.

    Equals k! for k <= d; for k > d it is the number of permutations in S_k
    whose longest increasing subsequence has length <= d, computed by
    enumeration.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    if k <= d:
        return math.factorial(k)
    if k > ENUM_CAP:
        raise BudgetExceededError(f"k={k} exceeds enumeration cap {ENUM_CAP}")
    count = 0
    for images in itertools.permutations(range(1, k + 1)):
        if _longest_increasing_subsequence(images) <= d:
            count += 1
    return count


class SymmetricGroupTable:
    """Dense read-only index tables for S_k, elements in lexicographic order.

    Every table is a numpy integer array over element indices, built by
    composing image arrays and ranking the results, and shared by every
    caller.  Convert entries with ``int()`` or ``.tolist()`` before they reach
    exact arithmetic or JSON.  The O(k! k) tables are built with the object;
    the (k!)^2 tables `mul` and `rel` once, on first access, so a caller that
    needs only a few relative elements reads them from :meth:`rel_column`.

    Attributes:
        perms: list of Perm, perms[0] is the identity.
        mul: mul[i, j] = index of perms[i] * perms[j].
        inv: inv[i] = index of perms[i]^-1.
        rel: rel[i, j] = index of perms[i]^-1 * perms[j], the relative element
            every Weingarten and plaquette weight depends on.
        n_cycles: ell(perms[i]).
        cycle_types: list of distinct cycle types (sorted), and
        ct_index: ct_index[i] = position of perms[i]'s cycle type in cycle_types.
    """

    def __init__(self, k: int):
        import numpy as np

        check_moment(k)
        self.k = k
        self.perms = enumerate_sk(k)
        self.order = len(self.perms)
        self._images = np.array([p.images for p in self.perms]) - 1
        # an image row read as a base-k number; lexicographic order sorts them
        self._place = k ** np.arange(k - 1, -1, -1)
        self._codes = self._images @ self._place
        self.inv = self._rank(np.argsort(self._images, axis=1) @ self._place)
        cts = [cycle_type(p) for p in self.perms]
        self.n_cycles = np.array([len(ct) for ct in cts])
        self.cycle_types = sorted(set(cts), reverse=True)
        ct_pos = {ct: i for i, ct in enumerate(self.cycle_types)}
        self.ct_index = np.array([ct_pos[ct] for ct in cts])
        for table in (self._images, self.inv, self.n_cycles, self.ct_index):
            table.setflags(write=False)

    @cached_property
    def mul(self):
        images, place = self._images, self._place
        # (a * b)(x) = a(b(x)): column j of images[:, images[j, x]] is a(b_j(x))
        mul = self._rank(sum(images[:, images[:, x]] * place[x] for x in range(self.k)))
        mul.setflags(write=False)
        return mul

    @cached_property
    def rel(self):
        rel = self.mul[self.inv]
        rel.setflags(write=False)
        return rel

    def rel_column(self, j: int):
        """rel[:, j], the index of perms[i]^-1 * perms[j] for every i, in O(k! k)
        without `rel`, or a view of it once it is built."""
        if "rel" in vars(self):
            return self.rel[:, j]
        # (a^-1 b)(x) = a^-1(b(x)), with the rows of a^-1's images at b's images
        return self._rank(self._images[self.inv][:, self._images[j]] @ self._place)

    def _rank(self, codes):
        """Element indices of the permutations with the given image codes."""
        return self._codes.searchsorted(codes)

    def idx(self, p: Perm) -> int:
        return int(self._rank(self._place.dot([x - 1 for x in p.images])))


@lru_cache(maxsize=None)
def group_table(k: int) -> SymmetricGroupTable:
    """Cached SymmetricGroupTable for S_k (k <= MOMENT_CAP)."""
    return SymmetricGroupTable(k)
