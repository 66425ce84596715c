"""Triangular-lattice plaquette weights J^{s1}_{s2 s3} as exact rational functions of q.

A plaquette weight is the tau-sum

    J^{s1}_{s2 s3} = sum_{tau in S_k} Wg(s1^-1 tau, q^2) q^ell(tau^-1 s2) q^ell(tau^-1 s3)

with d = q^2 substituted symbolically before reduction, so pole cancellation
can be certified on the reduced form in q.  J depends on (s1, s2, s3) only
through the key (s1^-1 s2, s1^-1 s3), and keys related by simultaneous
conjugation share a weight and a wall signature.  Each table labels those
classes once, in one (k!, k!) map that every lookup goes through, and computes
a class weight on first use, the same way for every k <= 6: the k=5 table has
161 classes for its 14400 keys and k=6 has 901 for 518400.  The asymptotic
and pole checks walk the classes, each counting for its size, so they certify
every k <= 6.  Rule checks recompute a sample of weights from the raw tau-sum
so the class map itself stays under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import Polynomial, RationalFunction, poly_gcd
from .perms import Perm, group_table
from .weingarten import wg_in_q

_SINGLE_WALL = RationalFunction(Polynomial([0, 1]), Polynomial([1, 0, 1]))  # q/(q^2+1)


@dataclass(frozen=True)
class WallSignature:
    """Pairwise transposition distances of a plaquette triple.

    in_left = |s1^-1 s2|, in_right = |s1^-1 s3| count ingoing domain walls
    through the two lower edges; across = |s2^-1 s3| counts walls through the
    outgoing edge.  The three always satisfy the triangle inequality.
    """

    in_left: int
    in_right: int
    across: int

    def __post_init__(self):
        trio = (self.in_left, self.in_right, self.across)
        if any(x < 0 for x in trio):
            raise ValueError(f"negative wall count in {trio}")
        if (
            self.across > self.in_left + self.in_right
            or self.in_left > self.in_right + self.across
            or self.in_right > self.in_left + self.across
        ):
            raise ValueError(f"triangle inequality violated: {trio}")

    @property
    def total_in(self) -> int:
        return self.in_left + self.in_right

    @property
    def annihilating(self) -> bool:
        """True when fewer walls leave than entered."""
        return self.across < self.total_in


@dataclass
class RuleReport:
    """Outcome of a structural check; `ok` only if no violation was recorded."""

    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def note(self, message: str):
        self.violations.append(message)

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return f"{self.name}: {self.checked} checks, {status}"


@lru_cache(maxsize=None)
def _wg_numerators(k: int):
    """Weingarten numerators in q over one common denominator D(q)."""
    wgq = wg_in_q(k)
    gt = group_table(k)
    common = Polynomial([1])
    for ct in gt.cycle_types:
        den = wgq[ct].den
        g = poly_gcd(common, den)
        common = common * (den // g)
    nums = []
    for ct in gt.cycle_types:
        rf = wgq[ct]
        scale, rem = divmod(common, rf.den)
        assert rem.is_zero()
        nums.append(rf.num * scale)
    return nums, common


class PlaquetteTable:
    """Plaquette weights of S_k, stored once per conjugation class of keys.

    On creation every raw key (a, b) = (s1^-1 s2, s1^-1 s3) is labelled with
    its class under simultaneous conjugation; classes are numbered in
    row-major order of their least key, their representative.  Each class
    weight is computed on first use, for every k; :meth:`key_classes`
    computes them all.  Lookups mutate only the weight list, each slot once
    with the same value, so the table is safe to share across threads.
    """

    def __init__(self, k: int):
        self.k = k
        self._gt = group_table(k)  # checks the moment cap
        self._cls, self._reps = self._label_classes()
        self._weights: list[RationalFunction | None] = [None] * len(self._reps)

    def _label_classes(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The (k!, k!) class of every key and each class's least key."""
        gt = self._gt
        # conj[p, a] = index of p^-1 a p
        conj = gt.mul[gt.rel, np.arange(gt.order)[:, None]]
        cls = np.full((gt.order, gt.order), -1)
        reps: list[tuple[int, int]] = []
        for ia in range(gt.order):
            for ib in np.flatnonzero(cls[ia] < 0).tolist():
                if cls[ia, ib] < 0:  # row-major first key of a new orbit is its least
                    cls[conj[:, ia], conj[:, ib]] = len(reps)
                    reps.append((ia, ib))
        cls.setflags(write=False)  # shared by every caller of the table
        return cls, reps

    def _weight_raw(self, ia: int, ib: int) -> RationalFunction:
        """J^{id}_{a b} from the defining tau-sum, bypassing the class map."""
        gt = self._gt
        nums, common = _wg_numerators(self.k)
        # counts[ct][m]: how many tau of each cycle type give q-exponent m
        width = 2 * self.k + 1
        exponents = gt.n_cycles[gt.rel[:, ia]] + gt.n_cycles[gt.rel[:, ib]]
        counts = np.bincount(
            gt.ct_index * width + exponents, minlength=len(gt.cycle_types) * width
        ).reshape(-1, width)
        total = Polynomial()
        for ct_i, row_counts in enumerate(counts.tolist()):
            if any(row_counts):
                total = total + nums[ct_i] * Polynomial(row_counts)
        return RationalFunction(total, common)

    def _class_weight(self, c: int) -> RationalFunction:
        w = self._weights[c]
        if w is None:
            w = self._weights[c] = self._weight_raw(*self._reps[c])
        return w

    # -- public surface ----------------------------------------------------

    def weight_by_key(self, a: Perm, b: Perm) -> RationalFunction:
        """J^{id}_{a b} for the key pair (a, b)."""
        return self._weight_by_index(self._gt.idx(a), self._gt.idx(b))

    def _weight_by_index(self, ia: int, ib: int) -> RationalFunction:
        return self._class_weight(self._cls[ia, ib])

    def key_classes(self) -> tuple[list[RationalFunction], np.ndarray]:
        """Class weights and the read-only (k!, k!) array of each raw key's class."""
        return [self._class_weight(c) for c in range(len(self._reps))], self._cls

    def weight(self, s1: Perm, s2: Perm, s3: Perm) -> RationalFunction:
        inv1 = s1.inverse()
        return self.weight_by_key(inv1 * s2, inv1 * s3)

    def entries(self):
        """Yield (a, b, signature, weight) for every raw key pair, in index order."""
        gt = self._gt
        for ia in range(gt.order):
            for ib in range(gt.order):
                sig = self._signature_by_index(ia, ib)
                yield gt.perms[ia], gt.perms[ib], sig, self._weight_by_index(ia, ib)

    def _signature_by_index(self, ia: int, ib: int) -> WallSignature:
        gt = self._gt
        # plain ints: the fields reach JSON output
        in_left, in_right, across = (self.k - gt.n_cycles[[ia, ib, gt.rel[ia, ib]]]).tolist()
        return WallSignature(in_left=in_left, in_right=in_right, across=across)


@lru_cache(maxsize=None)
def build_table(k: int) -> PlaquetteTable:
    """The shared plaquette table of S_k, its class weights computed on first use."""
    return PlaquetteTable(k)


def plaquette_weight(s1: Perm, s2: Perm, s3: Perm) -> RationalFunction:
    """J^{s1}_{s2 s3} as a reduced rational function of q."""
    k = s1.degree
    if not (k == s2.degree == s3.degree):
        raise ValueError("plaquette permutations must share a degree")
    return build_table(k).weight(s1, s2, s3)


def classify(s1: Perm, s2: Perm, s3: Perm) -> WallSignature:
    """Wall signature (|s1^-1 s2|, |s1^-1 s3|, |s2^-1 s3|) of a triple."""
    from .perms import transposition_distance

    return WallSignature(
        in_left=transposition_distance(s1, s2),
        in_right=transposition_distance(s1, s3),
        across=transposition_distance(s2, s3),
    )


def verify_rules(
    k: int, samples: int = 10_000, raw_spot_checks: int = 50, seed: int = 20240613
) -> RuleReport:
    """Check the structural plaquette rules.

    Exhaustive over all (k!)^2 keys for k <= 4, with right-invariance
    additionally checked against every group translation; for k >= 5 the rules
    are checked on `samples` pseudo-random triples.  A deterministic subsample
    of weights is recomputed from the raw tau-sum so that the class map is
    itself exercised.

    Rules: (i) J^s_{ss} = 1; (ii) J^s_{s's'} = 0 for s != s'; (iii) a single
    outgoing wall forces a single ingoing wall, with the k=2 weight q/(q^2+1);
    (iv) symmetry under s2 <-> s3; (v) invariance under simultaneous right
    translation.
    """
    gt = group_table(k)  # checks the moment cap
    report = RuleReport(name=f"plaquette rules k={k}")
    table = build_table(k)
    rng = random.Random(seed)

    one = RationalFunction.constant(1)
    zero = RationalFunction.constant(0)

    if k <= 4:
        keys = [(ia, ib) for ia in range(gt.order) for ib in range(gt.order)]
    else:
        keys = [
            (rng.randrange(gt.order), rng.randrange(gt.order)) for _ in range(samples)
        ]

    for ia, ib in keys:
        w = table._weight_by_index(ia, ib)
        sig = table._signature_by_index(ia, ib)
        report.checked += 1
        if ia == 0 and ib == 0:
            if w != one:
                report.note(f"rule i: J[id,id] = {w}, expected 1")
        elif ia == ib:
            if w != zero:
                report.note(f"rule ii: J[a,a] != 0 at key {(ia, ib)}")
        if sig.across == 1:
            # single outgoing wall: nonzero only if s1 matches s2 or s3
            if ia == 0 or ib == 0:
                if w != _SINGLE_WALL:
                    report.note(
                        f"rule iii: single-wall weight at key {(ia, ib)} is {w}"
                    )
            elif w != zero:
                report.note(f"rule iii: key {(ia, ib)} should vanish, got {w}")
        if table._weight_by_index(ib, ia) != w:
            report.note(f"rule iv: J[a,b] != J[b,a] at key {(ia, ib)}")
        report.checked += 1

    # rule v: simultaneous right translation conjugates the key
    if k <= 4:
        translations = [
            (ia, ib, p)
            for ia in range(gt.order)
            for ib in range(gt.order)
            for p in range(gt.order)
        ]
    else:
        translations = [
            (rng.randrange(gt.order), rng.randrange(gt.order), rng.randrange(gt.order))
            for _ in range(samples)
        ]
    for ia, ib, p in translations:
        ja, jb = gt.mul[gt.rel[p, [ia, ib]], p].tolist()
        report.checked += 1
        if table._weight_by_index(ja, jb) != table._weight_by_index(ia, ib):
            report.note(f"rule v: key {(ia, ib)} changed under translation {p}")

    # spot-check the class map against raw tau-sums
    for _ in range(raw_spot_checks):
        ia, ib = rng.randrange(gt.order), rng.randrange(gt.order)
        report.checked += 1
        if table._weight_raw(ia, ib) != table._weight_by_index(ia, ib):
            report.note(f"raw recomputation mismatch at key {(ia, ib)}")

    return report


def asymptotic_check(k: int) -> RuleReport:
    """Check 1/q decay orders of all nonzero weights.

    Every nonzero weight must decay at least as fast as q^-(ingoing walls),
    with exact equality whenever no walls annihilate (across == total_in).
    Weight and signature are class invariants, so each key class is checked
    once, through its representative, and counts for every key it holds.
    """
    table = build_table(k)
    weights, cls = table.key_classes()
    sizes = np.bincount(cls.ravel())
    report = RuleReport(name=f"asymptotic orders k={k}")
    gt = table._gt
    for (ia, ib), w, size in zip(table._reps, weights, sizes.tolist()):
        if w.is_zero():
            continue
        sig = table._signature_by_index(ia, ib)
        order, _ = w.asymptotic_order()
        report.checked += size
        key = f"class of key ({gt.perms[ia]}, {gt.perms[ib]})"
        if order > -sig.total_in:
            report.note(f"{key}: order {order} slower than -{sig.total_in}")
        if not sig.annihilating and order != -sig.total_in:
            report.note(f"{key}: no annihilation but order {order} != -{sig.total_in}")
    return report


def pole_free_report(k: int, lo: int = 2, hi: int = 1000) -> RuleReport:
    """Certify that no reduced weight denominator has an integer root q in [lo, hi].

    Every key's weight is its class weight, so the distinct denominators of the
    class weights are those of all (k!)^2 keys.
    """
    weights, _ = build_table(k).key_classes()
    report = RuleReport(name=f"pole freeness k={k} on [{lo}, {hi}]")
    for den in dict.fromkeys(w.den for w in weights):
        report.checked += 1
        roots = den.integer_roots(lo, hi)
        if roots:
            report.note(f"denominator {den} has integer roots {sorted(roots)}")
    return report
