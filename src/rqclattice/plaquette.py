"""Triangular-lattice plaquette weights J^{s1}_{s2 s3} as exact rational functions of q.

A plaquette weight is the tau-sum

    J^{s1}_{s2 s3} = sum_{tau in S_k} Wg(s1^-1 tau, q^2) q^ell(tau^-1 s2) q^ell(tau^-1 s3)

with d = q^2 substituted symbolically before reduction, so pole cancellation
can be certified on the reduced form in q.  J depends on (s1, s2, s3) only
through the key (s1^-1 s2, s1^-1 s3), and keys related by simultaneous
conjugation share a weight and a wall signature.  Each table labels those
classes once, in one (k!, k!) map that every lookup goes through, and computes
a class weight on first use, the same way for every k <= 6: the k=5 table has
161 classes for its 14400 keys and k=6 has 901 for 518400.  A single key
needs no table: `key_weight` and `key_signature` read two columns of the
group's `rel` (O(k! k) work, no (k!)^2 array), and each table computes its
class weights with them.  The asymptotic and pole checks walk the classes,
each counting for its size, so they certify every k <= 6.  Rule checks
recompute a sample of weights from the raw tau-sum so the class map itself
stays under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exact import RationalFunction, _format, int_lcm, int_mul, integer_roots
from .perms import Perm, SymmetricGroupTable, group_table, transposition_distance
from .weingarten import wg_in_q

_SINGLE_WALL = RationalFunction.from_ints([0, 1], [1, 0, 1])  # q/(q^2+1)


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
def _wg_numerators(k: int) -> tuple[np.ndarray, list[int]]:
    """Integer Weingarten numerators in q over one integer denominator D(q).

    Row (ct, m) of the returned object array holds the numerator of the cycle
    type with index ct times q^m, for m = 0..2k (the exponents of the tau-sum),
    so a weight numerator is one integer dot product with its tau counts.
    """
    wgq = wg_in_q(k)
    ints = [wgq[ct].ints for ct in group_table(k).cycle_types]
    common, cofactors = int_lcm([den for _, den in ints])
    width = 2 * k + 1
    nums = [int_mul(num, cof) for (num, _), cof in zip(ints, cofactors)]
    shifted = np.zeros((len(nums), width, max(map(len, nums)) + width - 1), dtype=object)
    for ct_i, num in enumerate(nums):
        for m in range(width):
            shifted[ct_i, m, m : m + len(num)] = num
    return shifted.reshape(len(nums) * width, -1), common


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

    def _class_weight(self, c: int) -> RationalFunction:
        w = self._weights[c]
        if w is None:
            w = self._weights[c] = key_weight(self._gt, *self._reps[c])
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

    def class_signature(self, c: int) -> WallSignature:
        """The wall signature shared by every key of class c."""
        return key_signature(self._gt, *self._reps[c])


def key_weight(gt: SymmetricGroupTable, ia: int, ib: int) -> RationalFunction:
    """J^{id}_{a b} of the key with element indices (ia, ib) in S_k's table `gt`,
    from the defining tau-sum over columns ia and ib of `rel`: O(k! k) work,
    and no (k!)^2 table is built for it."""
    k = gt.k
    shifted, common = _wg_numerators(k)
    # counts[ct * width + m]: how many tau of each cycle type give q-exponent m
    width = 2 * k + 1
    exponents = gt.n_cycles[gt.rel_column(ia)] + gt.n_cycles[gt.rel_column(ib)]
    counts = np.bincount(gt.ct_index * width + exponents, minlength=len(shifted))
    used = np.flatnonzero(counts)
    total = np.array(counts[used].tolist(), dtype=object).dot(shifted[used])
    return RationalFunction.from_ints(total.tolist(), common)


def key_signature(gt: SymmetricGroupTable, ia: int, ib: int) -> WallSignature:
    """The wall signature of the key (ia, ib), its across count from rel[ia, ib]."""
    # plain ints: the fields reach JSON output
    in_left, in_right, across = (gt.k - gt.n_cycles[[ia, ib, gt.rel_column(ib)[ia]]]).tolist()
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
    are checked on `samples` pseudo-random triples.  Weights of
    `raw_spot_checks` random keys, and of both sides of `raw_spot_checks`
    translations spread evenly over the rule-v list, are recomputed from the
    raw tau-sum, so that the class map and the weights are themselves under test.

    Rules: (i) J^s_{ss} = 1; (ii) J^s_{s's'} = 0 for s != s'; (iii) a single
    outgoing wall forces a single ingoing wall, with the k=2 weight q/(q^2+1);
    (iv) symmetry under s2 <-> s3; (v) invariance under simultaneous right
    translation.  Every key's wall signature must satisfy the triangle
    inequality (ValueError otherwise, as from :class:`WallSignature`).

    The rules run on arrays over the class map: each weight a key uses gets
    one id per distinct value, so rules i-iv compare ids, and every
    translation is one gather.  Violations are listed in the order of a walk
    over the keys, each key's rules in order, then the translations.
    """
    gt = group_table(k)  # checks the moment cap
    report = RuleReport(name=f"plaquette rules k={k}")
    table = build_table(k)
    cls = table._cls
    rng = random.Random(seed)
    n = gt.order

    def draws(width: int) -> tuple[np.ndarray, ...]:
        """`samples` tuples of `width` random indices, drawn tuple by tuple."""
        randrange = rng.randrange
        flat = [randrange(n) for _ in range(samples * width)]
        return tuple(np.array(flat, dtype=np.intp).reshape(-1, width).T)

    ka, kb = np.divmod(np.arange(n * n), n) if k <= 4 else draws(2)
    c_ab, c_ba = cls[ka, kb], cls[kb, ka]
    ids: dict[RationalFunction, int] = {}  # one id per distinct weight
    wid = np.full(len(table._reps), -1)
    for c in np.flatnonzero(np.bincount(np.concatenate([c_ab, c_ba]))).tolist():
        wid[c] = ids.setdefault(table._class_weight(c), len(ids))
    # the ids of 1, 0 and q/(q^2+1); -2, no id, where no key has that weight
    one, zero, single = (ids.get(w, -2) for w in (RationalFunction.constant(1),
                                                   RationalFunction.constant(0), _SINGLE_WALL))
    w_ab = wid[c_ab]

    left, right = k - gt.n_cycles[ka], k - gt.n_cycles[kb]
    across = k - gt.n_cycles[gt.rel[ka, kb]]
    trio = np.stack([left, right, across])
    broken = np.flatnonzero((trio < 0).any(axis=0) | (2 * trio.max(axis=0) > trio.sum(axis=0)))
    if broken.size:
        WallSignature(*trio[:, broken[0]].tolist())  # raises

    rule_i = (ka == 0) & (kb == 0) & (w_ab != one)
    rule_ii = (ka == kb) & (ka != 0) & (w_ab != zero)
    # single outgoing wall: nonzero only if s1 matches s2 or s3
    at_id = (ka == 0) | (kb == 0)
    rule_iii = (across == 1) & (w_ab != np.where(at_id, single, zero))
    rule_iv = w_ab != wid[c_ba]
    report.checked += 2 * len(ka)
    for i in np.flatnonzero(rule_i | rule_ii | rule_iii | rule_iv).tolist():
        ia, ib = int(ka[i]), int(kb[i])
        w = table._weight_by_index(ia, ib)
        if rule_i[i]:
            report.note(f"rule i: J[id,id] = {w}, expected 1")
        if rule_ii[i]:
            report.note(f"rule ii: J[a,a] != 0 at key {(ia, ib)}")
        if rule_iii[i]:
            if at_id[i]:
                report.note(f"rule iii: single-wall weight at key {(ia, ib)} is {w}")
            else:
                report.note(f"rule iii: key {(ia, ib)} should vanish, got {w}")
        if rule_iv[i]:
            report.note(f"rule iv: J[a,b] != J[b,a] at key {(ia, ib)}")

    # rule v: simultaneous right translation conjugates the key
    ta, tb, tp = (axis.ravel() for axis in np.indices((n, n, n))) if k <= 4 else draws(3)
    ja, jb = gt.mul[gt.rel[tp, ta], tp], gt.mul[gt.rel[tp, tb], tp]
    moved = cls[ja, jb] != cls[ta, tb]
    report.checked += len(ta)
    # the class map puts a key and its translate in one class by construction,
    # so the weights of an even spread of translations are recomputed raw
    spread = {len(ta) * i // raw_spot_checks for i in range(raw_spot_checks)} if len(ta) else ()
    for i in sorted(spread):
        if not moved[i] and key_weight(gt, int(ja[i]), int(jb[i])) != key_weight(
            gt, int(ta[i]), int(tb[i])
        ):
            moved[i] = True
    for i in np.flatnonzero(moved).tolist():
        key = (int(ta[i]), int(tb[i]))
        report.note(f"rule v: key {key} changed under translation {int(tp[i])}")

    # spot-check the class map against raw tau-sums
    for _ in range(raw_spot_checks):
        ia, ib = rng.randrange(n), rng.randrange(n)
        report.checked += 1
        if key_weight(gt, ia, ib) != table._weight_by_index(ia, ib):
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
        sig = key_signature(gt, ia, ib)
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
    for den in dict.fromkeys(tuple(w.ints[1]) for w in weights):
        report.checked += 1
        roots = integer_roots(den, lo, hi)
        if roots:
            report.note(f"denominator {_format(den, 'q')} has integer roots {sorted(roots)}")
    return report
