import copy
import hashlib
import itertools
import json
import math
import random
from functools import reduce

import numpy as np
import pytest

from rqclattice.characters import partitions
from rqclattice.errors import BudgetExceededError
from rqclattice.exact import RationalFunction, int_mul
from rqclattice.perms import Perm, conjugacy_class_size, enumerate_sk
from rqclattice.weingarten import weingarten_table, wg_in_q
from rqclattice import plaquette
from rqclattice.plaquette import (
    PlaquetteTable,
    RuleReport,
    WallSignature,
    asymptotic_check,
    build_table,
    classify,
    plaquette_weight,
    pole_free_report,
    verify_rules,
)


def P(*coeffs):
    return list(coeffs)


def PP(*factors):
    """The product of integer polynomials, each given by its coefficients, lowest first."""
    return reduce(int_mul, factors)


def every_key(table):
    """(signature, weight) of every raw key: its own signature, its class weight."""
    weights, cls = table.key_classes()
    for (ia, ib), c in np.ndenumerate(cls):
        yield plaquette.key_signature(table._gt, ia, ib), weights[c]


SINGLE_WALL = RationalFunction(P(0, 1), P(1, 0, 1))  # q/(q^2+1)


def per_key_rules(k, samples=10_000, raw_spot_checks=50, seed=20240613):
    """The rule suite as a walk over keys, one weight and signature lookup each;
    the oracle of the array suite `verify_rules`, same draws and messages."""
    gt = plaquette.group_table(k)
    report = RuleReport(name=f"plaquette rules k={k}")
    table = plaquette.build_table(k)
    rng = random.Random(seed)
    one, zero = RationalFunction.constant(1), RationalFunction.constant(0)
    if k <= 4:
        keys = [(ia, ib) for ia in range(gt.order) for ib in range(gt.order)]
    else:
        keys = [(rng.randrange(gt.order), rng.randrange(gt.order)) for _ in range(samples)]
    for ia, ib in keys:
        w = table._weight_by_index(ia, ib)
        sig = plaquette.key_signature(gt, ia, ib)
        report.checked += 1
        if ia == 0 and ib == 0:
            if w != one:
                report.note(f"rule i: J[id,id] = {w}, expected 1")
        elif ia == ib:
            if w != zero:
                report.note(f"rule ii: J[a,a] != 0 at key {(ia, ib)}")
        if sig.across == 1:
            if ia == 0 or ib == 0:
                if w != SINGLE_WALL:
                    report.note(f"rule iii: single-wall weight at key {(ia, ib)} is {w}")
            elif w != zero:
                report.note(f"rule iii: key {(ia, ib)} should vanish, got {w}")
        if table._weight_by_index(ib, ia) != w:
            report.note(f"rule iv: J[a,b] != J[b,a] at key {(ia, ib)}")
        report.checked += 1
    if k <= 4:
        translations = list(itertools.product(range(gt.order), repeat=3))
    else:
        translations = [
            (rng.randrange(gt.order), rng.randrange(gt.order), rng.randrange(gt.order))
            for _ in range(samples)
        ]
    spread = {len(translations) * i // raw_spot_checks for i in range(raw_spot_checks)}
    for i, (ia, ib, p) in enumerate(translations):
        ja, jb = gt.mul[gt.rel[p, [ia, ib]], p].tolist()
        report.checked += 1
        if table._cls[ja, jb] != table._cls[ia, ib] or (
            i in spread and plaquette.key_weight(gt, ja, jb) != plaquette.key_weight(gt, ia, ib)
        ):
            report.note(f"rule v: key {(ia, ib)} changed under translation {p}")
    for _ in range(raw_spot_checks):
        ia, ib = rng.randrange(gt.order), rng.randrange(gt.order)
        report.checked += 1
        if plaquette.key_weight(gt, ia, ib) != table._weight_by_index(ia, ib):
            report.note(f"raw recomputation mismatch at key {(ia, ib)}")
    return report

# golden k=3 reference weights, constructed from their published factored forms
K3_DEN = PP((2, 0, 1), (1, 0, 1), (-2, 0, 1))  # (q^2+2)(q^2+1)(q^2-2)
K3_TWO_THROUGH = RationalFunction(P(0, 0, -1, 0, 1), K3_DEN)  # q^2(q^2-1)/...
K3_TWO_SAME_SIDE = RationalFunction(P(-2, 0, -2, 0, 1), K3_DEN)  # (q^2(q^2-2)-2)/...
K3_ANNIHILATION = RationalFunction(P(2, 0, -2), K3_DEN)  # -2(q^2-1)/...

# golden k=4 reference weights
K4_A = RationalFunction(
    PP((-1, 0, 1), (2, 0, 2, 0, 1)),
    PP((3, 0, 1), (2, 0, 1), (1, 0, 1), (-2, 0, 1), (0, 1)),
)
K4_B = RationalFunction(P(-1, 0, 1), PP((3, 0, 1), (1, 0, 1), (-3, 0, 1)))
K4_C = RationalFunction(P(-1, 0, -4, 0, 1), PP((3, 0, 1), (1, 0, 1), (-2, 0, 1), (0, 1)))
K4_D = RationalFunction(
    PP((-1,), (1, 0, 2), (-1, 0, 1)),
    PP((3, 0, 1), (2, 0, 1), (1, 0, 1), (-2, 0, 1), (0, 1)),
)


class TestWallSignature:
    def test_classify(self):
        s = Perm.from_cycles(3, (1, 2))
        assert classify(s, s, s) == WallSignature(0, 0, 0)
        i2, sw = Perm.identity(2), Perm.from_cycles(2, (1, 2))
        assert classify(i2, i2, sw) == WallSignature(0, 1, 1)
        assert classify(
            Perm.identity(3), Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 3))
        ) == WallSignature(1, 1, 2)

    def test_triangle_inequality_enforced(self):
        with pytest.raises(ValueError):
            WallSignature(1, 0, 2)
        with pytest.raises(ValueError):
            WallSignature(-1, 0, 0)

    def test_annihilating(self):
        assert WallSignature(2, 2, 2).annihilating
        assert not WallSignature(1, 1, 2).annihilating


class TestK2Golden:
    def test_all_eight_entries(self):
        i, s = Perm.identity(2), Perm.from_cycles(2, (1, 2))
        one, zero = RationalFunction.constant(1), RationalFunction.constant(0)
        assert plaquette_weight(i, i, i) == one
        assert plaquette_weight(s, s, s) == one
        assert plaquette_weight(i, s, s) == zero
        assert plaquette_weight(s, i, i) == zero
        assert plaquette_weight(i, i, s) == SINGLE_WALL
        assert plaquette_weight(i, s, i) == SINGLE_WALL
        assert plaquette_weight(s, s, i) == SINGLE_WALL
        assert plaquette_weight(s, i, s) == SINGLE_WALL

    def test_value_at_q2(self):
        i, s = Perm.identity(2), Perm.from_cycles(2, (1, 2))
        assert plaquette_weight(i, i, s).evaluate(2) == pytest.approx(0.4)


class TestK3Golden:
    def test_four_printed_weights(self):
        id3 = Perm.identity(3)
        t12, t13 = Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 3))
        c123, c132 = Perm.from_cycles(3, (1, 2, 3)), Perm.from_cycles(3, (1, 3, 2))
        assert plaquette_weight(id3, t12, id3) == SINGLE_WALL
        assert plaquette_weight(id3, t12, t13) == K3_TWO_THROUGH
        assert plaquette_weight(id3, c123, id3) == K3_TWO_SAME_SIDE
        assert plaquette_weight(id3, c123, c132) == K3_ANNIHILATION

    def test_nonzero_census_matches_printed_list(self):
        """Nonzero k=3 entries are exactly the printed ones up to reflections/colorings."""
        table = build_table(3)
        by_sig = {}
        for sig, w in every_key(table):
            key = (sig.in_left, sig.in_right, sig.across)
            by_sig.setdefault(key, set()).add(w)
        one, zero = RationalFunction.constant(1), RationalFunction.constant(0)
        expected = {
            (0, 0, 0): {one},
            (1, 0, 1): {SINGLE_WALL},
            (0, 1, 1): {SINGLE_WALL},
            (1, 1, 0): {zero},
            (1, 1, 2): {K3_TWO_THROUGH},
            (2, 0, 2): {K3_TWO_SAME_SIDE},
            (0, 2, 2): {K3_TWO_SAME_SIDE},
            (2, 1, 1): {zero},
            (1, 2, 1): {zero},
            (2, 2, 0): {zero},
            (2, 2, 2): {K3_ANNIHILATION},
        }
        assert by_sig == expected


class TestK4Golden:
    def test_specific_keys(self):
        table = build_table(4)
        id4 = Perm.identity(4)
        # three walls in, three out: the 4-cycle key
        assert table.weight(id4, Perm.from_cycles(4, (1, 2, 3, 4)), id4) == K4_C
        # two disjoint pairs in from each side, distance-2 out
        assert (
            table.weight_by_key(
                Perm.from_cycles(4, (1, 2), (3, 4)), Perm.from_cycles(4, (1, 3), (2, 4))
            )
            == K4_B
        )

    def test_printed_weights_present_with_expected_signatures(self):
        table = build_table(4)
        found = {"A": set(), "B": set(), "C": set(), "D": set()}
        for sig, w in every_key(table):
            for name, target in (("A", K4_A), ("B", K4_B), ("C", K4_C), ("D", K4_D)):
                if w == target:
                    found[name].add((sig.in_left, sig.in_right, sig.across))
        assert found["A"] == {(2, 1, 3), (1, 2, 3)}
        assert found["B"] == {(2, 2, 2)}
        assert found["C"] == {(3, 0, 3), (0, 3, 3)}
        assert found["D"] == {(2, 3, 3), (3, 2, 3)}


class TestEmbeddingStability:
    """Weights depend only on how the permutations differ, not on k."""

    def test_k2_weights_inside_k3_k4(self):
        for k in (3, 4):
            table = build_table(k)
            idk = Perm.identity(k)
            t = Perm.from_cycles(k, (1, 2))
            assert table.weight(idk, t, idk) == SINGLE_WALL
            assert table.weight(idk, t, t) == RationalFunction.constant(0)

    def test_k3_weights_inside_k4(self):
        table = build_table(4)
        id4 = Perm.identity(4)
        assert table.weight(id4, Perm.from_cycles(4, (1, 2)), Perm.from_cycles(4, (1, 3))) == K3_TWO_THROUGH
        assert table.weight(id4, Perm.from_cycles(4, (1, 2, 3)), id4) == K3_TWO_SAME_SIDE
        assert (
            table.weight(id4, Perm.from_cycles(4, (1, 2, 3)), Perm.from_cycles(4, (1, 3, 2)))
            == K3_ANNIHILATION
        )


class TestRules:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rule_suite_exhaustive(self, k):
        report = verify_rules(k)
        assert report.ok, report.violations[:5]

    def test_identity_key_is_one(self):
        for k in (1, 2, 3, 4, 5):
            idk = Perm.identity(k)
            assert plaquette_weight(idk, idk, idk) == RationalFunction.constant(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_asymptotic_orders(self, k):
        report = asymptotic_check(k)
        assert report.ok, report.violations[:5]
        assert report.checked > 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_pole_freeness(self, k):
        report = pole_free_report(k)
        assert report.ok, report.violations[:5]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_class_level_checks_count_every_key(self, k):
        # the checks walk key classes; the counts are those of a walk over all keys
        weights = [w for _, w in every_key(build_table(k))]
        nonzero = sum(1 for w in weights if not w.is_zero())
        denominators = {tuple(w.monic()[1]) for w in weights}
        assert asymptotic_check(k).checked == nonzero
        assert pole_free_report(k).checked == len(denominators)

    def test_class_level_checks_certify_k6(self):
        asym, poles = asymptotic_check(6), pole_free_report(6)
        assert asym.ok and poles.ok, (asym.violations[:5], poles.violations[:5])
        assert (asym.checked, poles.checked) == (225_991, 35)

    def test_right_invariance_perm_level(self):
        elems = enumerate_sk(3)
        rng = random.Random(7)
        table = build_table(3)
        for _ in range(50):
            s1, s2, s3, p = (rng.choice(elems) for _ in range(4))
            assert table.weight(s1 * p, s2 * p, s3 * p) == table.weight(s1, s2, s3)

    def test_conjugation_covariance(self):
        elems = enumerate_sk(4)
        rng = random.Random(11)
        table = build_table(4)
        for _ in range(50):
            s1, s2, s3, p = (rng.choice(elems) for _ in range(4))
            pi = p.inverse()
            assert table.weight(p * s1 * pi, p * s2 * pi, p * s3 * pi) == table.weight(s1, s2, s3)

    def test_rule_v_recomputes_translated_weights(self, monkeypatch):
        table = build_table(3)
        table.key_classes()  # cache the true class weights before the raw sum is replaced
        monkeypatch.setattr(plaquette, "key_weight", lambda gt, ia, ib: RationalFunction.constant(ia))
        report = verify_rules(3)
        assert report.checked == 338
        assert any(v.startswith("rule v:") for v in report.violations)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_array_suite_matches_per_key_loop(self, k):
        samples = 10_000
        expected, got = per_key_rules(k, samples=samples), verify_rules(k, samples=samples)
        assert (got.checked, got.ok, got.violations) == (
            expected.checked, expected.ok, expected.violations)

    def test_sampled_counts_and_no_samples(self):
        # 2 checks a key, 1 a translation, 1 a raw spot check
        assert verify_rules(5, samples=300, raw_spot_checks=7).checked == 3 * 300 + 7
        report = verify_rules(5, samples=0, raw_spot_checks=3)
        assert report.ok and report.checked == 3

    @pytest.mark.parametrize("k, rule", [
        *((k, rule) for k in (3, 4) for rule in ("i", "ii", "iii", "iv", "v")),
        # sampled: the corrupted classes hold 10 and 60 keys, which the seeded
        # draws hit, so the violation lists pin the drawn keys too
        (5, "iii"), (5, "iv"),
    ])
    def test_corruption_reported(self, monkeypatch, k, rule):
        # one corrupted class weight or class-map entry in a fresh table;
        # the array suite reports what the per-key loop reports
        table = PlaquetteTable(k)
        weights, cls = table.key_classes()
        gt = table._gt
        t = gt.idx(Perm.from_cycles(k, (1, 2)))
        c = gt.idx(Perm.from_cycles(k, (1, 2, 3)))  # (t, c) and (c, t): two classes
        if rule == "v":
            cls = cls.copy()
            cls[t, c] = cls[0, 0]
            table._cls = cls
        else:
            key = {"i": (0, 0), "ii": (t, t), "iii": (t, 0), "iv": (t, c)}[rule]
            table._weights[cls[key]] = RationalFunction(P(1, 1), P(3))
        monkeypatch.setattr(plaquette, "build_table", lambda k: table)
        samples = 10_000
        report = verify_rules(k, samples=samples)
        assert any(v.startswith(f"rule {rule}:") for v in report.violations)
        expected = per_key_rules(k, samples=samples)
        assert report.violations == expected.violations

    def test_broken_triangle_raises(self, monkeypatch):
        table = PlaquetteTable(3)
        gt = copy.copy(table._gt)
        gt.n_cycles = gt.n_cycles.copy()
        gt.n_cycles[1] = 3  # a transposition no wall from the identity
        table._gt = gt
        monkeypatch.setattr(plaquette, "build_table", lambda k: table)
        monkeypatch.setattr(plaquette, "group_table", lambda k: gt)
        with pytest.raises(ValueError, match="triangle inequality violated") as exc:
            verify_rules(3)
        with pytest.raises(ValueError) as expected:
            per_key_rules(3)
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_negative_weights_only_with_annihilation(self, k):
        for sig, w in every_key(build_table(k)):
            if w.is_zero():
                continue
            if w.evaluate(100) < 0:
                assert sig.annihilating


class TestCapsAndLazy:
    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            plaquette_weight(Perm.identity(2), Perm.identity(3), Perm.identity(3))

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            plaquette_weight(Perm.identity(7), Perm.identity(7), Perm.identity(7))

    def test_k6_lazy_single_key(self):
        table = PlaquetteTable(6)
        id6 = Perm.identity(6)
        t = Perm.from_cycles(6, (1, 2))
        assert table.weight(id6, t, id6) == SINGLE_WALL

    @staticmethod
    def _check_shared_and_lazy(k):
        assert build_table(k) is build_table(k)
        # a fresh table from the same builder, so that no earlier lookup counts
        table = build_table.__wrapped__(k)
        assert all(w is None for w in table._weights)
        idk = Perm.identity(k)
        t = Perm.from_cycles(k, (1, 2))
        assert table.weight(idk, t, idk) == SINGLE_WALL
        filled = [c for c, w in enumerate(table._weights) if w is not None]
        assert filled == [table._cls[table._gt.idx(t), 0]]

    def test_build_table_k5_is_shared_and_lazy(self):
        self._check_shared_and_lazy(5)

    def test_build_table_k6_is_shared_and_lazy(self):
        self._check_shared_and_lazy(6)

    def test_full_table_cap(self):
        # full tables stop at the moment cap: k = 6 computes every class, k = 7 is refused
        weights, cls = build_table(6).key_classes()
        assert len(weights) == 901 and all(w is not None for w in weights)
        assert cls.shape == (720, 720)
        with pytest.raises(BudgetExceededError):
            build_table(7)

    def test_raw_spot_check_catches_cache(self):
        # raw recomputation equals cached class value on arbitrary keys
        table = build_table(3)
        gt = table._gt
        for ia, ib in itertools.product(range(6), repeat=2):
            assert plaquette.key_weight(gt, ia, ib) == table._weight_by_index(ia, ib)


def _least_conjugate_key(gt, ia, ib):
    """Least key in the simultaneous-conjugation orbit of (a, b), scanning all k! conjugators."""
    best = (ia, ib)
    for p in range(gt.order):
        row = gt.mul[gt.inv[p]]
        cand = (gt.mul[row[ia]][p], gt.mul[row[ib]][p])
        if cand < best:
            best = cand
    return best


def _burnside_count(k):
    """Orbits of S_k x S_k under simultaneous conjugation: sum over classes of k!/|C|."""
    return sum(math.factorial(k) // conjugacy_class_size(lam) for lam in partitions(k))


class TestClassMap:
    """The table's one class map against an independent per-key orbit scan."""

    @staticmethod
    def _check(table, keys):
        gt, cls, reps = table._gt, table._cls, table._reps
        for ia, ib in keys:
            assert reps[cls[ia, ib]] == _least_conjugate_key(gt, ia, ib), (ia, ib)
        for rep in reps:
            assert _least_conjugate_key(gt, *rep) == rep
        # classes are numbered in row-major order of their first key, the representative
        classes, first = np.unique(cls.ravel(), return_index=True)
        assert classes.tolist() == list(range(len(reps)))
        assert first.tolist() == [ia * gt.order + ib for ia, ib in reps]
        assert reps == sorted(reps)
        assert not cls.flags.writeable

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_key_small_k(self, k):
        table = build_table(k)
        n = table._gt.order
        self._check(table, itertools.product(range(n), repeat=2))

    @pytest.mark.parametrize("k", [5, 6])
    def test_sampled_keys(self, k):
        table = build_table(k)
        rng = random.Random(100 + k)
        n = table._gt.order
        self._check(table, [(rng.randrange(n), rng.randrange(n)) for _ in range(200)])

    def test_burnside_counts(self):
        assert [_burnside_count(k) for k in (5, 6)] == [161, 901]
        for k in range(1, 6):
            weights, _ = build_table(k).key_classes()
            assert len(weights) == _burnside_count(k)

    def test_k6_classes_without_weights(self):
        table = PlaquetteTable(6)
        assert len(table._reps) == 901
        assert all(w is None for w in table._weights)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


# sha256 prefixes of the symbolic tables, frozen from the Fraction-polynomial builders
GOLDEN_TABLE_DIGESTS = {
    1: ("692bc7dd20c0ed69", "471f9cbfdb440ecf", "f29e1ce1e19faa12"),
    2: ("c9347d838407ddac", "3dbb48ebedceb73b", "8a0d43e967367a61"),
    3: ("5be965a49b5232cd", "fe403a936a6c35fc", "b8b0e1f42c1702c6"),
    4: ("2be3d7210caf7957", "8b9ceebcd8c9e1c7", "c9eed21c4957cbb7"),
    5: ("b37c40c501f1b89f", "a97a366baabd35d1", "a8576fddea1431d8"),
    6: ("e10c109ab6f2152e", "6d2d6d317bc0a90e", "d9742440474a30d9"),
}


@pytest.mark.parametrize("k", sorted(GOLDEN_TABLE_DIGESTS))
def test_golden_table_digests(k):
    """Weingarten tables in d and in q, and the plaquette class weights, for every k <= 6."""
    def by_cycle_type(table):
        return {",".join(map(str, ct)): rf.to_json_dict() for ct, rf in table.items()}

    weights, _ = build_table(k).key_classes()
    assert (
        _digest(by_cycle_type(weingarten_table(k))),
        _digest(by_cycle_type(wg_in_q(k))),
        _digest([w.to_json_dict() for w in weights]),
    ) == GOLDEN_TABLE_DIGESTS[k]
