import itertools
import math
import random

import numpy as np
import pytest

from rqclattice.characters import partitions
from rqclattice.errors import BudgetExceededError
from rqclattice.exact import Polynomial, RationalFunction
from rqclattice.perms import Perm, conjugacy_class_size, enumerate_sk
from rqclattice.plaquette import (
    PlaquetteTable,
    WallSignature,
    asymptotic_check,
    build_table,
    classify,
    plaquette_weight,
    pole_free_report,
    verify_rules,
)


def P(*coeffs):
    return Polynomial(coeffs)


SINGLE_WALL = RationalFunction(P(0, 1), P(1, 0, 1))  # q/(q^2+1)

# golden k=3 reference weights, constructed from their published factored forms
K3_DEN = P(2, 0, 1) * P(1, 0, 1) * P(-2, 0, 1)  # (q^2+2)(q^2+1)(q^2-2)
K3_TWO_THROUGH = RationalFunction(P(0, 0, -1, 0, 1), K3_DEN)  # q^2(q^2-1)/...
K3_TWO_SAME_SIDE = RationalFunction(P(-2, 0, -2, 0, 1), K3_DEN)  # (q^2(q^2-2)-2)/...
K3_ANNIHILATION = RationalFunction(P(2, 0, -2), K3_DEN)  # -2(q^2-1)/...

# golden k=4 reference weights
K4_A = RationalFunction(
    P(-1, 0, 1) * P(2, 0, 2, 0, 1),
    P(3, 0, 1) * P(2, 0, 1) * P(1, 0, 1) * P(-2, 0, 1) * P(0, 1),
)
K4_B = RationalFunction(P(-1, 0, 1), P(3, 0, 1) * P(1, 0, 1) * P(-3, 0, 1))
K4_C = RationalFunction(P(-1, 0, -4, 0, 1), P(3, 0, 1) * P(1, 0, 1) * P(-2, 0, 1) * P(0, 1))
K4_D = RationalFunction(
    -1 * (P(1, 0, 2) * P(-1, 0, 1)),
    P(3, 0, 1) * P(2, 0, 1) * P(1, 0, 1) * P(-2, 0, 1) * P(0, 1),
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
        for _, _, sig, w in table.entries():
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
        for _, _, sig, w in table.entries():
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
        entries = list(build_table(k).entries())
        nonzero = sum(1 for *_, w in entries if not w.is_zero())
        denominators = {w.den for *_, w in entries}
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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_negative_weights_only_with_annihilation(self, k):
        table = build_table(k)
        for _, _, sig, w in table.entries():
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
            assert table._weight_raw(ia, ib) == table._weight_by_index(ia, ib)


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
