import itertools
import math
import random

import pytest

from rqclattice.errors import BudgetExceededError
from rqclattice.lattice import build_geometry, frame_potential_direct, frame_potential_transfer
from rqclattice.perms import (
    MOMENT_CAP,
    Perm,
    check_moment,
    compose,
    conjugacy_class_size,
    cycle_type,
    enumerate_sk,
    group_table,
    haar_frame_potential,
    num_cycles,
    sign,
    transposition_distance,
)
from rqclattice.plaquette import PlaquetteTable
from rqclattice.weingarten import WeingartenTable, wg_gram


def test_compose_identity_neutral():
    id3 = Perm.identity(3)
    t = Perm.from_cycles(3, (1, 2))
    assert compose(id3, t) == t
    assert compose(t, id3) == t


def test_compose_involution():
    t = Perm.from_cycles(3, (1, 2))
    assert compose(t, t) == Perm.identity(3)


def test_compose_convention():
    # (12) after (23): 1 -> 2, 2 -> 3 -> ... under (a*b)(i) = a(b(i))
    a = Perm.from_cycles(3, (1, 2))
    b = Perm.from_cycles(3, (2, 3))
    assert compose(a, b) == Perm.from_cycles(3, (1, 2, 3))


def test_compose_associative_exhaustive_s3():
    elems = enumerate_sk(3)
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(Perm.identity(2), Perm.identity(3))
    with pytest.raises(ValueError):
        transposition_distance(Perm.identity(2), Perm.identity(3))


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Perm([1, 1, 3])
    with pytest.raises(ValueError):
        Perm([])


def test_cycle_types():
    assert cycle_type(Perm.identity(4)) == (1, 1, 1, 1)
    assert num_cycles(Perm.identity(4)) == 4
    assert cycle_type(Perm.from_cycles(3, (1, 2))) == (2, 1)
    assert cycle_type(Perm.from_cycles(4, (1, 2, 3, 4))) == (4,)
    assert num_cycles(Perm.from_cycles(4, (1, 2, 3, 4))) == 1


def test_transposition_distance():
    a = Perm.from_cycles(4, (1, 2, 3, 4))
    assert transposition_distance(a, a) == 0
    assert transposition_distance(Perm.identity(2), Perm.from_cycles(2, (1, 2))) == 1
    assert transposition_distance(Perm.identity(4), a) == 3


def test_distance_is_metric_s4():
    elems = enumerate_sk(4)
    for a, b in itertools.product(elems[:8], elems):
        d = transposition_distance(a, b)
        assert d == transposition_distance(b, a)
        assert (d == 0) == (a == b)
    # triangle inequality on a deterministic slice
    for a, b, c in itertools.product(elems[:4], elems[:6], elems):
        assert transposition_distance(a, c) <= (
            transposition_distance(a, b) + transposition_distance(b, c)
        )


def test_ell_symmetry():
    elems = enumerate_sk(4)
    for a, b in itertools.product(elems, repeat=2):
        assert num_cycles(a.inverse() * b) == num_cycles(b.inverse() * a)


def test_sign_values():
    assert sign(Perm.identity(3)) == 1
    assert sign(Perm.from_cycles(3, (1, 2))) == -1
    assert sign(Perm.from_cycles(3, (1, 2, 3))) == 1


def test_sign_homomorphism_exhaustive_s4():
    elems = enumerate_sk(4)
    for a, b in itertools.product(elems, repeat=2):
        assert sign(a * b) == sign(a) * sign(b)


def test_enumerate_counts_and_order():
    assert enumerate_sk(1) == [Perm.identity(1)]
    assert len(enumerate_sk(3)) == 6
    s4 = enumerate_sk(4)
    assert len(s4) == 24
    assert s4[0] == Perm.identity(4)
    images = [p.images for p in s4]
    assert images == sorted(images)


def test_enumerate_cap():
    with pytest.raises(BudgetExceededError):
        enumerate_sk(9)
    assert len(enumerate_sk(8)) == math.factorial(8)


@pytest.mark.parametrize("k", [0, MOMENT_CAP + 1])
def test_one_moment_cap_guards_every_table(k):
    geom = build_geometry(4, 2, 2)
    for build in (
        check_moment,
        group_table,
        WeingartenTable,
        lambda k: wg_gram(k, 8),
        PlaquetteTable,
        lambda k: frame_potential_direct(geom, k),
        lambda k: frame_potential_transfer(geom, k),
    ):
        with pytest.raises(BudgetExceededError, match=f"capped at k={MOMENT_CAP}"):
            build(k)


def test_class_sizes_match_enumeration():
    for k in range(1, 7):
        counts = {}
        for p in enumerate_sk(k):
            counts[cycle_type(p)] = counts.get(cycle_type(p), 0) + 1
        assert sum(counts.values()) == math.factorial(k)
        for ct, size in counts.items():
            assert conjugacy_class_size(ct) == size


def _lis_bruteforce(images) -> int:
    best = 1
    k = len(images)
    for r in range(1, k + 1):
        for sub in itertools.combinations(images, r):
            if all(sub[i] < sub[i + 1] for i in range(len(sub) - 1)):
                best = max(best, r)
    return best


def test_haar_frame_potential_against_lis_oracle():
    # independent oracle: brute-force longest increasing subsequence
    for k, d in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 2)):
        expected = sum(
            1
            for images in itertools.permutations(range(1, k + 1))
            if _lis_bruteforce(images) <= d
        )
        assert haar_frame_potential(k, d) == expected


def test_haar_frame_potential_values():
    assert haar_frame_potential(3, 3) == 6
    assert haar_frame_potential(3, 1) == 1
    assert haar_frame_potential(3, 2) == 5


def test_haar_frame_potential_is_factorial_for_k_below_d():
    for d in range(1, 7):
        for k in range(1, d + 1):
            assert haar_frame_potential(k, d) == math.factorial(k)


def test_group_table_consistency():
    """Every table entry is the Perm-level result (k = 6: all inverses, sampled products)."""
    rng = random.Random(20240613)
    for k in range(1, MOMENT_CAP + 1):
        gt = group_table(k)
        perms = gt.perms
        assert gt.order == len(perms) == math.factorial(k)
        assert [p.images for p in perms] == sorted(p.images for p in perms)  # lexicographic
        assert [gt.idx(p) for p in perms] == list(range(gt.order))
        assert all(type(gt.idx(p)) is int for p in perms)
        for table in (gt.mul, gt.inv, gt.rel, gt.n_cycles, gt.ct_index):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[0]
        index = {p: i for i, p in enumerate(perms)}
        assert gt.inv.tolist() == [index[p.inverse()] for p in perms]
        assert gt.n_cycles.tolist() == [num_cycles(p) for p in perms]
        assert [gt.cycle_types[c] for c in gt.ct_index.tolist()] == [cycle_type(p) for p in perms]
        if k <= 5:
            pairs = list(itertools.product(range(gt.order), repeat=2))
        else:
            pairs = [(rng.randrange(gt.order), rng.randrange(gt.order)) for _ in range(2000)]
        mul, rel = gt.mul.tolist(), gt.rel.tolist()
        for i, j in pairs:
            assert mul[i][j] == index[perms[i] * perms[j]]
            assert rel[i][j] == index[perms[i].inverse() * perms[j]]
