import math

import pytest

from rqclattice.characters import (
    character,
    content_polynomial,
    hook_lengths,
    irrep_dimension,
    partitions,
)
from rqclattice.exact import horner, int_mul
from rqclattice.perms import conjugacy_class_size


def test_partition_counts():
    assert partitions(1) == [(1,)]
    assert len(partitions(3)) == 3
    assert len(partitions(6)) == 11
    assert len(partitions(10)) == 42


def test_partition_order_deterministic():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_cap():
    with pytest.raises(ValueError):
        partitions(11)
    with pytest.raises(ValueError):
        partitions(0)


def test_hook_lengths():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert hook_lengths((3,)) == [[3, 2, 1]]


def test_irrep_dimensions():
    for k in range(1, 7):
        assert irrep_dimension((k,)) == 1
        assert irrep_dimension(tuple([1] * k)) == 1
    assert irrep_dimension((2, 1)) == 2
    assert irrep_dimension((3, 2)) == 5


def test_dimension_square_sum():
    for k in range(1, 9):
        assert sum(irrep_dimension(lam) ** 2 for lam in partitions(k)) == math.factorial(k)


def test_character_at_identity_is_dimension():
    for k in range(1, 6):
        ident = tuple([1] * k)
        for lam in partitions(k):
            assert character(lam, ident) == irrep_dimension(lam)


def test_sign_representation_character():
    for k in range(2, 6):
        sign_rep = tuple([1] * k)
        for mu in partitions(k):
            class_sign = (-1) ** (k - len(mu))
            assert character(sign_rep, mu) == class_sign


def test_s3_character_table():
    table = {
        ((3,), (1, 1, 1)): 1,
        ((3,), (2, 1)): 1,
        ((3,), (3,)): 1,
        ((2, 1), (1, 1, 1)): 2,
        ((2, 1), (2, 1)): 0,
        ((2, 1), (3,)): -1,
        ((1, 1, 1), (1, 1, 1)): 1,
        ((1, 1, 1), (2, 1)): -1,
        ((1, 1, 1), (3,)): 1,
    }
    for (lam, mu), expected in table.items():
        assert character(lam, mu) == expected


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


@pytest.mark.parametrize("k", range(2, 7))
def test_row_orthogonality(k):
    for lam1 in partitions(k):
        for lam2 in partitions(k):
            total = sum(
                conjugacy_class_size(mu) * character(lam1, mu) * character(lam2, mu)
                for mu in partitions(k)
            )
            expected = math.factorial(k) if lam1 == lam2 else 0
            assert total == expected


@pytest.mark.parametrize("k", range(2, 7))
def test_column_orthogonality(k):
    for mu1 in partitions(k):
        for mu2 in partitions(k):
            total = sum(
                character(lam, mu1) * character(lam, mu2) for lam in partitions(k)
            )
            if mu1 == mu2:
                assert total == math.factorial(k) // conjugacy_class_size(mu1)
            else:
                assert total == 0


def test_content_polynomial_examples():
    d, d_plus, d_minus = [0, 1], [1, 1], [-1, 1]
    assert content_polynomial((1,)) == d
    assert content_polynomial((2,)) == int_mul(d, d_plus)
    assert content_polynomial((1, 1)) == int_mul(d, d_minus)
    assert content_polynomial((2, 1)) == int_mul(int_mul(d, d_plus), d_minus)


def test_content_polynomial_degree():
    for k in range(1, 7):
        for lam in partitions(k):
            assert len(content_polynomial(lam)) - 1 == k


def test_content_polynomial_nonzero_at_k():
    # needed so the unrestricted Weingarten expansion is finite at d >= k
    for k in range(1, 7):
        for lam in partitions(k):
            assert horner(content_polynomial(lam), k) != 0
