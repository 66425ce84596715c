import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rqclattice.errors import PoleError
from rqclattice.exact import RationalFunction, _prs_gcd, horner, int_lcm, int_mul, integer_roots
from rqclattice.weingarten import weingarten_table, wg_in_q


def P(*coeffs):
    return list(coeffs)


def RF(num, den=(1,)):
    return RationalFunction(num, den)


class TestPolynomial:
    """Integer polynomials: lists of ints, lowest degree first."""

    def test_integer_roots(self):
        assert integer_roots([-1, 0, 1], -3, 3) == {-1, 1}
        assert integer_roots([1, 0, 1], 2, 100) == set()
        assert integer_roots([-2, 0, 1], 2, 100) == set()
        assert integer_roots([0, -1, 1, 0], -3, 3) == {0, 1}
        for zero in ([], [0, 0]):
            with pytest.raises(ValueError):
                integer_roots(zero, 2, 100)

    @pytest.mark.parametrize("lo, hi", [(2, 1000), (-40, 40), (-1000, -2), (0, 0), (-5, 3)])
    def test_integer_roots_against_direct_evaluation(self, lo, hi):
        # products of (x - r) with roots in and out of the range, zero constant
        # terms (a root at 0, of any multiplicity) and constants with many divisors
        rng = random.Random(lo * 7919 + hi)
        polys = [[5], [-7], [0, 1], [0, 0, 3], [0, 0, -2, 0, 1], [720, 0, -1]]
        for _ in range(60):
            roots = [rng.choice([0, 1, -1, 2, -6, 12, 36, -36, 49, 999, -1000, 1001])
                     for _ in range(rng.randrange(1, 5))]
            poly = [rng.choice([-3, -1, 1, 2])]
            for r in roots:
                poly = int_mul(poly, [-r, 1])
            polys.append(poly)
            polys.append(int_mul(poly, [1, 0, 1]))  # no real root added
        for poly in polys:
            direct = {x for x in range(lo, hi + 1) if horner(poly, x) == 0}
            assert integer_roots(poly, lo, hi) == direct, poly

    def test_evaluate(self):
        assert horner([1, 6], 3) == 19
        assert horner([1, 6], Fraction(1, 2)) == 4
        assert horner([1, 6], Fraction(1, 3)) == Fraction(3)
        assert horner([-2, 0, 1], Fraction(1, 2)) == Fraction(-7, 4)
        assert horner([], 5) == 0


class TestRationalFunction:
    def test_canonical_form(self):
        # gcd reduced, monic denominator
        f = RF(P(0, 2), P(0, 0, 4))  # 2x / 4x^2
        assert f.monic() == ([Fraction(1, 2)], [0, 1])
        g = RationalFunction(*f.monic())
        assert g == f  # normalizing twice is a no-op
        # trailing zero coefficients are dropped
        assert RF(P(1, 2, 0, 0), P(3, 0)).ints == ([1, 2], [3])
        assert RF(P(0, 0)).is_zero()

    @pytest.mark.parametrize("bad", [0.5, 2.0, "1"])
    def test_constructor_refuses_inexact_coefficients(self, bad):
        with pytest.raises(TypeError):
            RF(P(1, bad))
        with pytest.raises(TypeError):
            RF(P(1), P(bad, 1))
        with pytest.raises(TypeError):
            RationalFunction.constant(bad)

    def test_integer_normal_form(self):
        # (-6x - 6) / (-4x^2 + 4): gcd (x + 1) and content 2 removed, denominator lead > 0
        f = RationalFunction.from_ints([-6, -6], [4, 0, -4])
        assert f.ints == ([3], [-2, 2])
        assert f == RF(P(Fraction(3, 2)), P(-1, 1))
        assert RF(*f.monic()).ints == f.ints
        assert RationalFunction.from_ints([0, 0], [5]).ints == ([], [1])
        with pytest.raises(ZeroDivisionError):
            RationalFunction.from_ints([1], [0])

    def test_int_lcm_and_cofactors(self):
        # 2(x - 1)(x + 1), 3(x + 1)^2 and x: lcm 6 x (x - 1)(x + 1)^2
        polys = [[-2, 0, 2], [3, 6, 3], [0, 1]]
        common, cofactors = int_lcm(polys)
        assert common == int_mul([0, 6], int_mul([-1, 1], [1, 2, 1]))
        for p, cof in zip(polys, cofactors):
            assert int_mul(p, cof) == common

    def test_evaluate(self):
        f = RF(P(0, 1), P(1, 0, 1))
        assert f.evaluate(2) == Fraction(2, 5)
        assert RF(P(1)).evaluate(1234) == 1

    def test_evaluate_pole(self):
        f = RF(P(1), P(-1, 0, 1))
        with pytest.raises(PoleError):
            f.evaluate(1)

    def test_evaluate_fraction_argument(self):
        f = RF(P(Fraction(1, 3), 2), P(-2, 0, 1))
        assert f.evaluate(Fraction(1, 2)) == Fraction(-16, 21)
        assert f.evaluate(3) == f.evaluate(Fraction(3)) == Fraction(19, 21)

    def test_evaluate_fraction_pole(self):
        # (x + 1) / (2x - 1): a pole at x = 1/2 only
        f = RF(P(1, 1), P(-1, 2))
        with pytest.raises(PoleError):
            f.evaluate(Fraction(1, 2))
        assert f.evaluate(Fraction(1, 3)) == -4

    def test_evaluate_float_is_refused(self):
        f = RF(P(0, 1), P(1, 0, 1))
        with pytest.raises(TypeError):
            f.evaluate(0.5)
        with pytest.raises(TypeError):
            f.evaluate(2.0)

    def test_substitute_power(self):
        # (1 + 2x + 3x^2) / (x + 1) -> (1 + 2x^2 + 3x^4) / (x^2 + 1)
        f = RF(P(1, 2, 3), P(1, 1))
        assert f.substitute_power(2) == RF(P(1, 0, 2, 0, 3), P(1, 0, 1))
        assert f.substitute_power(1) == f
        with pytest.raises(ValueError):
            f.substitute_power(0)

    def test_asymptotic_order(self):
        assert RF(P(0, 1), P(1, 0, 1)).asymptotic_order() == (-1, 1)
        assert RF(P(1)).asymptotic_order() == (0, 1)
        # -2(q^2-1) / ((q^2+2)(q^2+1)(q^2-2))
        num = P(2, 0, -2)
        den = P(*int_mul(int_mul([2, 0, 1], [1, 0, 1]), [-2, 0, 1]))
        assert RF(num, den).asymptotic_order() == (-4, -2)

    def test_zero_has_no_order(self):
        with pytest.raises(ValueError):
            RF(P()).asymptotic_order()

    def test_json_strings_are_exact(self):
        f = RF(P(1), P(0, 3))
        d = f.to_json_dict()
        assert d == {"num": ["1/3"], "den": ["0", "1"]}

    def test_has_no_arithmetic(self):
        # a normal-form value: sums and products are taken on the integer kernel
        f = RF(P(0, 1), P(1, 0, 1))
        for op in (lambda: f + f, lambda: f * 2, lambda: 2 * f, lambda: f - f,
                   lambda: f / f, lambda: -f):
            with pytest.raises(TypeError):
                op()


# -- randomized normal-form checks on the integer kernel ----------------------

_small = st.integers(min_value=-4, max_value=4)
_polys = st.lists(_small, min_size=1, max_size=4)
_nonzero_polys = _polys.filter(any)


@settings(max_examples=1000, deadline=None)
@given(_polys, _nonzero_polys, _nonzero_polys, st.integers(min_value=-20, max_value=20))
def test_normal_form_on_the_kernel(a, b, c, x):
    f = RationalFunction.from_ints(a, b)
    assert RationalFunction.from_ints(int_mul(a, c), int_mul(b, c)) == f
    num, den = f.ints
    assert den and den[-1] > 0 and (not num or num[-1] != 0)
    if num:
        assert _prs_gcd(num, den) == [1]
    assert math.gcd(*num, *den) == 1
    if horner(b, x) != 0:
        assert f.evaluate(x) == Fraction(horner(a, x), horner(b, x))


def _fraction_horner(f: RationalFunction, x: int) -> Fraction:
    """Reference evaluation: Horner over the Fraction coefficients of the JSON dump."""
    coeffs = f.to_json_dict()
    x = Fraction(x)
    dv = Fraction(0)
    for c in reversed(coeffs["den"]):
        dv = dv * x + Fraction(c)
    if dv == 0:
        raise PoleError(f"pole at x = {x}")
    nv = Fraction(0)
    for c in reversed(coeffs["num"]):
        nv = nv * x + Fraction(c)
    return nv / dv


def test_integer_evaluation_matches_fraction_horner():
    """Integer Horner on scaled coefficients gives the same reduced Fraction and poles."""
    functions = []
    for k in range(1, 6):
        functions += [rf for _, rf in weingarten_table(k).items()]
        functions += list(wg_in_q(k).values())
    poles = 0
    for f in functions:
        for x in range(1, 13):
            try:
                want = _fraction_horner(f, x)
            except PoleError:
                poles += 1
                with pytest.raises(PoleError):
                    f.evaluate(x)
                continue
            got = f.evaluate(x)
            assert type(got) is Fraction
            assert got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert poles > 0
