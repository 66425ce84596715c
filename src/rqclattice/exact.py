"""Exact univariate polynomials and rational functions, on one integer kernel.

Carriers for Weingarten functions Wg(sigma, d) and plaquette weights J(q).
A polynomial is a list of Python ints, its coefficients lowest degree first;
[] is the zero polynomial.  Every computation runs on that one representation
with one integer kernel: convolution, a primitive pseudo-remainder gcd, exact
division, lcm, Horner evaluation, a rational-root search, and one reduction to
the normal form every `RationalFunction` is kept in (coprime num and den,
joint content 1, positive leading den coefficient, no trailing zeros), so
equality is tuple equality.  A `RationalFunction` is a value, not a field
element: it has no + - * /, and callers that sum or multiply functions do it
on the kernel (over an `int_lcm` common denominator) and wrap the result once
with `from_ints`.  Fraction coefficients over a monic denominator are built
only to print a function.  Intermediate sums in Weingarten tables
have large numerators and silent overflow would corrupt the golden tests, so
nothing here is ever fixed-width.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError


def scale_to_ints(values) -> tuple[list[int], int]:
    """The integers v * D for rationals v over their least common denominator D."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def horner(coeffs: list[int], x: int | Fraction) -> int | Fraction:
    """Exact value at x of the polynomial with integer coefficients, lowest first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_roots(coeffs: list[int], lo: int, hi: int) -> set[int]:
    """All integer roots in [lo, hi] of an integer polynomial.

    By the rational root theorem a nonzero integer root divides the lowest
    nonzero coefficient c, so only 0 and the divisors of c in the range are
    evaluated; divisors are found by trial division up to min(sqrt|c|, the
    largest |x| in the range).
    """
    if not any(coeffs):
        raise ValueError("zero polynomial has every root")
    c = abs(next(filter(None, coeffs)))
    reach = max(abs(lo), abs(hi))
    divisors = set()
    for d in range(1, min(math.isqrt(c), reach) + 1):
        if c % d == 0:
            divisors.update((d, -d, c // d, -c // d))
    return {x for x in divisors | {0} if lo <= x <= hi and horner(coeffs, x) == 0}


def _format(coeffs: list, var: str) -> str:
    """The polynomial with exact coefficients, lowest first, as a formula in var."""
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        sign_str = "-" if c < 0 else "+"
        terms.append((sign_str, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign_str, body in terms[1:]:
        out += f" {sign_str} {body}"
    return out


def _format_monic(num: list[Fraction], den: list[Fraction], var: str) -> str:
    """The function with `RationalFunction.monic()` coefficients as a formula in var."""
    if den == [1]:
        return _format(num, var)
    return f"({_format(num, var)}) / ({_format(den, var)})"


# -- integer kernel ------------------------------------------------------------
# An integer polynomial is a list of Python ints, lowest degree first; [] is 0.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product (convolution) of two integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _spread(a: list[int], m: int) -> list[int]:
    """The coefficients of a(x^m): a's spread to every m-th slot."""
    if not a:
        return []
    out = [0] * ((len(a) - 1) * m + 1)
    out[::m] = a
    return out


def _content(a: list[int]) -> int:
    return math.gcd(*a)


def _primitive(a: list[int]) -> list[int]:
    """a over its content, with a positive leading coefficient."""
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials (positive leading coefficient).

    A primitive pseudo-remainder sequence: content is stripped at every step,
    which keeps coefficient growth tame for the small degrees that occur here.
    """
    fa, fb = _primitive(a), _primitive(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while len(fb) > 1:
        rem = list(fa)
        lead = fb[-1]
        dn = len(fb) - 1
        while len(rem) > dn:
            c = rem[-1]
            g = math.gcd(c, lead)
            mul_rem, mul_div = lead // g, c // g
            shift = len(rem) - 1 - dn
            rem = [x * mul_rem for x in rem]
            for j, d in enumerate(fb):
                rem[shift + j] -= mul_div * d
            _trim(rem)
        if not rem:
            return fb
        fa, fb = fb, _primitive(rem)
    return [1]


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b of integer polynomials, which must divide exactly over Z."""
    rem = list(a)
    lead = b[-1]
    dn = len(b) - 1
    quot = [0] * max(len(a) - dn, 0)
    for i in range(len(a) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact integer polynomial division")
            quot[i - dn] = q
            for j in range(dn):
                rem[i - dn + j] -= q * b[j]
    if any(rem[:dn]):
        raise ArithmeticError("inexact integer polynomial division")
    return quot


def int_lcm(polys: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The lcm L of nonzero integer polynomials over Z, and each cofactor L / p."""
    content, common = 1, [1]
    for p in polys:
        content = math.lcm(content, _content(p))
        prim = _primitive(p)
        common = int_mul(common, _divexact(prim, _prs_gcd(common, prim)))
    common = [c * content for c in common]
    return common, [_divexact(common, p) for p in polys]


def _normal_form(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """num/den as coprime integer polynomials with joint content 1 and den leading > 0."""
    num, den = _trim(list(num)), _trim(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return [], [1]
    g = _prs_gcd(num, den)
    if len(g) > 1:
        num, den = _divexact(num, g), _divexact(den, g)
    scale = math.gcd(_content(num), _content(den))
    if den[-1] < 0:
        scale = -scale
    if scale != 1:
        num, den = [c // scale for c in num], [c // scale for c in den]
    return num, den


class RationalFunction:
    """Exact rational function num/den, kept gcd-reduced.

    Every construction goes through one integer normal form, `ints`: num and
    den as coprime integer polynomials with joint content 1 and a positive
    leading denominator coefficient, i.e. the rational num/den scaled by the
    least common denominator of all their coefficients.  Equality, hashing,
    evaluation and `substitute_power` run on `ints`; there are no arithmetic
    operators.  `monic()` gives the rational coefficients with a monic
    denominator, for display.
    """

    __slots__ = ("ints",)

    def __init__(self, num, den=(1,)):
        """num/den for sequences of int or Fraction coefficients, lowest first."""
        num = list(num)
        coeffs = num + list(den)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(c).__name__} to Fraction")
        ints, _ = scale_to_ints(coeffs)
        object.__setattr__(self, "ints", _normal_form(ints[: len(num)], ints[len(num):]))

    @classmethod
    def from_ints(cls, num: list[int], den: list[int]) -> "RationalFunction":
        """num/den for integer polynomials, reduced once to the normal form."""
        rf = object.__new__(cls)
        object.__setattr__(rf, "ints", _normal_form(num, den))
        return rf

    def monic(self) -> tuple[list[Fraction], list[Fraction]]:
        """num and den as Fraction coefficients, lowest first, den monic."""
        num, den = self.ints
        lead = den[-1]
        return [Fraction(c, lead) for c in num], [Fraction(c, lead) for c in den]

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls([c])

    def is_zero(self) -> bool:
        return not self.ints[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        return isinstance(other, RationalFunction) and self.ints == other.ints

    def __hash__(self) -> int:
        num, den = self.ints
        return hash((tuple(num), tuple(den)))

    def evaluate(self, x) -> Fraction:
        """Exact value at an int or Fraction x; raises PoleError at a root of the reduced denominator."""
        if not isinstance(x, int) and not isinstance(x, Fraction):  # int first: the hot case
            raise TypeError(f"cannot evaluate exactly at a {type(x).__name__}")
        num, den = self.ints
        dv = horner(den, x)
        if dv == 0:
            raise PoleError(f"pole at x = {x}")
        return Fraction(horner(num, x), dv)

    def evaluate_float(self, x: float) -> float:
        """Float value at x, by float Horner over the monic coefficients.

        c / lead is the correctly rounded quotient, float(Fraction(c, lead)).
        """
        num, den = self.ints
        lead = den[-1]
        dv = 0.0
        for c in reversed(den):
            dv = dv * x + c / lead
        nv = 0.0
        for c in reversed(num):
            nv = nv * x + c / lead
        return nv / dv

    def asymptotic_order(self) -> tuple[int, Fraction]:
        """(order, leading) with f(x) ~ leading * x^order as x -> infinity."""
        num, den = self.ints
        if not num:
            raise ValueError("zero function has no asymptotic order")
        return len(num) - len(den), Fraction(num[-1], den[-1])

    def substitute_power(self, m: int) -> "RationalFunction":
        """f(x) -> f(x^m), re-reduced."""
        if m < 1:
            raise ValueError("power must be >= 1")
        return RationalFunction.from_ints(*(_spread(p, m) for p in self.ints))

    def to_json_dict(self) -> dict:
        num, den = self.monic()
        return {"num": [str(c) for c in num], "den": [str(c) for c in den]}

    def __repr__(self) -> str:
        return f"RationalFunction.from_ints({self.ints[0]}, {self.ints[1]})"

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        return _format_monic(*self.monic(), var)
