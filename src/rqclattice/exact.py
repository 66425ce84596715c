"""Exact univariate polynomials and rational functions, on one integer kernel.

Carriers for Weingarten functions Wg(sigma, d) and plaquette weights J(q).
Every computation runs on Python-int polynomials (lists of ints, lowest degree
first) with one integer kernel: convolution, a primitive pseudo-remainder gcd,
exact division, lcm, and one reduction to the normal form every
`RationalFunction` is kept in.  `Polynomial` is an immutable view of exact
rational coefficients, for display, evaluation and root search; it has no
arithmetic.  Intermediate sums in Weingarten tables have large numerators and
silent overflow would corrupt the golden tests, so nothing here is ever
fixed-width.

Polynomials are dense, lowest degree first, with no trailing zero coefficient;
the zero polynomial has an empty coefficient tuple.  Rational functions are
kept gcd-reduced with a monic denominator, so equality is tuple equality.
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class Polynomial:
    """Immutable view of a dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, x) -> Fraction:
        """Exact value at an int or Fraction x, by integer Horner on cleared coefficients."""
        ints, denom = scale_to_ints(self.coeffs)
        return Fraction(horner(ints, _as_fraction(x)), denom)

    def integer_roots(self, lo: int, hi: int) -> set[int]:
        """All integer roots in [lo, hi], by direct evaluation on cleared coefficients."""
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        ints, _ = scale_to_ints(self.coeffs)
        return {x for x in range(lo, hi + 1) if horner(ints, x) == 0}

    def coeff_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(self.coeff_strings())}])"

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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


def _int_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
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
    """Exact rational function num/den, gcd-reduced with monic denominator.

    Every construction goes through one integer normal form, `ints`: num and
    den as coprime integer polynomials with joint content 1 and a positive
    leading denominator coefficient, i.e. the rational num/den scaled by the
    least common denominator of all their coefficients.  Arithmetic,
    equality, hashing and evaluation run on `ints`; `num` and `den` are its
    rational, monic-denominator view, built on first read.
    """

    __slots__ = ("ints", "_views")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial([num])
        if den is None:
            den = Polynomial([1])
        elif isinstance(den, (int, Fraction)):
            den = Polynomial([den])
        ints, _ = scale_to_ints(num.coeffs + den.coeffs)
        n = len(num.coeffs)
        self._set(*_normal_form(ints[:n], ints[n:]))

    @classmethod
    def from_ints(cls, num: list[int], den: list[int]) -> "RationalFunction":
        """num/den for integer polynomials, reduced once to the normal form."""
        rf = object.__new__(cls)
        rf._set(*_normal_form(num, den))
        return rf

    def _set(self, num: list[int], den: list[int]):
        object.__setattr__(self, "ints", (num, den))
        object.__setattr__(self, "_views", None)

    def _monic(self) -> tuple[Polynomial, Polynomial]:
        views = self._views
        if views is None:  # a racing thread builds the same views
            num, den = self.ints
            lead = den[-1]
            views = (
                Polynomial([Fraction(c, lead) for c in num]),
                Polynomial([Fraction(c, lead) for c in den]),
            )
            object.__setattr__(self, "_views", views)
        return views

    @property
    def num(self) -> Polynomial:
        return self._monic()[0]

    @property
    def den(self) -> Polynomial:
        return self._monic()[1]

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial([c]))

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

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def __add__(self, other) -> "RationalFunction":
        (n1, d1), (n2, d2) = self.ints, self._coerce(other).ints
        num = _int_add(int_mul(n1, d2), int_mul(n2, d1))
        return RationalFunction.from_ints(num, int_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        num, den = self.ints
        return RationalFunction.from_ints([-c for c in num], den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        (n1, d1), (n2, d2) = self.ints, self._coerce(other).ints
        return RationalFunction.from_ints(int_mul(n1, n2), int_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        (n1, d1), (n2, d2) = self.ints, o.ints
        return RationalFunction.from_ints(int_mul(n1, d2), int_mul(d1, n2))

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

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
        dv = 0.0
        for c in reversed(self.den.coeffs):
            dv = dv * x + float(c)
        nv = 0.0
        for c in reversed(self.num.coeffs):
            nv = nv * x + float(c)
        return nv / dv

    def asymptotic_order(self) -> tuple[int, Fraction]:
        """(order, leading) with f(x) ~ leading * x^order as x -> infinity."""
        if self.is_zero():
            raise ValueError("zero function has no asymptotic order")
        return self.num.degree - self.den.degree, self.num.leading / self.den.leading

    def substitute_power(self, m: int) -> "RationalFunction":
        """f(x) -> f(x^m), re-reduced."""
        if m < 1:
            raise ValueError("power must be >= 1")
        return RationalFunction.from_ints(*(_spread(p, m) for p in self.ints))

    def to_json_dict(self) -> dict:
        return {"num": self.num.coeff_strings(), "den": self.den.coeff_strings()}

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        if self.den == Polynomial([1]):
            return self.num.format(var)
        return f"({self.num.format(var)}) / ({self.den.format(var)})"
