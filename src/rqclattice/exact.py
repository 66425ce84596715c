"""Exact univariate polynomial and rational-function arithmetic over Fractions.

Carriers for Weingarten functions Wg(sigma, d) and plaquette weights J(q).
Coefficients are arbitrary-precision rationals throughout; intermediate sums
in Weingarten tables have large numerators and silent overflow would corrupt
the golden tests, so nothing here is ever fixed-width.

Polynomials are dense, lowest degree first, with no trailing zero coefficient;
the zero polynomial has an empty coefficient tuple.  Rational functions are
kept gcd-reduced with a monic denominator, so equality is tuple equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError

_F0 = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([c])

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

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [_F0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dn = len(dv) - 1
        lead = dv[-1]
        if len(rem) - 1 < dn:
            return Polynomial(), self
        quot = [_F0] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - dn] = q
            for j, d in enumerate(dv):
                rem[i - dn + j] -= q * d
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        _, r = divmod(self, other)
        return r

    def evaluate(self, x) -> Fraction:
        """Exact value at x (Horner)."""
        x = _as_fraction(x)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_power(self, m: int) -> "Polynomial":
        """p(x) -> p(x^m), by spreading coefficients to every m-th slot."""
        if m < 1:
            raise ValueError("power must be >= 1")
        if not self.coeffs:
            return self
        out = [_F0] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return Polynomial(out)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("cannot make zero polynomial monic")
        lead = self.leading
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coeffs])

    def integer_roots(self, lo: int, hi: int) -> set[int]:
        """All integer roots in [lo, hi], by direct evaluation on cleared coefficients."""
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * denom) for c in self.coeffs]
        roots = set()
        for x in range(lo, hi + 1):
            acc = 0
            for c in reversed(ints):
                acc = acc * x + c
            if acc == 0:
                roots.add(x)
        return roots

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


def _primitive_int(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g > 1:
        coeffs = [c // g for c in coeffs]
    if coeffs and coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _to_int_coeffs(p: Polynomial) -> list[int]:
    denom = math.lcm(*(c.denominator for c in p.coeffs)) if p.coeffs else 1
    return [int(c * denom) for c in p.coeffs]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals, via a primitive pseudo-remainder sequence over Z.

    Content is stripped at every step, which keeps coefficient growth tame for
    the small degrees (<= ~2k in d) that occur here.
    """
    if a.is_zero():
        return b.monic() if not b.is_zero() else b
    if b.is_zero():
        return a.monic()
    fa = _primitive_int(_to_int_coeffs(a))
    fb = _primitive_int(_to_int_coeffs(b))
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        # pseudo-remainder of fa by fb
        rem = list(fa)
        lead = fb[-1]
        dn = len(fb) - 1
        while len(rem) - 1 >= dn and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            c = rem[-1]
            g = math.gcd(c, lead)
            mul_rem, mul_div = lead // g, c // g
            rem = [x * mul_rem for x in rem]
            shift = len(rem) - 1 - dn
            for j, d in enumerate(fb):
                rem[shift + j] -= mul_div * d
            while rem and rem[-1] == 0:
                rem.pop()
        fa, fb = fb, _primitive_int(rem)
    return Polynomial(fa).monic()


class RationalFunction:
    """Exact rational function num/den, gcd-reduced with monic denominator.

    Integer evaluation runs on integer coefficients: num and den scaled by the
    least common denominator of all their coefficients, built on first use.
    """

    __slots__ = ("num", "den", "_ints")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial([num])
        if den is None:
            den = Polynomial([1])
        elif isinstance(den, (int, Fraction)):
            den = Polynomial([den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = divmod(num, g)
                den, _ = divmod(den, g)
            lead = den.leading
            if lead != 1:
                num = num * (1 / lead)
                den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def x(cls) -> "RationalFunction":
        return cls(Polynomial.x())

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial([c]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def _int_coeffs(self) -> tuple[list[int], list[int]]:
        try:
            return self._ints
        except AttributeError:
            cs = self.num.coeffs + self.den.coeffs
            scale = math.lcm(*(c.denominator for c in cs))
            ints = (
                [int(c * scale) for c in self.num.coeffs],
                [int(c * scale) for c in self.den.coeffs],
            )
            object.__setattr__(self, "_ints", ints)
            return ints

    def evaluate(self, x) -> Fraction:
        """Exact value at x; raises PoleError at a root of the reduced denominator."""
        if not isinstance(x, int):
            dv = self.den.evaluate(x)
            if dv == 0:
                raise PoleError(f"pole at x = {x}")
            return self.num.evaluate(x) / dv
        num, den = self._int_coeffs()
        dv = 0
        for c in reversed(den):
            dv = dv * x + c
        if dv == 0:
            raise PoleError(f"pole at x = {x}")
        nv = 0
        for c in reversed(num):
            nv = nv * x + c
        return Fraction(nv, dv)

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
        return RationalFunction(
            self.num.substitute_power(m), self.den.substitute_power(m)
        )

    def to_json_dict(self) -> dict:
        return {"num": self.num.coeff_strings(), "den": self.den.coeff_strings()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalFunction":
        return cls(Polynomial(data["num"]), Polynomial(data["den"]))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        if self.den == Polynomial([1]):
            return self.num.format(var)
        return f"({self.num.format(var)}) / ({self.den.format(var)})"
