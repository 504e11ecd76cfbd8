"""Exact arithmetic in one variable q: Laurent polynomials and rational functions.

Coefficients are arbitrary-precision rationals (`fractions.Fraction`), so every
operation here is exact.  `QPoly` stores a Laurent polynomial as the lowest
occurring exponent (`offset`) plus a dense run of coefficients whose first and
last entries are nonzero.  `QRat` is a reduced fraction of two `QPoly` values
kept in a canonical form, chosen so that structural equality coincides with
equality in Q(q):

* the denominator is an honest polynomial (offset 0, hence nonzero constant
  term); any power of q is absorbed into the numerator's offset,
* the denominator has integer coefficients with content 1 and positive leading
  coefficient,
* numerator and denominator are coprime in Q[q].

>>> one_minus_q = QPoly.one() - QPoly.q()
>>> (QRat.from_poly(QPoly.one()) / QRat.from_poly(one_minus_q)).series_prefix(4)
QPoly(offset=0, coeffs=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Union

__all__ = [
    "QPoly",
    "QRat",
    "QDivisionError",
    "PoleAtZeroError",
    "q_int",
    "is_nonneg_poly",
]

Scalar = Union[int, Fraction]


class QDivisionError(ZeroDivisionError):
    """Division of rational functions by zero."""


class PoleAtZeroError(ArithmeticError):
    """Power-series expansion requested for an element with a pole at q = 0."""


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational scalar: {c!r}")


@dataclass(frozen=True)
class QPoly:
    """A Laurent polynomial in q with rational coefficients.

    ``coeffs[i]`` is the coefficient of ``q**(offset + i)``.  The zero
    polynomial is ``QPoly(0, ())``; otherwise ``coeffs[0] != 0 != coeffs[-1]``.

    >>> p = QPoly.one() - QPoly.q()
    >>> p * (QPoly.one() + QPoly.q())
    QPoly(offset=0, coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1)))
    """

    offset: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(_as_fraction(c) for c in self.coeffs)
        off = self.offset
        lo = 0
        hi = len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            off, cs = 0, ()
        else:
            off, cs = off + lo, cs[lo:hi]
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(0, ())

    @staticmethod
    def one() -> "QPoly":
        return QPoly(0, (Fraction(1),))

    @staticmethod
    def q() -> "QPoly":
        return QPoly(1, (Fraction(1),))

    @staticmethod
    def const(c: Scalar) -> "QPoly":
        return QPoly(0, (_as_fraction(c),))

    @staticmethod
    def monomial(k: int, c: Scalar = 1) -> "QPoly":
        return QPoly(k, (_as_fraction(c),))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.offset == 0 and self.coeffs == (Fraction(1),)

    @property
    def degree(self) -> int:
        """Top exponent; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.offset + len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        i = k - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QPoly | Scalar") -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        off = min(self.offset, other.offset)
        top = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        cs = [Fraction(0)] * (top - off)
        for i, c in enumerate(self.coeffs):
            cs[self.offset - off + i] += c
        for i, c in enumerate(other.coeffs):
            cs[other.offset - off + i] += c
        return QPoly(off, tuple(cs))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly | Scalar") -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "QPoly | Scalar") -> "QPoly":
        return (-self) + other

    def __mul__(self, other: "QPoly | Scalar") -> "QPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return QPoly.zero()
            return QPoly(self.offset, tuple(a * c for a in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly.zero()
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return QPoly(self.offset + other.offset, tuple(cs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial; use QRat")
        out = QPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if not self.coeffs:
            return self
        return QPoly(self.offset + k, self.coeffs)

    def bar(self) -> "QPoly":
        """The involution q -> 1/q."""
        if not self.coeffs:
            return self
        return QPoly(-(self.offset + len(self.coeffs) - 1), tuple(reversed(self.coeffs)))

    def evaluate(self, x: Scalar) -> Fraction:
        x = _as_fraction(x)
        if self.offset < 0 and x == 0:
            raise PoleAtZeroError("Laurent polynomial with negative exponents at q = 0")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.offset:
            acc *= x ** self.offset
        return acc

    # -- division ----------------------------------------------------------

    def divmod_poly(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Polynomial division; both operands must have offset >= 0."""
        if other.is_zero():
            raise QDivisionError("polynomial division by zero")
        if self.offset < 0 or other.offset < 0:
            raise ValueError("divmod is for polynomials, not Laurent polynomials")
        rem = list(QPoly(self.offset, self.coeffs)._dense())
        div = other._dense()
        dd = len(div) - 1
        lead = div[-1]
        if len(rem) - 1 < dd:
            return QPoly.zero(), self
        quo = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                f = c / lead
                quo[i - dd] = f
                for j, b in enumerate(div):
                    rem[i - dd + j] -= f * b
        return QPoly(0, tuple(quo)), QPoly(0, tuple(rem))

    def _dense(self) -> list[Fraction]:
        """Coefficients from q^0 up; requires offset >= 0."""
        return [Fraction(0)] * self.offset + list(self.coeffs)

    def div_exact(self, other: "QPoly") -> "QPoly":
        """Exact division in the Laurent ring; rejects any nonzero remainder."""
        if other.is_zero():
            raise QDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        a = QPoly(0, self.coeffs)
        b = QPoly(0, other.coeffs)
        quo, rem = a.divmod_poly(b)
        if not rem.is_zero():
            raise QDivisionError("inexact polynomial division")
        return quo.shift(self.offset - other.offset)

    # -- presentation ------------------------------------------------------

    def _terms_str(self, mul: str) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.offset + i
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                qpow = "q" if k == 1 else f"q^{k}"
                if mag == 1:
                    body = qpow
                else:
                    body = f"{mag}{mul}{qpow}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def table_str(self) -> str:
        """Human form, lowest power first: ``1+q+2q^2``."""
        return self._terms_str("")

    def expr_str(self) -> str:
        """Re-parseable form: ``1+q+2*q^2``."""
        return self._terms_str("*")

    def __str__(self) -> str:
        return self.table_str()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"offset": self.offset, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "QPoly":
        return QPoly(int(obj["offset"]), tuple(Fraction(c) for c in obj["coeffs"]))


def _monic(p: QPoly) -> QPoly:
    lead = p.coeffs[-1]
    return p if lead == 1 else p * (1 / lead)


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd in Q[q] of the polynomial parts (offsets stripped)."""
    a = QPoly(0, a.coeffs)
    b = QPoly(0, b.coeffs)
    while not b.is_zero():
        a, b = b, a.divmod_poly(b)[1]
    if a.is_zero():
        return a
    return _monic(a)


def _den_scale(den: QPoly) -> Fraction:
    """Scalar s such that den*s has integer coefficients, content 1, positive lead."""
    lcm = 1
    for c in den.coeffs:
        lcm = lcm * c.denominator // _int_gcd(lcm, c.denominator)
    g = 0
    for c in den.coeffs:
        g = _int_gcd(g, abs(c.numerator * (lcm // c.denominator)))
    s = Fraction(lcm, g)
    if den.coeffs[-1] < 0:
        s = -s
    return s


@dataclass(frozen=True)
class QRat:
    """A rational function num/den in canonical reduced form (see module docstring).

    >>> QRat.from_poly(QPoly.one() - QPoly.q()) / QRat.from_poly(QPoly.one() - QPoly.q())
    QRat(num=QPoly(offset=0, coeffs=(Fraction(1, 1),)), den=QPoly(offset=0, coeffs=(Fraction(1, 1),)))
    """

    num: QPoly
    den: QPoly

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero():
            raise QDivisionError("zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", QPoly.zero())
            object.__setattr__(self, "den", QPoly.one())
            return
        # Absorb the denominator's q-power into the numerator offset.
        num = num.shift(-den.offset)
        den = QPoly(0, den.coeffs)
        g = poly_gcd(num, den)
        if not g.is_one():
            num = num.div_exact(g)
            den = den.div_exact(g)
        s = _den_scale(den)
        if s != 1:
            num = num * s
            den = den * s
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QRat":
        return QRat(QPoly.zero(), QPoly.one())

    @staticmethod
    def one() -> "QRat":
        return QRat(QPoly.one(), QPoly.one())

    @staticmethod
    def from_poly(p: QPoly) -> "QRat":
        return QRat(p, QPoly.one())

    @staticmethod
    def from_int(n: int) -> "QRat":
        return QRat(QPoly.const(n), QPoly.one())

    @staticmethod
    def from_fraction(c: Scalar) -> "QRat":
        return QRat(QPoly.const(c), QPoly.one())

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> QPoly:
        if not self.den.is_one():
            raise ValueError(f"not a Laurent polynomial: {self}")
        return self.num

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "QRat | None":
        if isinstance(other, QRat):
            return other
        if isinstance(other, QPoly):
            return QRat.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return QRat.from_fraction(other)
        return None

    def __add__(self, other) -> "QRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "QRat":
        return QRat(-self.num, self.den)

    def __sub__(self, other) -> "QRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QRat":
        return (-self) + other

    def __mul__(self, other) -> "QRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise QDivisionError("division by zero rational function")
        return QRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "QRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def bar(self) -> "QRat":
        """The involution q -> 1/q, renormalized to canonical form."""
        return QRat(self.num.bar(), self.den.bar())

    def evaluate(self, x: Scalar) -> Fraction:
        x = _as_fraction(x)
        d = self.den.evaluate(x)
        if d == 0:
            raise QDivisionError(f"pole at q = {x}")
        return self.num.evaluate(x) / d

    def series_prefix(self, k: int) -> QPoly:
        """First k coefficients of the power-series expansion at q = 0.

        >>> geom = QRat.from_int(1) / QRat.from_poly(QPoly.one() - QPoly.q())
        >>> str(geom.series_prefix(3))
        '1+q+q^2'
        """
        if self.num.is_zero():
            return QPoly.zero()
        if self.num.offset < 0:
            raise PoleAtZeroError(f"pole at q = 0: {self}")
        if k <= 0:
            return QPoly.zero()
        den = self.den._dense()
        out = [Fraction(0)] * k
        for i in range(k):
            acc = self.num.coeff(i)
            for j in range(1, min(i, len(den) - 1) + 1):
                acc -= den[j] * out[i - j]
            out[i] = acc / den[0]
        return QPoly(0, tuple(out))

    # -- presentation ------------------------------------------------------

    def table_str(self) -> str:
        if self.den.is_one():
            return self.num.table_str()
        den = self.den.table_str()
        if len(self.den.coeffs) > 1:
            den = f"({den})"
        num = self.num.table_str()
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        return f"{num} / {den}"

    def __str__(self) -> str:
        return self.table_str()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "QRat":
        return QRat(QPoly.from_json(obj["num"]), QPoly.from_json(obj["den"]))


# -- module-level operations ------------------------------------------------


def q_int(n: int) -> QPoly:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1); [0]_q = 0.

    >>> str(q_int(3))
    '1+q+q^2'
    """
    if n < 0:
        raise ValueError("q_int of a negative integer")
    return QPoly(0, (Fraction(1),) * n)


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    out = QPoly.one()
    for i in range(2, n + 1):
        out = out * q_int(i)
    return out


def is_nonneg_poly(a: QRat) -> bool:
    """True iff a is a Laurent polynomial with all coefficients >= 0."""
    return a.den.is_one() and all(c >= 0 for c in a.num.coeffs)
