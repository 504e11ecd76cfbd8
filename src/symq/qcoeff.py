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

The values are stored as `Fraction`s, but the kernels work in Z[q]: each one
clears the coefficients of its operands to an integer vector over one common
denominator (`_ints`), does its multiply-adds on Python ints and builds one
`Fraction` per output coefficient (`_from_ints`).  `QPoly` sum and product
convolve integer numerators; `div_exact` is exact division in Z[q] (`_zquo`);
`QRat` divides a constant denominator straight into the numerator and reduces
any other by the primitive gcd in Z[q] (`_zgcd`, the primitive polynomial
remainder sequence of Collins, *J. ACM* 14, 1967), then divides out the
denominator's content and sign.  `poly_gcd` is the monic form of that gcd; no
normalisation calls it.

>>> one_minus_q = QPoly.one() - QPoly.q()
>>> (QRat.from_poly(QPoly.one()) / QRat.from_poly(one_minus_q)).series_prefix(4)
QPoly(offset=0, coeffs=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
        a, da = _ints(self.coeffs)
        b, db = _ints(other.coeffs)
        d = lcm(da, db)
        off = min(self.offset, other.offset)
        cs = [0] * (max(self.offset + len(a), other.offset + len(b)) - off)
        for vec, shift, scale in ((a, self.offset - off, d // da), (b, other.offset - off, d // db)):
            for i, x in enumerate(vec, shift):
                cs[i] += x * scale
        return _from_ints(off, cs, d)

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
        a, da = _ints(self.coeffs)
        b, db = _ints(other.coeffs)
        cs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    cs[j] += x * y
        return _from_ints(self.offset + other.offset, cs, da * db)

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
        a, da = _ints(self.coeffs)
        b, db = _ints(other.coeffs)
        cb, b = _split(b)
        # b is primitive, so by Gauss's lemma it divides a in Z[q] if at all
        quo = _zquo(a, b)
        if quo is None:
            raise QDivisionError("inexact polynomial division")
        return _from_ints(self.offset - other.offset, [x * db for x in quo], da * cb)

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


def _ints(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer vector v and positive d with coeffs == v / d."""
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    if d == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def _from_ints(offset: int, cs: list[int], d: int) -> QPoly:
    """The polynomial sum(cs[i] q^(offset + i)) / d, trimmed; d != 0."""
    lo, hi = 0, len(cs)
    while lo < hi and not cs[lo]:
        lo += 1
    while hi > lo and not cs[hi - 1]:
        hi -= 1
    if lo == hi:
        return _ZERO
    if d == 1:
        return _raw(offset + lo, tuple(map(Fraction, cs[lo:hi])))
    return _raw(offset + lo, tuple(Fraction(x, d) for x in cs[lo:hi]))


def _raw(offset: int, coeffs: tuple[Fraction, ...]) -> QPoly:
    """A QPoly from coefficients already trimmed and of type Fraction."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "offset", offset)
    object.__setattr__(p, "coeffs", coeffs)
    return p


_ZERO = QPoly(0, ())
_ONE = QPoly.one()


def _split(v: list[int]) -> tuple[int, list[int]]:
    """Content (positive) and primitive part of a nonzero integer vector."""
    c = gcd(*v)
    return c, (v if c == 1 else [x // c for x in v])


def _zquo(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[q] (vectors from q^0 up, b[-1] != 0), or None if b does not divide a there."""
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return None
    r = list(a)
    lead = b[-1]
    quo = [0] * n
    for i in range(n - 1, -1, -1):
        c = r[i + db]
        if c:
            f, m = divmod(c, lead)
            if m:
                return None
            quo[i] = f
            for j, y in enumerate(b, i):
                r[j] -= f * y
    return None if any(r[:db]) else quo


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a nonzero integer, trimmed; len(a) >= len(b)."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) > db:
        c = r[-1]
        g = gcd(lead, c)
        s, t = lead // g, c // g
        k = len(r) - 1 - db
        r = [x * s for x in r] if s != 1 else r
        for j, y in enumerate(b, k):
            r[j] -= t * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[q] of two nonzero primitive vectors, leading coefficient positive.

    The primitive polynomial remainder sequence: each remainder is made
    primitive before the next step, so the coefficients stay small.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b if b[-1] > 0 else [-y for y in b]
        a, b = b, _split(r)[1]
    return [1]


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd in Q[q] of the polynomial parts (offsets stripped)."""
    parts = [_split(_ints(p.coeffs)[0])[1] for p in (a, b) if p.coeffs]
    if not parts:
        return _ZERO
    g = _zgcd(*parts) if len(parts) == 2 else parts[0]
    return _from_ints(0, g, g[-1])


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
        off = num.offset - den.offset
        if len(den.coeffs) == 1:
            c = den.coeffs[0]
            cs = num.coeffs if c == 1 else tuple(x / c for x in num.coeffs)
            object.__setattr__(self, "num", _raw(off, cs))
            object.__setattr__(self, "den", _ONE)
            return
        a, da = _ints(num.coeffs)
        b, db = _ints(den.coeffs)
        ca, a = _split(a)
        cb, b = _split(b)
        g = _zgcd(a, b)
        if len(g) > 1:
            # exact in Z[q] by Gauss's lemma, since g is primitive
            a, b = _zquo(a, g), _zquo(b, g)
        # num/den = (ca*db / (cb*da)) * a/b, with a and b primitive and coprime
        s, t = ca * db, cb * da
        if b[-1] < 0:
            b = [-y for y in b]
            s = -s
        object.__setattr__(self, "num", _from_ints(off, [x * s for x in a], t))
        object.__setattr__(self, "den", _from_ints(0, b, 1))

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
