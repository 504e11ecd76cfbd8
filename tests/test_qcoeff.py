"""Exact coefficient arithmetic: Laurent polynomials and rational functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symq.qcoeff import (
    PoleAtZeroError,
    QDivisionError,
    QPoly,
    QRat,
    is_nonneg_poly,
    poly_gcd,
    q_factorial,
    q_int,
)


def qp(*coeffs, offset=0):
    return QPoly(offset, tuple(Fraction(c) for c in coeffs))


# -- strategies --------------------------------------------------------------------

small_fractions = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)

polys = st.builds(
    QPoly,
    st.integers(-3, 3),
    st.lists(small_fractions, max_size=4).map(tuple),
)

nonzero_polys = polys.filter(lambda p: not p.is_zero())

rationals = st.builds(lambda n, d: QRat(n, d), polys, nonzero_polys)


# -- QPoly basics ------------------------------------------------------------------


def test_trimming_and_zero():
    assert qp(0, 0, 0) == QPoly.zero()
    assert qp(0, 1, 0, offset=2).offset == 3
    assert qp(0, 1, 0, offset=2).coeffs == (1,)
    assert QPoly.zero().is_zero()
    assert QPoly.one().is_one()


def test_known_products():
    one_minus_q = qp(1, -1)
    assert one_minus_q * qp(1, 1) == qp(1, 0, -1)
    assert q_int(4) == qp(1, 1, 1, 1)
    assert q_int(1) == QPoly.one()
    assert q_factorial(3) == qp(1, 1, 1) * qp(1, 1)
    assert q_factorial(0) == QPoly.one()


def test_power():
    p = qp(1, 1)
    assert p**0 == QPoly.one()
    assert p**3 == qp(1, 3, 3, 1)
    assert (QPoly.q() ** 5) == QPoly.monomial(5)


def test_coeff_and_degree():
    p = qp(2, 0, 5, offset=-1)
    assert p.degree == 1
    assert p.coeff(-1) == 2
    assert p.coeff(0) == 0
    assert p.coeff(1) == 5
    assert p.coeff(7) == 0


def test_divmod_exact_and_remainder():
    num = qp(1, 0, -1)
    quo, rem = num.divmod_poly(qp(1, -1))
    assert quo == qp(1, 1) and rem.is_zero()
    assert num.div_exact(qp(1, 1)) == qp(1, -1)
    with pytest.raises(QDivisionError):
        qp(1, 1).div_exact(qp(1, -1))
    with pytest.raises(QDivisionError):
        qp(1).divmod_poly(QPoly.zero())


def test_bar_on_poly():
    p = qp(1, 2, offset=1)  # q + 2q^2
    assert p.bar() == QPoly(-2, (Fraction(2), Fraction(1)))
    assert p.bar().bar() == p


def test_evaluate():
    p = qp(1, 1, 1)
    assert p.evaluate(Fraction(1, 2)) == Fraction(7, 4)
    assert qp(1, offset=-2).evaluate(Fraction(2)) == Fraction(1, 4)
    with pytest.raises(PoleAtZeroError):
        qp(1, offset=-1).evaluate(Fraction(0))


def test_poly_gcd_monic():
    g = poly_gcd(qp(1, 0, -1), qp(1, -1))
    assert g == qp(1, -1) or g == qp(-1, 1)
    assert g.coeffs[-1] == 1  # monic
    # offsets and scalars are stripped: 3q is a unit times 1
    assert poly_gcd(QPoly.zero(), qp(0, 3)) == qp(1)
    assert poly_gcd(QPoly.zero(), QPoly.zero()).is_zero()


def test_is_nonneg_poly():
    assert is_nonneg_poly(QRat.from_poly(qp(1, 0, 2)))
    assert is_nonneg_poly(QRat.from_fraction(Fraction(1, 2)))
    assert not is_nonneg_poly(QRat.from_poly(qp(1, -1)))
    assert not is_nonneg_poly(QRat(qp(1), qp(1, -1)))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly.zero() == a
    assert a * QPoly.one() == a


@given(polys, nonzero_polys)
def test_divmod_reconstructs(a, b):
    # divmod is for true polynomials; strip the Laurent offsets
    a = QPoly(0, a.coeffs)
    b = QPoly(0, b.coeffs)
    quo, rem = a.divmod_poly(b)
    assert quo * b + rem == a
    if not rem.is_zero():
        assert rem.degree < b.degree


@given(polys)
def test_poly_json_round_trip(p):
    assert QPoly.from_json(p.to_json()) == p


# -- QRat canonical form -----------------------------------------------------------


def test_canonical_form_examples():
    # 1/(1-q) normalizes to a denominator with positive leading coefficient
    r = QRat(qp(1), qp(1, -1))
    assert r.den == qp(-1, 1)
    assert r.num == qp(-1)
    # common factors cancel
    assert QRat(qp(1, 0, -1), qp(1, -1)) == QRat.from_poly(qp(1, 1))
    # denominator offset is absorbed into the numerator
    assert QRat(qp(1), qp(1, offset=2)).num.offset == -2


def test_rat_equality_is_semantic():
    a = QRat(qp(2, 2), qp(0, 4))
    b = QRat(qp(1, 1), qp(0, 2))
    assert a == b
    assert hash(a) == hash(b)


def test_rat_display():
    assert QRat.from_poly(qp(1, 1, 2)).table_str() == "1+q+2q^2"
    assert QRat(qp(1), qp(1, -1)).table_str() == "-1 / (-1+q)"
    assert QRat.from_fraction(Fraction(-3, 2)).table_str() == "-3/2"


def test_rat_division_by_zero():
    with pytest.raises(QDivisionError):
        QRat(qp(1), QPoly.zero())
    with pytest.raises(QDivisionError):
        QRat.one() / QRat.zero()


@given(rationals, rationals)
@settings(deadline=None)
def test_field_inverses(a, b):
    if not b.is_zero():
        assert a * b / b == a
    assert a + b - b == a


@given(rationals, nonzero_polys)
@settings(deadline=None)
def test_scaling_invariance(r, s):
    scaled = QRat(r.num * s, r.den * s)
    assert scaled == r


@given(rationals)
def test_canonical_invariants(r):
    assert r.den.offset == 0
    assert all(c.denominator == 1 for c in r.den.coeffs)
    assert r.den.coeffs[-1] > 0
    if not r.num.is_zero():
        g = poly_gcd(r.num, r.den)
        assert g.degree == 0  # num and den are coprime


@given(rationals)
@settings(deadline=None)
def test_bar_involution(r):
    assert r.bar().bar() == r


@given(rationals)
def test_rat_json_round_trip(r):
    assert QRat.from_json(r.to_json()) == r


def test_series_prefix():
    geom = QRat(qp(1), qp(1, -1))
    assert geom.series_prefix(3) == qp(1, 1, 1)
    assert QRat(qp(1, -1), qp(1, -1)).series_prefix(5) == qp(1)
    # 1/((1-q)(1-q^2)), truncated: multiply the two geometric series by hand
    two = QRat(qp(1), qp(1, -1) * qp(1, 0, -1))
    assert two.series_prefix(4) == qp(1, 1, 2, 2)
    with pytest.raises(PoleAtZeroError):
        QRat(qp(1, offset=-1), qp(1, -1)).series_prefix(3)


def test_series_indicator_of_multiples():
    for m in range(1, 6):
        r = QRat(qp(1), QPoly.one() - QPoly.monomial(m))
        prefix = r.series_prefix(20)
        assert all(prefix.coeff(i) == (1 if i % m == 0 else 0) for i in range(20))


@given(rationals, st.integers(1, 6))
@settings(deadline=None)
def test_series_matches_product(r, k):
    if r.num.offset < 0 or r.num.is_zero():
        return
    approx = r.series_prefix(k)
    diff = r.num - r.den * approx
    assert all(diff.coeff(i) == 0 for i in range(k))
