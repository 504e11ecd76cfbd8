"""Exact coefficient arithmetic: Laurent polynomials and rational functions."""

from fractions import Fraction
from math import gcd, lcm

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


# -- the Z[q] kernels against a Fraction reference -----------------------------------


def ref_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Euclid over Fraction on the polynomial parts, then monic."""
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        while len(x) >= len(y):
            f = x[-1] / y[-1]
            for j, c in enumerate(y, len(x) - len(y)):
                x[j] -= f * c
            while x and x[-1] == 0:
                x.pop()
        x, y = y, x
    return QPoly(0, tuple(c / x[-1] for c in x)) if x else QPoly.zero()


def ref_canonical(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """num/den reduced by ref_gcd, den scaled to integers, content 1, positive lead."""
    g = ref_gcd(num, den)
    n, d = QPoly(0, num.coeffs).divmod_poly(g)[0], QPoly(0, den.coeffs).divmod_poly(g)[0]
    m = lcm(*(c.denominator for c in d.coeffs))
    s = Fraction(m, gcd(*(c.numerator * (m // c.denominator) for c in d.coeffs)))
    s = s if d.coeffs[-1] > 0 else -s
    return (n * s).shift(num.offset - den.offset), d * s


def test_canonical_form_worked_by_hand():
    # 2/(-4 + 6q^2) and (1 - q^2)/(1/2 - q/2)
    for num, den, want in ((qp(2), qp(-4, 0, 6), (qp(1), qp(-2, 0, 3))),
                           (qp(1, 0, -1), qp(Fraction(1, 2), Fraction(-1, 2)), (qp(2, 2), qp(1)))):
        r = QRat(num, den)
        assert ref_canonical(num, den) == want == (r.num, r.den)


# numerator and denominator share a random factor; denominators are constant,
# a power of q or general, with rational and negative coefficients throughout
signed_polys = st.builds(
    QPoly, st.integers(-3, 3), st.lists(small_fractions, min_size=1, max_size=5).map(tuple)
).filter(lambda p: not p.is_zero())
constant_or_monomial = st.builds(QPoly.monomial, st.integers(-4, 4), small_fractions.filter(bool))
denominators = st.one_of(constant_or_monomial, signed_polys)


@given(polys, polys)
def test_sum_and_product_match_fraction_arithmetic(a, b):
    def coeff_map(p):
        return {p.offset + i: c for i, c in enumerate(p.coeffs) if c}

    total, prod = coeff_map(a), {}
    for k, c in coeff_map(b).items():
        total[k] = total.get(k, 0) + c
    for i, x in coeff_map(a).items():
        for j, y in coeff_map(b).items():
            prod[i + j] = prod.get(i + j, 0) + x * y
    assert coeff_map(a + b) == {k: c for k, c in total.items() if c}
    assert coeff_map(a * b) == {k: c for k, c in prod.items() if c}


@given(signed_polys, signed_polys, signed_polys)
@settings(deadline=None)
def test_poly_gcd_matches_fraction_euclid(a, b, c):
    assert poly_gcd(a, b) == ref_gcd(a, b)
    assert poly_gcd(a * c, b * c) == ref_gcd(a * c, b * c)
    assert poly_gcd(a, QPoly.zero()) == ref_gcd(a, QPoly.zero())


@given(signed_polys, denominators, signed_polys)
@settings(deadline=None)
def test_qrat_matches_reference_canonical_form(num, den, common):
    for n, d in ((num, den), (num * common, den * common), (-num, -den)):
        r = QRat(n, d)
        assert (r.num, r.den) == ref_canonical(n, d)
