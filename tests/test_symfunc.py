"""Classical bases, conversions, products, and the Hopf operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symq.partition import Partition, partitions
from symq.qcoeff import QPoly, QRat
from symq.symfunc import (
    NATIVE_BASES,
    SymFunc,
    antipode,
    convert,
    coproduct,
    hall_inner,
    plethysm_one_minus_q,
    product,
    tensor_product,
    to_p,
    unit,
    _transition,
)


def pt(*parts):
    return Partition(tuple(parts))


def sf(basis, mapping):
    return SymFunc(basis, {pt(*k): QRat.from_int(v) for k, v in mapping.items()})


small_polys = st.builds(
    QPoly,
    st.integers(0, 1),
    st.lists(st.fractions(min_value=-3, max_value=3), max_size=3).map(
        lambda cs: tuple(Fraction(c) for c in cs)
    ),
)

random_symfunc = st.builds(
    lambda basis, pairs: SymFunc(
        basis, {lam: QRat.from_poly(p) for lam, p in pairs}
    ),
    st.sampled_from(NATIVE_BASES),
    st.lists(
        st.tuples(
            st.integers(0, 4).flatmap(lambda n: st.sampled_from(partitions(n))),
            small_polys,
        ),
        max_size=3,
    ),
)


def test_known_transitions():
    assert convert(unit("h", pt(2)), "s").terms == {pt(2): QRat.one()}
    assert convert(unit("e", pt(2)), "s").terms == {pt(1, 1): QRat.one()}
    assert convert(unit("p", pt(2)), "s").terms == {
        pt(2): QRat.one(), pt(1, 1): QRat.from_int(-1)
    }
    assert convert(unit("s", pt(2, 1)), "m").terms == {
        pt(2, 1): QRat.one(), pt(1, 1, 1): QRat.from_int(2)
    }
    assert convert(unit("s", pt(2, 1)), "h").terms == {
        pt(2, 1): QRat.one(), pt(3): QRat.from_int(-1)
    }
    # h_n in monomials: one of each
    got = convert(unit("h", pt(3)), "m")
    assert got.terms == {mu: QRat.one() for mu in partitions(3)}
    assert convert(unit("m", pt(2, 1)), "p").terms == {
        pt(2, 1): QRat.one(), pt(3): QRat.from_int(-1)
    }
    assert convert(unit("p", pt(2, 1)), "m").terms == {
        pt(3): QRat.one(), pt(2, 1): QRat.one()
    }


@pytest.mark.parametrize("basis", ["h", "e", "s", "m"])
def test_transition_tables_are_mutually_inverse(basis):
    # each pair is built from identities, not by inversion: check it exactly
    for n in range(0, 9):
        to_p_table, from_p_table = _transition(basis, n)
        labels = partitions(n)
        for lam in labels:
            for mu in labels:
                got = sum(
                    (a * from_p_table[rho].get(mu, 0) for rho, a in to_p_table[lam].items()),
                    Fraction(0),
                )
                assert got == (1 if lam == mu else 0), (basis, lam, mu)


def test_e_h_duality_via_conjugation():
    # e_lambda and h_lambda expand with mirrored Schur coefficients
    for n in range(1, 6):
        for lam in partitions(n):
            es = convert(unit("e", lam), "s").terms
            hs = convert(unit("h", lam), "s").terms
            assert es == {mu.conjugate(): c for mu, c in hs.items()}


def test_conversion_round_trips():
    for n in range(0, 7):
        for lam in partitions(n):
            for src in NATIVE_BASES:
                f = unit(src, lam)
                for dst in NATIVE_BASES:
                    back = convert(convert(f, dst), src)
                    assert back.terms == f.terms, (src, dst, lam)


@given(random_symfunc, st.sampled_from(NATIVE_BASES))
@settings(deadline=None, max_examples=40)
def test_conversion_round_trip_random(f, dst):
    assert convert(convert(f, dst), f.basis).terms == f.terms


def test_degree_bookkeeping():
    f = sf("s", {(2, 1): 1, (3,): 2})
    assert f.degree == 3
    assert f.homogeneous_part(3).terms == f.terms
    assert f.homogeneous_part(2).is_zero()
    g = f + sf("s", {(1,): 1})
    assert g.degree is None
    assert sorted(g.degrees()) == [1, 3]


def test_mixed_degree_conversion():
    f = sf("h", {(2, 1): 1, (1,): 3})
    back = convert(convert(f, "p"), "h")
    assert back.terms == f.terms


def test_product_matches_in_all_bases():
    a = sf("s", {(2,): 1})
    b = sf("s", {(1,): 1})
    prod_s = product(a, b)
    assert prod_s.basis == "s"
    assert prod_s.terms == sf("s", {(3,): 1, (2, 1): 1}).terms
    for basis in NATIVE_BASES:
        pa, pb = convert(a, basis), convert(b, basis)
        assert convert(product(pa, pb), "s").terms == prod_s.terms


def test_product_power_sums_concatenate():
    assert product(unit("p", pt(3)), unit("p", pt(2, 2))).terms == {
        pt(3, 2, 2): QRat.one()
    }


@given(random_symfunc, random_symfunc)
@settings(deadline=None, max_examples=25)
def test_product_commutes(f, g):
    lhs = product(f, g)
    rhs = convert(product(g, f), f.basis)
    assert lhs.terms == rhs.terms


def test_coproduct_primitive_power_sum():
    cop = coproduct(unit("p", pt(3)))
    assert cop.terms == {
        (pt(3), pt()): QRat.one(),
        (pt(), pt(3)): QRat.one(),
    }


def test_coproduct_h2():
    cop = coproduct(unit("h", pt(2)))
    assert cop.terms == {
        (pt(2), pt()): QRat.one(),
        (pt(1), pt(1)): QRat.one(),
        (pt(), pt(2)): QRat.one(),
    }


def test_coproduct_multiset_multiplicity():
    # p_(1,1) splits with binomial weight 2 on the middle term
    cop = coproduct(unit("p", pt(1, 1)))
    assert cop.terms == {
        (pt(1, 1), pt()): QRat.one(),
        (pt(1), pt(1)): QRat.from_int(2),
        (pt(), pt(1, 1)): QRat.one(),
    }


def test_coproduct_is_algebra_map_on_units():
    f, g = unit("h", pt(2)), unit("e", pt(1, 1))
    lhs = coproduct(product(f, g))
    rhs = tensor_product(coproduct(f), coproduct(g))
    assert to_p_tensor(lhs) == to_p_tensor(rhs)


def to_p_tensor(t):
    out = {}
    for (a, b), c in t.terms.items():
        pa = to_p(SymFunc(t.bases[0], {a: QRat.one()}))
        pb = to_p(SymFunc(t.bases[1], {b: QRat.one()}))
        for la, ca in pa.terms.items():
            for lb, cb in pb.terms.items():
                key = (la, lb)
                out[key] = out.get(key, QRat.zero()) + c * ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_antipode_on_complete_homogeneous():
    for n in range(1, 6):
        got = antipode(unit("h", pt(n)))
        want = convert(unit("e", pt(n)), got.basis) * QRat.from_int((-1) ** n)
        assert got.terms == want.terms


def test_antipode_on_power_sums():
    got = antipode(unit("p", pt(3, 2)))
    assert convert(got, "p").terms == {pt(3, 2): QRat.one()}  # (-1)^2


def test_hall_inner_power_sums():
    one = QPoly.one()
    for lam in [pt(1), pt(2), pt(2, 1)]:
        weight = QRat.from_fraction(Fraction(lam.z_stat()))
        for part in lam.parts:
            weight = weight / QRat.from_poly(one - QPoly.monomial(part))
        assert hall_inner(unit("p", lam), unit("p", lam)) == weight
    assert hall_inner(unit("p", pt(2)), unit("p", pt(1, 1))) == QRat.zero()


def test_hall_inner_p1():
    got = hall_inner(unit("p", pt(1)), unit("p", pt(1)))
    assert got == QRat(QPoly.one(), QPoly.one() - QPoly.q())


def test_hall_inner_bilinear():
    f = sf("p", {(2,): 3})
    g = sf("p", {(2,): 1, (1, 1): 5})
    got = hall_inner(f, g)
    want = hall_inner(unit("p", pt(2)), unit("p", pt(2))) * QRat.from_int(3)
    assert got == want


def test_hall_inner_degree_orthogonality():
    assert hall_inner(unit("s", pt(2)), unit("s", pt(1))) == QRat.zero()


def test_plethysm_one_minus_q():
    got = plethysm_one_minus_q(unit("p", pt(3)))
    want = QRat.from_poly(QPoly.one() - QPoly.monomial(3))
    assert got.terms == {pt(3): want}
    # on h_2 via the p-expansion: h_2 = (p_2 + p_1^2)/2
    got2 = convert(plethysm_one_minus_q(unit("h", pt(2))), "p").terms
    q = QPoly.q()
    one = QPoly.one()
    assert got2 == {
        pt(2): QRat.from_poly((one - q * q) * QPoly.const(Fraction(1, 2))),
        pt(1, 1): QRat.from_poly((one - q) * (one - q) * QPoly.const(Fraction(1, 2))),
    }


def test_unit_validation():
    with pytest.raises(ValueError):
        unit("x", pt(1))
    with pytest.raises(ValueError):
        SymFunc("nope", {})


def test_json_round_trip():
    f = SymFunc("s", {pt(2, 1): QRat(QPoly.q(), QPoly.one() - QPoly.q())})
    assert SymFunc.from_json(f.to_json()).terms == f.terms
    assert SymFunc.from_json(f.to_json()).basis == "s"
