"""Hall-Littlewood bases, graded Kostka routes, characters, Pieri, skew."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symq import hl, qcoeff, symfunc
from symq.hl import (
    KostkaTable,
    big_schur,
    char_gp,
    char_kostka,
    expand_in_big_schur,
    expand_in_hl_p,
    expand_in_hl_q,
    hl_p,
    hl_q,
    hl_to_native,
    kostka_orthogonality,
    kostka_triangular,
    pieri_e1,
    psi,
    psi_inverse,
    skew_q,
    to_hl_basis,
)
from symq.partition import Partition, dominance_leq, partitions
from symq.qcoeff import QPoly, QRat
from symq.symfunc import SymFunc, convert, hall_inner, unit


def pt(*parts):
    return Partition(tuple(parts))


def qp(*coeffs, offset=0):
    return QPoly(offset, tuple(Fraction(c) for c in coeffs))


def rat(*coeffs, offset=0):
    return QRat.from_poly(qp(*coeffs, offset=offset))


# -- hand-checkable small expansions ------------------------------------------------


def test_p_at_n2():
    assert hl_p(pt(2)).terms == {pt(2): QRat.one(), pt(1, 1): rat(-1, offset=1)}
    assert hl_p(pt(1, 1)).terms == {pt(1, 1): QRat.one()}


def test_q_scales_p_by_b():
    for n in range(0, 6):
        for lam in partitions(n):
            b = QRat.from_poly(lam.b_poly())
            got = hl_q(lam).terms
            want = {mu: c * b for mu, c in hl_p(lam).terms.items()}
            assert got == want


def test_q_at_n2():
    # (1-q)(1-q^2) s_11
    assert hl_q(pt(1, 1)).terms == {pt(1, 1): rat(1, -1, -1, 1)}
    assert hl_q(pt(2)).terms == {
        pt(2): rat(1, -1), pt(1, 1): rat(-1, 1, offset=1)
    }


def test_big_schur_at_n2():
    assert big_schur(pt(2)).terms == {
        pt(2): rat(1, -1), pt(1, 1): rat(-1, 1, offset=1)
    }
    # s_11[(1-q)X] = ((1-q)^2 (s2+s11) - (1-q^2)(s2-s11)) / 2
    assert big_schur(pt(1, 1)).terms == {
        pt(2): rat(-1, 1, offset=1), pt(1, 1): rat(1, -1)
    }


def test_p_is_monomial_unitriangular():
    for n in range(0, 6):
        for lam in partitions(n):
            terms = convert(hl_p(lam), "m").terms
            assert terms[lam] == QRat.one()
            for mu, c in terms.items():
                assert dominance_leq(mu, lam), (lam, mu)
                poly = c.as_poly()
                assert all(x.denominator == 1 for x in poly.coeffs)


def test_p_specializes_to_schur_at_q0():
    for n in range(0, 6):
        for lam in partitions(n):
            for f in (hl_p(lam), big_schur(lam)):
                coeffs = {
                    mu: c.as_poly().evaluate(Fraction(0))
                    for mu, c in convert(f, "s").terms.items()
                }
                coeffs = {mu: v for mu, v in coeffs.items() if v}
                assert coeffs == {lam: Fraction(1)}


def test_p_specializes_to_monomial_at_q1():
    for n in range(0, 6):
        for lam in partitions(n):
            coeffs = {
                mu: c.as_poly().evaluate(Fraction(1))
                for mu, c in convert(hl_p(lam), "m").terms.items()
            }
            coeffs = {mu: v for mu, v in coeffs.items() if v}
            assert coeffs == {lam: Fraction(1)}


# -- the graded Kostka table ---------------------------------------------------------


KOSTKA_3 = {
    ((3,), (3,)): qp(1),
    ((2, 1), (3,)): qp(1, offset=1),
    ((2, 1), (2, 1)): qp(1),
    ((1, 1, 1), (3,)): qp(1, offset=3),
    ((1, 1, 1), (2, 1)): qp(1, 1, offset=1),
    ((1, 1, 1), (1, 1, 1)): qp(1),
}

# frozen from the brute-force graded-quotient construction, which builds the
# same multiplicities from exact linear algebra with no symmetric functions
KOSTKA_4 = {
    ((4,), (4,)): qp(1),
    ((3, 1), (4,)): qp(1, offset=1),
    ((3, 1), (3, 1)): qp(1),
    ((2, 2), (4,)): qp(1, offset=2),
    ((2, 2), (3, 1)): qp(1, offset=1),
    ((2, 2), (2, 2)): qp(1),
    ((2, 1, 1), (4,)): qp(1, offset=3),
    ((2, 1, 1), (3, 1)): qp(1, 1, offset=1),
    ((2, 1, 1), (2, 2)): qp(1, offset=1),
    ((2, 1, 1), (2, 1, 1)): qp(1),
    ((1, 1, 1, 1), (4,)): qp(1, offset=6),
    ((1, 1, 1, 1), (3, 1)): qp(1, 1, 1, offset=3),
    ((1, 1, 1, 1), (2, 2)): qp(1, 0, 1, offset=2),
    ((1, 1, 1, 1), (2, 1, 1)): qp(1, 1, 1, offset=1),
    ((1, 1, 1, 1), (1, 1, 1, 1)): qp(1),
}


def as_table_dict(table):
    return {
        (lam.parts, mu.parts): p for (lam, mu), p in table.entries.items()
    }


def test_kostka_n2():
    t = kostka_triangular(2)
    assert t.get(pt(1, 1), pt(2)) == QPoly.q()
    assert t.get(pt(2), pt(2)) == QPoly.one()
    assert t.get(pt(2), pt(1, 1)) == QPoly.zero()


def test_kostka_n3_frozen():
    assert as_table_dict(kostka_triangular(3)) == KOSTKA_3


def test_kostka_n4_frozen():
    assert as_table_dict(kostka_triangular(4)) == KOSTKA_4


def test_routes_agree():
    for n in range(0, 6):
        assert kostka_triangular(n) == kostka_orthogonality(n)


def test_routes_agree_n7():
    assert kostka_triangular(7) == kostka_orthogonality(7)


def test_route_one_builds_no_big_schur():
    for obj in vars(hl).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    kostka_triangular(4)
    assert big_schur.cache_info().currsize == 0


def test_route_two_expands_each_big_schur_once(monkeypatch):
    # the Gram matrix pairs power-sum expansions; it does not redo them per pair
    for obj in vars(hl).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    original = symfunc.to_p
    converted = []

    def counting_to_p(f):
        if f.basis != "p":
            converted.append(f)
        return original(f)

    monkeypatch.setattr(symfunc, "to_p", counting_to_p)
    monkeypatch.setattr(hl, "to_p", counting_to_p)
    kostka_orthogonality(5)
    assert 0 < len(converted) <= 2 * len(partitions(5))


def test_kostka_runs_no_polynomial_gcd(monkeypatch):
    # QRat normalises in Z[q]; qcoeff.poly_gcd is not on the Kostka hot path
    def clear():
        for module in (hl, symfunc):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()

    clear()
    want = kostka_triangular(4).to_json()
    clear()

    def no_gcd(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(qcoeff, "poly_gcd", no_gcd)
    assert kostka_triangular(4).to_json() == want


def test_triangularity_validation():
    for n in range(0, 6):
        assert kostka_triangular(n).validate_triangular() == []


def test_kostka_row_getter():
    row = kostka_triangular(3).row(pt(1, 1, 1))
    assert row[pt(2, 1)] == qp(1, 1, offset=1)


def test_kostka_json_round_trip():
    t = kostka_triangular(4)
    assert KostkaTable.from_json(t.to_json()) == t


# -- graded characters ----------------------------------------------------------------


def test_char_kostka_rows():
    ck = char_kostka(pt(1, 1, 1))
    assert ck.mult == {
        pt(3): rat(1, offset=3),
        pt(2, 1): rat(1, 1, offset=1),
        pt(1, 1, 1): QRat.one(),
    }


def test_char_gp_small():
    assert char_gp(pt(1, 1)).mult == {pt(2): QRat.one(), pt(1, 1): rat(1, offset=1)}
    assert char_gp(pt(2)).mult == {pt(2): QRat.one()}


def test_char_gp_frozen_n4():
    # frozen from the brute-force quotient construction
    assert char_gp(pt(2, 2)).mult == {
        pt(4): QRat.one(),
        pt(3, 1): rat(1, offset=1),
        pt(2, 2): rat(1, offset=2),
    }
    assert char_gp(pt(2, 1, 1)).mult == {
        pt(4): QRat.one(),
        pt(3, 1): rat(1, 1, offset=1),
        pt(2, 2): rat(1, offset=2),
        pt(2, 1, 1): rat(1, offset=3),
    }


def test_char_gp_socle_and_trivial():
    for n in range(1, 6):
        for lam in partitions(n):
            gc = char_gp(lam)
            assert gc.get(lam) == rat(1, offset=lam.n_stat())
            assert gc.get(pt(n)) == QRat.one()


# -- twisted characteristic -----------------------------------------------------------


def test_psi_sends_kostka_row_to_q():
    for n in range(0, 6):
        for lam in partitions(n):
            assert psi(char_kostka(lam)).terms == hl_q(lam).terms


def test_psi_inverse_round_trip():
    for n in range(0, 5):
        for lam in partitions(n):
            gc = char_kostka(lam)
            back = psi_inverse(psi(gc))
            assert back.mult == gc.mult


def test_psi_inverse_rejects_mixed_degree():
    f = SymFunc("s", {pt(1): QRat.one(), pt(2): QRat.one()})
    with pytest.raises(ValueError):
        psi_inverse(f)


# -- basis expansion helpers ----------------------------------------------------------


def test_expand_in_hl_p_unitriangular_identity():
    for n in range(0, 6):
        for lam in partitions(n):
            assert expand_in_hl_p(hl_p(lam)) == {lam: QRat.one()}
            assert expand_in_hl_q(hl_q(lam)) == {lam: QRat.one()}
            assert expand_in_big_schur(big_schur(lam)) == {lam: QRat.one()}


def test_expand_in_big_schur_round_trip():
    want: dict[Partition, QRat] = {}
    f = SymFunc("s", {})
    for n in range(0, 6):
        for i, mu in enumerate(partitions(n)):
            c = QRat(qp(i + 1, -1, offset=i), qp(1, n))
            want[mu] = c
            f = f + big_schur(mu).scale(c)
        for lam in partitions(n):
            for g in (unit("s", lam), hl_p(lam), hl_q(lam)):
                back = hl_to_native(SymFunc("S", expand_in_big_schur(g)), "s")
                assert back.terms == g.terms
    assert expand_in_big_schur(f) == want
    assert expand_in_big_schur(convert(f, "m")) == want


def test_to_hl_basis_and_back():
    f = SymFunc("s", {pt(2, 1): QRat.one(), pt(3): rat(1, offset=2)})
    for target in ("P", "Q", "S"):
        g = to_hl_basis(f, target)
        assert g.basis == target
        back = hl_to_native(g, "s")
        assert back.terms == f.terms


@given(
    st.lists(
        st.tuples(
            st.integers(0, 4).flatmap(lambda n: st.sampled_from(partitions(n))),
            st.integers(-3, 3),
        ),
        max_size=3,
    ),
    st.sampled_from(("P", "Q", "S")),
)
@settings(deadline=None, max_examples=30)
def test_hl_round_trip_random(pairs, target):
    f = SymFunc("s", {lam: QRat.from_int(c) for lam, c in pairs})
    g = hl_to_native(to_hl_basis(f, target), "s")
    assert g.terms == f.terms


def test_orthogonality_spot_checks():
    assert hall_inner(hl_p(pt(2)), hl_q(pt(2))) == QRat.one()
    assert hall_inner(hl_p(pt(2)), hl_q(pt(1, 1))) == QRat.zero()
    assert hall_inner(big_schur(pt(2)), unit("s", pt(2))) == QRat.one()
    assert hall_inner(big_schur(pt(2)), unit("s", pt(1, 1))) == QRat.zero()
    assert hall_inner(hl_q(pt(1, 1)), hl_q(pt(1, 1))) == QRat.from_poly(
        pt(1, 1).b_poly()
    )


# -- Pieri and skew -------------------------------------------------------------------


def test_pieri_e1_examples():
    assert pieri_e1(pt(1)) == {pt(2): qp(1), pt(1, 1): qp(1, 1)}
    assert pieri_e1(pt(2, 1)) == {
        pt(3, 1): qp(1),
        pt(2, 2): qp(1, 1),
        pt(2, 1, 1): qp(1, 1),
    }
    assert pieri_e1(pt()) == {pt(1): qp(1)}


def test_pieri_e1_coefficient_shape():
    for n in range(0, 6):
        for lam in partitions(n):
            for mu, c in pieri_e1(lam).items():
                m = mu.multiplicity(grown_part(lam, mu))
                assert c == QPoly(0, tuple(Fraction(1) for _ in range(m)))


def grown_part(lam, mu):
    from collections import Counter

    diff = Counter(mu.parts) - Counter(lam.parts)
    [(part, count)] = diff.items()
    assert count == 1
    return part


def test_skew_examples():
    assert skew_q(pt(2), pt(1)).terms == big_schur(pt(1)).terms
    assert skew_q(pt(2), pt(2)).terms == {pt(): QRat.one()}
    assert skew_q(pt(2), pt()).terms == hl_q(pt(2)).terms
    assert skew_q(pt(2), pt(1, 1)).is_zero()
    with pytest.raises(ValueError):
        skew_q(pt(1), pt(1, 1))


def test_skew_column():
    # Q_{(1,1)/(1)} = (1-q) S_(1) + extra q-multiples? frozen by direct pairing
    got = expand_in_big_schur(skew_q(pt(1, 1), pt(1)))
    assert all(
        c.is_poly() and all(x >= 0 and x.denominator == 1 for x in c.as_poly().coeffs)
        for c in got.values()
    )
