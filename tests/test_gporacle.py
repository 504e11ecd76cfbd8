"""Brute-force graded quotients: generators, dimensions, characters."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

import pytest

from symq.gporacle import (
    _ideal_rref,
    _Rref,
    graded_character,
    graded_dimension,
    graded_quotient,
    monomial_space,
    oracle_report,
    oracle_vs_symbolic,
    tanisaki_generators,
)
from symq.partition import Partition, partitions
from symq.qcoeff import QPoly, QRat, q_factorial


def pt(*parts):
    return Partition(tuple(parts))


def qp(*coeffs, offset=0):
    return QPoly(offset, tuple(Fraction(c) for c in coeffs))


def test_monomial_space_sizes():
    for n in range(0, 5):
        for d in range(0, 6):
            space = monomial_space(n, d)
            if n == 0:
                assert len(space.monomials) == (1 if d == 0 else 0)
            else:
                assert len(space.monomials) == comb(d + n - 1, n - 1)
            assert all(sum(m) == d for m in space.monomials)


def test_generators_for_single_row():
    # lambda = (n): every e_t over every subset; the quotient is the scalars
    gens = tanisaki_generators(pt(3))
    subsets = {s for s, _ in gens}
    assert (0,) in subsets and (0, 1, 2) in subsets
    # each singleton appears with t = 1, killing every variable
    assert ((0,), 1) in gens and ((1,), 1) in gens and ((2,), 1) in gens


def test_generators_for_single_column():
    # lambda = (1^n): only the full-variable generators survive the bounds,
    # giving the coinvariant presentation e_1 .. e_n
    for n in (2, 3, 4):
        gens = tanisaki_generators(pt(*([1] * n)))
        full = tuple(range(n))
        assert gens == [(full, t) for t in range(1, n + 1)]


def test_discriminating_shapes_at_n2():
    # the two n = 2 quotients separate the generator-bound convention:
    # (2) must collapse to the scalars, (1,1) must keep degrees 0 and 1
    assert graded_quotient(pt(2)).dims == (1,)
    assert graded_quotient(pt(1, 1)).dims == (1, 1)


def test_graded_dimensions_small():
    assert graded_dimension(pt(3)) == qp(1)
    assert graded_dimension(pt(2, 1)) == qp(1, 2)
    assert graded_dimension(pt(1, 1, 1)) == qp(1, 2, 2, 1)
    assert graded_dimension(pt()) == qp(1)


def test_graded_dimensions_frozen_n4():
    assert graded_dimension(pt(3, 1)) == qp(1, 3)
    assert graded_dimension(pt(2, 2)) == qp(1, 3, 2)
    assert graded_dimension(pt(2, 1, 1)) == qp(1, 3, 5, 3)
    assert graded_dimension(pt(1, 1, 1, 1)) == qp(1, 3, 5, 6, 5, 3, 1)


def test_coinvariant_gdim_is_q_factorial():
    for n in range(1, 5):
        assert graded_dimension(pt(*([1] * n))) == q_factorial(n)


def test_dimension_at_one_counts_cosets():
    for n in range(1, 5):
        for lam in partitions(n):
            total = graded_dimension(lam).evaluate(Fraction(1))
            expect = factorial(n)
            for part in lam.parts:
                expect //= factorial(part)
            assert total == expect


def test_truncation_at_n_stat():
    for n in range(1, 5):
        for lam in partitions(n):
            gq = graded_quotient(lam)
            assert len(gq.dims) == lam.n_stat() + 1
            assert gq.dims[-1] > 0 or lam.n_stat() == 0


def test_transposition_trace_on_coinvariants_of_s2():
    gq = graded_quotient(pt(1, 1))
    # degree 1 is spanned by x1 - x2; the swap negates it
    assert gq.char_values[1][pt(2)] == Fraction(-1)
    assert gq.char_values[1][pt(1, 1)] == Fraction(1)


def test_character_of_s3_coinvariants():
    gc = graded_character(pt(1, 1, 1))
    assert gc.mult == {
        pt(3): QRat.one(),
        pt(2, 1): QRat.from_poly(qp(1, 1, offset=1)),
        pt(1, 1, 1): QRat.from_poly(qp(1, offset=3)),
    }


def test_character_top_degree_is_sign_like_entry():
    for n in range(1, 5):
        for lam in partitions(n):
            gc = graded_character(lam)
            assert gc.get(lam) == QRat.from_poly(QPoly.monomial(lam.n_stat()))


def test_oracle_report_checks():
    for parts in [(2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        report = oracle_report(pt(*parts))
        assert report["checks"] == {
            "truncation": True, "rsoc": True, "ind_triv": True
        }
        assert QPoly.from_json(report["gdim"]) == graded_dimension(pt(*parts))


def _direct_span(lam, d):
    """RREF of every generator e_t(x_I) times every monomial of degree d - t."""
    n = lam.size
    space = monomial_space(n, d)
    rref = _Rref()
    for subset, t in tanisaki_generators(lam):
        if t > d:
            continue
        for shift in monomial_space(n, d - t).monomials:
            vec = {}
            for chosen in combinations(subset, t):
                mono = list(shift)
                for i in chosen:
                    mono[i] += 1
                col = space.index[tuple(mono)]
                vec[col] = vec.get(col, 0) + 1
            rref.insert(vec)
    return rref


def _row_set(rref):
    return {frozenset(row.items()) for row in rref.rows}


def test_oracle_report_uses_no_symmetric_functions(monkeypatch):
    from symq import symfunc

    want = [oracle_report(lam) for lam in partitions(4)]

    def forbidden(*args):
        raise AssertionError("the oracle reached symfunc")

    monkeypatch.setattr(symfunc, "convert", forbidden)
    monkeypatch.setattr(symfunc, "to_p", forbidden)
    assert [oracle_report(lam) for lam in partitions(4)] == want


def test_lifted_ideal_equals_direct_span():
    # I_d lifted from x_i * I_{d-1} must be the span of all generator
    # multiples; the reduced basis is unique, so the row sets must agree
    for n in range(0, 5):
        for lam in partitions(n):
            for d in range(lam.n_stat() + 2):
                assert _row_set(_ideal_rref(lam, d)) == _row_set(_direct_span(lam, d)), (lam, d)


def test_ideal_rows_are_reduced_at_pivots():
    # _trace_on_ideal reads each row's coefficient at its own pivot, which is
    # only valid if every row is zero at every other row's pivot
    for lam in partitions(5):
        for d in range(lam.n_stat() + 2):
            rref = _ideal_rref(lam, d)
            pivots = set(rref.pivot_cols)
            assert len(pivots) == rref.rank
            for row, col in zip(rref.rows, rref.pivot_cols):
                assert col == min(row) and row[col] > 0, (lam, d)
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                assert g == 1, (lam, d)
                assert pivots & set(row) == {col}, (lam, d)


def test_oracle_matches_symbolic_route():
    for n in range(0, 5):
        cmp = oracle_vs_symbolic(n)
        assert cmp.ok, cmp.mismatches
        assert cmp.checked == sum(1 for lam in partitions(n) for _ in partitions(n))


def test_oracle_matches_symbolic_route_n5():
    cmp = oracle_vs_symbolic(5)
    assert cmp.ok, cmp.mismatches
    assert cmp.checked == 49


@pytest.mark.slow
def test_oracle_matches_symbolic_route_n6():
    cmp = oracle_vs_symbolic(6)
    assert cmp.ok, cmp.mismatches
    assert cmp.checked == 121
