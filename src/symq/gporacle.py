"""Brute-force Garsia-Procesi quotients R_lambda = C[x_1..x_n] / I_lambda.

Everything here is independent of the symmetric-function machinery: the
Tanisaki ideal is spanned degree by degree inside explicit monomial spaces,
each degree lifted from the one below (I_d = sum_i x_i * I_{d-1} plus the
generators of degree d, Macaulay-style), ranks come from fraction-free integer
row reduction, and characters are traces of permutation actions.  The `hl`
module is touched only by the final comparison helper `oracle_vs_symbolic`.

Convention note.  The bound printed as "r >= t >= r - d_r(lambda)" with head
partial sums d_r = lambda'_1 + ... + lambda'_r cannot be right: it makes
R_{(1,1)} one-dimensional, while the module must have dimension
2 = dim Ind_{S_{(1,1)}}^{S_2} triv.  This module uses the Garsia-Procesi
tail-sum convention instead: with lambda' padded by zeros to length n and
d_k = sum of its last k entries, the ideal is generated by e_t(x_i : i in I)
over all subsets I of size k, for max(1, k - d_k + 1) <= t <= k.  The n = 2
discriminating case (dim R_(2) = 1, dim R_(1,1) = 2) is a mandatory unit test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

from .partition import Partition, partitions
from .qcoeff import QPoly, QRat
from .sncharacter import GradedCharacter, char_table, decompose, induce_product, irreducible

__all__ = [
    "MonomialSpace",
    "GradedQuotient",
    "tanisaki_generators",
    "graded_dimension",
    "graded_quotient",
    "graded_character",
    "oracle_report",
    "oracle_vs_symbolic",
    "OracleComparison",
]


@dataclass(frozen=True)
class MonomialSpace:
    """All exponent vectors of total degree d in n variables, lex ordered."""

    n: int
    degree: int
    monomials: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n > 0:
            assert len(self.monomials) == comb(self.degree + self.n - 1, self.n - 1)

    @functools.cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {m: i for i, m in enumerate(self.monomials)}


@functools.lru_cache(maxsize=None)
def monomial_space(n: int, d: int) -> MonomialSpace:
    def gen(vars_left: int, total: int):
        if vars_left == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(vars_left - 1, total - first):
                yield (first,) + rest

    if n == 0:
        return MonomialSpace(0, d, ((),) if d == 0 else ())
    return MonomialSpace(n, d, tuple(sorted(gen(n, d))))


def _tail_sums(lam: Partition) -> list[int]:
    """d_k = sum of the last k entries of lambda' padded to length n; d_0 = 0."""
    n = lam.size
    conj = list(lam.conjugate().parts) + [0] * (n - lam.conjugate().length)
    out = [0]
    for k in range(1, n + 1):
        out.append(out[-1] + conj[n - k])
    return out


def tanisaki_generators(lam: Partition) -> list[tuple[tuple[int, ...], int]]:
    """All (I, t) with e_t(x_i : i in I) a generator of the Tanisaki ideal.

    Subsets I are 0-indexed variable tuples.
    """
    n = lam.size
    d = _tail_sums(lam)
    out = []
    for k in range(1, n + 1):
        lo = max(1, k - d[k] + 1)
        if lo > k:
            continue
        for subset in combinations(range(n), k):
            for t in range(lo, k + 1):
                out.append((subset, t))
    return out


def _generator_monomials(subset: tuple[int, ...], t: int, n: int) -> list[tuple[int, ...]]:
    """e_t over the given variables, as a list of 0/1 exponent vectors."""
    out = []
    for chosen in combinations(subset, t):
        expt = [0] * n
        for i in chosen:
            expt[i] = 1
        out.append(tuple(expt))
    return out


class _Rref:
    """Row-reduced integer basis of a subspace, built incrementally.

    Rows are primitive integer vectors (sparse dicts), each with a positive
    entry at its pivot column (the first nonzero one) and zeros at every other
    row's pivot column.  Pivoting is deterministic: first nonzero column, then
    insertion order.
    """

    def __init__(self) -> None:
        self.rows: list[dict[int, int]] = []
        self.pivot_cols: list[int] = []
        self.by_col: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _primitive(vec: dict[int, int]) -> dict[int, int]:
        g = 0
        for v in vec.values():
            g = gcd(g, abs(v))
        lead = vec[min(vec)]
        if lead < 0:
            g = -g
        return {c: v // g for c, v in vec.items()}

    def insert(self, vec: dict[int, int]) -> bool:
        """Reduce vec against the basis; add it if independent."""
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            col = min(vec)
            owner = self.by_col.get(col)
            if owner is None:
                break
            row = self.rows[owner]
            a, b = row[col], vec[col]
            new = {}
            for c in set(vec) | set(row):
                v = a * vec.get(c, 0) - b * row.get(c, 0)
                if v:
                    new[c] = v
            vec = new
        if not vec:
            return False
        # clear the remaining entries at existing pivot columns; the trace
        # read-off at pivots needs rows that are mutually reduced, not just
        # echelon
        for pcol, owner in self.by_col.items():
            b = vec.get(pcol, 0)
            if not b:
                continue
            row = self.rows[owner]
            a = row[pcol]
            new = {}
            for c in set(vec) | set(row):
                v = a * vec.get(c, 0) - b * row.get(c, 0)
                if v:
                    new[c] = v
            vec = new
        vec = self._primitive(vec)
        col = min(vec)
        # back-reduce existing rows at the new pivot column
        for ridx, row in enumerate(self.rows):
            b = row.get(col, 0)
            if b:
                a = vec[col]
                merged = {}
                for c in set(row) | set(vec):
                    v = a * row.get(c, 0) - b * vec.get(c, 0)
                    if v:
                        merged[c] = v
                self.rows[ridx] = self._primitive(merged)
        self.by_col[col] = len(self.rows)
        self.rows.append(vec)
        self.pivot_cols.append(col)
        return True


@functools.lru_cache(maxsize=None)
def _ideal_rref(lam: Partition, d: int) -> _Rref:
    """Reduced echelon basis of I_d, the degree-d piece of the Tanisaki ideal.

    The generators are homogeneous, so I_d = sum_i x_i * I_{d-1} plus the span
    of the generators of degree exactly d.  The basis is lifted from the
    cached one of degree d - 1: each of its rows shifted by each variable is
    offered, then each degree-d generator.  Lifted rows are about as sparse
    as the final basis, so reducing them creates little fill-in.
    """
    n = lam.size
    space = monomial_space(n, d)
    offered: list[dict[int, int]] = []
    if d > 0:
        shifted = [
            [space.index[m[:i] + (m[i] + 1,) + m[i + 1:]] for i in range(n)]
            for m in monomial_space(n, d - 1).monomials
        ]
        for row in _ideal_rref(lam, d - 1).rows:
            for i in range(n):
                offered.append({shifted[c][i]: v for c, v in row.items()})
    for subset, t in tanisaki_generators(lam):
        if t == d:
            offered.append({space.index[m]: 1 for m in _generator_monomials(subset, t, n)})
    rref = _Rref()
    for vec in offered:
        rref.insert(vec)
    return rref


def _cycle_rep(nu: Partition) -> tuple[int, ...]:
    """A permutation of cycle type nu: sigma[i] is the image of position i."""
    sigma = list(range(nu.size))
    start = 0
    for part in nu.parts:
        for i in range(part):
            sigma[start + i] = start + (i + 1) % part
        start += part
    return tuple(sigma)


@functools.lru_cache(maxsize=None)
def _monomial_permutation(n: int, d: int, nu: Partition) -> tuple[tuple[int, ...], int]:
    """Index map of the action x_i -> x_{sigma(i)} on degree-d monomials.

    Returns (index map, fixed-point count).
    """
    space = monomial_space(n, d)
    sigma = _cycle_rep(nu)
    mapping = []
    fixed = 0
    for mono in space.monomials:
        image = [0] * n
        for i, e in enumerate(mono):
            image[sigma[i]] = e
        image_t = tuple(image)
        mapping.append(space.index[image_t])
        if image_t == mono:
            fixed += 1
    return tuple(mapping), fixed


def _trace_on_ideal(rref: _Rref, inverse_map: tuple[int, ...]) -> Fraction:
    """Trace of the permutation on the ideal's degree piece.

    The image of basis row r is expressed in the echelon basis; only the
    coefficient on row r itself contributes.  sigma(row)[c] = row[sigma^{-1}c].
    """
    total = Fraction(0)
    for ridx, row in enumerate(rref.rows):
        col = rref.pivot_cols[ridx]
        pre = inverse_map[col]
        total += Fraction(row.get(pre, 0), row[col])
    return total


@dataclass(frozen=True)
class GradedQuotient:
    lam: Partition
    dims: tuple[int, ...]
    char_values: tuple[dict[Partition, Fraction], ...]

    def gdim(self) -> QPoly:
        return QPoly(0, tuple(Fraction(d) for d in self.dims))


@functools.lru_cache(maxsize=None)
def graded_quotient(lam: Partition) -> GradedQuotient:
    """Dimensions and per-degree trace profiles of R_lambda, degree by degree."""
    n = lam.size
    top = lam.n_stat()
    classes = partitions(n)
    dims = []
    profiles = []
    for d in range(top + 2):
        space = monomial_space(n, d)
        rref = _ideal_rref(lam, d)
        dim = len(space.monomials) - rref.rank
        if d == top + 1:
            if dim != 0:
                raise AssertionError(
                    f"quotient for {lam} fails to vanish at degree {d}: dim {dim}"
                )
            break
        dims.append(dim)
        profile: dict[Partition, Fraction] = {}
        for nu in classes:
            fwd, fixed = _monomial_permutation(n, d, nu)
            size = len(fwd)
            inverse = [0] * size
            for i, img in enumerate(fwd):
                inverse[img] = i
            trace = Fraction(fixed) - _trace_on_ideal(rref, tuple(inverse))
            if trace.denominator != 1:
                raise AssertionError(f"non-integer trace for {lam}, class {nu}, degree {d}")
            profile[nu] = trace
        profiles.append(profile)
    return GradedQuotient(lam, tuple(dims), tuple(profiles))


def graded_dimension(lam: Partition) -> QPoly:
    return graded_quotient(lam).gdim()


def graded_character(lam: Partition) -> GradedCharacter:
    """Decompose each degree's trace profile into irreducible multiplicities."""
    gq = graded_quotient(lam)
    n = lam.size
    table = char_table(n)
    mult: dict[Partition, QPoly] = {}
    for d, profile in enumerate(gq.char_values):
        for mu in table.labels:
            acc = Fraction(0)
            row = table.values[table.index(mu)]
            for j, nu in enumerate(table.labels):
                tr = profile.get(nu, Fraction(0))
                if tr and row[j]:
                    acc += tr * row[j] / nu.z_stat()
            if acc:
                if acc.denominator != 1 or acc < 0:
                    raise AssertionError(
                        f"bad multiplicity {acc} of {mu} at degree {d} for {lam}"
                    )
                mult[mu] = mult.get(mu, QPoly.zero()) + QPoly.monomial(d, acc)
    return GradedCharacter(n, {mu: QRat.from_poly(p) for mu, p in mult.items()})


# -- inline checks and the symbolic comparison -----------------------------------


def _induced_trivial_multiplicities(lam: Partition) -> dict[Partition, int]:
    """Decomposition of Ind_{S_lambda}^{S_n} triv, inducing one trivial factor per part."""
    ind = irreducible(Partition())
    for part in lam.parts:
        ind = induce_product(ind, irreducible(Partition((part,))))
    return {mu: int(c.as_poly().evaluate(0)) for mu, c in decompose(ind).mult.items()}


def oracle_report(lam: Partition) -> dict:
    """JSON-ready report with the three inline checks."""
    gq = graded_quotient(lam)
    gc = graded_character(lam)
    n = lam.size
    top = lam.n_stat()
    truncation = len(gq.dims) == top + 1 and gq.dims[top] > 0 if top > 0 else len(gq.dims) == 1
    rsoc = gc.get(lam) == QRat.from_poly(QPoly.monomial(top))
    ind = _induced_trivial_multiplicities(lam)
    at_one = {
        mu: int(c.as_poly().evaluate(1)) for mu, c in gc.mult.items() if not c.is_zero()
    }
    ind_triv = at_one == {mu: m for mu, m in ind.items() if m}
    total = sum(gq.dims)
    expected_total = factorial(n)
    for p in lam.parts:
        expected_total //= factorial(p)
    return {
        "lambda": lam.to_json(),
        "gdim": gq.gdim().to_json(),
        "character": gc.to_json(),
        "checks": {
            "truncation": bool(truncation),
            "rsoc": bool(rsoc),
            "ind_triv": bool(ind_triv and total == expected_total),
        },
    }


@dataclass(frozen=True)
class OracleComparison:
    n: int
    checked: int
    mismatches: tuple[tuple[Partition, Partition, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def oracle_vs_symbolic(n: int) -> OracleComparison:
    """Entrywise comparison of the oracle against the symbolic route."""
    from .hl import char_gp

    mismatches = []
    checked = 0
    for lam in partitions(n):
        oracle = graded_character(lam)
        symbolic = char_gp(lam)
        for mu in partitions(n):
            checked += 1
            a, b = oracle.get(mu), symbolic.get(mu)
            if a != b:
                mismatches.append((lam, mu, str(a), str(b)))
    return OracleComparison(n, checked, tuple(mismatches))
