"""Hall-Littlewood bases and graded Kostka multiplicities.

P_lambda is computed from the symmetrization formula in exactly n = |lambda|
variables:

    P_lambda = (1 / v_lambda(q)) * sum over w in S_n of
               w( x^lambda * prod_{i<j} (x_i - q x_j) ) / prod_{i<j} (x_i - x_j)

where v_lambda(q) = prod_{i >= 0} [m_i(lambda)]_q! and m_0 = n - length.
Rather than dividing by the Vandermonde determinant symbolically, each
monomial x^gamma of the numerator with distinct exponents contributes the
Schur function s_{sort(gamma) - delta} with the sign of the sorting
permutation (the alternant ratio a_{beta+delta}/a_delta = s_beta); monomials
with repeated exponents antisymmetrize to zero.  The result is exact and lands
directly in the Schur basis.

Q_lambda = b_lambda(q) P_lambda, and the big Schur S_lambda is the plethysm
s_lambda[(1-q)X].  S_mu is Hall-dual to s_mu, so the S-coordinates of any f
are the Schur coordinates of f[X/(1-q)]: on power sums, p_rho is divided by
prod_i (1 - q^{rho_i}).

The graded Kostka table T with Q_lambda = sum_mu T(lambda, mu) S_mu is
computed twice.  Route one (`kostka_triangular`) reads T off the modified
Hall-Littlewood function Q'_lambda = Q_lambda[X/(1-q)] = sum_mu K_{mu
lambda}(q) s_mu and never builds a big Schur function.  Route two
(`kostka_orthogonality`) is the Lusztig-Shoji orthogonalization of the
big-Schur Gram matrix against the targets <Q_lambda, Q_mu> = delta b_lambda.
Route agreement is an acceptance check, not an assumption.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .partition import Partition, dominance_leq, partitions
from .qcoeff import QPoly, QRat, q_factorial
from .sncharacter import GradedCharacter
from .symfunc import (
    SymFunc,
    convert,
    coproduct,
    hall_inner,
    plethysm_one_minus_q,
    product,
    to_p,
    unit,
    _hall_weight,
    _one_minus_q_factor,
)

__all__ = [
    "KostkaTable",
    "InternalInconsistencyError",
    "hl_p",
    "hl_q",
    "big_schur",
    "kostka_triangular",
    "kostka_orthogonality",
    "psi",
    "psi_inverse",
    "char_kostka",
    "char_gp",
    "skew_q",
    "pieri_e1",
    "expand_in_big_schur",
    "expand_in_hl_p",
    "expand_in_hl_q",
    "to_hl_basis",
]


class InternalInconsistencyError(RuntimeError):
    """A mathematically guaranteed step failed; indicates a bug, not bad input."""


# -- the P / Q / S bases -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _q_vandermonde(n: int) -> dict[tuple[int, ...], QPoly]:
    """Expansion of prod_{i<j} (x_i - q x_j) as exponent vector -> coefficient."""
    acc: dict[tuple[int, ...], QPoly] = {(0,) * n: QPoly.one()}
    for i in range(n):
        for j in range(i + 1, n):
            nxt: dict[tuple[int, ...], QPoly] = {}
            for expt, c in acc.items():
                up = list(expt)
                up[i] += 1
                key = tuple(up)
                prev = nxt.get(key)
                nxt[key] = c if prev is None else prev + c
                up = list(expt)
                up[j] += 1
                key = tuple(up)
                term = -c.shift(1)
                prev = nxt.get(key)
                nxt[key] = term if prev is None else prev + term
            acc = {k: v for k, v in nxt.items() if not v.is_zero()}
    return acc


def _sort_sign(values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting distinct values into decreasing order."""
    inversions = 0
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] < vals[j]:
                inversions += 1
    return (-1) ** inversions, tuple(sorted(vals, reverse=True))


def _v_poly(lam: Partition, n: int) -> QPoly:
    out = q_factorial(n - lam.length)
    for m in lam.multiplicities().values():
        out = out * q_factorial(m)
    return out


@functools.lru_cache(maxsize=None)
def hl_p(lam: Partition) -> SymFunc:
    """The Hall-Littlewood P-function, expanded in the Schur basis.

    Unitriangular: s_lambda plus dominance-lower Schur terms.
    """
    n = lam.size
    if n == 0:
        return SymFunc("s", {Partition(): QRat.one()})
    pad = lam.parts + (0,) * (n - lam.length)
    delta = tuple(range(n - 1, -1, -1))
    buckets: dict[Partition, QPoly] = {}
    for expt, c in _q_vandermonde(n).items():
        gamma = tuple(e + p for e, p in zip(expt, pad))
        if len(set(gamma)) < n:
            continue
        sign, sorted_desc = _sort_sign(gamma)
        beta = tuple(s - d for s, d in zip(sorted_desc, delta))
        key = Partition(tuple(p for p in beta if p > 0))
        term = c if sign > 0 else -c
        prev = buckets.get(key)
        buckets[key] = term if prev is None else prev + term
    v = _v_poly(lam, n)
    terms = {}
    for mu, b in buckets.items():
        if b.is_zero():
            continue
        terms[mu] = QRat.from_poly(b.div_exact(v))
    return SymFunc("s", terms)


@functools.lru_cache(maxsize=None)
def hl_q(lam: Partition) -> SymFunc:
    """Q_lambda = b_lambda(q) * P_lambda, in the Schur basis."""
    return hl_p(lam).scale(QRat.from_poly(lam.b_poly()))


@functools.lru_cache(maxsize=None)
def big_schur(lam: Partition) -> SymFunc:
    """S_lambda = s_lambda[(1-q)X], dual to the Schur basis under the Hall pairing."""
    return plethysm_one_minus_q(unit("s", lam))


# -- expansions in the HL bases ------------------------------------------------


def expand_in_big_schur(f: SymFunc) -> dict[Partition, QRat]:
    """Coefficients c with f = sum c_mu S_mu: the Schur coordinates of f[X/(1-q)]."""
    fp = to_p(f)
    inverse = {rho: c / _one_minus_q_factor(rho) for rho, c in fp.terms.items()}
    return convert(SymFunc("p", inverse), "s").terms


def expand_in_hl_p(f: SymFunc) -> dict[Partition, QRat]:
    """Coefficients c with f = sum c_mu P_mu, by the unitriangular descent.

    P_mu = s_mu + dominance-lower terms, so scanning partitions from (n) down
    the canonical order reads each coefficient off the Schur residual.
    """
    out: dict[Partition, QRat] = {}
    for n in f.degrees():
        residual = dict(
            (convert(f.homogeneous_part(n), "s") if f.basis != "s"
             else f.homogeneous_part(n)).terms
        )
        for mu in partitions(n):
            c = residual.get(mu)
            if c is None or c.is_zero():
                continue
            out[mu] = c
            for nu, a in hl_p(mu).terms.items():
                r = residual.get(nu, QRat.zero()) - c * a
                if r.is_zero():
                    residual.pop(nu, None)
                else:
                    residual[nu] = r
        if any(not v.is_zero() for v in residual.values()):
            raise InternalInconsistencyError(f"P-expansion residual nonzero at degree {n}")
    return out


def expand_in_hl_q(f: SymFunc) -> dict[Partition, QRat]:
    return {
        mu: c / QRat.from_poly(mu.b_poly()) for mu, c in expand_in_hl_p(f).items()
    }


def to_hl_basis(f: SymFunc, target: str) -> SymFunc:
    """Re-express f in one of the tagged bases P, Q, S."""
    if target == "P":
        return SymFunc("P", expand_in_hl_p(f))
    if target == "Q":
        return SymFunc("Q", expand_in_hl_q(f))
    if target == "S":
        return SymFunc("S", expand_in_big_schur(f))
    raise ValueError(f"not a Hall-Littlewood basis: {target!r}")


def hl_to_native(f: SymFunc, target: str = "s") -> SymFunc:
    """Expand a P/Q/S-tagged element into a native basis."""
    lookup = {"P": hl_p, "Q": hl_q, "S": big_schur}
    if f.basis not in lookup:
        return convert(f, target)
    make = lookup[f.basis]
    acc = SymFunc("s", {})
    for lam, c in f.terms.items():
        acc = acc + make(lam).scale(c)
    return acc if target == "s" else convert(acc, target)


# -- graded Kostka multiplicities -----------------------------------------------


@dataclass(frozen=True)
class KostkaTable:
    """The matrix T with Q_lambda = sum_mu T(lambda, mu) S_mu, lambda, mu |- n."""

    n: int
    labels: tuple[Partition, ...]
    entries: dict[tuple[Partition, Partition], QPoly]

    def __post_init__(self) -> None:
        clean = {k: v for k, v in self.entries.items() if not v.is_zero()}
        object.__setattr__(self, "entries", clean)

    def get(self, lam: Partition, mu: Partition) -> QPoly:
        return self.entries.get((lam, mu), QPoly.zero())

    def row(self, lam: Partition) -> dict[Partition, QPoly]:
        return {mu: v for (l, mu), v in self.entries.items() if l == lam}

    def validate_triangular(self) -> list[str]:
        """Dominance triangularity and unit diagonal; returns violation messages."""
        problems = []
        for lam in self.labels:
            if not self.get(lam, lam).is_one():
                problems.append(f"diagonal entry at {lam} is {self.get(lam, lam)}")
        for (lam, mu), v in self.entries.items():
            if not dominance_leq(lam, mu) and not v.is_zero():
                problems.append(f"nonzero entry at non-dominated pair ({lam}),({mu})")
        return problems

    def to_json(self) -> dict:
        rows = []
        for lam in self.labels:
            row = self.row(lam)
            rows.append(
                {
                    "lambda": lam.to_json(),
                    "entries": [
                        {"mu": mu.to_json(), "coeff": row[mu].to_json()}
                        for mu in sorted(row, key=lambda p: p.sort_key())
                    ],
                }
            )
        return {"n": self.n, "rows": rows}

    @staticmethod
    def from_json(obj: dict) -> "KostkaTable":
        n = int(obj["n"])
        entries = {}
        for row in obj["rows"]:
            lam = Partition.from_json(row["lambda"])
            for e in row["entries"]:
                entries[(lam, Partition.from_json(e["mu"]))] = QPoly.from_json(e["coeff"])
        return KostkaTable(n, partitions(n), entries)


def _entry_poly(lam: Partition, mu: Partition, c: QRat) -> QPoly:
    try:
        return c.as_poly()
    except ValueError as exc:
        raise InternalInconsistencyError(
            f"Kostka entry ({lam}),({mu}) is not polynomial: {c}"
        ) from exc


@functools.lru_cache(maxsize=None)
def kostka_triangular(n: int) -> KostkaTable:
    """Route one: the modified Hall-Littlewood expansion.

    Q'_lambda = Q_lambda[X/(1-q)] = sum_mu K_{mu lambda}(q) s_mu, so row lambda
    is the Schur expansion of hl_q(lambda) after the inverse plethysm of
    `expand_in_big_schur`; no big Schur function is built.
    """
    labels = partitions(n)
    entries: dict[tuple[Partition, Partition], QPoly] = {}
    for lam in labels:
        for mu, c in expand_in_big_schur(hl_q(lam)).items():
            entries[(lam, mu)] = _entry_poly(lam, mu, c)
    return KostkaTable(n, labels, entries)


@functools.lru_cache(maxsize=None)
def kostka_orthogonality(n: int) -> KostkaTable:
    """Route two: Lusztig-Shoji orthogonalization.

    Find the unitriangular C (along the canonical order, refining dominance)
    with C G C^T diagonal, where G is the big-Schur Gram matrix of the Hall
    pairing; theory forces the diagonal to be b_lambda, which the verification
    suites check against route one.
    """
    labels = partitions(n)
    size = len(labels)
    schurs = [big_schur(lam) for lam in labels]
    gram = [[QRat.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = hall_inner(schurs[i], schurs[j])
    rows: list[dict[int, QRat]] = []
    norms: list[QRat] = []
    for i in range(size):
        row: dict[int, QRat] = {i: QRat.one()}
        for k in range(i):
            if norms[k].is_zero():
                raise InternalInconsistencyError(
                    f"zero Gram norm at {labels[k]}; no unitriangular solution"
                )
            # <e_i, c_k> against the already-orthogonal row k
            pair = QRat.zero()
            for b, cb in rows[k].items():
                if not gram[i][b].is_zero():
                    pair = pair + cb * gram[i][b]
            if pair.is_zero():
                continue
            x = pair / norms[k]
            for b, cb in rows[k].items():
                r = row.get(b, QRat.zero()) - x * cb
                if r.is_zero():
                    row.pop(b, None)
                else:
                    row[b] = r
        norm = QRat.zero()
        for a, ca in row.items():
            if not gram[a][i].is_zero():
                norm = norm + ca * gram[a][i]
        rows.append(row)
        norms.append(norm)
    entries: dict[tuple[Partition, Partition], QPoly] = {}
    for i, row in enumerate(rows):
        for a, c in row.items():
            entries[(labels[i], labels[a])] = _entry_poly(labels[i], labels[a], c)
    return KostkaTable(n, labels, entries)


# -- twisted Frobenius characteristic and the graded characters ------------------


def psi(gc: GradedCharacter) -> SymFunc:
    """Sum over mu of gc.mult(mu) * S_mu, returned in the Schur basis."""
    acc = SymFunc("s", {})
    for mu, c in gc.mult.items():
        acc = acc + big_schur(mu).scale(c)
    return acc


def psi_inverse(f: SymFunc) -> GradedCharacter:
    """The unique graded character gc with psi(gc) = f (f homogeneous)."""
    deg = f.degree
    if deg is None:
        raise ValueError("psi_inverse needs a nonzero homogeneous input")
    return GradedCharacter(deg, expand_in_big_schur(f))


def char_kostka(lam: Partition) -> GradedCharacter:
    """Graded multiplicities [K_lambda : L_mu]_q: the lambda-row of the table."""
    table = kostka_triangular(lam.size)
    return GradedCharacter(
        lam.size,
        {mu: QRat.from_poly(c) for mu, c in table.row(lam).items()},
    )


def char_gp(lam: Partition) -> GradedCharacter:
    """Graded character of the Garsia-Procesi quotient: q^{n(lam)} bar of char_kostka."""
    shift = lam.n_stat()
    table = kostka_triangular(lam.size)
    return GradedCharacter(
        lam.size,
        {
            mu: QRat.from_poly(c.bar().shift(shift))
            for mu, c in table.row(lam).items()
        },
    )


# -- skew functions and the Pieri law --------------------------------------------


def skew_q(lam: Partition, nu: Partition) -> SymFunc:
    """Q_{lam/nu}: one coproduct leg of Q_lam paired against P_nu.

    The coproduct is cocommutative, so the leg choice is immaterial; zero when
    nu is not contained in lam.
    """
    if nu.size > lam.size:
        raise ValueError(f"|nu| = {nu.size} exceeds |lambda| = {lam.size}")
    cop = coproduct(to_p(hl_q(lam)))
    pv = to_p(hl_p(nu)).terms
    terms: dict[Partition, QRat] = {}
    for (a, b), c in cop.terms.items():
        w = pv.get(b)
        if w is None:
            continue
        val = c * w * _hall_weight(b)
        if not val.is_zero():
            terms[a] = terms.get(a, QRat.zero()) + val
    return convert(SymFunc("p", terms), "s")


def pieri_e1(lam: Partition) -> dict[Partition, QPoly]:
    """P-basis coefficients of e_1 * P_lambda.

    Each coefficient lands on an add_box(lam) shape and equals q^a [m]_q where
    m is the multiplicity of the grown part in the target shape; the observed
    exponent is a = 0 (tested, not assumed).
    """
    prod = product(hl_p(lam), unit("e", Partition((1,))))
    out = {}
    for mu, c in expand_in_hl_p(prod).items():
        out[mu] = _entry_poly(lam, mu, c)
    return out
