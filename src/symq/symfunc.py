"""The ring of symmetric functions over Q(q) in its classical bases.

Elements are finite sums of basis terms indexed by partitions, with
rational-function coefficients.  Native bases are m, e, h, s, p; the
Hall-Littlewood bases P, Q, S are produced and consumed by the `hl` module
and only pass through here as opaque tags.

All conversions route through the power sums: e and h come from the Newton
recurrences, s from the character tables, and m by classical duality
(the m-coefficient of f is the q = 0 pairing <f, h_mu>).  Transition data is
cached per degree as exact Fraction matrices.

The q-deformed Hall pairing is diagonal on power sums:
<p_lam, p_mu> = delta * z_lam / prod_i (1 - q^{lam_i}).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import invert_matrix
from .partition import Partition, partitions
from .qcoeff import QPoly, QRat
from .sncharacter import char_table

__all__ = [
    "SymFunc",
    "TensorSymFunc",
    "NATIVE_BASES",
    "HL_BASES",
    "unit",
    "convert",
    "product",
    "coproduct",
    "antipode",
    "hall_inner",
    "plethysm_one_minus_q",
    "tensor_product",
]

NATIVE_BASES = ("m", "e", "h", "s", "p")
HL_BASES = ("P", "Q", "S")


def _as_qrat(c) -> QRat:
    if isinstance(c, QRat):
        return c
    if isinstance(c, QPoly):
        return QRat.from_poly(c)
    if isinstance(c, (int, Fraction)):
        return QRat.from_fraction(c)
    raise TypeError(f"not a coefficient: {c!r}")


@dataclass(frozen=True)
class SymFunc:
    """A symmetric function expanded in a single named basis."""

    basis: str
    terms: dict[Partition, QRat] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in NATIVE_BASES + HL_BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        clean = {}
        for lam, c in self.terms.items():
            if not isinstance(lam, Partition):
                lam = Partition(tuple(lam))
            c = _as_qrat(c)
            if not c.is_zero():
                clean[lam] = c
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Homogeneous degree, or None for zero / mixed elements."""
        sizes = {lam.size for lam in self.terms}
        return sizes.pop() if len(sizes) == 1 else None

    def degrees(self) -> list[int]:
        return sorted({lam.size for lam in self.terms})

    def homogeneous_part(self, n: int) -> "SymFunc":
        return SymFunc(self.basis, {l: c for l, c in self.terms.items() if l.size == n})

    def coeff(self, lam: Partition) -> QRat:
        return self.terms.get(lam, QRat.zero())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            terms[lam] = terms.get(lam, QRat.zero()) + c
        return SymFunc(self.basis, terms)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, SymFunc):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "SymFunc":
        c = _as_qrat(c)
        return SymFunc(self.basis, {l: v * c for l, v in self.terms.items()})

    # -- serialization ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Partition, QRat]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": lam.to_json(), "coeff": c.to_json()}
                for lam, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "SymFunc":
        return SymFunc(
            obj["basis"],
            {
                Partition.from_json(t["partition"]): QRat.from_json(t["coeff"])
                for t in obj["terms"]
            },
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_terms():
            bits.append(f"({c})*{self.basis}[{lam}]")
        return " + ".join(bits)


def unit(basis: str, lam: Partition) -> SymFunc:
    """The single basis element."""
    return SymFunc(basis, {lam: QRat.one()})


def one(basis: str = "p") -> SymFunc:
    return SymFunc(basis, {Partition(): QRat.one()})


# -- power-sum expansions of the multiplicative bases -------------------------


@functools.lru_cache(maxsize=None)
def _hn_to_p(n: int) -> dict[Partition, Fraction]:
    """h_n in power sums, via n h_n = sum_{i=1}^{n} h_{n-i} p_i."""
    if n == 0:
        return {Partition(): Fraction(1)}
    out: dict[Partition, Fraction] = {}
    for i in range(1, n + 1):
        for lam, c in _hn_to_p(n - i).items():
            key = Partition(tuple(sorted(lam.parts + (i,), reverse=True)))
            out[key] = out.get(key, Fraction(0)) + Fraction(c, n)
    return out


@functools.lru_cache(maxsize=None)
def _en_to_p(n: int) -> dict[Partition, Fraction]:
    """e_n in power sums, via n e_n = sum_{i=1}^{n} (-1)^{i-1} e_{n-i} p_i."""
    if n == 0:
        return {Partition(): Fraction(1)}
    out: dict[Partition, Fraction] = {}
    for i in range(1, n + 1):
        sign = 1 if i % 2 else -1
        for lam, c in _en_to_p(n - i).items():
            key = Partition(tuple(sorted(lam.parts + (i,), reverse=True)))
            out[key] = out.get(key, Fraction(0)) + Fraction(sign * c, n)
    return out


def _merge_expansion(a: dict[Partition, Fraction], b: dict[Partition, Fraction]) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for lam, c in a.items():
        for mu, d in b.items():
            key = Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))
            out[key] = out.get(key, Fraction(0)) + c * d
    return out


@functools.lru_cache(maxsize=None)
def _h_lambda_to_p(lam: Partition) -> dict[Partition, Fraction]:
    out = {Partition(): Fraction(1)}
    for part in lam.parts:
        out = _merge_expansion(out, _hn_to_p(part))
    return out


@functools.lru_cache(maxsize=None)
def _e_lambda_to_p(lam: Partition) -> dict[Partition, Fraction]:
    out = {Partition(): Fraction(1)}
    for part in lam.parts:
        out = _merge_expansion(out, _en_to_p(part))
    return out


@dataclass(frozen=True)
class _DegreeTables:
    """Cached exact transition data for one homogeneous degree."""

    n: int
    labels: tuple[Partition, ...]
    index: dict[Partition, int]
    h_matrix: list[list[Fraction]]      # row k: p-coords of h_{labels[k]}
    e_matrix: list[list[Fraction]]
    hT_inv: list[list[Fraction]]        # inverse of h_matrix transpose
    eT_inv: list[list[Fraction]]
    p_to_m: list[list[Fraction]]        # maps p-coords to m-coords
    m_to_p: list[list[Fraction]]


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> _DegreeTables:
    labels = partitions(n)
    index = {lam: i for i, lam in enumerate(labels)}
    size = len(labels)

    def expansion_matrix(expand) -> list[list[Fraction]]:
        rows = []
        for lam in labels:
            row = [Fraction(0)] * size
            for mu, c in expand(lam).items():
                row[index[mu]] = c
            rows.append(row)
        return rows

    h_matrix = expansion_matrix(_h_lambda_to_p)
    e_matrix = expansion_matrix(_e_lambda_to_p)
    transpose = lambda m: [list(col) for col in zip(*m)]
    hT_inv = invert_matrix(transpose(h_matrix), Fraction(1))
    eT_inv = invert_matrix(transpose(e_matrix), Fraction(1))
    # m-coefficient of p_nu at m_mu is the q = 0 pairing <p_nu, h_mu> = z_nu H[mu][nu].
    p_to_m = [
        [labels[v].z_stat() * h_matrix[u][v] for v in range(size)] for u in range(size)
    ]
    m_to_p = invert_matrix(p_to_m, Fraction(1))
    return _DegreeTables(n, labels, index, h_matrix, e_matrix, hT_inv, eT_inv, p_to_m, m_to_p)


def _apply(matrix: list[list[Fraction]], vec: list[QRat]) -> list[QRat]:
    out = []
    for row in matrix:
        acc = QRat.zero()
        for a, v in zip(row, vec):
            if a and not v.is_zero():
                acc = acc + v * a
        out.append(acc)
    return out


def _coords(f: SymFunc, n: int) -> list[QRat]:
    t = _tables(n)
    vec = [QRat.zero()] * len(t.labels)
    for lam, c in f.terms.items():
        if lam.size == n:
            vec[t.index[lam]] = c
    return vec


def _from_coords(basis: str, n: int, vec: list[QRat]) -> SymFunc:
    t = _tables(n)
    return SymFunc(basis, {t.labels[i]: c for i, c in enumerate(vec) if not c.is_zero()})


def _to_p_homogeneous(f: SymFunc, n: int) -> list[QRat]:
    """p-coordinates of the degree-n part of f."""
    t = _tables(n)
    vec = _coords(f, n)
    if f.basis == "p":
        return vec
    if f.basis == "s":
        table = char_table(n)
        out = [QRat.zero()] * len(t.labels)
        for lam, c in f.terms.items():
            if lam.size != n or c.is_zero():
                continue
            row = table.values[table.index(lam)]
            for j, mu in enumerate(t.labels):
                if row[j]:
                    out[j] = out[j] + c * Fraction(row[j], mu.z_stat())
        return out
    if f.basis == "h":
        out = [QRat.zero()] * len(t.labels)
        for lam, c in f.terms.items():
            if lam.size != n:
                continue
            for mu, a in _h_lambda_to_p(lam).items():
                j = t.index[mu]
                out[j] = out[j] + c * a
        return out
    if f.basis == "e":
        out = [QRat.zero()] * len(t.labels)
        for lam, c in f.terms.items():
            if lam.size != n:
                continue
            for mu, a in _e_lambda_to_p(lam).items():
                j = t.index[mu]
                out[j] = out[j] + c * a
        return out
    if f.basis == "m":
        return _apply(t.m_to_p, vec)
    raise ValueError(f"unsupported basis pair: {f.basis!r} is handled by the hl module")


def _from_p_homogeneous(vec: list[QRat], n: int, target: str) -> SymFunc:
    t = _tables(n)
    if target == "p":
        return _from_coords("p", n, vec)
    if target == "s":
        table = char_table(n)
        out = [QRat.zero()] * len(t.labels)
        for i, lam in enumerate(t.labels):
            row = table.values[table.index(lam)]
            acc = QRat.zero()
            for j, v in enumerate(vec):
                if row[j] and not v.is_zero():
                    acc = acc + v * row[j]
            out[i] = acc
        return _from_coords("s", n, out)
    if target == "h":
        return _from_coords("h", n, _apply(t.hT_inv, vec))
    if target == "e":
        return _from_coords("e", n, _apply(t.eT_inv, vec))
    if target == "m":
        return _from_coords("m", n, _apply(t.p_to_m, vec))
    raise ValueError(f"unsupported basis pair: {target!r} is handled by the hl module")


def to_p(f: SymFunc) -> SymFunc:
    """Expand f in power sums (any native source basis, any mix of degrees)."""
    terms: dict[Partition, QRat] = {}
    for n in f.degrees():
        t = _tables(n)
        for i, c in enumerate(_to_p_homogeneous(f, n)):
            if not c.is_zero():
                terms[t.labels[i]] = c
    return SymFunc("p", terms)


def convert(f: SymFunc, target: str) -> SymFunc:
    """Change of basis among m, e, h, s, p."""
    if target not in NATIVE_BASES or f.basis not in NATIVE_BASES:
        raise ValueError(f"unsupported basis pair: {f.basis!r} -> {target!r} "
                         "(P/Q/S are handled by the hl module)")
    if f.basis == target:
        return f
    terms: dict[Partition, QRat] = {}
    for n in f.degrees():
        part = _from_p_homogeneous(_to_p_homogeneous(f, n), n, target)
        terms.update(part.terms)
    return SymFunc(target, terms)


def product(f: SymFunc, g: SymFunc) -> SymFunc:
    """Exact product, computed on power sums and returned in f's basis."""
    fp, gp = to_p(f), to_p(g)
    terms: dict[Partition, QRat] = {}
    for lam, a in fp.terms.items():
        for mu, b in gp.terms.items():
            key = Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))
            c = a * b
            if not c.is_zero():
                terms[key] = terms.get(key, QRat.zero()) + c
    out = SymFunc("p", terms)
    return out if f.basis == "p" else convert(out, f.basis)


@dataclass(frozen=True)
class TensorSymFunc:
    """An element of the tensor square, with independently tagged legs."""

    bases: tuple[str, str]
    terms: dict[tuple[Partition, Partition], QRat] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for key, c in self.terms.items():
            c = _as_qrat(c)
            if not c.is_zero():
                clean[key] = c
        object.__setattr__(self, "terms", clean)

    def coeff(self, lam: Partition, mu: Partition) -> QRat:
        return self.terms.get((lam, mu), QRat.zero())

    def __add__(self, other: "TensorSymFunc") -> "TensorSymFunc":
        if self.bases != other.bases:
            raise ValueError("tensor basis mismatch")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, QRat.zero()) + c
        return TensorSymFunc(self.bases, terms)

    def __sub__(self, other: "TensorSymFunc") -> "TensorSymFunc":
        if self.bases != other.bases:
            raise ValueError("tensor basis mismatch")
        neg = TensorSymFunc(other.bases, {k: -c for k, c in other.terms.items()})
        return self + neg

    def is_zero(self) -> bool:
        return not self.terms


def _convert_leg(t: TensorSymFunc, leg: int, target: str) -> TensorSymFunc:
    if t.bases[leg] == target:
        return t
    grouped: dict[Partition, dict[Partition, QRat]] = {}
    for (a, b), c in t.terms.items():
        other = b if leg == 0 else a
        mine = a if leg == 0 else b
        grouped.setdefault(other, {})[mine] = c
    terms: dict[tuple[Partition, Partition], QRat] = {}
    for other, sub in grouped.items():
        conv = convert(SymFunc(t.bases[leg], sub), target)
        for lam, c in conv.terms.items():
            key = (lam, other) if leg == 0 else (other, lam)
            terms[key] = terms.get(key, QRat.zero()) + c
    bases = (target, t.bases[1]) if leg == 0 else (t.bases[0], target)
    return TensorSymFunc(bases, terms)


def coproduct(f: SymFunc) -> TensorSymFunc:
    """Comultiplication; power sums p_r are primitive.

    Computed on p and converted so both legs carry f's basis.
    """
    fp = to_p(f)
    terms: dict[tuple[Partition, Partition], QRat] = {}
    for lam, c in fp.terms.items():
        items = sorted(lam.multiplicities().items())

        def rec(i: int, left: list[int], ways: int):
            if i == len(items):
                alpha = Partition(tuple(sorted(left, reverse=True)))
                rest: list[int] = []
                cnt = dict(items)
                for a in left:
                    cnt[a] -= 1
                for v, m in cnt.items():
                    rest.extend([v] * m)
                beta = Partition(tuple(sorted(rest, reverse=True)))
                key = (alpha, beta)
                terms[key] = terms.get(key, QRat.zero()) + c * ways
                return
            v, m = items[i]
            choose = 1
            for k in range(0, m + 1):
                if k:
                    choose = choose * (m - k + 1) // k
                rec(i + 1, left + [v] * k, ways * choose)

        rec(0, [], 1)
    out = TensorSymFunc(("p", "p"), terms)
    if f.basis != "p":
        out = _convert_leg(_convert_leg(out, 0, f.basis), 1, f.basis)
    return out


def tensor_product(t: TensorSymFunc, u: TensorSymFunc) -> TensorSymFunc:
    """Componentwise product (a x b)(c x d) = ac x bd, legs kept in p."""
    tp = _convert_leg(_convert_leg(t, 0, "p"), 1, "p")
    up = _convert_leg(_convert_leg(u, 0, "p"), 1, "p")
    terms: dict[tuple[Partition, Partition], QRat] = {}
    for (a, b), c in tp.terms.items():
        for (x, y), d in up.terms.items():
            key = (
                Partition(tuple(sorted(a.parts + x.parts, reverse=True))),
                Partition(tuple(sorted(b.parts + y.parts, reverse=True))),
            )
            prod = c * d
            if not prod.is_zero():
                terms[key] = terms.get(key, QRat.zero()) + prod
    return TensorSymFunc(("p", "p"), terms)


def antipode(f: SymFunc) -> SymFunc:
    """The Hopf antipode: p_r -> -p_r, so p_lam picks up (-1)^{length}."""
    fp = to_p(f)
    terms = {
        lam: c * ((-1) ** lam.length) for lam, c in fp.terms.items()
    }
    out = SymFunc("p", terms)
    return out if f.basis == "p" else convert(out, f.basis)


@functools.lru_cache(maxsize=None)
def _one_minus_q_factor(lam: Partition) -> QPoly:
    """prod_i (1 - q^{lam_i}): the factor p_lam picks up under X -> (1-q)X."""
    factor = QPoly.one()
    for part in lam.parts:
        factor = factor * (QPoly.one() - QPoly.monomial(part))
    return factor


@functools.lru_cache(maxsize=None)
def _hall_weight(lam: Partition) -> QRat:
    """<p_lam, p_lam> = z_lam / prod_i (1 - q^{lam_i})."""
    return QRat(QPoly.const(lam.z_stat()), _one_minus_q_factor(lam))


def hall_inner(f: SymFunc, g: SymFunc) -> QRat:
    """The q-deformed Hall pairing, diagonal on power sums."""
    fp, gp = to_p(f), to_p(g)
    acc = QRat.zero()
    for lam, a in fp.terms.items():
        b = gp.terms.get(lam)
        if b is not None:
            acc = acc + a * b * _hall_weight(lam)
    return acc


def plethysm_one_minus_q(f: SymFunc) -> SymFunc:
    """Plethystic substitution X -> (1-q)X: p_r picks up the factor (1 - q^r)."""
    terms = {lam: c * _one_minus_q_factor(lam) for lam, c in to_p(f).terms.items()}
    out = SymFunc("p", terms)
    return out if f.basis == "p" else convert(out, f.basis)
