"""The ring of symmetric functions over Q(q) in its classical bases.

Elements are finite sums of basis terms indexed by partitions, with
rational-function coefficients.  Native bases are m, e, h, s, p; the
Hall-Littlewood bases P, Q, S are produced and consumed by the `hl` module
and only pass through here as opaque tags.

All conversions route through the power sums.  Each native basis b in
{h, e, s, m} has one cached pair of sparse exact tables per degree, the
p-coordinates of b_lam and the b-coordinates of p_rho, and each table is read
off a classical identity (Macdonald, Symmetric Functions and Hall
Polynomials, Ch. I); no table is a matrix inverse:

- h: Newton's identities, n h_n = sum_i h_{n-i} p_i one way and
  p_n = n h_n - sum_{i<n} h_{n-i} p_i the other, extended multiplicatively;
- e: the involution omega applied to h, which scales p_rho by
  (-1)^{|rho| - l(rho)};
- s: the character table, s_lam = sum_rho chi^lam_rho p_rho / z_rho and
  p_rho = sum_lam chi^lam_rho s_lam;
- m: the q = 0 Hall duality <h_lam, m_mu> = delta with <p_rho, p_rho> = z_rho,
  so m is read off the two h tables scaled by z_rho.

The q-deformed Hall pairing is diagonal on power sums:
<p_lam, p_mu> = delta * z_lam / prod_i (1 - q^{lam_i}).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

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


# -- transition tables: one sparse pair per native basis and degree -------------

# Row lam of a table holds the coordinates of one basis element: to_p[lam][rho]
# is the p_rho-coefficient of b_lam, from_p[rho][lam] the b_lam-coefficient of
# p_rho.  Rows are sparse dicts of exact Fractions.
_Table = dict[Partition, dict[Partition, Fraction]]


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
def _pn_to_h(n: int) -> dict[Partition, Fraction]:
    """p_n (n >= 1) in the h basis, via p_n = n h_n - sum_{i=1}^{n-1} h_{n-i} p_i."""
    out = {Partition((n,)): Fraction(n)}
    for i in range(1, n):
        for lam, c in _merge_expansion({Partition((n - i,)): Fraction(1)}, _pn_to_h(i)).items():
            out[lam] = out.get(lam, Fraction(0)) - c
    return {lam: c for lam, c in out.items() if c}


def _merge_expansion(a: dict[Partition, Fraction], b: dict[Partition, Fraction]) -> dict[Partition, Fraction]:
    """Product of two expansions in a multiplicative basis (p or h)."""
    out: dict[Partition, Fraction] = {}
    for lam, c in a.items():
        for mu, d in b.items():
            key = Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))
            out[key] = out.get(key, Fraction(0)) + c * d
    return out


def _multiplicative(lam: Partition, single) -> dict[Partition, Fraction]:
    """prod_i single(lam_i), for a basis with b_lam = prod_i b_{lam_i}."""
    out = {Partition(): Fraction(1)}
    for part in lam.parts:
        out = _merge_expansion(out, single(part))
    return out


def _omega_sign(rho: Partition) -> int:
    """omega(p_rho) = (-1)^{|rho| - l(rho)} p_rho."""
    return -1 if (rho.size - rho.length) % 2 else 1


@functools.lru_cache(maxsize=None)
def _transition(basis: str, n: int) -> tuple[_Table, _Table]:
    """(to_p, from_p) of a native basis in degree n, by the identities in the
    module docstring."""
    labels = partitions(n)
    if basis == "h":
        return ({lam: _multiplicative(lam, _hn_to_p) for lam in labels},
                {rho: _multiplicative(rho, _pn_to_h) for rho in labels})
    if basis == "e":
        h_to, h_from = _transition("h", n)
        return ({lam: {rho: c * _omega_sign(rho) for rho, c in row.items()}
                 for lam, row in h_to.items()},
                {rho: {lam: c * _omega_sign(rho) for lam, c in row.items()}
                 for rho, row in h_from.items()})
    if basis == "s":
        table = char_table(n)
        to_rows: _Table = {lam: {} for lam in labels}
        from_rows: _Table = {rho: {} for rho in labels}
        for lam, row in zip(table.labels, table.values):
            for rho, chi in zip(table.labels, row):
                if chi:
                    to_rows[lam][rho] = Fraction(chi, rho.z_stat())
                    from_rows[rho][lam] = Fraction(chi)
        return to_rows, from_rows
    if basis == "m":
        h_to, h_from = _transition("h", n)
        to_rows = {mu: {} for mu in labels}
        from_rows = {rho: {} for rho in labels}
        for rho, row in h_from.items():
            for mu, c in row.items():
                to_rows[mu][rho] = c / rho.z_stat()
        for mu, row in h_to.items():
            for rho, c in row.items():
                from_rows[rho][mu] = c * rho.z_stat()
        return to_rows, from_rows
    raise ValueError(f"unsupported basis pair: {basis!r} is handled by the hl module")


def _apply(table: _Table, terms: dict[Partition, QRat]) -> dict[Partition, QRat]:
    """Sparse multiply-accumulate: sum over lam of terms[lam] * table[lam]."""
    out: dict[Partition, QRat] = {}
    for lam, c in terms.items():
        for mu, a in table[lam].items():
            x = c * a
            out[mu] = out[mu] + x if mu in out else x
    return out


def _to_p_homogeneous(f: SymFunc, n: int) -> dict[Partition, QRat]:
    """p-coordinates of the degree-n part of f."""
    terms = {lam: c for lam, c in f.terms.items() if lam.size == n}
    return terms if f.basis == "p" else _apply(_transition(f.basis, n)[0], terms)


def _from_p_homogeneous(terms: dict[Partition, QRat], n: int, target: str) -> dict[Partition, QRat]:
    """target-coordinates of a degree-n element given by its p-coordinates."""
    return terms if target == "p" else _apply(_transition(target, n)[1], terms)


def to_p(f: SymFunc) -> SymFunc:
    """Expand f in power sums (any native source basis, any mix of degrees)."""
    terms: dict[Partition, QRat] = {}
    for n in f.degrees():
        terms.update(_to_p_homogeneous(f, n))
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
        terms.update(_from_p_homogeneous(_to_p_homogeneous(f, n), n, target))
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
