"""Named verification suites bundling the library's identities into reports.

Each suite is a pure, deterministic function of its bound max_n; the one suite
that samples (hopf, for the coproduct homomorphism spot checks) draws from a
fixed seed that is recorded in its report.  Failures carry enough of the
instance to replay it by hand.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import gporacle, hl, sncharacter, symfunc
from .partition import Partition, partitions
from .qcoeff import QPoly, QRat, is_nonneg_poly, q_int
from .sncharacter import GradedCharacter

__all__ = ["SuiteReport", "CheckFailure", "SUITE_NAMES", "run_suite", "run_all"]

HOPF_SEED = 214089
# the oracle takes about 0.5 s on (1^5) but still about 100 s on (1^6)
GP_ORACLE_CAP = 5


@dataclass(frozen=True)
class CheckFailure:
    identity: str
    instance: dict[str, str]
    got: str
    expected: str

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "instance": dict(self.instance),
            "got": self.got,
            "expected": self.expected,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    max_n: int
    checks_run: int
    failures: tuple[CheckFailure, ...]
    elapsed: float
    warnings: tuple[str, ...] = ()
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "max_n": self.max_n,
            "checks_run": self.checks_run,
            "failures": [f.to_json() for f in self.failures],
            "elapsed": self.elapsed,
            "passed": self.passed,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass
class _Tally:
    checks: int = 0
    failures: list[CheckFailure] = field(default_factory=list)

    def check(self, ok: bool, identity: str, instance: dict[str, str], got, expected) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(CheckFailure(identity, instance, str(got), str(expected)))

    def equal(self, got, expected, identity: str, instance: dict[str, str]) -> None:
        self.check(got == expected, identity, instance, got, expected)


def _is_nonneg_int_poly(c: QRat) -> bool:
    return is_nonneg_poly(c) and all(x.denominator == 1 for x in c.num.coeffs)


def _graded_equal(t: _Tally, got: GradedCharacter, expected: GradedCharacter,
                  identity: str, instance: dict[str, str]) -> None:
    keys = set(got.mult) | set(expected.mult)
    for mu in sorted(keys, key=lambda p: p.sort_key()):
        inst = dict(instance)
        inst["mu"] = str(mu)
        t.equal(got.get(mu), expected.get(mu), identity, inst)


# -- suites ----------------------------------------------------------------------


def _suite_orthogonality(max_n: int, t: _Tally) -> None:
    one, zero = QRat.one(), QRat.zero()
    for n in range(max_n + 1):
        for lam in partitions(n):
            plam, qlam, slam = hl.hl_p(lam), hl.hl_q(lam), hl.big_schur(lam)
            for mu in partitions(n):
                inst = {"lambda": str(lam), "mu": str(mu), "n": str(n)}
                delta = one if lam == mu else zero
                t.equal(symfunc.hall_inner(plam, hl.hl_q(mu)), delta,
                        "hall_inner(P,Q) = delta", inst)
                t.equal(symfunc.hall_inner(slam, symfunc.unit("s", mu)), delta,
                        "hall_inner(S,s) = delta", inst)
                expected = QRat.from_poly(lam.b_poly()) if lam == mu else zero
                t.equal(symfunc.hall_inner(qlam, hl.hl_q(mu)), expected,
                        "hall_inner(Q,Q) = delta*b", inst)


def _suite_kostka_routes(max_n: int, t: _Tally) -> None:
    for n in range(max_n + 1):
        t1 = hl.kostka_triangular(n)
        t2 = hl.kostka_orthogonality(n)
        labels = partitions(n)
        for lam in labels:
            for mu in labels:
                inst = {"lambda": str(lam), "mu": str(mu), "n": str(n)}
                t.equal(t1.get(lam, mu), t2.get(lam, mu), "kostka route agreement", inst)
        for msg in t1.validate_triangular():
            t.failures.append(CheckFailure("kostka triangularity", {"n": str(n)}, msg, "triangular"))
        t.checks += 1
        for (lam, mu), entry in sorted(t1.entries.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
            t.check(
                all(c >= 0 and c.denominator == 1 for c in entry.coeffs),
                "kostka entries in Z>=0[q]",
                {"lambda": str(lam), "mu": str(mu)},
                entry, "nonnegative integer coefficients",
            )
        table = sncharacter.char_table(n)
        for lam in labels:
            total = sum(
                int(t1.get(lam, mu).evaluate(1)) * table.dim(mu) for mu in labels
            )
            expected = factorial(n)
            for part in lam.parts:
                expected //= factorial(part)
            t.equal(total, expected, "kostka q=1 dimension sum", {"lambda": str(lam)})


def _suite_gp_restriction(max_n: int, t: _Tally) -> None:
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            left = sncharacter.restrict_graded(hl.char_gp(lam))
            acc: dict[Partition, QRat] = {}
            for j in range(lam.length):
                gc = hl.char_gp(lam.remove_box(j + 1))
                w = QRat.from_poly(QPoly.monomial(j))
                for mu, c in gc.mult.items():
                    acc[mu] = acc.get(mu, QRat.zero()) + w * c
            right = GradedCharacter(n - 1, {m: v for m, v in acc.items() if not v.is_zero()})
            _graded_equal(t, left, right, "GP restriction recursion", {"lambda": str(lam)})


def _suite_gp_oracle(max_n: int, t: _Tally, warnings: list[str]) -> None:
    if max_n > GP_ORACLE_CAP:
        warnings.append(f"gp-oracle capped at n = {GP_ORACLE_CAP} (requested {max_n})")
        max_n = GP_ORACLE_CAP
    for n in range(max_n + 1):
        comparison = gporacle.oracle_vs_symbolic(n)
        t.checks += comparison.checked
        for lam, mu, got, expected in comparison.mismatches:
            t.failures.append(CheckFailure(
                "oracle vs symbolic graded character",
                {"lambda": str(lam), "mu": str(mu)}, got, expected,
            ))
        for lam in partitions(n):
            gq = gporacle.graded_quotient(lam)
            inst = {"lambda": str(lam)}
            top = lam.n_stat()
            t.check(len(gq.dims) == top + 1, "oracle degree truncation", inst,
                    len(gq.dims) - 1, top)
            t.equal(
                gporacle.graded_character(lam).get(lam),
                QRat.from_poly(QPoly.monomial(top)),
                "oracle socle entry q^n(lambda)", inst,
            )
            expected = factorial(n)
            for part in lam.parts:
                expected //= factorial(part)
            t.equal(sum(gq.dims), expected, "oracle q=1 dimension", inst)


def _grown_part_multiplicity(lam: Partition, mu: Partition) -> int | None:
    """Multiplicity in mu of the part that was added to lam, or None."""
    lm, mm = lam.multiplicities(), mu.multiplicities()
    grown = [v for v in mm if mm[v] == lm.get(v, 0) + 1]
    if len(grown) != 1:
        return None
    return mm[grown[0]]


def _suite_pieri(max_n: int, t: _Tally) -> None:
    baseline: set[int] = set()
    observed: list[tuple[Partition, Partition, int]] = []
    for n in range(max_n):
        for lam in partitions(n):
            coeffs = hl.pieri_e1(lam)
            shapes = {lam.add_box(j) for j in range(1, lam.length + 2)}
            inst0 = {"lambda": str(lam)}
            t.check(set(coeffs) <= shapes, "pieri support on add-box shapes", inst0,
                    sorted(str(m) for m in coeffs), sorted(str(m) for m in shapes))
            for mu in sorted(coeffs, key=lambda p: p.sort_key()):
                c = coeffs[mu]
                inst = {"lambda": str(lam), "mu": str(mu)}
                m = _grown_part_multiplicity(lam, mu)
                if m is None:
                    t.check(False, "pieri grown part identifiable", inst, str(mu), "one grown part")
                    continue
                base = q_int(m)
                try:
                    ratio = c.div_exact(base)
                except ValueError:
                    t.check(False, "pieri coefficient = q^a [m]_q", inst, c, f"q^a*[{m}]_q")
                    continue
                is_power = len(ratio.coeffs) == 1 and ratio.coeffs[0] == 1 and ratio.offset >= 0
                t.check(is_power, "pieri coefficient = q^a [m]_q", inst, c, f"q^a*[{m}]_q")
                if is_power:
                    a = ratio.offset
                    observed.append((lam, mu, a))
                    if n <= 2:
                        baseline.add(a)
    if observed:
        expected_a = sorted(baseline)[0] if baseline else 0
        for lam, mu, a in observed:
            t.equal(a, expected_a, "pieri exponent constant across sweep",
                    {"lambda": str(lam), "mu": str(mu)})
    # positivity of s_lam * P_mu in the P-basis
    for total in range(max_n + 1):
        for k in range(total + 1):
            for lam in partitions(k):
                for mu in partitions(total - k):
                    prod = symfunc.product(symfunc.unit("s", lam), hl.hl_p(mu))
                    inst = {"s-index": str(lam), "P-index": str(mu)}
                    for nu, c in sorted(hl.expand_in_hl_p(prod).items(), key=lambda kv: kv[0].sort_key()):
                        t.check(_is_nonneg_int_poly(c), "s*P is P-positive",
                                {**inst, "nu": str(nu)}, c, "element of Z>=0[q]")


def _suite_skew(max_n: int, t: _Tally) -> None:
    one = symfunc.SymFunc("s", {Partition(): QRat.one()})
    for n in range(max_n + 1):
        for lam in partitions(n):
            t.equal(hl.skew_q(lam, lam), one, "skew Q at nu = lambda is 1",
                    {"lambda": str(lam)})
            t.equal(hl.skew_q(lam, Partition()), hl.hl_q(lam),
                    "skew Q at empty nu is Q", {"lambda": str(lam)})
            for k in range(n + 1):
                for nu in partitions(k):
                    inst = {"lambda": str(lam), "nu": str(nu)}
                    sq = hl.skew_q(lam, nu)
                    if not lam.contains(nu):
                        t.check(sq.is_zero(), "skew Q vanishes off containment", inst,
                                sq, "0")
                        continue
                    for gamma, c in sorted(hl.expand_in_big_schur(sq).items(), key=lambda kv: kv[0].sort_key()):
                        t.check(_is_nonneg_int_poly(c), "skew Q is S-positive",
                                {**inst, "gamma": str(gamma)}, c, "element of Z>=0[q]")
    # coproduct positivity in the S (x) Q format; expand the second leg in
    # the Q basis first, then the first leg in the S basis, so each reported
    # coefficient is the full (gamma, kappa) entry
    for n in range(min(max_n, 5) + 1):
        for lam in partitions(n):
            cop = symfunc.coproduct(hl.hl_q(lam))
            by_first: dict[Partition, dict[Partition, QRat]] = {}
            for (a, b), c in cop.terms.items():
                by_first.setdefault(a, {})[b] = c
            by_kappa: dict[Partition, dict[Partition, QRat]] = {}
            for a, sub in by_first.items():
                for kappa, c in hl.expand_in_hl_q(symfunc.SymFunc("s", sub)).items():
                    by_kappa.setdefault(kappa, {})[a] = c
            for kappa in sorted(by_kappa, key=lambda p: p.sort_key()):
                for gamma, c in sorted(
                    hl.expand_in_big_schur(symfunc.SymFunc("s", by_kappa[kappa])).items(),
                    key=lambda kv: kv[0].sort_key(),
                ):
                    t.check(
                        _is_nonneg_int_poly(c),
                        "coproduct of Q is (S x Q)-positive",
                        {"lambda": str(lam), "gamma": str(gamma), "kappa": str(kappa)},
                        c, "element of Z>=0[q]",
                    )


def _kronecker(lam: Partition, kappa: Partition, mu: Partition) -> int:
    """<chi^lam * chi^kappa, chi^mu> in S_n."""
    table = sncharacter.char_table(lam.size)
    acc = Fraction(0)
    for nu in table.labels:
        acc += Fraction(
            table.chi(lam, nu) * table.chi(kappa, nu) * table.chi(mu, nu),
            nu.z_stat(),
        )
    assert acc.denominator == 1
    return int(acc)


def _suite_big_schur(max_n: int, t: _Tally) -> None:
    for n in range(max_n + 1):
        for lam in partitions(n):
            inst = {"lambda": str(lam)}
            rhs = symfunc.SymFunc("s", {})
            for mu in partitions(n):
                c = sncharacter.molien_mult(lam, mu)
                if not c.is_zero():
                    rhs = rhs + hl.big_schur(mu).scale(c)
            t.equal(rhs, symfunc.unit("s", lam), "s = sum molien * S", inst)
            # psi / psi_inverse coherence
            gc = hl.psi_inverse(symfunc.unit("s", lam))
            for mu in partitions(n):
                t.equal(gc.get(mu), sncharacter.molien_mult(lam, mu),
                        "psi_inverse(s) = molien multiplicities",
                        {**inst, "mu": str(mu)})
            t.equal(hl.psi(hl.char_kostka(lam)), hl.hl_q(lam),
                    "psi of the Kostka row is Q", inst)
            # re-expansion in P via pairing against Q
            f = hl.hl_q(lam)
            direct = hl.expand_in_hl_p(f)
            for mu in partitions(n):
                paired = symfunc.hall_inner(f, hl.hl_q(mu))
                t.equal(paired, direct.get(mu, QRat.zero()),
                        "P-expansion via <.,Q> pairing",
                        {**inst, "mu": str(mu)})
    # third form: s_lam * prod (1-q^i) = sum_mu S_mu * [L_mu : L_lam x R_(1^n)]_q
    for n in range(min(max_n, 4) + 1):
        if n == 0:
            continue
        column = Partition((1,) * n)
        reg = hl.char_gp(column)
        for lam in partitions(n):
            rhs = symfunc.SymFunc("s", {})
            for mu in partitions(n):
                acc = QRat.zero()
                for kappa in partitions(n):
                    c = reg.get(kappa)
                    if c.is_zero():
                        continue
                    k = _kronecker(lam, kappa, mu)
                    if k:
                        acc = acc + c * k
                if not acc.is_zero():
                    rhs = rhs + hl.big_schur(mu).scale(acc)
            factor = QPoly.one()
            for i in range(1, n + 1):
                factor = factor * (QPoly.one() - QPoly.monomial(i))
            lhs = symfunc.unit("s", lam).scale(QRat.from_poly(factor))
            t.equal(rhs, lhs, "s * prod(1-q^i) = sum S * tensor multiplicity",
                    {"lambda": str(lam), "n": str(n)})


def _random_symfunc(rng: random.Random, max_part_size: int) -> symfunc.SymFunc:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, max_part_size)
        lam = rng.choice(partitions(n))
        coeff = QPoly(rng.randint(0, 1), (Fraction(rng.randint(1, 3)),))
        terms[lam] = terms.get(lam, QRat.zero()) + QRat.from_poly(coeff)
    basis = rng.choice(("h", "e", "p", "s", "m"))
    return symfunc.SymFunc(basis, terms)


def _suite_hopf(max_n: int, t: _Tally, rng: random.Random) -> None:
    for total in range(max_n + 1):
        for k in range(total + 1):
            for lam in partitions(k):
                for mu in partitions(total - k):
                    got = sncharacter.frobenius0(
                        sncharacter.induce_product(
                            sncharacter.irreducible(lam), sncharacter.irreducible(mu)
                        )
                    )
                    expected = symfunc.product(
                        symfunc.unit("s", lam), symfunc.unit("s", mu)
                    )
                    t.equal(got, expected, "frobenius of induced product",
                            {"lambda": str(lam), "mu": str(mu)})
    for n in range(max_n + 1):
        hn = symfunc.unit("h", Partition((n,)) if n else Partition())
        en = symfunc.unit("e", Partition((n,)) if n else Partition())
        sign = QRat.from_int((-1) ** n)
        t.equal(symfunc.convert(symfunc.antipode(hn), "e"), en.scale(sign),
                "antipode sends h_n to (-1)^n e_n", {"n": str(n)})
    for _ in range(6):
        f = _random_symfunc(rng, min(max_n, 3))
        g = _random_symfunc(rng, min(max_n, 2))
        lhs = symfunc.coproduct(symfunc.to_p(symfunc.product(f, g)))
        rhs = symfunc.tensor_product(symfunc.coproduct(f), symfunc.coproduct(g))
        t.equal(lhs.terms, rhs.terms, "coproduct is an algebra map",
                {"f": str(f), "g": str(g)})
        # m (S x id) Delta = unit counit
        cop = symfunc.coproduct(symfunc.to_p(f))
        acc = symfunc.SymFunc("p", {})
        for (a, b), c in cop.terms.items():
            acc = acc + symfunc.product(
                symfunc.antipode(symfunc.SymFunc("p", {a: QRat.one()})),
                symfunc.SymFunc("p", {b: QRat.one()}),
            ).scale(c)
        counit = symfunc.to_p(f).terms.get(Partition(), QRat.zero())
        t.equal(acc, symfunc.SymFunc("p", {Partition(): counit}),
                "antipode convolution identity", {"f": str(f)})


_SUITES = {
    "orthogonality": lambda n, t, w, rng: _suite_orthogonality(n, t),
    "kostka-routes": lambda n, t, w, rng: _suite_kostka_routes(n, t),
    "gp-restriction": lambda n, t, w, rng: _suite_gp_restriction(n, t),
    "gp-oracle": lambda n, t, w, rng: _suite_gp_oracle(n, t, w),
    "pieri": lambda n, t, w, rng: _suite_pieri(n, t),
    "skew": lambda n, t, w, rng: _suite_skew(n, t),
    "big-schur": lambda n, t, w, rng: _suite_big_schur(n, t),
    "hopf": lambda n, t, w, rng: _suite_hopf(n, t, rng),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, max_n: int) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    tally = _Tally()
    warnings: list[str] = []
    seed = HOPF_SEED if name == "hopf" else None
    rng = random.Random(seed)
    start = time.perf_counter()
    _SUITES[name](max_n, tally, warnings, rng)
    elapsed = time.perf_counter() - start
    used_n = min(max_n, GP_ORACLE_CAP) if name == "gp-oracle" else max_n
    return SuiteReport(
        suite=name,
        max_n=used_n,
        checks_run=tally.checks,
        failures=tuple(tally.failures),
        elapsed=elapsed,
        warnings=tuple(warnings),
        seed=seed,
    )


def run_all(max_n: int) -> list[SuiteReport]:
    """Every suite in fixed order."""
    return [run_suite(name, max_n) for name in SUITE_NAMES]
