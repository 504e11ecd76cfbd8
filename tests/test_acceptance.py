"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts the
same condition, so the pytest status mirrors the printed verdict.  All
comparisons are exact; there is no numeric tolerance anywhere.
"""

import json

import pytest

from symq import cli, verify
from symq.gporacle import graded_quotient, oracle_vs_symbolic
from symq.hl import KostkaTable, kostka_triangular
from symq.partition import Partition
from symq.qcoeff import QPoly, QRat
from symq.symfunc import SymFunc


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _suite(num: int, name: str, suite: str, max_n: int, budget: float) -> None:
    r = verify.run_suite(suite, max_n)
    ok = r.passed and r.elapsed < budget
    _report(num, name, ok,
            f"{r.checks_run} checks in {r.elapsed:.1f}s, budget {budget:.0f}s")


def test_criterion_1_orthogonality():
    _suite(1, "orthogonality", "orthogonality", 6, 60.0)


def test_criterion_2_kostka_routes():
    _suite(2, "kostka route agreement", "kostka-routes", 6, 60.0)


def test_criterion_3_oracle_equivalence():
    r = verify.run_suite("gp-oracle", 4)
    ok = r.passed and r.elapsed < 30.0
    _report(3, "oracle equivalence (n <= 4)", ok,
            f"{r.checks_run} checks in {r.elapsed:.1f}s")


def test_criterion_3_oracle_equivalence_n5():
    cmp = oracle_vs_symbolic(5)
    _report(3, "oracle equivalence (n = 5)", cmp.ok,
            f"{cmp.checked} entries")


def test_criterion_4_gp_restriction():
    _suite(4, "restriction recursion", "gp-restriction", 5, 60.0)


def test_criterion_5_positivity():
    # s*P positivity over |lam|+|mu| <= 6 lives in the pieri suite; the skew
    # suite covers skew positivity for |lam| <= 6 and the coproduct format
    # for |lam| <= 5
    r1 = verify.run_suite("pieri", 6)
    r2 = verify.run_suite("skew", 6)
    elapsed = r1.elapsed + r2.elapsed
    ok = r1.passed and r2.passed and elapsed < 60.0
    _report(5, "positivity", ok,
            f"{r1.checks_run + r2.checks_run} checks in {elapsed:.1f}s, budget 60s")


def test_criterion_6_big_schur_molien():
    _suite(6, "big Schur / Molien", "big-schur", 5, 60.0)


def test_criterion_7_pieri_law():
    _suite(7, "e1 Pieri coefficient law", "pieri", 5, 60.0)


def test_criterion_8_hopf_coherence():
    _suite(8, "Hopf coherence", "hopf", 6, 60.0)


def test_criterion_9_infrastructure(tmp_path, capsys):
    ok = True
    notes = []

    # JSON round-trips are bit-exact
    poly = QPoly(-1, tuple(map(int, (1, 0, -2))))
    poly = QPoly.from_json(poly.to_json())
    rat = QRat(QPoly.q(), QPoly.one() - QPoly.q())
    f = SymFunc("s", {Partition((2, 1)): rat})
    ok &= QPoly.from_json(poly.to_json()) == poly
    ok &= QRat.from_json(rat.to_json()) == rat
    ok &= SymFunc.from_json(f.to_json()).terms == f.terms
    table = kostka_triangular(4)
    ok &= KostkaTable.from_json(table.to_json()) == table
    ok &= json.dumps(table.to_json()) == json.dumps(
        KostkaTable.from_json(table.to_json()).to_json()
    )
    notes.append("json")

    # cache round trip plus verify mode through the real CLI entry point
    code1 = cli.main(["kostka", "--n", "3", "--cache-dir", str(tmp_path)])
    code2 = cli.main(
        ["kostka", "--n", "3", "--cache-dir", str(tmp_path), "--cache-verify"]
    )
    out = capsys.readouterr().out
    ok &= code1 == 0 and code2 == 0 and "cache-verify: OK" in out
    notes.append("cache")

    # the generator-bound convention is pinned by the two n = 2 quotients
    ok &= graded_quotient(Partition((2,))).dims == (1,)
    ok &= graded_quotient(Partition((1, 1))).dims == (1, 1)
    notes.append("tanisaki-convention")

    _report(9, "infrastructure", bool(ok), ", ".join(notes))
