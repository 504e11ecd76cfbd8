"""Expression language and subcommand behavior, driven through main()."""

import json
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symq import cli
from symq.cli import ExprSyntaxError, eval_expr, format_symfunc, main, parse
from symq.hl import hl_to_native
from symq.partition import Partition, partitions
from symq.qcoeff import QPoly, QRat
from symq.symfunc import HL_BASES, NATIVE_BASES, SymFunc, convert, to_p


def pt(*parts):
    return Partition(tuple(parts))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ---------------------------------------------------------------------


def test_parse_basic_shapes():
    node = parse("q^2*P[3] + (1-q)*Q[2,1]")
    f = eval_expr(node)
    assert f.basis == "p"
    assert not f.is_zero()


def test_parse_offsets_reported():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("s[1,3]")
    assert exc.value.offset == 4
    assert "nonincreasing" in str(exc.value)
    with pytest.raises(ExprSyntaxError) as exc:
        parse("s[0]")
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError) as exc:
        parse("q^^2")
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + ")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x[1]")
    assert exc.value.offset == 0
    with pytest.raises(ExprSyntaxError) as exc:
        parse("s[2] s[1]")
    assert exc.value.offset == 5
    with pytest.raises(ExprSyntaxError) as exc:
        parse("s[2] ! 1")
    assert exc.value.offset == 5


def test_parse_rational_and_negative():
    f = eval_expr(parse("-1/2*p[1] + q^-1*p[1]"))
    want = QRat.from_fraction(Fraction(-1, 2)) + QRat.from_poly(QPoly.monomial(-1))
    assert f.terms == {pt(1): want}


def test_whitespace_insensitive():
    a = eval_expr(parse(" q ^ 2 * s [ 2 , 1 ] "))
    b = eval_expr(parse("q^2*s[2,1]"))
    assert a.terms == b.terms


def test_eval_mixed_bases():
    f = eval_expr(parse("h[2] - s[2]"))
    assert f.is_zero()
    g = eval_expr(parse("e[1]*e[1] - e[2] - e[1,1]"))
    assert g.is_zero() or not g.is_zero()  # e[1,1] means the product basis element
    assert eval_expr(parse("e[1]*e[1] - e[1,1]")).is_zero()


def test_static_degree():
    assert cli.static_degree(parse("q^3")) == 0
    assert cli.static_degree(parse("P[3]*P[2,2]")) == 7
    assert cli.static_degree(parse("s[2] + s[1,1,1]")) == 3
    assert cli.static_degree(parse("-s[2]")) == 2


# -- printing and round trip -------------------------------------------------------


def test_format_constant_and_signs():
    f = SymFunc("s", {pt(2): QRat.from_int(-1), pt(1, 1): QRat.one()})
    text = format_symfunc(f)
    assert text == "-s[2] + s[1,1]"
    zero = SymFunc("s", {})
    assert format_symfunc(zero) == "0"


def test_format_table_fallback():
    f = SymFunc("s", {pt(1): QRat(QPoly.one(), QPoly.one() - QPoly.q())})
    text = format_symfunc(f)
    assert "/" in text and "s[1]" in text


printable_symfunc = st.builds(
    lambda basis, pairs: SymFunc(
        basis,
        {
            lam: QRat.from_poly(QPoly(off, tuple(Fraction(c) for c in cs)))
            for lam, (off, cs) in pairs
        },
    ),
    st.sampled_from(NATIVE_BASES + HL_BASES),
    st.lists(
        st.tuples(
            st.integers(0, 3).flatmap(lambda n: st.sampled_from(partitions(n))),
            st.tuples(
                st.integers(-2, 2),
                st.lists(st.integers(-4, 4), min_size=0, max_size=3),
            ),
        ),
        max_size=3,
    ),
)


@given(printable_symfunc)
@settings(deadline=None, max_examples=60)
def test_print_parse_round_trip(f):
    text = format_symfunc(f)
    node = parse(text)
    got = eval_expr(node)
    if f.basis in HL_BASES:
        want = to_p(hl_to_native(f, "s"))
    else:
        want = to_p(f)
    assert got.terms == want.terms


# -- subcommands -------------------------------------------------------------------


def test_expand_table_output(capsys):
    code, out, err = run(capsys, "expand", "e[1]*P[1]", "--to", "P")
    assert code == 0
    assert out.strip() == "P[2] + (1 + q)*P[1,1]"


def test_expand_json_output(capsys):
    code, out, err = run(capsys, "expand", "p[2]", "--to", "s", "--json")
    assert code == 0
    obj = json.loads(out)
    f = SymFunc.from_json(obj)
    assert f.terms == convert(SymFunc("p", {pt(2): QRat.one()}), "s").terms


def test_expand_to_hl_bases(capsys):
    want = to_p(SymFunc("s", {pt(2, 1): QRat.one()})).terms
    for target in HL_BASES:
        code, out, err = run(capsys, "expand", "s[2,1]", "--to", target,
                             "--output", "json")
        assert code == 0
        f = SymFunc.from_json(json.loads(out))
        assert f.basis == target
        assert to_p(hl_to_native(f, "s")).terms == want
    # the P-expansion of this element is polynomial, so it round-trips as text
    code, out, err = run(capsys, "expand", "s[2,1]", "--to", "P")
    assert code == 0
    assert eval_expr(parse(out.strip())).terms == want


def test_expand_syntax_error_exit_code(capsys):
    code, out, err = run(capsys, "expand", "s[1,3]", "--to", "s")
    assert code == 2
    assert "offset 4" in err


def test_deep_nesting_is_a_syntax_error(capsys):
    deep = "(" * 3000 + "s[1]" + ")" * 3000
    code, out, err = run(capsys, "expand", deep, "--to", "s")
    assert code == 2
    assert out == ""
    assert f"offset {cli.MAX_NESTING}" in err
    assert "Traceback" not in err
    limit = cli.MAX_NESTING
    code, out, err = run(capsys, "expand", "(" * limit + "s[1]" + ")" * limit, "--to", "s")
    assert (code, out) == (0, "s[1]\n")


def test_long_operator_chains_evaluate(capsys):
    code, out, err = run(capsys, "expand", "+".join(["s[1]"] * 3000), "--to", "s")
    assert (code, out) == (0, "3000*s[1]\n")
    code, out, err = run(capsys, "expand", "*".join(["1"] * 3000) + "*s[2]", "--to", "s")
    assert (code, out) == (0, "s[2]\n")


def run_quickly(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("expr, offset", [
    ("{big}*s[1]", 0),
    ("q^{big}*s[1]", 2),
    ("q^-{big}*s[1]", 3),
    ("1/{big}*s[1]", 2),
    ("s[2,{big}]", 4),
])
def test_overlong_integer_literal_is_a_syntax_error(capsys, expr, offset):
    code, out, err = run_quickly(capsys, "expand", expr.format(big="7" * 5000))
    assert (code, out) == (2, "")
    assert f"offset {offset}:" in err and "5000 digits" in err
    assert "Traceback" not in err


def test_static_qspan():
    assert cli.static_qspan(parse("q^3*s[1] + q^-5*(1 + q)")) == 6
    assert cli.static_qspan(parse("-(q^2 - q^-7)*q*s[2]")) == 8
    assert cli.static_qspan(parse("2*s[1]")) == 0


@pytest.mark.parametrize("expr", [
    "(q^200000 + 1)*s[1]",
    "(q^1000 + 1)*" * 100 + "s[1]",
    "(q^-200 + 1)*(q^57 + 1)*s[1]",
])
def test_wide_q_span_is_a_usage_error(capsys, expr):
    for argv in (["expand", expr], ["inner", "s[1]", expr]):
        code, out, err = run_quickly(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"more than {cli.MAX_QSPAN}" in err
        assert "Traceback" not in err
    code, out, err = run(capsys, "expand", f"(q^{cli.MAX_QSPAN} + 1)*s[1]")
    assert (code, out) == (0, f"(1 + q^{cli.MAX_QSPAN})*s[1]\n")


def test_verify_degree_bound(capsys):
    code, out, err = run_quickly(capsys, "verify", "--max-n", "12")
    assert (code, out) == (2, "")
    assert "degree 12 exceeds bound 7" in err
    assert "Traceback" not in err
    code, out, err = run_quickly(capsys, "verify", "--suite", "hopf", "--max-n", "12",
                                 "--max-degree", "11")
    assert (code, out) == (2, "")
    assert "degree 12 exceeds bound 11" in err


def test_expand_degree_bound(capsys):
    code, out, err = run(capsys, "expand", "P[5,3]", "--to", "s")
    assert code == 2
    assert "degree 8 exceeds bound 7" in err


def test_expand_degree_override_warns(capsys):
    code, out, err = run(capsys, "expand", "h[4,4]", "--to", "h", "--max-degree", "8")
    assert code == 0
    assert "exceeds the default" in err
    assert out.strip() == "h[4,4]"


def test_inner_table(capsys):
    code, out, err = run(capsys, "inner", "P[2]", "Q[2]")
    assert code == 0
    assert out.strip() == "1"
    code, out, err = run(capsys, "inner", "p[1]", "p[1]")
    assert code == 0
    assert out.strip() == "-1 / (-1+q)"


def test_inner_json(capsys):
    code, out, err = run(capsys, "inner", "S[2]", "s[1,1]", "--output", "json")
    assert code == 0
    assert QRat.from_json(json.loads(out)) == QRat.zero()


def test_kostka_table_and_cache(tmp_path, capsys):
    code, out, err = run(capsys, "kostka", "--n", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "kostka_n3.json").exists()
    assert "q+q^2" in out
    # second run loads the cache and prints the same table
    code2, out2, err2 = run(capsys, "kostka", "--n", "3", "--cache-dir", str(tmp_path))
    assert code2 == 0
    assert out2 == out


def test_kostka_cache_verify_ok(tmp_path, capsys):
    run(capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path))
    code, out, err = run(
        capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path), "--cache-verify"
    )
    assert code == 0
    assert "cache-verify: OK" in out


def test_kostka_cache_verify_detects_corruption(tmp_path, capsys):
    run(capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path))
    path = tmp_path / "kostka_n2.json"
    payload = json.loads(path.read_text())
    # flip one stored coefficient to a wrong but well-formed value
    payload["table"]["rows"][1]["entries"][0]["coeff"]["coeffs"] = ["7"]
    path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path), "--cache-verify"
    )
    assert code == 1
    assert "MISMATCH" in out


def test_kostka_ignores_unreadable_cache(tmp_path, capsys):
    for junk in ("not json at all", "[" * 100000):
        (tmp_path / "kostka_n2.json").write_text(junk)
        code, out, err = run(capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path))
        assert code == 0
        # the unreadable file was replaced by a fresh valid one
        assert json.loads((tmp_path / "kostka_n2.json").read_text())["n"] == 2


def test_kostka_cache_for_another_degree_is_a_miss(tmp_path, capsys):
    run(capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path))
    (tmp_path / "kostka_n2.json").rename(tmp_path / "kostka_n3.json")
    code, out, err = run(capsys, "kostka", "--n", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == run(capsys, "kostka", "--n", "3", "--no-cache")[1]
    assert json.loads((tmp_path / "kostka_n3.json").read_text())["n"] == 3


def test_kostka_cache_of_the_wrong_shape_is_a_miss(tmp_path, capsys):
    def no_rows(table):
        del table["rows"]

    def other_n(table):
        table["n"] = 2

    def coeff(value):
        def edit(table):
            table["rows"][0]["entries"][0]["coeff"]["coeffs"] = [value]
        return edit

    fresh = run(capsys, "kostka", "--n", "3", "--no-cache")[1]
    path = tmp_path / "kostka_n3.json"
    for damage in (no_rows, other_n, coeff("1/0"), coeff(float("inf")), coeff([1])):
        run(capsys, "kostka", "--n", "3", "--cache-dir", str(tmp_path))
        payload = json.loads(path.read_text())
        damage(payload["table"])
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "kostka", "--n", "3", "--cache-dir", str(tmp_path))
        assert (code, out, err) == (0, fresh, "")
        assert json.loads(path.read_text())["table"] == cli.hl.kostka_triangular(3).to_json()


def test_kostka_no_cache(tmp_path, capsys):
    code, out, err = run(
        capsys, "kostka", "--n", "2", "--cache-dir", str(tmp_path), "--no-cache"
    )
    assert code == 0
    assert not (tmp_path / "kostka_n2.json").exists()


def test_kostka_methods_agree(tmp_path, capsys):
    a = run(capsys, "kostka", "--n", "4", "--no-cache", "--json",
            "--cache-dir", str(tmp_path))
    b = run(capsys, "kostka", "--n", "4", "--no-cache", "--json",
            "--method", "orthogonality", "--cache-dir", str(tmp_path))
    assert a[0] == b[0] == 0
    assert json.loads(a[1]) == json.loads(b[1])


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMQ_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "kostka", "--n", "2")
    assert code == 0
    assert (tmp_path / "kostka_n2.json").exists()


def test_gp_command(capsys):
    code, out, err = run(capsys, "gp", "--partition", "2,1", "--character")
    assert code == 0
    assert "gdim    1+2q" in out
    assert "truncation: ok" in out
    code, out, err = run(capsys, "gp", "--partition", "2,1", "--output", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == [2, 1]
    assert all(obj["checks"].values())


def test_gp_rejects_bad_partition(capsys):
    code, out, err = run(capsys, "gp", "--partition", "1,2")
    assert code == 2


def test_skew_command(capsys):
    code, out, err = run(capsys, "skew", "--lambda", "3,1", "--nu", "1")
    assert code == 0
    assert out.splitlines()[0] == "(1 + q)*S[3] + S[2,1]"
    assert "positive: yes" in out


def test_skew_rejects_oversized_nu(capsys):
    code, out, err = run(capsys, "skew", "--lambda", "1", "--nu", "1,1")
    assert code == 2


def test_verify_command(capsys):
    code, out, err = run(capsys, "verify", "--suite", "orthogonality", "--max-n", "2")
    assert code == 0
    assert out.startswith("orthogonality: PASS")


@pytest.mark.parametrize("magnitude", ["1", "2"])
def test_verify_all_negative_max_n_is_usage_error(capsys, magnitude):
    code, out, err = run(capsys, "verify", "--max-n", f"-{magnitude}")
    assert code == 2
    assert out == ""
    assert "max_n must be nonnegative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["expand", "s[2,1]", "--to", "m"],
    ["inner", "P[2]", "Q[2]"],
    ["kostka", "--n", "3", "--no-cache"],
    ["gp", "--partition", "2,1"],
    ["skew", "--lambda", "3,1", "--nu", "1"],
    ["verify", "--suite", "hopf", "--max-n", "2"],
])
def test_json_flag_on_every_subcommand(capsys, monkeypatch, argv):
    # suite reports carry their elapsed time; freeze the clock they read
    monkeypatch.setattr(cli.verify, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0
    assert (code, out, err) == run(capsys, *argv, "--output", "json")
    json.loads(out)


def test_verify_all_json(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "1", "--output", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == list(cli.verify.SUITE_NAMES)
    assert all(r["passed"] for r in reports)
