"""The cli-session request stream: seeded, grammar-valid and fully recorded."""

import json

import pytest

import run
import session
from symq import cli


def substituted(argv):
    return ["/tmp/cache" if a == session.CACHE_DIR else a for a in argv]


def test_same_seed_same_stream():
    assert session.stream(7) == session.stream(7)


def test_another_seed_or_order_index_reorders_the_same_requests():
    assert session.stream(7) != session.stream(8)
    assert session.stream(7, 1) != session.stream(7)

    def others(*key):
        return sorted(session.request_key(argv) for argv in session.stream(*key) if argv[0] != "kostka")

    assert others(7) == others(8) == others(7, 1)


def test_stream_draws_from_pool():
    pool = {session.request_key(argv) for argv in session.pool()}
    for seed in range(5):
        assert {session.request_key(argv) for argv in session.stream(seed)} <= pool


def test_every_stream_pays_the_same_one_off_costs():
    for seed in range(5):
        requests = session.stream(seed)
        assert len(requests) == len(session.stream(seed + 100))
        assert {argv[2] for argv in requests if argv[0] == "expand"} == set(session.BASES)
        kostka = [argv for argv in requests if argv[0] == "kostka"]
        assert {argv[2] for argv in kostka} == {str(n) for n in range(1, session.MAX_DEGREE + 1)}
        first = {}
        for argv in kostka:
            first.setdefault(argv[2], argv)
        assert not any("--method" in argv for argv in first.values())
        gp4 = {argv[2] for argv in requests if argv[0] == "gp" and sum(map(int, argv[2].split(","))) == 4}
        assert len(gp4) == 5
        verify = [argv for argv in requests if argv[0] == "verify"]
        assert sorted((argv[2], int(argv[4])) for argv in verify) == sorted(session.VERIFY_REQUESTS)


@pytest.mark.parametrize("argv", session.pool(), ids=session.request_key)
def test_request_is_grammar_valid(argv):
    args = cli.build_parser().parse_args(substituted(argv))
    exprs = {"expand": ["expr"], "inner": ["left", "right"]}.get(argv[0], [])
    for name in exprs:
        expr = getattr(args, name)
        cli.parse(expr)
        assert "+ -" not in expr and "- -" not in expr and "* -" not in expr


def test_pool_outputs_are_recorded():
    recorded = json.loads((run.HERE / "digests" / "cli-session.json").read_text())["digests"]
    assert {session.request_key(argv) for argv in session.pool()} <= set(recorded)


def test_unary_minus_after_operator_is_a_usage_error():
    """The grammar limit the generator works around; fixing it is out of scope here."""
    assert cli.main(["expand", "--", "s[1] + -s[1]"]) == 2
