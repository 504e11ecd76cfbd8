"""The verification harness itself: suite registry, reports, serialization."""

import pytest

from symq import verify
from symq.verify import SUITE_NAMES, run_all, run_suite


def test_suite_registry():
    assert SUITE_NAMES == (
        "orthogonality",
        "kostka-routes",
        "gp-restriction",
        "gp-oracle",
        "pieri",
        "skew",
        "big-schur",
        "hopf",
    )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", 3)
    with pytest.raises(ValueError):
        run_suite("orthogonality", -1)


def test_all_suites_pass_at_small_size():
    reports = run_all(3)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    for r in reports:
        assert r.passed, (r.suite, r.failures)
        assert r.checks_run > 0
        assert r.elapsed >= 0


def test_max_n_zero_runs_trivially():
    for name in SUITE_NAMES:
        r = run_suite(name, 0)
        assert r.passed


def test_report_json_shape():
    r = run_suite("orthogonality", 2)
    obj = r.to_json()
    assert obj["suite"] == "orthogonality"
    assert obj["max_n"] == 2
    assert obj["passed"] is True
    assert obj["failures"] == []
    assert isinstance(obj["elapsed"], float)
    assert "warnings" not in obj or obj["warnings"] == []


def test_hopf_report_records_seed():
    r = run_suite("hopf", 2)
    assert r.seed == verify.HOPF_SEED
    assert r.to_json()["seed"] == verify.HOPF_SEED


def test_gp_oracle_cap_warns(monkeypatch):
    monkeypatch.setattr(verify, "GP_ORACLE_CAP", 2)
    r = run_suite("gp-oracle", 4)
    assert r.max_n == 2
    assert any("capped" in w for w in r.warnings)
    assert r.passed


def test_check_failure_serialization():
    failure = verify.CheckFailure(
        identity="demo", instance={"lambda": "2,1"}, got="0", expected="1"
    )
    obj = failure.to_json()
    assert obj == {
        "identity": "demo",
        "instance": {"lambda": "2,1"},
        "got": "0",
        "expected": "1",
    }
