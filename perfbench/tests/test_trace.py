"""Tracing: exact counts repeat, outputs do not change, every binding is caught."""

import time

import pytest

import run
import symq
from tracer import TRACED, Tracer

SMALL = {
    "kostka-n6": {"n": 4},
    "oracle-n5": {"n": 4},
    "cli-session": {"requests": 80},
}


def child(workload, trace):
    spec = {"workload": workload, "seed": 5, "trace": trace, "params": SMALL[workload]}
    return run.run_child(spec, time.monotonic() + 120)[0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_and_outputs_do_not_change(workload):
    first, second = child(workload, True), child(workload, True)
    plain = child(workload, False)
    counts = [{m: run.layer_counts(r)[m] for m in run.EXACT_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["qcoeff.QRat.calls"] > 0
    outputs = [[op["outputs"] for op in r["ops"]] for r in (first, second, plain)]
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(op["ok"] for op in plain["ops"])


def test_layer_metrics_cover_the_declared_list():
    result = child("cli-session", True)
    assert set(run.layer_counts(result)) | {"trace_overhead_s"} == {m for m, _ in run.PER_LAYER}


def test_install_rebinds_every_import_by_name_and_uninstall_restores():
    from symq import cli, hl, symfunc

    original = symfunc.hall_inner
    tracer = Tracer()
    tracer.install()
    try:
        assert symfunc.hall_inner is not original
        assert hl.hall_inner is symfunc.hall_inner
        assert cli.hall_inner is symfunc.hall_inner
        assert symq.hall_inner is symfunc.hall_inner
        tracer.request = 3
        one = symfunc.unit("s", symq.Partition((1,)))
        hl.hall_inner(one, one)
    finally:
        tracer.uninstall()
    assert symfunc.hall_inner is original and hl.hall_inner is original
    names = {span[1] for span in tracer.spans}
    assert "symfunc.hall_inner" in names
    assert all(span[5] == 3 for span in tracer.spans)
    summary = tracer.summary()["symfunc.hall_inner"]
    assert summary["calls"] == 1 and 0 <= summary["self_s"] <= summary["s"]


def test_every_traced_name_exists():
    import importlib

    for module, attr in TRACED:
        assert callable(getattr(importlib.import_module(module), attr))


def test_rows_offered_of_the_coinvariant_case_at_n4():
    """(1^4): rows offered and rank, from public data, against a direct count."""
    import child as child_module
    from symq import gporacle
    from symq.partition import Partition

    lam = Partition((1, 1, 1, 1))
    offered, rank = child_module.oracle_rows(lam)
    top = lam.n_stat()
    direct_rank = sum(
        len(gporacle.monomial_space(4, d).monomials) for d in range(top + 2)
    ) - sum(gporacle.graded_quotient(lam).dims)
    assert rank == direct_rank
    assert offered >= rank > 0
