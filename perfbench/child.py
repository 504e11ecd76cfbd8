"""One cold run of one workload, in a fresh interpreter started by run.py.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds `workload`, `seed`, `trace` (bool), `probe` (bool), `out`
(where the result JSON goes), `spans` (where a traced run writes its spans),
`scratch` (a directory the run may use) and optional `params`: `n` for the
size of kostka-n6 and oracle-n5, `requests` to cut a session short, `order`
to pick one of the seed's request orders, and `pool` to send every pool
request once instead of the seeded stream.

`symq` is imported before anything else so that the reported set-up instant
covers interpreter start and `import symq` alone.
"""

import time

import symq

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

from symq import cli, gporacle, hl  # noqa: E402
from symq.partition import partitions  # noqa: E402

import session  # noqa: E402
from tracer import Tracer  # noqa: E402

VERIFY_ELAPSED = re.compile(r"(\(\d+ checks, )\d+\.\d+s\)")
VERIFY_CHECKS = re.compile(r"\((\d+) checks, ")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class NullTracer:
    """Stands in for Tracer in untraced runs: only the request id is set."""

    request = -1


def speed_kernel() -> int:
    """A fixed piece of pure-Python work (about 1 ms) that uses no symq code."""
    table: dict[tuple[int, int], Fraction] = {}
    x = Fraction(1, 3)
    for i in range(1, 120):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + Fraction(i, i + 1) * x
    return len(table)


class SpeedSampler:
    """Samples how fast the host runs Python during the timed section.

    A daemon thread times speed_kernel() every PERIOD_S seconds.  The shared
    host's speed drifts by tens of percent over seconds to minutes, and the
    kernel slows with it, so run.py rescales each repetition's times by the
    median kernel time measured in the same window.  Each sample costs the
    main thread about 1 ms plus a GIL hand-off, some 3% of the run.
    """

    PERIOD_S = 0.02

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = perf_counter()
            speed_kernel()
            self.samples.append(perf_counter() - start)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def median_s(self) -> float | None:
        return statistics.median(self.samples) if self.samples else None


class Run:
    """Timed section bookkeeping shared by the workloads."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.ops: list[dict] = []
        self.extra: dict = {}

    def op(self, request: int, command: str, outputs: dict[str, str], ok: bool,
           seconds: float | None = None) -> None:
        self.ops.append({
            "request": request,
            "command": command,
            "outputs": outputs,
            "ok": ok,
            "seconds": seconds,
        })


# -- workloads ---------------------------------------------------------------------


def kostka_workload(run: Run, seed: int, params: dict) -> None:
    """Both Kostka routes at degree n from cold caches, then route agreement."""
    n = params.get("n", 6)
    run.tracer.request = 0
    tri = hl.kostka_triangular(n)
    run.tracer.request = 1
    orth = hl.kostka_orthogonality(n)
    same = tri == orth
    run.op(0, "kostka_triangular", {f"kostka_triangular({n})": canonical(tri.to_json())}, True)
    run.op(1, "kostka_orthogonality", {f"kostka_orthogonality({n})": canonical(orth.to_json())}, same)


def oracle_workload(run: Run, seed: int, params: dict) -> None:
    """The oracle for every partition of n, in seeded order, then the comparison."""
    n = params.get("n", 5)
    order = list(partitions(n))
    random.Random(seed).shuffle(order)
    for i, lam in enumerate(order):
        run.tracer.request = i
        report = gporacle.oracle_report(lam)
        character = gporacle.graded_character(lam)
        run.op(i, "oracle_report", {
            f"oracle_report({lam})": canonical(report),
            f"graded_character({lam})": canonical(character.to_json()),
        }, all(report["checks"].values()))
    run.tracer.request = len(order)
    cmp = gporacle.oracle_vs_symbolic(n)
    outcome = {
        "n": cmp.n,
        "checked": cmp.checked,
        "mismatches": [[str(a), str(b), x, y] for a, b, x, y in cmp.mismatches],
    }
    run.op(len(order), "oracle_vs_symbolic", {f"oracle_vs_symbolic({n})": canonical(outcome)},
           cmp.ok and cmp.checked == len(order) ** 2)


def cli_request(argv: list[str]) -> tuple[int | str, str]:
    """Run one request through cli.main with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed request, not a crash of the run
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def session_workload(run: Run, seed: int, params: dict, cache_dir: str) -> None:
    """A closed-loop client sending the seeded request stream through cli.main."""
    requests = session.pool() if params.get("pool") else session.stream(seed, params.get("order", 0))
    requests = requests[: params.get("requests")]
    hits = writes = checks_run = 0
    for i, template in enumerate(requests):
        argv = [cache_dir if a == session.CACHE_DIR else a for a in template]
        command = template[0]
        cache_file = None
        if command == "kostka":
            cache_file = os.path.join(cache_dir, f"kostka_n{argv[argv.index('--n') + 1]}.json")
            existed = os.path.exists(cache_file)
        run.tracer.request = i
        start = perf_counter()
        code, stdout = cli_request(argv)
        seconds = perf_counter() - start
        if cache_file is not None:
            hits += existed
            writes += not existed and os.path.exists(cache_file)
        if command == "verify":
            checks_run += sum(int(m) for m in VERIFY_CHECKS.findall(stdout))
            stdout = VERIFY_ELAPSED.sub(r"\1*s)", stdout)
        run.op(i, command, {session.request_key(template): f"{code}\n{stdout}"}, code == 0, seconds)
    run.extra.update(kostka_cache_hits=hits, kostka_cache_writes=writes, verify_checks_run=checks_run)


# -- per-layer figures -------------------------------------------------------------


def oracle_rows(lam) -> tuple[int, int]:
    """Rows offered to the oracle's elimination and their rank, from public data.

    Every Tanisaki generator e_t(x_I) with t <= d is multiplied by every degree
    d - t monomial, for d = 0 .. n(lam) + 1; the rank of degree d is the
    monomial count minus the quotient dimension (zero at n(lam) + 1).
    """
    n, top = lam.size, lam.n_stat()
    gens = gporacle.tanisaki_generators(lam)
    dims = gporacle.graded_quotient(lam).dims
    offered = rank = 0
    for d in range(top + 2):
        offered += sum(len(gporacle.monomial_space(n, d - t).monomials) for _, t in gens if t <= d)
        rank += len(gporacle.monomial_space(n, d).monomials) - (dims[d] if d <= top else 0)
    return offered, rank


def layer_figures(tracer: Tracer) -> dict:
    """Exact counts and span totals of one traced run."""
    lams = list(dict.fromkeys(tracer.first_args["gporacle.graded_quotient"]))
    offered = rank = 0
    for lam in lams:
        o, r = oracle_rows(lam)
        offered += o
        rank += r
    return {
        "spans": tracer.summary(),
        "cache": tracer.cache_stats(),
        "oracle_partitions": [str(lam) for lam in lams],
        "rows_offered": offered,
        "rank": rank,
    }


# -- main --------------------------------------------------------------------------


def main(spec: dict) -> dict:
    result = {"setup_done": SETUP_DONE, "symq_file": os.path.abspath(symq.__file__)}
    if spec.get("probe"):
        return result
    workload, seed, params = spec["workload"], spec["seed"], spec.get("params", {})
    tracer = Tracer() if spec["trace"] else NullTracer()
    run = Run(tracer)
    cache_dir = os.path.join(spec["scratch"], "cache")
    if workload == "cli-session":
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.makedirs(cache_dir)
        os.environ["SYMQ_CACHE_DIR"] = cache_dir
    if spec["trace"]:
        tracer.install()
    speed = SpeedSampler()
    try:
        speed.start()
        start = perf_counter()
        if workload == "kostka-n6":
            kostka_workload(run, seed, params)
        elif workload == "oracle-n5":
            oracle_workload(run, seed, params)
        elif workload == "cli-session":
            session_workload(run, seed, params, cache_dir)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        wall = perf_counter() - start
        speed.stop()
        usage = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        speed.stop()
        if spec["trace"]:
            tracer.uninstall()
        shutil.rmtree(cache_dir, ignore_errors=True)
    result.update(
        wall_s=wall,
        speed_s=speed.median_s(),
        speed_samples=len(speed.samples),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        ops=[
            {**op, "outputs": {k: digest(v) for k, v in op["outputs"].items()}}
            for op in run.ops
        ],
        extra=run.extra,
    )
    if spec["trace"]:
        result["layers"] = layer_figures(tracer)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    outcome = main(spec)
    with open(spec["out"], "w") as fh:
        json.dump(outcome, fh)
