"""The symq benchmark: one command, three workloads, correctness-checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kostka-n6 --seed 1 --seconds 40 --trace 0

Each repetition runs the workload in a fresh single-threaded interpreter
(perfbench/child.py), so every lru_cache starts cold, as it does for each CLI
user.  One client drives the program in a closed loop and at most one child
runs at a time.  Repetitions continue while the next one fits in --seconds;
figures are medians over repetitions.

The shared host's speed drifts by tens of percent between runs, so a thread
in each child times a fixed pure-Python kernel every 20 ms of the timed
section (child.SpeedSampler).  Each repetition's wall, CPU and request times
are multiplied by SPEED_REF_S over that kernel's median time in the same
window, giving times on a host of fixed speed; set-up times, which have no
sampler, take the factor of the repetition beside them.  Per-layer span
times are not rescaled.  The raw wall and CPU times are in the report.

Workloads (see BENCHMARK.json for why each was chosen):

    kostka-n6    cold hl.kostka_triangular(6) and hl.kostka_orthogonality(6),
                 then a check that the two tables agree; ignores the seed.
    oracle-n5    cold gporacle.oracle_report(lam) for every lam |- 5 in an
                 order the seed permutes, then gporacle.oracle_vs_symbolic(5).
    cli-session  a fixed set of a few hundred requests through symq.cli.main,
                 in process, with stdout captured, in an order the seed and
                 the repetition's index choose; latency percentiles pool
                 the requests of all repetitions.

Every output is checked against the SHA-256 digests of its canonical JSON (or,
for CLI requests, of exit code and stdout) recorded in perfbench/digests/.
Outputs with no recorded digest are written to .bench_build/digests/, so two
commits can be compared on them.  A mismatch fails the operation, makes the
result incorrect and the exit status 1.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of perfbench/tracer.py.
The last line of stdout is the result JSON; the line before it holds the
machine facts, sample counts and failure rate.  Scratch files, spans and
results go to .bench_build/ in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("kostka-n6", "oracle-n5", "cli-session")
# Seconds after which no new child starts, and the hard stop for any child.
LAST_START_S = 150.0
HARD_STOP_S = 175.0
SETUP_PROBES = 5
# The speed kernel's median time (child.speed_kernel) that times are rescaled
# to: close to its in-run median on a 2-vCPU Xeon under Python 3.11.7, so
# rescaled times read near raw ones there.
SPEED_REF_S = 0.001
MIN_SPEED_SAMPLES = 20

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)

SYMFUNC_TRACED = ("to_p", "convert", "hall_inner", "plethysm_one_minus_q", "product", "coproduct")
CLI_COMMANDS = ("expand", "inner", "kostka", "skew", "gp", "verify")

# (metric, unit, span name, span field): per-layer figures read from spans.
SPAN_METRICS = (
    ("qcoeff.poly_gcd.calls", "count", "qcoeff.poly_gcd", "calls"),
    ("qcoeff.poly_gcd.self_s", "s", "qcoeff.poly_gcd", "self_s"),
    ("qcoeff.QRat.calls", "count", "qcoeff.QRat", "calls"),
    ("qcoeff.QRat.self_s", "s", "qcoeff.QRat", "self_s"),
    ("linalg.invert_matrix.calls", "count", "linalg.invert_matrix", "calls"),
    ("linalg.invert_matrix.s", "s", "linalg.invert_matrix", "s"),
    *(
        (f"symfunc.{fn}.{field}", "count" if field == "calls" else "s", f"symfunc.{fn}", field)
        for fn in SYMFUNC_TRACED
        for field in ("calls", "self_s")
    ),
    ("sncharacter.char_table.s", "s", "sncharacter.char_table", "s"),
    ("hl.hl_p.s", "s", "hl.hl_p", "s"),
    ("hl.expand_in_big_schur.self_s", "s", "hl.expand_in_big_schur", "self_s"),
    ("hl.kostka_triangular.s", "s", "hl.kostka_triangular", "s"),
    ("hl.kostka_orthogonality.s", "s", "hl.kostka_orthogonality", "s"),
    ("hl.skew_q.calls", "count", "hl.skew_q", "calls"),
    ("hl.skew_q.s", "s", "hl.skew_q", "s"),
    ("gporacle.graded_quotient.s", "s", "gporacle.graded_quotient", "s"),
    ("gporacle.graded_quotient.max_s", "s", "gporacle.graded_quotient", "max_s"),
    ("gporacle.graded_character.s", "s", "gporacle.graded_character", "s"),
    ("gporacle.symbolic_s", "s", "hl.char_gp", "s"),
    ("cli.parse.s", "s", "cli.parse", "s"),
    ("cli.format_symfunc.s", "s", "cli.format_symfunc", "s"),
    ("verify.run_suite.calls", "count", "verify.run_suite", "calls"),
    ("verify.run_suite.s", "s", "verify.run_suite", "s"),
)
# Per-layer figures computed from counters rather than span totals.
OTHER_LAYER_METRICS = (
    ("hl.hl_p.misses", "count"),
    ("hl.big_schur.misses", "count"),
    ("hl.cache_hit_ratio", "ratio"),
    ("gporacle.rows_offered", "count"),
    ("gporacle.rank", "count"),
    ("gporacle.useful_ratio", "ratio"),
    *((f"cli.{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS),
    ("cli.kostka_cache_hits", "count"),
    ("cli.kostka_cache_writes", "count"),
    ("verify.checks_run", "count"),
    ("trace_overhead_s", "s"),
)
PER_LAYER = tuple((m, u) for m, u, _, _ in SPAN_METRICS) + OTHER_LAYER_METRICS
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "qcoeff.poly_gcd.calls",
    "qcoeff.QRat.calls",
    "hl.hl_p.misses",
    "hl.big_schur.misses",
    "gporacle.rows_offered",
    "gporacle.rank",
)


class ChildFailed(RuntimeError):
    pass


# -- children ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py on spec; returns its result (with setup_s) and its duration."""
    scratch = BUILD / "runs" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "result.json"
    out.unlink(missing_ok=True)
    spec = {**spec, "out": str(out), "scratch": str(scratch)}
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(deadline - launched, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child exceeded the {HARD_STOP_S:.0f} s limit") from exc
    duration = time.monotonic() - launched
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["setup_done"] - launched
    expected = ROOT / "src" / "symq" / "__init__.py"
    if Path(result["symq_file"]) != expected.resolve():
        raise ChildFailed(f"child imported symq from {result['symq_file']}, not {expected}")
    return result, duration


# -- correctness -------------------------------------------------------------------


def load_digests(path: Path) -> dict[str, str]:
    return json.loads(path.read_text())["digests"] if path.exists() else {}


def save_digests(path: Path, digests: dict[str, str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n")


class Digests:
    """Recorded output digests: committed ones, then those recorded locally."""

    def __init__(self, workload: str) -> None:
        self.local_path = BUILD / "digests" / f"{workload}.json"
        self.local = load_digests(self.local_path)
        self.known = {**self.local, **load_digests(HERE / "digests" / f"{workload}.json")}
        self.new: dict[str, str] = {}
        self.checked = 0

    def check(self, key: str, value: str) -> bool:
        expected = self.known.get(key)
        if expected is None:
            self.known[key] = self.new[key] = value
            return True
        self.checked += 1
        return value == expected

    def save_new(self) -> None:
        if self.new:
            save_digests(self.local_path, {**self.local, **self.new})


def check_ops(result: dict, digests: Digests) -> tuple[int, int]:
    """(attempted, failed) over one repetition's operations."""
    failed = 0
    for op in result["ops"]:
        good = op["ok"]
        for key, value in op["outputs"].items():
            good = digests.check(key, value) and good
        failed += not good
    return len(result["ops"]), failed


# -- statistics --------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def scaled(results: list[dict], key: str) -> float:
    """Median over repetitions of a time, each rescaled to the reference speed."""
    return statistics.median(r[key] * r["scale"] for r in results)


def op_latencies(results: list[dict]) -> list[float]:
    """Rescaled seconds per request, pooled over the repetitions.

    Each cli-session repetition sends the same requests in another order, so
    the pool's percentiles average over which requests meet a cold cache.  A
    workload without per-request timings is one request per repetition, whose
    latency is the median wall time.
    """
    pooled = [op["seconds"] * r["scale"] for r in results for op in r["ops"]
              if op["seconds"] is not None]
    return pooled or [scaled(results, "wall_s")]


def end_to_end(untraced: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Medians over repetitions of times rescaled to SPEED_REF_S."""
    lat = op_latencies(untraced)
    p90 = percentile(lat, 0.9)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": scaled(untraced, "wall_s"),
        "cpu_s": scaled(untraced, "cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": p90 * 1000,
    }
    samples = {
        "repetitions": len(untraced),
        "raw_wall_s_per_repetition": [r["wall_s"] for r in untraced],
        "raw_cpu_s_per_repetition": [r["cpu_s"] for r in untraced],
        "speed_s_per_repetition": [r["speed_s"] for r in untraced],
        "speed_samples_per_repetition": [r["speed_samples"] for r in untraced],
        "setup_samples": len(setups),
        "requests": len(lat),
        "requests_beyond_p90": sum(x > p90 for x in lat),
    }
    return values, samples


def layer_counts(result: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    layers = result["layers"]
    spans = layers["spans"]
    out: dict[str, float] = {}
    for metric, _, span, field in SPAN_METRICS:
        out[metric] = spans.get(span, {}).get(field, 0)
    cache = layers["cache"]
    out["hl.hl_p.misses"] = cache["hl_p"]["misses"]
    out["hl.big_schur.misses"] = cache["big_schur"]["misses"]
    hits = sum(c["hits"] for c in cache.values())
    lookups = hits + sum(c["misses"] for c in cache.values())
    out["hl.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["gporacle.rows_offered"] = layers["rows_offered"]
    out["gporacle.rank"] = layers["rank"]
    out["gporacle.useful_ratio"] = (
        layers["rank"] / layers["rows_offered"] if layers["rows_offered"] else 0.0
    )
    for cmd in CLI_COMMANDS:
        times = [op["seconds"] for op in result["ops"]
                 if op["command"] == cmd and op["seconds"] is not None]
        out[f"cli.{cmd}.p50_ms"] = statistics.median(times) * 1000 if times else 0.0
    extra = result["extra"]
    out["cli.kostka_cache_hits"] = extra.get("kostka_cache_hits", 0)
    out["cli.kostka_cache_writes"] = extra.get("kostka_cache_writes", 0)
    out["verify.checks_run"] = extra.get("verify_checks_run", 0)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Medians over traced repetitions, plus any exact count that did not repeat."""
    rows = [layer_counts(r) for r in traced]
    values = {
        m: (statistics.median_low if unit == "count" else statistics.median)(row[m] for row in rows)
        for m, unit in PER_LAYER
        if m != "trace_overhead_s"
    }
    values["trace_overhead_s"] = scaled(traced, "wall_s") - scaled(untraced, "wall_s")
    unstable = [m for m in EXACT_COUNTS if len({row[m] for row in rows}) > 1]
    return values, unstable


# -- machine facts -----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


# -- main --------------------------------------------------------------------------


def measure(args) -> dict:
    started = time.monotonic()
    hard_stop = started + HARD_STOP_S
    base = {"workload": args.workload, "seed": args.seed, "trace": False}

    def probe() -> float:
        return run_child({**base, "probe": True}, hard_stop)[0]["setup_s"]

    probe()  # fills the bytecode cache; not measured
    first_setups = [probe() for _ in range(SETUP_PROBES)]
    setups: list[float] = []

    digests = Digests(args.workload)
    kinds = (False, True) if args.trace else (False,)
    results: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    spans_dir = BUILD / "trace"
    measuring = time.monotonic()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        # Untraced repetitions each take the next request order; traced ones
        # keep the first, so that their exact counts must repeat.
        order = 0 if traced else len(results[False])
        spec = {**base, "trace": traced, "params": {"order": order}}
        if traced:
            spans_dir.mkdir(parents=True, exist_ok=True)
            spec["spans"] = str(spans_dir / f"{args.workload}-seed{args.seed}-rep{i}.json.gz")
        result, duration = run_child(spec, hard_stop)
        if result["speed_samples"] < MIN_SPEED_SAMPLES:
            raise ChildFailed(f"only {result['speed_samples']} host speed samples")
        result["scale"] = SPEED_REF_S / result["speed_s"]
        results[traced].append(result)
        durations[traced].append(duration)
        # Probes between repetitions spread set-up samples over the whole run.
        # Each is rescaled by the host speed of the repetition beside it.
        near = [result["setup_s"], probe(), probe(), probe()] + (first_setups if i == 0 else [])
        setups += [t * result["scale"] for t in near]
        a, f = check_ops(result, digests)
        attempted += a
        failed += f
        upcoming = kinds[(i + 1) % len(kinds)]
        estimate = statistics.median(durations[upcoming] or durations[traced])
        now = time.monotonic()
        if now - started + estimate > LAST_START_S:
            break
        if all(results[k] for k in kinds) and now - measuring + estimate > args.seconds:
            break
    digests.save_new()
    if not all(results[k] for k in kinds):
        raise ChildFailed("no time left for a traced repetition")

    values, samples = end_to_end(results[False], setups)
    units = dict(END_TO_END)
    unstable: list[str] = []
    if args.trace:
        values, unstable = per_layer(results[True], results[False])
        units = dict(PER_LAYER)
        samples["traced_repetitions"] = len(results[True])
    return {
        "values": values,
        "units": units,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "digests_checked": digests.checked,
        "digests_recorded": len(digests.new),
        "unstable_counts": unstable,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symq" / "__init__.py").is_file():
        print(f"error: no symq source tree at {ROOT / 'src' / 'symq'}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    try:
        m = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(BUILD / "runs" / f"{os.getpid()}", ignore_errors=True)

    correct = m["failed"] == 0 and not m["unstable_counts"]
    for name, value in m["values"].items():
        print(f"{name:34s} {value:14.6f} {m['units'][name]}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "samples": m["samples"],
        "fail_rate": m["failed"] / m["attempted"] if m["attempted"] else 1.0,
        "digests_checked": m["digests_checked"],
        "digests_recorded": m["digests_recorded"],
        "unstable_counts": m["unstable_counts"],
    }
    result = {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            name: {"value": value, "unit": m["units"][name]} for name, value in m["values"].items()
        },
    }
    results_dir = BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
