"""The seeded request stream of the cli-session workload.

Every request comes from a fixed, finite pool of CLI invocations built from
POOL_SEED alone.  The pool is split into cells (say, `expand --to S` at degree
5, or `skew` at degree 4), and a session draws a fixed number of requests
from each cell, also by POOL_SEED.  The run seed, with the index of a
repetition within the run, only chooses their order, so:

- the recorded output digests of the pool check every request of every seed;
- every stream holds the same requests, whose latencies differ between
  orders only in which requests meet a cold cache;
- every stream pays the same one-off costs: each (target basis, degree) of
  `expand`, each degree of `kostka` (its first request per degree always uses
  the default triangular method, the one that fills the disk cache), each
  partition of 4 for `gp`, and the same `verify` requests.

Requests are argv lists for `symq.cli.main`.  CACHE_DIR stands for the
per-session temporary cache directory and is substituted at run time.

The expression grammar accepts unary minus only at the start of an expression
or of a parenthesised group, so sums use `a - b`, products parenthesise their
factors, and an argument that starts with `-` follows `--`, where argparse
stops reading options.
"""

from __future__ import annotations

import json
import random

__all__ = ["CACHE_DIR", "POOL_SEED", "pool", "stream", "request_key"]

CACHE_DIR = "{cache_dir}"
POOL_SEED = 20110837

BASES = ("m", "e", "h", "s", "p", "P", "Q", "S")
MAX_DEGREE = 5
GP_MAX_DEGREE = 4
# Coefficients that may open an expression; the ones starting with "-" need "--".
LEAD_COEFFS = ("", "q*", "(1 - q)*", "2*", "q^2*", "1/2*", "(q + q^-1)*", "-", "-q*", "-3/2*q^-1*")
# Coefficients that may follow a binary operator.
INNER_COEFFS = ("", "q*", "(1 - q)*", "2*", "q^3*", "1/3*", "(q^-1 - q)*")
VERIFY_REQUESTS = (
    ("kostka-routes", 4),
    ("pieri", 4),
    ("orthogonality", 3),
    ("gp-restriction", 4),
    ("big-schur", 3),
    ("hopf", 3),
)


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, largest part first, in reverse lexicographic order."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(first,) + rest for first in range(top, 0, -1) for rest in _partitions(n - first, first)]


def _label(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def _atom(rng: random.Random, degree: int, coeffs=LEAD_COEFFS) -> str:
    return f"{rng.choice(coeffs)}{rng.choice(BASES)}[{_label(rng.choice(_partitions(degree)))}]"


def _with_exprs(head: list[str], *exprs: str) -> list[str]:
    """Positional expressions, preceded by "--" when one starts with "-"."""
    return head + (["--"] if any(e.startswith("-") for e in exprs) else []) + list(exprs)


def _contained(nu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    return len(nu) <= len(lam) and all(a <= b for a, b in zip(nu, lam))


def _cells() -> list[tuple[int, list[list[str]]]]:
    """(draws per stream, pool requests) for every cell, in a fixed order."""
    rng = random.Random(POOL_SEED)
    degrees = range(1, MAX_DEGREE + 1)
    cells = []
    for target in BASES:
        head = ["expand", "--to", target]
        for d in degrees:
            cells.append((3, [_with_exprs(head, _atom(rng, d)) for _ in range(6)]))
            sums = [f"{_atom(rng, d)} {rng.choice('+-')} {_atom(rng, rng.randint(1, d), INNER_COEFFS)}"
                    for _ in range(3)]
            cells.append((1, [_with_exprs(head, expr) for expr in sums]))
            if d > 1:
                splits = [rng.randint(1, d - 1) for _ in range(3)]
                products = [f"({_atom(rng, k)})*({_atom(rng, d - k)})" for k in splits]
                cells.append((1, [_with_exprs(head, expr) for expr in products]))
    for d in degrees:
        cells.append((10, [_with_exprs(["inner"], _atom(rng, d), _atom(rng, d)) for _ in range(12)]))
    for d in range(2, MAX_DEGREE + 1):
        pairs = [
            (lam, nu)
            for lam in _partitions(d)
            for k in range(1, d)
            for nu in _partitions(k)
            if _contained(nu, lam)
        ]
        chosen = rng.sample(pairs, min(16, len(pairs)))
        cells.append((min(10, len(chosen)),
                      [["skew", "--lambda", _label(lam), "--nu", _label(nu)] for lam, nu in chosen]))
    for n in degrees:
        base = ["kostka", "--n", str(n), "--cache-dir", CACHE_DIR]
        cells.append((4, [
            base + method + output
            for method in ([], ["--method", "orthogonality"])
            for output in ([], ["--json"])
        ]))
    for lam in _partitions(GP_MAX_DEGREE):
        cells.append((1, [["gp", "--partition", _label(lam)] + flag for flag in ([], ["--character"])]))
    cells.append((7, [
        ["gp", "--partition", _label(lam)] + flag
        for n in range(1, GP_MAX_DEGREE)
        for lam in _partitions(n)
        for flag in ([], ["--character"])
    ]))
    for suite, n in VERIFY_REQUESTS:
        cells.append((1, [["verify", "--suite", suite, "--max-n", str(n)]]))
    return cells


def pool() -> list[list[str]]:
    """Every request a stream can hold, each once, in a fixed order."""
    unique: dict[str, list[str]] = {}
    for _, requests in _cells():
        for argv in requests:
            unique.setdefault(request_key(argv), argv)
    return list(unique.values())


def stream(seed: int, order: int = 0) -> list[list[str]]:
    """The request stream of one session: a function of the seed and order alone.

    Every (seed, order) pair gives the same requests in its own order.
    """
    draw = random.Random(POOL_SEED)
    out = [list(argv) for draws, requests in _cells() for argv in draw.sample(requests, draws)]
    random.Random(f"{seed}.{order}").shuffle(out)
    # The first kostka request of each degree fills the cache, always by the default method.
    first: dict[str, int] = {}
    for i, argv in enumerate(out):
        if argv[0] == "kostka":
            first.setdefault(argv[2], i)
    for i in first.values():
        out[i] = [a for a in out[i] if a not in ("--method", "orthogonality")]
    return out


def request_key(argv: list[str]) -> str:
    """The digest key of a request: its argv with CACHE_DIR unsubstituted."""
    return json.dumps(argv, separators=(",", ":"))
