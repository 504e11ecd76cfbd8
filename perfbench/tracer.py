"""Spans around calls into symq's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper that records a
span: id, name, start, end, parent span id and request id.  The wrapper is
bound under every name that refers to the original in any loaded symq
module, so `from .symfunc import hall_inner` in `symq.hl` is caught as well
as `symq.symfunc.hall_inner`.  QRat constructions are traced through
`QRat.__post_init__`, which normalises every new value.

`lru_cache` counters are read through `cache_info()`, never wrapped.  Spans
stay in memory until `write()`; `uninstall()` restores every binding.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

__all__ = ["Tracer", "TRACED", "CACHED"]

# (module, attribute) pairs whose calls are recorded.
TRACED = (
    ("symq.qcoeff", "poly_gcd"),
    ("symq._linalg", "invert_matrix"),
    ("symq.symfunc", "to_p"),
    ("symq.symfunc", "convert"),
    ("symq.symfunc", "hall_inner"),
    ("symq.symfunc", "plethysm_one_minus_q"),
    ("symq.symfunc", "product"),
    ("symq.symfunc", "coproduct"),
    ("symq.sncharacter", "char_table"),
    ("symq.hl", "hl_p"),
    ("symq.hl", "hl_q"),
    ("symq.hl", "big_schur"),
    ("symq.hl", "expand_in_big_schur"),
    ("symq.hl", "expand_in_hl_p"),
    ("symq.hl", "to_hl_basis"),
    ("symq.hl", "hl_to_native"),
    ("symq.hl", "kostka_triangular"),
    ("symq.hl", "kostka_orthogonality"),
    ("symq.hl", "char_gp"),
    ("symq.hl", "skew_q"),
    ("symq.gporacle", "graded_quotient"),
    ("symq.gporacle", "graded_character"),
    ("symq.gporacle", "oracle_report"),
    ("symq.gporacle", "oracle_vs_symbolic"),
    ("symq.verify", "run_suite"),
    ("symq.cli", "main"),
    ("symq.cli", "parse"),
    ("symq.cli", "format_symfunc"),
)
# (module, class, method, span name): methods recorded on the class itself.
TRACED_METHODS = (("symq.qcoeff", "QRat", "__post_init__", "qcoeff.QRat"),)
# The public lru_cache'd functions of symq.hl.
CACHED = ("hl_p", "hl_q", "big_schur", "kostka_triangular", "kostka_orthogonality")
# Spans whose first argument is kept, to know which inputs reached the layer.
KEEP_FIRST_ARG = ("gporacle.graded_quotient",)


def span_name(module: str, attr: str) -> str:
    """`symq._linalg` + `invert_matrix` -> `linalg.invert_matrix`."""
    return f"{module.removeprefix('symq.').lstrip('_')}.{attr}"


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1, request id, nested in a same-name span)
        self.spans: list[tuple[int, str, float, float, int, int, bool]] = []
        self.first_args: dict[str, list] = {name: [] for name in KEEP_FIRST_ARG}
        self.request = -1
        self.cached: dict[str, object] = {}
        self._next_id = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        keep = self.first_args.get(name)

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth = tracer._depth
            depth[name] = depth.get(name, 0) + 1
            if keep is not None and args:
                keep.append(args[0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                tracer.spans.append((sid, name, start, end, parent, tracer.request, depth[name] > 0))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr in TRACED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._rebind_everywhere(original, self._wrap(span_name(module, attr), original))
            if module == "symq.hl" and attr in CACHED:
                self.cached[attr] = original
        for module, cls_name, method, name in TRACED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symq" or mod_name.startswith("symq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, slowest call.

        Inclusive time counts only spans not nested in a span of the same
        name; self time is a span's duration minus its direct children's.
        """
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, _, nested in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
            dur = end - start
            row["calls"] += 1
            row["self_s"] += dur - child_time.get(sid, 0.0)
            if not nested:
                row["s"] += dur
            row["max_s"] = max(row["max_s"], dur)
        return out

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return {name: fn.cache_info()._asdict() for name, fn in self.cached.items()}

    def write(self, path: str) -> None:
        """All spans as gzip'd JSON, times in seconds from the first span start."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [
            [sid, index[name], round(start - t0, 9), round(end - t0, 9), parent, request]
            for sid, name, start, end, parent, request, _ in sorted(self.spans)
        ]
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "request"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
