"""Command-line interface: expression language, tables, oracle runs, suites.

Expression grammar (whitespace insignificant, offsets are byte positions):

    expr      := ['-'] term (('+'|'-') term)*
    term      := atom ('*' atom)*
    atom      := INT ('/' INT)? | 'q' ('^' ['-'] INT)? | BASIS '[' partition ']'
               | '(' expr ')'
    partition := INT (',' INT)*        (nonincreasing, positive)
    BASIS     := one of m e h s p P Q S

The leading minus and the INT/INT rational literal exist so that every
expansion the tool prints is itself valid input (print/parse round-trip).
Coefficients that are not Laurent polynomials fall back to an aligned table
with "num / den" cells, which is display-only.

Parentheses nest at most MAX_NESTING deep; deeper input is a syntax error,
as is an integer literal too long for int().  Long operator chains are walked
iteratively, so their length costs no stack.  Laurent polynomials are stored
densely, so an expression whose q-exponents could span more than MAX_QSPAN
(see static_qspan) is a usage error.  So is one whose coefficients could pass
10**MAX_DIGITS (see static_digits), since Python will not print an integer of
more than 4300 digits.

Exit codes: 0 success, 1 identity/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__, hl, verify
from .gporacle import oracle_report
from .partition import Partition, parse_partition
from .qcoeff import QPoly, QRat
from .symfunc import HL_BASES, NATIVE_BASES, SymFunc, convert, hall_inner, to_p, unit

__all__ = ["main", "parse", "eval_expr", "format_symfunc", "ExprSyntaxError"]

CACHE_FORMAT_VERSION = 1
DEFAULT_SYMBOLIC_BOUND = 7
# the oracle takes about 0.5 s on (1^5) but still about 100 s on (1^6)
DEFAULT_ORACLE_BOUND = 5
MAX_NESTING = 100
MAX_QSPAN = 256
# coefficients up to 10**MAX_DIGITS stay below Python's 4300-digit str() limit,
# with headroom for the basis-change factors
MAX_DIGITS = 4000


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


# -- tokenizer and parser ---------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_PUNCT = set("+-*/^()[],")


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isalpha():
            out.append(_Token("NAME", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("EOF", "", len(text)))
    return out


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class QPow:
    exponent: int


@dataclass(frozen=True)
class BasisElem:
    basis: str
    partition: Partition


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Num | QPow | BasisElem | BinOp | Neg


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse_expr(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            node: Expr = Neg(self.parse_term())
        else:
            node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_atom()
        while self.peek().kind == "*":
            self.advance()
            node = BinOp("*", node, self.parse_atom())
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            value = Fraction(_int(tok))
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("INT")
                if _int(den) == 0:
                    raise ExprSyntaxError("zero denominator", den.pos)
                value /= _int(den)
            return Num(value)
        if tok.kind == "NAME" and tok.text == "q":
            self.advance()
            if self.peek().kind == "^":
                self.advance()
                sign = 1
                if self.peek().kind == "-":
                    self.advance()
                    sign = -1
                exp = self.expect("INT")
                return QPow(sign * _int(exp))
            return QPow(1)
        if tok.kind == "NAME":
            if tok.text not in NATIVE_BASES + HL_BASES:
                raise ExprSyntaxError(f"unknown basis {tok.text!r}", tok.pos)
            self.advance()
            self.expect("[")
            parts = [self._part_entry()]
            while self.peek().kind == ",":
                self.advance()
                parts.append(self._part_entry())
            self.expect("]")
            values = [v for v, _ in parts]
            for i in range(len(values) - 1):
                if values[i] < values[i + 1]:
                    raise ExprSyntaxError("parts must be nonincreasing", parts[i + 1][1])
            return BasisElem(tok.text, Partition(tuple(values)))
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.advance()
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)

    def _part_entry(self) -> tuple[int, int]:
        tok = self.expect("INT")
        value = _int(tok)
        if value <= 0:
            raise ExprSyntaxError("parts must be positive", tok.pos)
        return value, tok.pos


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ExprSyntaxError(f"integer literal of {len(tok.text)} digits is too long",
                              tok.pos) from None


def parse(text: str) -> Expr:
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
    return node


def _left_chain(node: BinOp) -> tuple[Expr, list[tuple[str, Expr]]]:
    """a op1 b op2 c ..., parsed left-nested, as (a, [(op1, b), (op2, c), ...])."""
    rest = []
    while isinstance(node, BinOp):
        rest.append((node.op, node.right))
        node = node.left
    rest.reverse()
    return node, rest


def static_degree(node: Expr) -> int:
    """Largest homogeneous degree the expression can produce."""
    if isinstance(node, (Num, QPow)):
        return 0
    if isinstance(node, BasisElem):
        return node.partition.size
    if isinstance(node, Neg):
        return static_degree(node.operand)
    first, rest = _left_chain(node)
    deg = static_degree(first)
    for op, right in rest:
        d = static_degree(right)
        deg = deg + d if op == "*" else max(deg, d)
    return deg


def static_qspan(node: Expr) -> int:
    """Bound on the q-exponent span of any coefficient the expression builds.

    q^k counts |k| and every other atom 0; '+' and '-' take the max, '*' adds.
    """
    if isinstance(node, QPow):
        return abs(node.exponent)
    if isinstance(node, (Num, BasisElem)):
        return 0
    if isinstance(node, Neg):
        return static_qspan(node.operand)
    first, rest = _left_chain(node)
    span = static_qspan(first)
    for op, right in rest:
        k = static_qspan(right)
        span = span + k if op == "*" else max(span, k)
    return span


def static_digits(node: Expr) -> int:
    """A d with |c| <= 10**d for every numerator and denominator c the expression builds.

    Such a c has at most d + 1 digits.  For integer coefficients '*' adds the
    bounds and '+'/'-' take the max plus one.  A rational literal also carries
    a bound on its denominator, which '*', '+' and '-' all add, since the
    denominator of a sum divides the product of the two.
    """
    return max(_digit_bounds(node))


def _log10_ceil(k: int) -> int:
    """The least d >= 0 with |k| <= 10**d."""
    k = abs(k)
    return len(str(k - 1)) if k > 1 else 0


def _digit_bounds(node: Expr) -> tuple[int, int]:
    """(numerator bound, denominator bound) in the sense of static_digits."""
    if isinstance(node, Num):
        return _log10_ceil(node.value.numerator), _log10_ceil(node.value.denominator)
    if isinstance(node, (QPow, BasisElem)):
        return 0, 0
    if isinstance(node, Neg):
        return _digit_bounds(node.operand)
    first, rest = _left_chain(node)
    num, den = _digit_bounds(first)
    for op, right in rest:
        n, d = _digit_bounds(right)
        if op == "*":
            num = num + n
        else:
            num = max(num + d, n + den) + 1
        den += d
    return num, den


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(node: Expr) -> SymFunc:
    """Evaluate to an exact element, carried in the power-sum basis."""
    if isinstance(node, Num):
        return SymFunc("p", {Partition(): QRat.from_fraction(node.value)})
    if isinstance(node, QPow):
        return SymFunc("p", {Partition(): QRat.from_poly(QPoly.monomial(node.exponent))})
    if isinstance(node, BasisElem):
        elem = unit(node.basis, node.partition)
        if node.basis in HL_BASES:
            return to_p(hl.hl_to_native(elem, "s"))
        return to_p(elem)
    if isinstance(node, Neg):
        return -eval_expr(node.operand)
    first, rest = _left_chain(node)
    acc = eval_expr(first)
    for op, right in rest:
        acc = _BINARY[op](acc, eval_expr(right))
    return acc


# -- printing ---------------------------------------------------------------------


def _mono_expr(c: Fraction, k: int) -> str:
    """One monomial c*q^k with c > 0, in re-parseable form."""
    bits = []
    if c != 1 or k == 0:
        bits.append(str(c))
    if k == 1:
        bits.append("q")
    elif k != 0:
        bits.append(f"q^{k}")
    return "*".join(bits)


def _poly_expr(p: QPoly) -> str:
    pieces = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        body = _mono_expr(abs(c), p.offset + i)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces) if pieces else "0"


def _term_expr(coeff: QPoly, label: str | None) -> tuple[int, str]:
    """(sign, body) for one basis term; sign applies outside the body."""
    nonzero = [c for c in coeff.coeffs if c]
    if label is None:
        return 1, _poly_expr(coeff)
    if len(nonzero) == 1:
        c = nonzero[0]
        sign = 1 if c > 0 else -1
        k = coeff.offset
        if abs(c) == 1 and k == 0:
            return sign, label
        return sign, f"{_mono_expr(abs(c), k)}*{label}"
    return 1, f"({_poly_expr(coeff)})*{label}"


def format_symfunc(f: SymFunc) -> str:
    """Expression form when coefficients are Laurent polynomials, else a table."""
    if f.is_zero():
        return "0"
    if all(c.is_poly() for c in f.terms.values()):
        pieces = []
        for lam, c in f.sorted_terms():
            label = None if lam.size == 0 and not lam.parts else f"{f.basis}[{lam}]"
            sign, body = _term_expr(c.as_poly(), label)
            if not pieces:
                pieces.append(body if sign > 0 else "-" + body)
            else:
                pieces.append((" + " if sign > 0 else " - ") + body)
        return "".join(pieces)
    width = max(len(f"{f.basis}[{lam}]") for lam in f.terms)
    lines = []
    for lam, c in f.sorted_terms():
        lines.append(f"{f.basis}[{lam}]".ljust(width + 2) + c.table_str())
    return "\n".join(lines)


# -- cache ------------------------------------------------------------------------


def _cache_dir(args) -> Path:
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get("SYMQ_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "symq"


def _atomic_write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_cached_kostka(path: Path, n: int):
    """The cached degree-n table, or None when the file is missing or not one.

    Unreadable JSON, a payload of the wrong shape, a table written by another
    version of symq and a table for another degree are all cache misses, so
    the caller recomputes and overwrites.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if (payload["format_version"] != CACHE_FORMAT_VERSION or payload["kind"] != "kostka"
                or payload["version"] != __version__
                or payload["n"] != n or payload["table"]["n"] != n):
            return None
        table = hl.KostkaTable.from_json(payload["table"])
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError, RecursionError):
        return None
    if any(lam.size != n or mu.size != n for lam, mu in table.entries):
        return None
    return table


def _store_kostka(path: Path, table) -> None:
    _atomic_write_json(path, {
        "format_version": CACHE_FORMAT_VERSION,
        "version": __version__,
        "kind": "kostka",
        "n": table.n,
        "table": table.to_json(),
    })


# -- commands ---------------------------------------------------------------------


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _check_degree(degree: int, args, default: int) -> None:
    bound = args.max_degree if args.max_degree is not None else default
    if args.max_degree is not None and args.max_degree > default:
        _warn(f"degree bound {args.max_degree} exceeds the default {default}; "
              "expect slow exact arithmetic")
    if degree > bound:
        raise SystemExit(_usage_error(f"degree {degree} exceeds bound {bound} "
                                      "(raise with --max-degree)"))


def _check_exprs(nodes, args) -> None:
    """Degree bound, q-span cap and digit cap for the expressions a command evaluates.

    `inner` pairs two expressions, multiplying their coefficients, so their
    digit bounds add.
    """
    _check_degree(max(static_degree(node) for node in nodes), args, DEFAULT_SYMBOLIC_BOUND)
    span = max(static_qspan(node) for node in nodes)
    if span > MAX_QSPAN:
        raise SystemExit(_usage_error(f"q-exponents may span {span}, more than {MAX_QSPAN}"))
    digits = sum(static_digits(node) for node in nodes)
    if digits > MAX_DIGITS:
        raise SystemExit(_usage_error(f"coefficients may reach 10^{digits}, more than 10^{MAX_DIGITS}"))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _to_basis(f: SymFunc, target: str) -> SymFunc:
    if target in NATIVE_BASES:
        return convert(f, target)
    return hl.to_hl_basis(f, target)


def cmd_expand(args) -> int:
    node = parse(args.expr)
    _check_exprs([node], args)
    result = _to_basis(eval_expr(node), args.to)
    if args.output == "json":
        print(json.dumps(result.to_json()))
    else:
        print(format_symfunc(result))
    return 0


def cmd_inner(args) -> int:
    left, right = parse(args.left), parse(args.right)
    _check_exprs([left, right], args)
    value = hall_inner(eval_expr(left), eval_expr(right))
    if args.output == "json":
        print(json.dumps(value.to_json()))
    else:
        print(value.table_str())
    return 0


def _kostka_table_text(table) -> str:
    labels = table.labels
    headers = [str(mu) for mu in labels]
    cells = [
        [table.get(lam, mu).table_str() for mu in labels] for lam in labels
    ]
    widths = [
        max(len(headers[j]), max((len(row[j]) for row in cells), default=0))
        for j in range(len(labels))
    ]
    stub = max((len(str(lam)) for lam in labels), default=0)
    lines = [" " * (stub + 2) + "  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for lam, row in zip(labels, cells):
        lines.append(str(lam).ljust(stub + 2) + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def cmd_kostka(args) -> int:
    if args.n < 0:
        return _usage_error("--n must be nonnegative")
    _check_degree(args.n, args, DEFAULT_SYMBOLIC_BOUND)
    compute = hl.kostka_orthogonality if args.method == "orthogonality" else hl.kostka_triangular
    path = _cache_dir(args) / f"kostka_n{args.n}.json"
    cached = None if args.no_cache else _load_cached_kostka(path, args.n)
    if args.cache_verify:
        fresh = compute(args.n)
        if cached is None:
            print(f"cache-verify: no cached table for n = {args.n}; storing fresh copy")
            if not args.no_cache:
                _store_kostka(path, fresh)
        elif cached == fresh:
            print(f"cache-verify: OK (n = {args.n}, {len(fresh.entries)} entries)")
        else:
            print(f"cache-verify: MISMATCH for n = {args.n}; cached file left in place")
            return 1
        table = fresh
    elif cached is not None:
        table = cached
    else:
        table = compute(args.n)
        if not args.no_cache:
            _store_kostka(path, table)
    if args.output == "json":
        print(json.dumps(table.to_json()))
    else:
        print(_kostka_table_text(table))
    return 0


def cmd_gp(args) -> int:
    try:
        lam = parse_partition(args.partition)
    except ValueError as exc:
        return _usage_error(str(exc))
    _check_degree(lam.size, args, DEFAULT_ORACLE_BOUND)
    report = oracle_report(lam)
    if args.output == "json":
        print(json.dumps(report))
    else:
        print(f"lambda  {lam}")
        print(f"gdim    {QPoly.from_json(report['gdim']).table_str()}")
        for name, ok in report["checks"].items():
            print(f"check   {name}: {'ok' if ok else 'FAILED'}")
        if args.character:
            for entry in report["character"]["mult"]:
                mu = Partition.from_json(entry["partition"])
                print(f"mult    {mu}  {QRat.from_json(entry['coeff']).table_str()}")
    return 0 if all(report["checks"].values()) else 1


def cmd_skew(args) -> int:
    try:
        lam = parse_partition(args.lam)
        nu = parse_partition(args.nu)
    except ValueError as exc:
        return _usage_error(str(exc))
    if nu.size > lam.size:
        return _usage_error(f"|nu| = {nu.size} exceeds |lambda| = {lam.size}")
    _check_degree(lam.size, args, DEFAULT_SYMBOLIC_BOUND)
    expansion = SymFunc("S", hl.expand_in_big_schur(hl.skew_q(lam, nu)))
    positive = all(
        c.is_poly() and all(x >= 0 and x.denominator == 1 for x in c.num.coeffs)
        for c in expansion.terms.values()
    )
    if args.output == "json":
        print(json.dumps({"skew": expansion.to_json(), "positive": positive}))
    else:
        print(format_symfunc(expansion))
        print(f"positive: {'yes' if positive else 'NO'}")
    return 0 if positive else 1


def cmd_verify(args) -> int:
    _check_degree(args.max_n, args, DEFAULT_SYMBOLIC_BOUND)
    try:
        if args.suite == "all":
            reports = verify.run_all(args.max_n)
        else:
            reports = [verify.run_suite(args.suite, args.max_n)]
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.output == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.suite}: {status} ({r.checks_run} checks, {r.elapsed:.2f}s)")
            for w in r.warnings:
                print(f"  warning: {w}")
            for f in r.failures:
                inst = ", ".join(f"{k}=({v})" for k, v in f.instance.items())
                print(f"  FAIL {f.identity} [{inst}] got {f.got} expected {f.expected}")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None, help="cache directory (overrides SYMQ_CACHE_DIR)")
    common.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    common.add_argument("--output", choices=("json", "table"), default="table")
    common.add_argument("--json", action="store_true", help="shorthand for --output json")
    common.add_argument("--max-degree", type=int, default=None,
                        help="override the degree bound (warning above the default)")

    parser = argparse.ArgumentParser(prog="symq",
                                     description="exact Hall-Littlewood / Kostka computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="expand an expression in a basis")
    p.add_argument("expr")
    p.add_argument("--to", default="s", choices=NATIVE_BASES + HL_BASES)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("inner", parents=[common], help="Hall inner product of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("kostka", parents=[common], help="graded Kostka table for one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("triangular", "orthogonality"), default="triangular")
    p.add_argument("--cache-verify", action="store_true",
                   help="recompute and compare against the cached table")
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("gp", parents=[common], help="brute-force Garsia-Procesi oracle")
    p.add_argument("--partition", required=True)
    p.add_argument("--character", action="store_true", help="print the graded character")
    p.set_defaults(func=cmd_gp)

    p = sub.add_parser("skew", parents=[common], help="skew Q function with positivity verdict")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("--suite", default="all", choices=verify.SUITE_NAMES + ("all",))
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json:
        args.output = "json"
    try:
        code = args.func(args)
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
