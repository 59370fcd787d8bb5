"""Command-line front end: ring/ideal description files, Betti-table and
report rendering (text or JSON), and the runner of the bundled regression
fixtures (defined in ``virtres.fixtures``).

File grammar (``#`` starts a comment; statements may span lines)::

    ring P(1,2) char 32003
    ring custom degrees [(1,0),(1,0),(-2,1),(0,1)] primes [[0,1],[2,3]]
         names y0,y1,y2,y3 char 32003
    ideal I = x(1,1)^3*x(2,0) - x(1,1)^3*x(2,1) + x(1,0)^3*x(2,2), ...

Exit codes: 0 success, 1 mathematical mismatch or refutation, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, TypeVar

from .cohomology import beilinson_shape, regularity_check
from .complexes import (
    BettiTable,
    NotVirtualError,
    free_resolution,
    is_virtual,
    virtual_of_pair,
    winnow,
)
from .ideals import (
    QuotientModule,
    Submodule,
    b_saturate,
    ideal,
    truncate,
)
from .punctual import (
    hilbert_burch,
    intersect_with_irrelevant_power,
    points_ideal,
    random_points,
)
from .ring import EXP_MAX, Polynomial, RingSpec, check_char, vleq

DEFAULT_CHAR = 32003


# ---------------------------------------------------------------------------
# parsing


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


# A token is a name, an integer or a symbol, kept as its text: its kind is
# read from its first character.  ASCII only: str.isdigit and str.isalpha
# also accept characters such as '²' or '١', which int() then refuses or
# silently reads as a digit.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[()\[\]=+\-*^,]")
# a character that starts no token and is no whitespace (\s is str.isspace)
_STRAY = re.compile(r"[^\sA-Za-z0-9_()\[\]=+\-*^,]")
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _code_lines(text: str) -> list[str]:
    """The lines of text (str.splitlines) with their comments cut off."""
    return [line.split("#", 1)[0] for line in text.splitlines()]


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    for ln, line in enumerate(_code_lines(text), start=1):
        stray = _STRAY.search(line)
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}", ln, stray.start() + 1)
        out += _TOKEN.findall(line)
    return out


def _token_position(text: str, k: int) -> tuple[int, int]:
    """(line, column) of token k of text; only a ParseError asks for it."""
    for ln, line in enumerate(_code_lines(text), start=1):
        for m in _TOKEN.finditer(line):
            if k == 0:
                return ln, m.start() + 1
            k -= 1
    raise IndexError("token index out of range")


@dataclass
class JobSpec:
    """A parsed description file: a ring and named ideal generator lists."""

    ring: RingSpec
    ideals: dict[str, Submodule] = field(default_factory=dict)


_T = TypeVar("_T")


class _Parser:
    def __init__(self, text: str, default_char: int):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.default_char = default_char

    def error(self, msg: str, k: int) -> ParseError:
        """A ParseError at token k, or at line 1, col 1 of a text with no
        tokens."""
        line, col = _token_position(self.text, k) if self.toks else (1, 1)
        return ParseError(msg, line, col)

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise self.error("unexpected end of input", len(self.toks) - 1)
        self.pos += 1
        return t

    def expect(self, text: str) -> str:
        t = self.next()
        if t != text:
            raise self.error(f"expected {text!r}, found {t!r}", self.pos - 1)
        return t

    def expect_int(self) -> int:
        t = self.next()
        if t[0] not in _DIGITS:
            raise self.error(f"expected an integer, found {t!r}", self.pos - 1)
        return int(t)

    def signed_int(self) -> int:
        if self.peek() == "-":
            self.next()
            return -self.expect_int()
        return self.expect_int()

    # -- statements ----------------------------------------------------------

    def parse_job(self) -> JobSpec:
        ring: RingSpec | None = None
        job: JobSpec | None = None
        while self.peek() is not None:
            t = self.next()
            k = self.pos - 1
            if t == "ring":
                if ring is not None:
                    raise self.error("duplicate ring statement", k)
                ring = self.parse_ring()
                job = JobSpec(ring)
            elif t == "ideal":
                if job is None:
                    raise self.error("ideal before ring statement", k)
                name = self.next()
                if name[0] not in _NAME_START:
                    raise self.error("expected an ideal name", self.pos - 1)
                self.expect("=")
                gens = self.parse_poly_list(job.ring)
                if not gens:
                    raise self.error("nothing to resolve: empty ideal", k)
                job.ideals[name] = ideal(job.ring, gens)
            else:
                raise self.error(f"expected 'ring' or 'ideal', found {t!r}", k)
        if job is None:
            raise ParseError("missing ring statement", 1, 1)
        return job

    def parse_ring(self) -> RingSpec:
        t = self.next()
        k = self.pos - 1
        if t == "P":
            dims = self.group("(", self.expect_int, ")")
            char = self.parse_char()
            try:
                return RingSpec.product(dims, char=char)
            except ValueError as exc:
                raise self.error(str(exc), k) from None
        if t == "custom":
            self.expect("degrees")
            degrees = self.parse_tuple_list()
            self.expect("primes")
            primes = self.parse_int_list_list()
            names = None
            if self.peek() == "names":
                self.next()
                names = self.items(self.next)
            char = self.parse_char()
            try:
                return RingSpec.custom(degrees, primes, char=char, var_names=names)
            except ValueError as exc:
                raise self.error(str(exc), k) from None
        raise self.error(f"expected 'P' or 'custom', found {t!r}", k)

    def parse_char(self) -> int:
        if self.peek() == "char":
            self.next()
            return self.expect_int()
        return self.default_char

    def parse_tuple_list(self) -> list[tuple[int, ...]]:
        return self.bracketed(lambda: tuple(self.group("(", self.signed_int, ")")))

    def parse_int_list_list(self) -> list[list[int]]:
        return self.bracketed(lambda: self.group("[", self.expect_int, "]"))

    # -- comma lists -----------------------------------------------------------

    def items(self, read: Callable[[], _T]) -> list[_T]:
        """item {, item}, each item read by ``read``."""
        out = [read()]
        while self.peek() == ",":
            self.next()
            out.append(read())
        return out

    def group(self, open_: str, read: Callable[[], _T], close: str) -> list[_T]:
        """open item {, item} close."""
        self.expect(open_)
        out = self.items(read)
        self.expect(close)
        return out

    def bracketed(self, read: Callable[[], _T]) -> list[_T]:
        """[ group {, group} ], each group read by ``read``."""
        self.expect("[")
        out = []
        while True:
            out.append(read())
            t = self.next()
            if t == "]":
                return out
            if t != ",":
                raise self.error(f"expected ',' or ']', found {t!r}", self.pos - 1)

    # -- polynomials ----------------------------------------------------------
    # parse_poly, parse_term and parse_factor walk the tokens by index and
    # leave self.pos after what they read

    def parse_poly_list(self, ring: RingSpec) -> list[Polynomial]:
        return self.items(lambda: self.parse_poly(ring))

    def parse_poly(self, ring: RingSpec) -> Polynomial:
        toks, n = self.toks, len(self.toks)
        start = self.pos
        p = ring.char
        terms: dict[int, int] = {}
        sign = 1
        if start < n and toks[start] in ("+", "-"):
            sign = -1 if toks[start] == "-" else 1
            self.pos += 1
        while True:
            coeff, key = self.parse_term(ring)
            if coeff:
                coeff = (terms.get(key, 0) + sign * coeff) % p
                if coeff:
                    terms[key] = coeff
                else:
                    del terms[key]
            k = self.pos
            if k >= n or toks[k] not in ("+", "-"):
                break
            sign = -1 if toks[k] == "-" else 1
            self.pos = k + 1
        poly = Polynomial(ring, terms)
        if terms and not poly.is_homogeneous():
            degs: dict[tuple, int] = {}
            for key in terms:
                degs.setdefault(ring.mono_degree(key), key)
            (d1, k1), (d2, k2) = sorted(degs.items())[:2]
            m1 = Polynomial(ring, {k1: 1})
            m2 = Polynomial(ring, {k2: 1})
            raise self.error(
                f"inhomogeneous generator: term {m1} has degree {d1} "
                f"but term {m2} has degree {d2}",
                start,
            )
        return poly

    def parse_term(self, ring: RingSpec) -> tuple[int, int]:
        """(coefficient mod p, packed key) of a product of factors, encoded
        once; the key is the ring's one when the coefficient is zero."""
        toks, n = self.toks, len(self.toks)
        start = k = self.pos
        p = ring.char
        weights = ring.codec.weights
        exps = [0] * ring.nvars
        coeff, wdeg = 1, 0
        while True:
            c, j, e, k = self.parse_factor(ring, k)
            # a power past the packed-monomial range overflows on its own; a
            # product overflows only while its coefficient is nonzero
            w = weights[j] * e
            coeff = coeff * c % p
            wdeg += w
            if w > EXP_MAX or (coeff and wdeg > EXP_MAX):
                raise self.error("weighted degree exceeds packed-monomial capacity", start)
            exps[j] += e
            if k >= n or toks[k] != "*":
                break
            k += 1
        self.pos = k
        return coeff, ring.codec.encode(exps) if coeff else ring.codec.one

    def parse_factor(self, ring: RingSpec, k: int) -> tuple[int, int, int, int]:
        """(integer, variable index, exponent, next token index) of the
        factor at token k: an integer factor n reads as (n, 0, 0), a power of
        variable j as (1, j, e)."""
        toks, n = self.toks, len(self.toks)
        if k >= n:
            raise self.error("unexpected end of input", n - 1)
        t = toks[k]
        if t[0] in _DIGITS:
            return int(t), 0, 0, k + 1
        if t[0] not in _NAME_START:
            raise self.error(f"expected a variable or integer, found {t!r}", k)
        if t == "x" and ring.is_product and k + 1 < n and toks[k + 1] == "(":
            # x ( i , j ): the six tokens are checked here; expect re-reads a
            # malformed one and raises its error
            if not (
                toks[k + 3 : k + 6 : 2] == [",", ")"]
                and toks[k + 2][0] in _DIGITS
                and toks[k + 4][0] in _DIGITS
            ):
                self.pos = k + 2
                self.expect_int()
                self.expect(",")
                self.expect_int()
                self.expect(")")
            try:
                var = ring.x_index(int(toks[k + 2]), int(toks[k + 4]))
            except ValueError as exc:
                raise self.error(str(exc), k) from None
            k += 6
        else:
            try:
                var = ring.var_index(t)
            except ValueError:
                raise self.error(f"unknown variable {t!r}", k) from None
            k += 1
        if k < n and toks[k] == "^":
            if k + 1 < n and toks[k + 1][0] in _DIGITS:
                return 1, var, int(toks[k + 1]), k + 2
            self.pos = k + 1
            self.expect_int()  # raises: no integer after '^'
        return 1, var, 1, k


def _ascii_int(text: str) -> int:
    """An integer written as ASCII digits after an optional '-'.

    int() alone would also read '1_0' as 10 and '١' as 1.
    """
    digits = text[1:] if text.startswith("-") else text
    if not digits or not _DIGITS.issuperset(digits):
        raise ValueError(f"invalid literal for an integer: {text!r}")
    return int(text)


def _default_char() -> int:
    """$VIRTRES_CHAR, else 32003; a value that is no usable prime exits 2."""
    text = os.environ.get("VIRTRES_CHAR", str(DEFAULT_CHAR))
    try:
        char = _ascii_int(text)
        check_char(char)
    except ValueError as exc:
        raise SystemExit(f"virtres: VIRTRES_CHAR: {exc}") from None
    return char


def parse_job(text: str, default_char: int | None = None) -> JobSpec:
    """Parse a ring/ideal description file into a JobSpec."""
    if default_char is None:
        default_char = _default_char()
    return _Parser(text, default_char).parse_job()


def render_job(job: JobSpec) -> str:
    """Render a JobSpec back to description-file text (round-trips)."""
    ring = job.ring
    if ring.is_product:
        dims = ",".join(str(n) for n in ring.dimension_vector)
        lines = [f"ring P({dims}) char {ring.char}"]
    else:
        degs = ",".join("(" + ",".join(str(c) for c in d) + ")" for d in ring.var_degrees)
        primes = ",".join("[" + ",".join(str(j) for j in p) + "]" for p in ring.irrelevant_primes)
        names = ",".join(ring.var_names)
        lines = [
            f"ring custom degrees [{degs}] primes [{primes}] "
            f"names {names} char {ring.char}"
        ]
    for name, I in job.ideals.items():
        gens = ", ".join(str(g.coordinate(0)) for g in I.gens)
        lines.append(f"ideal {name} = {gens}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command helpers


def _load_ideal(path: str, product: bool = False) -> tuple[RingSpec, Submodule]:
    """The ring and first ideal of a file; ``product`` rejects custom rings."""
    with open(path, encoding="utf-8") as fh:
        job = parse_job(fh.read())
    if not job.ideals:
        raise ParseError("file defines no ideal", 1, 1)
    if product and not job.ring.is_product:
        raise SystemExit(f"virtres: {path}: this command requires a product of projective spaces")
    name = next(iter(job.ideals))
    return job.ring, job.ideals[name]


def _vector(
    text: str, ring: RingSpec, flag: str, nonnegative: bool = False
) -> tuple[int, ...]:
    try:
        vec = tuple(_ascii_int(c) for c in text.split(","))
    except ValueError:
        raise SystemExit(f"virtres: {flag}: expected a comma-separated integer vector")
    if len(vec) != ring.rank_grading:
        raise SystemExit(
            f"virtres: {flag}: expected {ring.rank_grading} components, got {len(vec)}"
        )
    if nonnegative and min(vec) < 0:
        raise SystemExit(f"virtres: {flag}: expected nonnegative components, got {text}")
    return vec


def _window(text: str, ring: RingSpec):
    if ":" not in text:
        raise SystemExit("virtres: --window: expected lo:hi with comma vectors")
    lo, hi = (_vector(v, ring, "--window") for v in text.split(":", 1))
    if not vleq(lo, hi):
        raise SystemExit(f"virtres: --window: empty window, {lo} is not <= {hi}")
    return lo, hi


def _emit_betti(B: BettiTable, as_json: bool) -> None:
    print(B.to_json() if as_json else str(B))


def _gens_text(I: Submodule) -> list[str]:
    return [str(g.coordinate(0)) for g in I.gens]


# ---------------------------------------------------------------------------
# subcommands


def cmd_res(args) -> int:
    ring, I = _load_ideal(args.ideal)
    F = free_resolution(QuotientModule.cyclic(I))
    _emit_betti(BettiTable.from_complex(F), args.json)
    return 0


def cmd_saturate(args) -> int:
    ring, I = _load_ideal(args.ideal)
    J = b_saturate(I)
    gens = _gens_text(J.minimalized())
    if args.json:
        print(json.dumps({"generators": gens}, indent=2))
    else:
        for g in gens:
            print(g)
    return 0


def cmd_truncate(args) -> int:
    ring, I = _load_ideal(args.ideal, product=True)
    d = _vector(args.degree, ring, "--degree")
    J = truncate(I, d)
    gens = _gens_text(J.minimalized())
    if args.json:
        print(json.dumps({"degree": list(d), "generators": gens}, indent=2))
    else:
        for g in gens:
            print(g)
    return 0


def cmd_virtual_of_pair(args) -> int:
    ring, I = _load_ideal(args.ideal, product=True)
    d = _vector(args.degree, ring, "--degree")
    try:
        F = virtual_of_pair(QuotientModule.cyclic(I), d, check=args.check)
    except NotVirtualError as exc:
        if args.json:
            out = {"degree": list(d), "virtual": False, "report": _jsonable(exc.report)}
            print(json.dumps(out, indent=2))
        else:
            print(f"not virtual ({exc.report})")
        return 1
    _emit_betti(BettiTable.from_complex(F), args.json)
    return 0


def cmd_winnow(args) -> int:
    ring, I = _load_ideal(args.ideal, product=True)
    d = _vector(args.degree, ring, "--degree")
    F = winnow(free_resolution(QuotientModule.cyclic(I)), d)
    _emit_betti(BettiTable.from_complex(F), args.json)
    return 0


def cmd_is_virtual(args) -> int:
    ring, I = _load_ideal(args.ideal, product=True)
    d = _vector(args.degree, ring, "--degree")
    F = winnow(free_resolution(QuotientModule.cyclic(I)), d)
    ok, report = is_virtual(F, I)
    out = {"degree": list(d), "virtual": ok, "report": _jsonable(report)}
    print(json.dumps(out, indent=2) if args.json else f"virtual: {ok} ({report})")
    return 0 if ok else 1


def cmd_reg_check(args) -> int:
    ring, I = _load_ideal(args.ideal, product=True)
    d = _vector(args.degree, ring, "--degree")
    window = _window(args.window, ring) if args.window else None
    rep = regularity_check(QuotientModule.cyclic(I), d, window=window, strict=args.strict)
    if args.json:
        print(json.dumps(rep.to_json_dict(), indent=2))
    else:
        print(f"candidate {d}: {rep.verdict}")
        for i, p, dim in rep.checks:
            print(f"  witness: H^{i} at {p} has dimension {dim}")
    return 0 if rep.verdict == "consistent-in-window" else 1


def cmd_beilinson(args) -> int:
    ring, I = _load_ideal(args.ideal, product=True)
    d = _vector(args.degree, ring, "--degree")
    shape = beilinson_shape(QuotientModule.cyclic(I), d, verify_vanishing=args.verify)
    if args.json:
        print(json.dumps(shape.to_json_dict(), indent=2))
    else:
        print(f"degree {d}: totals {shape.totals()}")
        for i in sorted(shape.blocks):
            row = ", ".join(
                f"S(-({','.join(str(c) for c in twist)}))^{rk}"
                for twist, rk in sorted(shape.blocks[i].items())
            )
            print(f"  F_{i} = {row}")
        if shape.vanishing_verified is not None:
            print(f"  vanishing verified: {shape.vanishing_verified}")
    return 0


def cmd_points(args) -> int:
    if args.count < 1:
        raise SystemExit("virtres: --count: expected at least one point")
    char = _default_char()
    try:
        ring = RingSpec.product([_ascii_int(c) for c in args.space.split(",")], char=char)
    except ValueError as exc:
        raise SystemExit(f"virtres: --space: {exc}") from None
    cfg = random_points(ring, args.count, seed=args.seed)
    print(f"# seed {args.seed}")
    I = points_ideal(cfg)
    if args.table:
        F = free_resolution(QuotientModule.cyclic(I))
        _emit_betti(BettiTable.from_complex(F), args.json)
    else:
        gens = _gens_text(I.minimalized())
        if args.json:
            print(json.dumps({"seed": args.seed, "generators": gens}, indent=2))
        else:
            for g in gens:
                print(g)
    return 0


def cmd_bsat_power(args) -> int:
    ring, I = _load_ideal(args.ideal)
    a = _vector(args.exponent, ring, "--exponent", nonnegative=True)
    J = intersect_with_irrelevant_power(I, a)
    F = free_resolution(QuotientModule.cyclic(J))
    ok, _report = is_virtual(F, I)
    B = BettiTable.from_complex(F)
    if args.json:
        out = B.to_json_dict()
        out["exponent"] = list(a)
        out["virtual"] = ok
        print(json.dumps(out, indent=2))
    else:
        _emit_betti(B, False)
        print(f"virtual: {ok}")
    return 0 if ok else 1


def cmd_hilbert_burch(args) -> int:
    ring, J = _load_ideal(args.ideal)
    try:
        cert = hilbert_burch(J)
    except ValueError as exc:
        print(f"virtres: {exc}", file=sys.stderr)
        return 1
    rows = [[str(e) for e in row] for row in cert.matrix]
    if args.json:
        print(
            json.dumps(
                {"matrix": rows, "minors_generate": cert.minors_generate},
                indent=2,
            )
        )
    else:
        for row in rows:
            print("[ " + " | ".join(row) + " ]")
        print(f"minors generate: {cert.minors_generate}")
    return 0 if cert.minors_generate else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# fixture suite


def cmd_fixtures(args) -> int:
    from .fixtures import EXPECTED, FIXTURES

    names = sorted(FIXTURES)
    if args.name:
        names = [n for n in names if args.name in n]
        if not names:
            print(f"virtres: no fixture matches {args.name!r}", file=sys.stderr)
            return 2
    failed = False
    for name in names:
        t0 = time.time()
        try:
            got = FIXTURES[name]()
            ok = got == EXPECTED[name]
            detail = "" if ok else f"expected {EXPECTED[name]!r}, got {got!r}"
        except Exception as exc:  # pragma: no cover - surfaced in the report
            ok = False
            detail = f"error: {exc}"
        dt = time.time() - t0
        status = "ok" if ok else "FAIL"
        print(f"{name:24s} {status:4s} ({dt:6.1f}s)" + (f"  {detail}" if detail else ""))
        failed = failed or not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    ap = argparse.ArgumentParser(
        prog="virtres",
        description="Multigraded free and virtual resolutions over Cox rings.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, degree=False, exponent=False, window=False):
        p.add_argument("--ideal", required=True, help="path to a .vr description file")
        if degree:
            p.add_argument("--degree", required=True, help="comma-separated twist vector")
        if exponent:
            p.add_argument("--exponent", required=True, help="comma-separated exponent vector")
        if window:
            p.add_argument("--window", help="degree window lo:hi (comma vectors)")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("res", help="minimal free resolution Betti table")
    common(p)
    p.set_defaults(func=cmd_res)
    p = sub.add_parser("betti", help="alias of res")
    common(p)
    p.set_defaults(func=cmd_res)
    p = sub.add_parser("saturate", help="saturate by the irrelevant ideal")
    common(p)
    p.set_defaults(func=cmd_saturate)
    p = sub.add_parser("truncate", help="truncation at a degree")
    common(p, degree=True)
    p.set_defaults(func=cmd_truncate)
    p = sub.add_parser("virtual-of-pair", help="virtual resolution of a pair")
    common(p, degree=True)
    p.add_argument("--check", action="store_true", help="verify the output with is-virtual")
    p.set_defaults(func=cmd_virtual_of_pair)
    p = sub.add_parser("winnow", help="winnow the minimal free resolution")
    common(p, degree=True)
    p.set_defaults(func=cmd_winnow)
    p = sub.add_parser("is-virtual", help="check the winnowed complex at a degree")
    common(p, degree=True)
    p.set_defaults(func=cmd_is_virtual)
    p = sub.add_parser("reg-check", help="bounded regularity check")
    common(p, degree=True, window=True)
    p.add_argument(
        "--strict",
        action="store_true",
        help="use the shifted union-of-regions form of the definition",
    )
    p.set_defaults(func=cmd_reg_check)
    p = sub.add_parser("beilinson", help="Beilinson-style resolution shape")
    common(p, degree=True)
    p.add_argument("--verify", action="store_true", help="verify vanishing hypotheses")
    p.set_defaults(func=cmd_beilinson)
    p = sub.add_parser("points", help="seeded general points and their ideal")
    p.add_argument("--space", required=True, help="projective factors, e.g. 1,1,2")
    p.add_argument("--count", type=_ascii_int, required=True)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--table", action="store_true", help="print the Betti table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_points)
    p = sub.add_parser("bsat-power", help="resolution of I intersected with B^a")
    common(p, exponent=True)
    p.set_defaults(func=cmd_bsat_power)
    p = sub.add_parser("hilbert-burch", help="Hilbert-Burch certificate")
    common(p)
    p.set_defaults(func=cmd_hilbert_burch)
    p = sub.add_parser("fixtures", help="run the bundled regression fixtures")
    p.add_argument("name", nargs="?", help="substring filter")
    p.set_defaults(func=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"virtres: parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"virtres: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
