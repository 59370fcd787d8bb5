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
import sys
import time
from dataclasses import dataclass, field

from .cohomology import beilinson_shape, regularity_check
from .complexes import (
    BettiTable,
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
from .ring import Polynomial, RingSpec, check_char, vleq

DEFAULT_CHAR = 32003


# ---------------------------------------------------------------------------
# parsing


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # NAME INT SYM
    text: str
    line: int
    col: int


_SYMBOLS = "()[]=+-*^,"


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch in _SYMBOLS:
                out.append(Token("SYM", ch, ln, col))
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                out.append(Token("INT", line[i:j], ln, col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                out.append(Token("NAME", line[i:j], ln, col))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", ln, col)
    return out


@dataclass
class JobSpec:
    """A parsed description file: a ring and named ideal generator lists."""

    ring: RingSpec
    ideals: dict[str, Submodule] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: list[Token], default_char: int):
        self.toks = tokens
        self.pos = 0
        self.default_char = default_char

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else Token("SYM", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_int(self) -> int:
        t = self.next()
        if t.kind != "INT":
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return int(t.text)

    def signed_int(self) -> int:
        t = self.peek()
        if t is not None and t.text == "-":
            self.next()
            return -self.expect_int()
        return self.expect_int()

    # -- statements ----------------------------------------------------------

    def parse_job(self) -> JobSpec:
        ring: RingSpec | None = None
        job: JobSpec | None = None
        while self.peek() is not None:
            t = self.next()
            if t.text == "ring":
                if ring is not None:
                    raise ParseError("duplicate ring statement", t.line, t.col)
                ring = self.parse_ring()
                job = JobSpec(ring)
            elif t.text == "ideal":
                if job is None:
                    raise ParseError("ideal before ring statement", t.line, t.col)
                name_tok = self.next()
                if name_tok.kind != "NAME":
                    raise ParseError("expected an ideal name", name_tok.line, name_tok.col)
                self.expect("=")
                gens = self.parse_poly_list(job.ring)
                if not gens:
                    raise ParseError("nothing to resolve: empty ideal", t.line, t.col)
                job.ideals[name_tok.text] = ideal(job.ring, gens)
            else:
                raise ParseError(f"expected 'ring' or 'ideal', found {t.text!r}", t.line, t.col)
        if job is None:
            raise ParseError("missing ring statement", 1, 1)
        return job

    def parse_ring(self) -> RingSpec:
        t = self.next()
        if t.text == "P":
            self.expect("(")
            dims = [self.expect_int()]
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                dims.append(self.expect_int())
            self.expect(")")
            char = self.parse_char()
            try:
                return RingSpec.product(dims, char=char)
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
        if t.text == "custom":
            self.expect("degrees")
            degrees = self.parse_tuple_list()
            self.expect("primes")
            primes = self.parse_int_list_list()
            names = None
            if self.peek() is not None and self.peek().text == "names":
                self.next()
                names = [self.next().text]
                while self.peek() is not None and self.peek().text == ",":
                    self.next()
                    names.append(self.next().text)
            char = self.parse_char()
            try:
                return RingSpec.custom(degrees, primes, char=char, var_names=names)
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
        raise ParseError(f"expected 'P' or 'custom', found {t.text!r}", t.line, t.col)

    def parse_char(self) -> int:
        if self.peek() is not None and self.peek().text == "char":
            self.next()
            return self.expect_int()
        return self.default_char

    def parse_tuple_list(self) -> list[tuple[int, ...]]:
        self.expect("[")
        out = []
        while True:
            self.expect("(")
            vec = [self.signed_int()]
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                vec.append(self.signed_int())
            self.expect(")")
            out.append(tuple(vec))
            t = self.next()
            if t.text == "]":
                return out
            if t.text != ",":
                raise ParseError(f"expected ',' or ']', found {t.text!r}", t.line, t.col)

    def parse_int_list_list(self) -> list[list[int]]:
        self.expect("[")
        out = []
        while True:
            self.expect("[")
            vec = [self.expect_int()]
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                vec.append(self.expect_int())
            self.expect("]")
            out.append(vec)
            t = self.next()
            if t.text == "]":
                return out
            if t.text != ",":
                raise ParseError(f"expected ',' or ']', found {t.text!r}", t.line, t.col)

    # -- polynomials ----------------------------------------------------------

    def parse_poly_list(self, ring: RingSpec) -> list[Polynomial]:
        gens = [self.parse_poly(ring)]
        while self.peek() is not None and self.peek().text == ",":
            self.next()
            gens.append(self.parse_poly(ring))
        return gens

    def parse_poly(self, ring: RingSpec) -> Polynomial:
        start = self.peek()
        poly = ring.zero()
        sign = 1
        t = self.peek()
        if t is not None and t.text in "+-":
            self.next()
            sign = -1 if t.text == "-" else 1
        poly = poly + self.parse_term(ring).scale(sign)
        while True:
            t = self.peek()
            if t is None or t.text not in "+-":
                break
            self.next()
            term = self.parse_term(ring)
            poly = poly + term.scale(-1 if t.text == "-" else 1)
        if poly.terms and not poly.is_homogeneous():
            degs: dict[tuple, int] = {}
            for k in poly.terms:
                degs.setdefault(ring.mono_degree(k), k)
            (d1, k1), (d2, k2) = sorted(degs.items())[:2]
            m1 = Polynomial(ring, {k1: 1})
            m2 = Polynomial(ring, {k2: 1})
            raise ParseError(
                f"inhomogeneous generator: term {m1} has degree {d1} "
                f"but term {m2} has degree {d2}",
                start.line,
                start.col,
            )
        return poly

    def parse_term(self, ring: RingSpec) -> Polynomial:
        poly = self.parse_factor(ring)
        while self.peek() is not None and self.peek().text == "*":
            self.next()
            poly = poly * self.parse_factor(ring)
        return poly

    def parse_factor(self, ring: RingSpec) -> Polynomial:
        t = self.next()
        if t.kind == "INT":
            return ring.constant(int(t.text))
        if t.kind != "NAME":
            raise ParseError(f"expected a variable or integer, found {t.text!r}", t.line, t.col)
        if (
            t.text == "x"
            and ring.is_product
            and self.peek() is not None
            and self.peek().text == "("
        ):
            self.next()
            i = self.expect_int()
            self.expect(",")
            j = self.expect_int()
            self.expect(")")
            try:
                base = ring.x(i, j)
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
        else:
            try:
                base = ring.variable(ring.var_index(t.text))
            except ValueError:
                raise ParseError(f"unknown variable {t.text!r}", t.line, t.col) from None
        if self.peek() is not None and self.peek().text == "^":
            self.next()
            return base ** self.expect_int()
        return base


def _default_char() -> int:
    """$VIRTRES_CHAR, else 32003; a value that is no usable prime exits 2."""
    text = os.environ.get("VIRTRES_CHAR", str(DEFAULT_CHAR))
    try:
        char = int(text)
        check_char(char)
    except ValueError as exc:
        raise SystemExit(f"virtres: VIRTRES_CHAR: {exc}") from None
    return char


def parse_job(text: str, default_char: int | None = None) -> JobSpec:
    """Parse a ring/ideal description file into a JobSpec."""
    if default_char is None:
        default_char = _default_char()
    return _Parser(_tokenize(text), default_char).parse_job()


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


def _load_ideal(path: str) -> tuple[RingSpec, Submodule]:
    with open(path, encoding="utf-8") as fh:
        job = parse_job(fh.read())
    if not job.ideals:
        raise ParseError("file defines no ideal", 1, 1)
    name = next(iter(job.ideals))
    return job.ring, job.ideals[name]


def _vector(text: str, ring: RingSpec, flag: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise SystemExit(f"virtres: {flag}: expected a comma-separated integer vector")
    if len(vec) != ring.rank_grading:
        raise SystemExit(
            f"virtres: {flag}: expected {ring.rank_grading} components, got {len(vec)}"
        )
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
    ring, I = _load_ideal(args.ideal)
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
    ring, I = _load_ideal(args.ideal)
    d = _vector(args.degree, ring, "--degree")
    F = virtual_of_pair(QuotientModule.cyclic(I), d, check=args.check)
    _emit_betti(BettiTable.from_complex(F), args.json)
    return 0


def cmd_winnow(args) -> int:
    ring, I = _load_ideal(args.ideal)
    d = _vector(args.degree, ring, "--degree")
    F = winnow(free_resolution(QuotientModule.cyclic(I)), d)
    _emit_betti(BettiTable.from_complex(F), args.json)
    return 0


def cmd_is_virtual(args) -> int:
    ring, I = _load_ideal(args.ideal)
    d = _vector(args.degree, ring, "--degree")
    F = winnow(free_resolution(QuotientModule.cyclic(I)), d)
    ok, report = is_virtual(F, I)
    out = {"degree": list(d), "virtual": ok, "report": _jsonable(report)}
    print(json.dumps(out, indent=2) if args.json else f"virtual: {ok} ({report})")
    return 0 if ok else 1


def cmd_reg_check(args) -> int:
    ring, I = _load_ideal(args.ideal)
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
    ring, I = _load_ideal(args.ideal)
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
        ring = RingSpec.product([int(c) for c in args.space.split(",")], char=char)
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
    a = _vector(args.exponent, ring, "--exponent")
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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
