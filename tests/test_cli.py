"""Command-line interface: file grammar, subcommands, exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from virtres import RingSpec
from virtres.cli import JobSpec, ParseError, main, parse_job, render_job
from virtres.fixtures import (
    CURVE_BETTI_TOTALS,
    curve_ideal,
    curve_ring,
    hirzebruch_ideal,
    surface_ideal,
)

CURVE_VR = "src/virtres/data/curve.vr"
SURFACE_VR = "src/virtres/data/surface.vr"
HIRZEBRUCH_VR = "src/virtres/data/hirzebruch.vr"


# -- grammar ---------------------------------------------------------------------


def test_parse_product_ring_and_ideal():
    job = parse_job(
        """
        # a comment
        ring P(1,1) char 101
        ideal I = x(1,0)*x(2,0) + x(1,1)*x(2,1),
                  x(1,0)^2*x(2,1)^2
        """
    )
    assert job.ring.char == 101
    assert tuple(job.ring.dimension_vector) == (1, 1)
    assert len(job.ideals["I"].gens) == 2


def test_parse_custom_ring():
    job = parse_job(
        "ring custom degrees [(1,0),(1,0),(-2,1),(0,1)] primes [[0,1],[2,3]] "
        "names y0,y1,y2,y3 char 32003\n"
        "ideal J = y0*y3 + y2*y1^3"
    )
    assert not job.ring.is_product
    assert job.ring.var_names == ("y0", "y1", "y2", "y3")
    g = job.ideals["J"].gens[0].coordinate(0)
    assert g.multidegree() == (1, 1)


def test_default_characteristic_env_override(monkeypatch):
    monkeypatch.setenv("VIRTRES_CHAR", "101")
    job = parse_job("ring P(1,1)")
    assert job.ring.char == 101
    monkeypatch.delenv("VIRTRES_CHAR")
    job = parse_job("ring P(1,1)")
    assert job.ring.char == 32003


def test_bundled_examples_ignore_env_characteristic(monkeypatch):
    monkeypatch.setenv("VIRTRES_CHAR", "101")
    for build in (curve_ideal, surface_ideal, hirzebruch_ideal):
        assert build().ring.char == 32003


def test_round_trip_render_parse():
    job = JobSpec(curve_ring(), {"I": curve_ideal()})
    text = render_job(job)
    back = parse_job(text)
    assert back.ring == job.ring
    got = [str(g.coordinate(0)) for g in back.ideals["I"].gens]
    want = [str(g.coordinate(0)) for g in job.ideals["I"].gens]
    assert got == want


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ideal I = x(1,0)", "ideal before ring"),
        ("ring P(1,1)\nring P(1,1)", "duplicate ring"),
        ("ring P(1,1)\nideal I = x(1,0) +", "unexpected end"),
        ("ring P(1,1)\nideal I = z0", "unknown variable 'z0'"),
        ("ring Q(1,1)", "expected 'P' or 'custom'"),
        ("ring P(1,1)\nideal I = x(9,9)", "out of range"),
        ("ring P(1,1)\nideal I = x(1,0)^40000", "exceeds packed-monomial capacity"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_job(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_job("ring P(1,1)\nideal I = x(1,0) @ x(2,0)")
    assert exc.value.line == 2
    assert "col" in str(exc.value)


# non-ASCII characters that str.isdigit or str.isalpha accept: a superscript
# two, an Arabic-Indic one, a Latin e with acute accent
NON_ASCII = ("²", "١", "é")


@pytest.mark.parametrize(
    "text,col",
    [
        ("ring P(1,1)\nideal I = x(1,0)^²", 18),
        ("ring P(1,1)\nideal I = x(1,١)", 15),
        ("ring P(1,1)\nideal I = é", 11),
    ],
    ids=["superscript", "arabic-indic", "accented"],
)
def test_non_ascii_digits_and_letters_are_refused(text, col):
    with pytest.raises(ParseError) as exc:
        parse_job(text)
    assert "unexpected character" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, col)


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        # comments, one of them holding characters the grammar refuses, are
        # cut off before the error's line and column are counted
        (
            "# head @ $\nring P(1,1) # tail é\nideal I = x(1,0) + z0",
            "unknown variable 'z0'", 3, 20,
        ),
        (
            "# a comment with x(9,9)\nring P(1,1)\nideal I = x(1,0) @ x(2,0)",
            "unexpected character '@'", 3, 18,
        ),
        # \r\n breaks and a blank line count as str.splitlines counts them
        (
            "ring P(1,1)\r\nideal I = x(1,0)*x(2,0),\r\n\r\n  x(1,1) + x(9,9)\r\n",
            "factor index out of range", 4, 12,
        ),
        (
            "ring P(1,1)\r\nideal I = x(1,0),\r\n  x(1,1)^\r\n",
            "unexpected end of input", 3, 9,
        ),
        # Unicode whitespace is skipped; a non-ASCII letter after it is not
        (
            "ring P(1,1)\nideal I = x(1,0) + \u3000\u00e9",
            "unexpected character 'é'", 2, 21,
        ),
    ],
    ids=["after-comment", "stray-after-comment", "crlf", "crlf-end", "after-whitespace"],
)
def test_parse_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_job(text)
    assert str(exc.value) == f"line {line}, col {col}: {message}"
    assert (exc.value.line, exc.value.col) == (line, col)


def test_unicode_whitespace_separates_tokens():
    job = parse_job("ring P(1,1)\u2003char\u00a0101\nideal I = x(1,0)\u3000+\u2009x(1,1)")
    ring = job.ring
    assert ring.char == 101
    assert [g.coordinate(0) for g in job.ideals["I"].gens] == [ring.x(1, 0) + ring.x(1, 1)]


@pytest.mark.parametrize("ch", NON_ASCII, ids=["superscript", "arabic-indic", "accented"])
def test_non_ascii_character_exit_2(tmp_path, capsys, ch):
    bad = tmp_path / "bad.vr"
    bad.write_text(f"ring P(1,1)\nideal I = x(1,{ch})^{ch}\n", encoding="utf-8")
    assert main(["res", "--ideal", str(bad)]) == 2
    assert "unexpected character" in capsys.readouterr().err


BUNDLED_VR = {path: open(path, encoding="utf-8").read() for path in (CURVE_VR, HIRZEBRUCH_VR)}
VR_ALPHABET = sorted(set("".join(BUNDLED_VR.values())) | set(NON_ASCII))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_bundled_files_parse_or_raise_parse_error(data):
    text = BUNDLED_VR[data.draw(st.sampled_from(sorted(BUNDLED_VR)))]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + data.draw(st.sampled_from(VR_ALPHABET)) + text[i:]
    try:
        parse_job(text)
    except ParseError:
        pass


# -- the parser against Polynomial arithmetic -----------------------------------
# Each term is rendered as a product of factors in random order: powers of
# one variable split over several factors, ^0 and ^1, integer factors
# anywhere, coefficients that vanish mod p and monomials that cancel.

PARSE_RING = RingSpec.product([1, 2], char=101)
X_NAMES = [(i, j) for i, n in enumerate(PARSE_RING.dimension_vector, 1) for j in range(n + 1)]


@st.composite
def rendered_terms(draw, degree):
    """(text, Polynomial) of one term of the given monomial degree."""
    ring = PARSE_RING
    exps = ring.codec.decode(draw(st.sampled_from(ring.monomials_of_degree(degree))))
    factors, expect = [], ring.one()
    for (i, j), e in zip(X_NAMES, exps):
        while e:
            part = draw(st.integers(1, e))
            e -= part
            short = part == 1 and draw(st.booleans())
            factors.append(f"x({i},{j})" if short else f"x({i},{j})^{part}")
            expect = expect * ring.x(i, j) ** part
    for _ in range(draw(st.integers(0, 1))):
        i, j = draw(st.sampled_from(X_NAMES))
        factors.append(f"x({i},{j})^0")
    ints = st.sampled_from([0, 1, 3, 5, 100, 101, 202]) | st.integers(0, 250)
    for c in draw(st.lists(ints, min_size=0 if factors else 1, max_size=2)):
        factors.append(str(c))
        expect = expect * ring.constant(c)
    return "*".join(draw(st.permutations(factors))), expect


@st.composite
def rendered_generators(draw):
    """(text, Polynomial) of one generator: signed terms of one degree."""
    degree = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    terms = draw(st.lists(rendered_terms(degree), min_size=1, max_size=5))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(terms), max_size=len(terms)))
    if draw(st.booleans()):  # the first term again, reordered, with the other sign
        text, expect = terms[0]
        terms.append(("*".join(draw(st.permutations(text.split("*")))), expect))
        signs.append(-signs[0])
    if draw(st.booleans()):  # a term of another degree that vanishes mod p
        stray, _ = draw(rendered_terms((3, 1)))
        i = draw(st.integers(0, len(terms)))
        terms.insert(i, (f"{stray}*101", PARSE_RING.zero()))
        signs.insert(i, 1)
    text = ("-" if signs[0] < 0 else draw(st.sampled_from(["", "+"]))) + terms[0][0]
    for sign, (t, _) in zip(signs[1:], terms[1:]):
        text += (" - " if sign < 0 else " + ") + t
    expect = PARSE_RING.zero()
    for sign, (_, e) in zip(signs, terms):
        expect = expect + e.scale(sign)
    return text, expect


@given(st.lists(rendered_generators(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_parsed_generators_match_polynomial_arithmetic(gens):
    text = "ring P(1,2) char 101\nideal I = " + ", ".join(t for t, _ in gens)
    parsed = [g.coordinate(0) for g in parse_job(text).ideals["I"].gens]
    expect = [f for _, f in gens if f]
    assert parsed == expect
    # the same terms in the same order as the sums of single terms build them
    assert [list(f.terms.items()) for f in parsed] == [list(f.terms.items()) for f in expect]


@pytest.mark.parametrize(
    "body,col",
    [
        ("x(1,0)^20000*x(1,1)^20000", 11),
        ("x(2,0) + x(1,0)^20000*x(1,1)^20000", 20),
        ("x(1,0)^40000", 11),
        ("0*x(1,0)^40000", 11),
    ],
)
def test_packed_monomial_overflow_raises_at_the_term(body, col):
    with pytest.raises(ParseError, match="exceeds packed-monomial capacity") as exc:
        parse_job(f"ring P(1,1)\nideal I = {body}")
    assert (exc.value.line, exc.value.col) == (2, col)


def test_vanishing_term_may_pass_the_packed_monomial_capacity():
    job = parse_job("ring P(1,1)\nideal I = x(2,0) + 0*x(1,0)^20000*x(1,1)^20000")
    assert [g.coordinate(0) for g in job.ideals["I"].gens] == [job.ring.x(2, 0)]


def test_inhomogeneous_generator_names_witness_terms():
    with pytest.raises(ParseError) as exc:
        parse_job("ring P(1,1)\nideal I = x(1,0) + x(2,0)")
    msg = str(exc.value)
    assert "inhomogeneous" in msg
    assert "(0, 1)" in msg and "(1, 0)" in msg


# -- subcommands -------------------------------------------------------------------


def test_res_command_text(capsys):
    assert main(["res", "--ideal", CURVE_VR]) == 0
    out = capsys.readouterr().out
    assert f"totals: {CURVE_BETTI_TOTALS}" in out


def test_res_command_json(capsys):
    assert main(["betti", "--ideal", CURVE_VR, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["totals"] == list(CURVE_BETTI_TOTALS)
    assert data["lengths"] == [0, 1, 2, 3, 4]


def test_virtual_of_pair_and_is_virtual(capsys):
    assert main(["virtual-of-pair", "--ideal", CURVE_VR, "--degree", "2,1"]) == 0
    assert "totals: (1, 4, 3)" in capsys.readouterr().out
    assert main(["is-virtual", "--ideal", CURVE_VR, "--degree", "2,1"]) == 0


@pytest.mark.parametrize("degree", ["0,0", "1,0"])
def test_virtual_of_pair_check_refutes_with_exit_1(capsys, degree):
    argv = ["virtual-of-pair", "--ideal", CURVE_VR, "--degree", degree, "--check"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("not virtual (") and "'h0': False" in out
    assert main(argv + ["--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["virtual"] is False and data["report"]["h0"] is False
    assert data["degree"] == [int(c) for c in degree.split(",")]


def test_virtual_of_pair_check_passes_the_same_table(capsys):
    argv = ["virtual-of-pair", "--ideal", CURVE_VR, "--degree", "2,1"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert main(argv + ["--check"]) == 0
    assert capsys.readouterr().out == want


def test_unit_ideal_commands(tmp_path, capsys):
    unit = tmp_path / "unit.vr"
    unit.write_text("ring P(1,1) char 101\nideal I = 1\n")
    for argv in (["res"], ["winnow", "--degree", "1,1"], ["virtual-of-pair", "--degree", "1,1"]):
        assert main(argv + ["--ideal", str(unit)]) == 0
        assert "totals: (0,)" in capsys.readouterr().out
    assert main(["is-virtual", "--ideal", str(unit), "--degree", "1,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["virtual"] is True


def test_is_virtual_below_the_generator_degrees(capsys):
    # winnowing at a negative degree leaves the zero complex: not virtual
    assert main(["is-virtual", "--ideal", CURVE_VR, "--degree=-2,0"]) == 1
    assert "virtual: False" in capsys.readouterr().out


def test_reg_check_exit_codes(capsys):
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "2,1"]) == 0
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "0,0"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out


def test_reg_check_prints_every_witness(capsys):
    # the curve's 16 witnesses at (0,0), every one an exact dimension
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "0,0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    witnesses = [line for line in lines if "witness:" in line]
    assert len(witnesses) == 16
    pattern = r"  witness: H\^\d at \(-?\d+, -?\d+\) has dimension \d+"
    assert all(re.fullmatch(pattern, line) for line in witnesses)
    assert "  witness: H^2 at (1, 0) has dimension 3" in witnesses
    assert "  witness: H^1 at (0, 1) has dimension 2" in witnesses
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "0,0", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["candidate", "failures", "verdict", "window"]
    assert len(out["failures"]) == 16
    assert {"i": 1, "p": [0, 1], "dim": 2} in out["failures"]


def test_points_command_seed_echo(capsys):
    assert main(
        ["points", "--space", "1,1", "--count", "3", "--seed", "5", "--table"]
    ) == 0
    out = capsys.readouterr().out
    assert "# seed 5" in out and "totals:" in out


def test_beilinson_command(capsys):
    assert main(["beilinson", "--ideal", CURVE_VR, "--degree", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "totals [17, 41, 31, 7]" in out


def test_usage_errors_exit_2(capsys):
    assert main(["res", "--ideal", "/nonexistent/file.vr"]) == 2
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "1"]) == 2
    err = capsys.readouterr().err
    assert "expected 2 components" in err


def test_usage_error_then_good_call_in_one_process(capsys):
    # the parser is built once and reused: a rejected command line must
    # leave nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["res"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--ideal" in captured.err and not captured.out
    assert main(["res", "--ideal", CURVE_VR]) == 0
    captured = capsys.readouterr()
    assert f"totals: {CURVE_BETTI_TOTALS}" in captured.out and not captured.err
    with pytest.raises(SystemExit) as exc:
        main(["truncate", "--ideal", CURVE_VR])
    assert exc.value.code == 2
    assert "--degree" in capsys.readouterr().err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.vr"
    bad.write_text("ring P(1,1)\nideal I = x(1,0) + x(2,0)\n")
    assert main(["res", "--ideal", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_mutated_bundled_file_exit_2(tmp_path, capsys):
    # four inserted digits push an exponent past the packed-monomial range
    bad = tmp_path / "curve.vr"
    bad.write_text(BUNDLED_VR[CURVE_VR].replace("^3", "^39999", 1))
    assert main(["res", "--ideal", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_oversized_ring_exit_2(tmp_path, capsys):
    bad = tmp_path / "big.vr"
    bad.write_text("ring P(1,20000)\nideal I = x(1,0)\n")
    assert main(["res", "--ideal", str(bad)]) == 2
    assert "1 to 1000 variables, got 20003" in capsys.readouterr().err


@pytest.mark.parametrize(
    "names", ["y0,y1,y,2,y3", "y0,y1,y2"], ids=["one-too-many", "one-too-few"]
)
def test_custom_ring_with_wrong_name_count_exit_2(tmp_path, capsys, names):
    # five names or three for four variables: refused while parsing, with
    # no traceback and no variable silently dropped from printed polynomials
    bad = tmp_path / "bad.vr"
    bad.write_text(
        "ring custom degrees [(1,0),(1,0),(-2,1),(0,1)] primes [[0,1],[2,3]] "
        f"names {names}\nideal J = y0*y3\n"
    )
    assert main(["res", "--ideal", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert f"{len(names.split(','))} variable names for 4 variables" in err


@pytest.mark.parametrize("char", [32002, 1])
def test_bad_characteristic_exit_2(tmp_path, capsys, char):
    bad = tmp_path / "bad.vr"
    bad.write_text(f"ring P(1,1) char {char}\nideal I = x(1,0)*x(2,0)\n")
    assert main(["res", "--ideal", str(bad)]) == 2
    assert f"characteristic {char}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value,argv,fragment",
    [
        ("abc", ["res", "--ideal", CURVE_VR], "invalid literal"),
        ("32002", ["res", "--ideal", CURVE_VR], "32002 is not a prime"),
        ("32002", ["points", "--space", "1,1", "--count", "2"], "32002 is not a prime"),
        ("32_003", ["res", "--ideal", CURVE_VR], "'32_003'"),
        ("٣٢٠٠٣", ["res", "--ideal", CURVE_VR], "invalid literal"),
    ],
)
def test_bad_env_characteristic_exit_2(monkeypatch, capsys, value, argv, fragment):
    monkeypatch.setenv("VIRTRES_CHAR", value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "VIRTRES_CHAR" in err and fragment in err


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["points", "--space", "1,1", "--count", "0"], "--count"),
        (["points", "--space", "1,x", "--count", "2"], "--space"),
        (["points", "--space", "1,0", "--count", "2"], "--space"),
        (
            ["reg-check", "--ideal", CURVE_VR, "--degree", "2,1", "--window", "3,3:0,0"],
            "empty window",
        ),
        (["points", "--space", "1_0,1", "--count", "2"], "--space"),
        # int() reads these as (10, 1), (1, 1), (2, 1) and (1, 0)
        (["reg-check", "--ideal", CURVE_VR, "--degree", "1_0,1"], "--degree"),
        (["reg-check", "--ideal", CURVE_VR, "--degree", "١,1"], "--degree"),
        (["reg-check", "--ideal", CURVE_VR, "--degree", " 2,1"], "--degree"),
        (["bsat-power", "--ideal", CURVE_VR, "--exponent", "+1,0"], "--exponent"),
        (
            ["reg-check", "--ideal", CURVE_VR, "--degree", "2,1", "--window", "0,0:3,--3"],
            "--window",
        ),
    ],
)
def test_bad_arguments_exit_2(capsys, argv, fragment):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--count", "٢"], ["--count", "2", "--seed", "1_0"]])
def test_points_count_and_seed_take_ascii_digits_only(capsys, argv):
    # argparse's own usage error: it raises SystemExit(2) itself
    with pytest.raises(SystemExit) as exc:
        main(["points", "--space", "1,1", *argv])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["virtual-of-pair", "--degree", "1,1"],
        ["truncate", "--degree", "1,1"],
        ["winnow", "--degree", "1,1"],
        ["is-virtual", "--degree", "1,1"],
        ["reg-check", "--degree", "1,1"],
        ["beilinson", "--degree", "1,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_product_only_commands_reject_custom_ring(capsys, argv):
    assert main(argv + ["--ideal", HIRZEBRUCH_VR]) == 2
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0 and "requires a product of projective spaces" in err


def test_negative_exponent_exit_2(capsys):
    assert main(["bsat-power", "--ideal", CURVE_VR, "--exponent=-1,0"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0 and "--exponent" in err and "nonnegative" in err


def test_fixture_runner_single(capsys):
    assert main(["fixtures", "surface-res"]) == 0
    out = capsys.readouterr().out
    assert "surface-res" in out and "ok" in out


def test_fixture_runner_unknown_name(capsys):
    assert main(["fixtures", "does-not-exist"]) == 2


def test_fixture_registry_matches_expected_file():
    from importlib import resources

    from virtres.fixtures import FIXTURES

    expected = json.loads(
        resources.files("virtres").joinpath("data").joinpath("expected.json").read_text()
    )
    assert set(expected) == set(FIXTURES)


def test_library_and_cli_import_no_numpy():
    code = "import sys, virtres, virtres.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
