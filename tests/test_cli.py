"""Command-line interface: file grammar, subcommands, exit codes."""

import json

import pytest

from virtres.cli import JobSpec, ParseError, main, parse_job, render_job
from virtres.fixtures import curve_ideal, curve_ring, hirzebruch_ideal, surface_ideal

CURVE_VR = "src/virtres/data/curve.vr"
SURFACE_VR = "src/virtres/data/surface.vr"


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
    assert "totals: (1, 8, 12, 6, 1)" in out


def test_res_command_json(capsys):
    assert main(["betti", "--ideal", CURVE_VR, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["totals"] == [1, 8, 12, 6, 1]
    assert data["lengths"] == [0, 1, 2, 3, 4]


def test_virtual_of_pair_and_is_virtual(capsys):
    assert main(["virtual-of-pair", "--ideal", CURVE_VR, "--degree", "2,1"]) == 0
    assert "totals: (1, 4, 3)" in capsys.readouterr().out
    assert main(["is-virtual", "--ideal", CURVE_VR, "--degree", "2,1"]) == 0


def test_reg_check_exit_codes(capsys):
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "2,1"]) == 0
    assert main(["reg-check", "--ideal", CURVE_VR, "--degree", "0,0"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out


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


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.vr"
    bad.write_text("ring P(1,1)\nideal I = x(1,0) + x(2,0)\n")
    assert main(["res", "--ideal", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


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
    ],
)
def test_bad_arguments_exit_2(capsys, argv, fragment):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


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
