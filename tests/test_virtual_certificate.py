"""Virtuality by B-power certificates, against the saturations they stand in for.

``is_virtual`` and ``is_b_torsion`` prove each containment A ⊆ (W : B^∞) by
an exponent vector e with B^[e] A ⊆ W, and saturate W only when no such e
is found.  The oracle below is the definition read literally: saturate,
then compare.
"""

import itertools
import json

import pytest

import virtres.ideals
from virtres import (
    BettiTable,
    QuotientModule,
    RingSpec,
    Submodule,
    Subquotient,
    b_saturate,
    free_resolution,
    ideal,
    intersect_with_irrelevant_power,
    irrelevant_power,
    is_b_torsion,
    is_virtual,
    koszul_pair_for_points,
    points_ideal,
    random_points,
    search_short_resolution_exponent,
    virtual_of_pair,
    winnow,
)
from virtres.cli import main
from virtres.fixtures import (
    curve_ideal,
    hirzebruch_ideal,
    six_points_ideal,
    two_planes_ideal,
)
from virtres.ideals import _b_power_certificate

CURVE_VR = "src/virtres/data/curve.vr"
R11 = RingSpec.product([1, 1], char=101)


def saturation_is_virtual(F, W) -> bool:
    """The virtuality conditions checked by B-saturation alone."""
    im1 = Submodule(F.terms[0], list(F.maps[0]) if F.maps else [])
    if b_saturate(im1) != b_saturate(W):
        return False
    for i in range(1, F.length + 1):
        H = F.homology(i)
        if not b_saturate(H.lower).contains_submodule(H.upper):
            return False
    return True


def saturation_is_b_torsion(M: Subquotient) -> bool:
    return b_saturate(M.lower).contains_submodule(M.upper)


def curve_winnow(d):
    I = curve_ideal()
    return winnow(free_resolution(QuotientModule.cyclic(I)), d), I


def koszul(m):
    cfg = random_points(RingSpec.product([1, 1], char=32003), m, seed=11)
    C, _, _ = koszul_pair_for_points(cfg)
    return C, points_ideal(cfg, resample=False)


def curve_pair():
    I = curve_ideal()
    return virtual_of_pair(QuotientModule.cyclic(I), (2, 1)), I


def hirzebruch():
    I = hirzebruch_ideal()
    return search_short_resolution_exponent(I)[1], I


def six_points_cap(a):
    I = six_points_ideal()
    J = intersect_with_irrelevant_power(I, a)
    return free_resolution(QuotientModule.cyclic(J)), I


def curve_pair_one_generator_dropped():
    """The curve pair (2,1) without its first summand of F_1, resolved again."""
    F, I = curve_pair()
    J = ideal(I.ring, [col.coordinate(0) for col in F.maps[0][1:]])
    return free_resolution(QuotientModule.cyclic(J)), I


# name -> (function returning (F, I), virtual?, target certificate e or None)
CASES = {
    "curve pair (2,1)": (curve_pair, True, (2, 0)),
    "koszul m=4": (lambda: koszul(4), True, (1, 3)),
    "koszul m=5": (lambda: koszul(5), True, (1, 4)),
    "hirzebruch (4,0)": (hirzebruch, True, (4, 0)),
    "six points cap B^(2,1,0)": (lambda: six_points_cap((2, 1, 0)), True, (2, 1, 0)),
    "curve winnowed at (1,1)": (lambda: curve_winnow((1, 1)), False, None),
    "curve winnowed at (2,0)": (lambda: curve_winnow((2, 0)), False, None),
    "curve pair, one summand dropped": (curve_pair_one_generator_dropped, False, None),
}


def decided_paths(report) -> list[str]:
    """The path of each condition checked, in the order is_virtual checks them."""
    decisions = list(report["h0_paths"].values()) + list(report["torsion_paths"].values())
    return [d["path"] for d in decisions]


@pytest.mark.parametrize("name", CASES)
def test_certificate_verdict_matches_saturation(name):
    build, virtual, e = CASES[name]
    F, I = build()
    ok, report = is_virtual(F, I)
    assert ok == saturation_is_virtual(F, I) == virtual, report
    if virtual:
        assert set(decided_paths(report)) == {"certificate"}, report
        assert report["h0_paths"]["target"]["e"] == e
    else:
        # checking stops at the failed condition, which a saturation decided
        assert decided_paths(report)[-1] == "saturation", report


def test_two_planes_winnows_refuted_by_saturation():
    I = two_planes_ideal()
    F = free_resolution(QuotientModule.cyclic(I))
    B = BettiTable.from_complex(F)
    refuted = 0
    for d in itertools.product(range(-2, 3), repeat=2):
        W = winnow(F, d)
        if BettiTable.from_complex(W) == B:
            continue
        ok, report = is_virtual(W, I)
        assert ok is saturation_is_virtual(W, I) is False, d
        assert decided_paths(report)[-1] == "saturation", d
        refuted += 1
    assert refuted == 16


def test_is_b_torsion_matches_saturation():
    x0, x1, y0, y1 = R11.variables()
    amb = irrelevant_power(R11, (1, 1)).module
    S = Submodule(amb, [amb.wrap(R11.one())])
    I = curve_ideal()
    cases = [
        (Subquotient(S, irrelevant_power(R11, (2, 1))), True),
        (Subquotient(S, ideal(R11, [x0 * y0])), False),
        (Subquotient(I, intersect_with_irrelevant_power(I, (2, 1))), True),
        (Subquotient(Submodule(I.module, [I.module.wrap(I.ring.one())]), I), False),
    ]
    for M, torsion in cases:
        assert is_b_torsion(M) == saturation_is_b_torsion(M) == torsion


def test_certificate_search_on_monomial_quotients():
    x0, x1, y0, y1 = R11.variables()
    amb = irrelevant_power(R11, (1, 1)).module
    S = Submodule(amb, [amb.wrap(R11.one())])
    # S/B^(2,1) is killed by B^(2,1) and by no smaller power of B
    assert _b_power_certificate(S, irrelevant_power(R11, (2, 1))) == (2, 1)
    assert _b_power_certificate(S, irrelevant_power(R11, (0, 0))) == (0, 0)
    # S/<x0 y0> is not B-torsion, so no vector certifies
    assert _b_power_certificate(S, ideal(R11, [x0 * y0])) is None


# -- the fast path never saturates -------------------------------------------


def refuse_to_saturate(A):
    raise AssertionError("b_saturate called on the certificate path")


@pytest.mark.parametrize(
    "build,e", [(curve_pair, (2, 0)), (lambda: koszul(5), (1, 4))]
)
def test_virtual_complexes_certified_without_saturation(monkeypatch, build, e):
    F, I = build()
    monkeypatch.setattr(virtres.ideals, "b_saturate", refuse_to_saturate)
    ok, report = is_virtual(F, I)
    assert ok
    zero = (0,) * len(e)
    assert report["h0_paths"] == {
        "image": {"path": "certificate", "e": zero},
        "target": {"path": "certificate", "e": e},
    }
    assert report["torsion_paths"] == {
        i: {"path": "certificate", "e": zero} for i in range(1, F.length + 1)
    }


def test_two_planes_reaches_saturation(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A)
        return b_saturate(A)

    I = two_planes_ideal()
    W = winnow(free_resolution(QuotientModule.cyclic(I)), (0, -1))
    monkeypatch.setattr(virtres.ideals, "b_saturate", counting)
    ok, report = is_virtual(W, I)
    assert not ok
    assert calls
    assert report["torsion_paths"][1] == {"path": "saturation", "e": None}


def test_cli_is_virtual_json_names_the_path(capsys, monkeypatch):
    monkeypatch.setattr(virtres.ideals, "b_saturate", refuse_to_saturate)
    assert main(["is-virtual", "--ideal", CURVE_VR, "--degree", "2,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["virtual"] is True
    assert data["report"]["h0_paths"]["target"] == {"path": "certificate", "e": [2, 0]}
    monkeypatch.undo()
    assert main(["is-virtual", "--ideal", CURVE_VR, "--degree", "1,1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["virtual"] is False
    assert data["report"]["torsion_paths"]["1"] == {"path": "saturation", "e": None}
