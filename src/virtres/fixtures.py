"""The bundled examples, each stated once.

Inputs are the ``data/*.vr`` files, expected answers are ``data/expected.json``,
and ``FIXTURES`` holds the runs that ``virtres fixtures`` checks against it.
The constants below are read from ``expected.json``, except those it has no
entry for.  Builders return fresh objects on every call, so nothing cached
carries over from one run to the next.
"""

from __future__ import annotations

import json
from importlib import resources

from .cli import DEFAULT_CHAR, JobSpec, parse_job
from .cohomology import regularity_check
from .complexes import BettiTable, free_resolution, is_virtual, virtual_of_pair, winnow
from .ideals import QuotientModule, Submodule, ideal
from .punctual import (
    PointConfig,
    _flat_coords,
    _vanishing_forms,
    hilbert_burch,
    intersect_with_irrelevant_power,
    koszul_pair_for_points,
    points_ideal,
    random_points,
)
from .ring import RingSpec


def _data_text(name: str) -> str:
    return resources.files("virtres").joinpath("data", name).read_text()


def _job(name: str) -> JobSpec:
    # the files name their characteristic; VIRTRES_CHAR never applies here
    return parse_job(_data_text(name), default_char=DEFAULT_CHAR)


def _ideal(name: str) -> Submodule:
    return next(iter(_job(name).ideals.values()))


def _twists(table: dict) -> dict:
    """{i: {twist: rank}} from a Betti table in its JSON form."""
    out: dict = {}
    for e in table["entries"]:
        out.setdefault(e["i"], {})[tuple(e["twist"])] = e["rank"]
    return out


def _degree(key: str) -> tuple[int, ...]:
    return tuple(int(c) for c in key.split(","))


def _key(d) -> str:
    return ",".join(str(c) for c in d)


EXPECTED = json.loads(_data_text("expected.json"))


# -- the (2,8) curve in P^1 x P^2 -------------------------------------------------


def curve_ring() -> RingSpec:
    return _job("curve.vr").ring


def curve_ideal() -> Submodule:
    """A B-saturated ideal of a hyperelliptic genus-4 curve of bidegree (2,8)
    in P^1 x P^2.

    Eight generators of degrees (3,1), (2,2), (2,3)^2, (1,5)^3, (0,8).
    """
    return _ideal("curve.vr")


CURVE_BETTI_TOTALS = tuple(EXPECTED["curve-res"]["totals"])
CURVE_TWISTS = _twists(EXPECTED["curve-res"])

# virtual resolution of the pair (curve, (2,1))
CURVE_PAIR_21_TOTALS = tuple(EXPECTED["curve-pair"]["pair"]["totals"])
CURVE_PAIR_21_TWISTS = _twists(EXPECTED["curve-pair"]["pair"])

# Beilinson-style shape of the curve at d = (2,2):
# ranks per homological index, as {twist: rank}
CURVE_BEILINSON_22 = {
    0: {(2, 2): 17},
    1: {(2, 3): 26, (3, 2): 15},
    2: {(2, 4): 9, (3, 3): 22},
    3: {(3, 4): 7},
}


# -- the surface in P^1 x P^3 ------------------------------------------------------


def surface_ideal() -> Submodule:
    """A B-saturated ideal of a surface in P^1 x P^3 with a length-3 resolution."""
    return _ideal("surface.vr")


SURFACE_BETTI_TOTALS = tuple(EXPECTED["surface-res"]["totals"])
SURFACE_TWISTS = _twists(EXPECTED["surface-res"])


# -- two planes in P^2 x P^2 -------------------------------------------------------


def two_planes_ideal() -> Submodule:
    """The B-saturated ideal <x(1,0),x(1,1)> ∩ <x(2,0),x(2,1)> in P^2 x P^2.

    Codimension 2, but it admits no length-2 virtual resolution.
    """
    R = RingSpec.product([2, 2])
    return ideal(
        R,
        [R.x(1, i) * R.x(2, j) for i in range(2) for j in range(2)],
    )


TWO_PLANES_BETTI_TOTALS = (1, 4, 4, 1)
TWO_PLANES_TWISTS = {
    0: {(0, 0): 1},
    1: {(1, 1): 4},
    2: {(2, 1): 2, (1, 2): 2},
    3: {(2, 2): 1},
}


# -- the Hirzebruch surface F_3 ----------------------------------------------------


def hirzebruch_ideal() -> Submodule:
    """B-saturated ideal of the scheme-theoretic intersection of two curves
    on the Hirzebruch surface F_3 (a custom grading with a negative entry)."""
    return _ideal("hirzebruch.vr")


HIRZEBRUCH_PDIM = EXPECTED["hirzebruch"]["pdim"]
# pdim S/(I ∩ <y0,y1>^a) drops to 2 exactly at a = 4
HIRZEBRUCH_CAP_PDIM = {1: 3, 2: 3, 3: 3, 4: 2, 5: 2}


# -- the del Pezzo surface of degree 7 ---------------------------------------------


def del_pezzo_ring() -> RingSpec:
    """Cox ring of the del Pezzo surface of degree 7 (P^2 blown up twice)."""
    degrees = [(1, 0, 0), (-1, 1, 0), (1, -1, 1), (0, 1, -1), (0, 0, 1)]
    primes = [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]
    names = [f"y{j}" for j in range(5)]
    return RingSpec.custom(degrees, primes, var_names=names)


DEL_PEZZO_POINTS = [
    (1, 1, 1, 1, 1),
    (2, 1, 3, 1, 5),
    (7, 1, 11, 1, 13),
]

DEL_PEZZO_MINIMAL_TWISTS = _twists(EXPECTED["delpezzo"]["minimal"])

DEL_PEZZO_VIRTUAL_TWISTS = {
    0: {(0, 0, 0): 1},
    1: {(0, 2, 0): 3},
    2: {(0, 3, 0): 2},
}


# -- six general points in P^1 x P^1 x P^2 (Tables 1 and 2) ------------------------


SIX_POINTS_SPACE = (1, 1, 2)


def six_points_ideal() -> Submodule:
    """The ideal of six seeded general points in P^1 x P^1 x P^2."""
    ring = RingSpec.product(list(SIX_POINTS_SPACE))
    return points_ideal(random_points(ring, 6, seed=42))


SIX_POINTS_MINIMAL_TOTALS = tuple(EXPECTED["table1"]["minimal_totals"])
SIX_POINTS_MINIMAL_DISTINCT = EXPECTED["table1"]["minimal_distinct"]
# {d: (totals, distinct twists)}, largest d first
SIX_POINTS_PAIR_TABLE = {
    _degree(k): (tuple(totals), distinct)
    for k, (totals, distinct) in sorted(EXPECTED["table1"]["pairs"].items(), reverse=True)
}
# {a: (totals, distinct twists)} for I ∩ B^a
SIX_POINTS_BSAT_TABLE = {
    _degree(k): (tuple(v["totals"]), v["distinct"]) for k, v in EXPECTED["table2"].items()
}


# -- fixture runs --------------------------------------------------------------------


def _fx_curve_res() -> dict:
    F = free_resolution(QuotientModule.cyclic(curve_ideal()))
    return BettiTable.from_complex(F).to_json_dict()


def _fx_curve_pair() -> dict:
    M = QuotientModule.cyclic(curve_ideal())
    W = BettiTable.from_complex(winnow(free_resolution(M), (2, 1)))
    V = BettiTable.from_complex(virtual_of_pair(M, (2, 1)))
    return {"winnow": W.to_json_dict(), "pair": V.to_json_dict(), "agree": W == V}


def _fx_curve_hilbert_burch() -> dict:
    I = curve_ideal()
    G = virtual_of_pair(QuotientModule.cyclic(I), (2, 1))
    J = ideal(I.ring, [col.coordinate(0) for col in G.maps[0]])
    cert = hilbert_burch(J, saturates_to=I)
    return {
        "shape": [len(t.gen_degrees) for t in free_resolution(QuotientModule.cyclic(J)).terms],
        "minors_generate": cert.minors_generate,
        "saturation_recovers": cert.saturation_recovers,
    }


def _fx_surface_res() -> dict:
    F = free_resolution(QuotientModule.cyclic(surface_ideal()))
    return BettiTable.from_complex(F).to_json_dict()


def _fx_surface_reg() -> dict:
    rep = regularity_check(QuotientModule.cyclic(surface_ideal()), (1, 1))
    return {"verdict": rep.verdict}


def _fx_hirzebruch() -> dict:
    I = hirzebruch_ideal()
    J = intersect_with_irrelevant_power(I, (4, 0))  # I ∩ <y0,y1>^4
    return {
        "pdim": free_resolution(QuotientModule.cyclic(I)).length,
        "pdim_cap4": free_resolution(QuotientModule.cyclic(J)).length,
    }


def _fx_delpezzo() -> dict:
    ring = del_pezzo_ring()
    cfg = PointConfig(ring, [(pt,) for pt in DEL_PEZZO_POINTS])
    I = points_ideal(cfg)
    F = free_resolution(QuotientModule.cyclic(I))
    minimal = BettiTable.from_complex(F).to_json_dict()
    # three forms of degree (0,2,0) through the points span a length-2 complex
    flats = [_flat_coords(ring, (pt,)) for pt in DEL_PEZZO_POINTS]
    conics = _vanishing_forms(ring, ring.monomials_of_degree((0, 2, 0)), flats)
    G = free_resolution(QuotientModule.cyclic(ideal(ring, conics)))
    ok, _ = is_virtual(G, I)
    return {
        "minimal": minimal,
        "virtual_totals": [len(t.gen_degrees) for t in G.terms],
        "virtual": ok,
    }


def _fx_koszul(m: int) -> dict:
    ring = RingSpec.product([1, 1])
    cfg = random_points(ring, m, seed=11)
    C, ok, _report = koszul_pair_for_points(cfg)
    return {
        "twists": [[list(d) for d in t.gen_degrees] for t in C.terms],
        "virtual": ok,
    }


def _fx_table1() -> dict:
    M = QuotientModule.cyclic(six_points_ideal())
    B = BettiTable.from_complex(free_resolution(M))
    out = {
        "minimal_totals": B.totals,
        "minimal_distinct": B.distinct_twists,
        "pairs": {},
    }
    for d in SIX_POINTS_PAIR_TABLE:
        G = BettiTable.from_complex(virtual_of_pair(M, d))
        out["pairs"][_key(d)] = [G.totals, G.distinct_twists]
    return out


def _fx_table2() -> dict:
    I = six_points_ideal()
    out = {}
    for a in SIX_POINTS_BSAT_TABLE:
        J = intersect_with_irrelevant_power(I, a)
        F = free_resolution(QuotientModule.cyclic(J))
        ok, _ = is_virtual(F, I)
        B = BettiTable.from_complex(F)
        out[_key(a)] = {
            "totals": B.totals,
            "distinct": B.distinct_twists,
            "length": F.length,
            "virtual": ok,
        }
    return out


FIXTURES = {
    "curve-res": _fx_curve_res,
    "curve-pair": _fx_curve_pair,
    "curve-hilbert-burch": _fx_curve_hilbert_burch,
    "surface-res": _fx_surface_res,
    "surface-reg": _fx_surface_reg,
    "hirzebruch": _fx_hirzebruch,
    "delpezzo": _fx_delpezzo,
    "koszul-m4": lambda: _fx_koszul(4),
    "koszul-m5": lambda: _fx_koszul(5),
    "table1": _fx_table1,
    "table2": _fx_table2,
}
