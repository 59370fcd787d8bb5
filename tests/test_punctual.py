"""Point configurations, their ideals, short resolutions, Hilbert-Burch."""

import itertools

import pytest

from virtres import (
    BettiTable,
    PointConfig,
    QuotientModule,
    RingSpec,
    b_saturate,
    free_resolution,
    hilbert_burch,
    hilbert_function,
    ideal,
    intersect_with_irrelevant_power,
    is_virtual,
    koszul_pair_for_points,
    point_ideal,
    points_ideal,
    random_points,
    search_short_resolution_exponent,
    virtual_of_pair,
)
from virtres.fixtures import (
    DEL_PEZZO_MINIMAL_TWISTS,
    DEL_PEZZO_POINTS,
    HIRZEBRUCH_CAP_PDIM,
    HIRZEBRUCH_PDIM,
    curve_ideal,
    del_pezzo_ring,
    hirzebruch_ideal,
)

R11 = RingSpec.product([1, 1], char=32003)


def same_ideal(A, B):
    return A.gb().reduces_to_zero(B.gens) and B.gb().reduces_to_zero(A.gens)


# -- configurations ------------------------------------------------------------


def test_point_config_validation():
    with pytest.raises(ValueError):
        PointConfig(R11, [((1, 0), (0, 0))])  # zero vector in a factor
    with pytest.raises(ValueError):
        # projectively equal points are duplicates even with scaled coordinates
        PointConfig(R11, [((1, 2), (3, 4)), ((2, 4), (6, 8))])
    cfg = PointConfig(R11, [((1, -1), (0, 5))])
    assert cfg.points[0][0] == (1, 32002)


def test_random_points_deterministic():
    a = random_points(R11, 5, seed=3)
    b = random_points(R11, 5, seed=3)
    assert a.points == b.points and len(a) == 5
    c = random_points(R11, 5, seed=4)
    assert a.points != c.points


# -- single points ---------------------------------------------------------------


def test_point_ideal_product_vanishing():
    coords = ((2, 5), (7, 11))
    P = point_ideal(R11, coords)
    # generators are the 2x2 minors, so they vanish on substituting the point
    for g in P.gens:
        f = g.coordinate(0)
        val = 0
        for k, c in f.terms.items():
            e = R11.codec.decode(k)
            term = c
            flat = coords[0] + coords[1]
            for exp, cv in zip(e, flat):
                term = term * pow(cv, exp, R11.char) % R11.char
            val = (val + term) % R11.char
        assert val == 0
    M = QuotientModule.cyclic(P)
    for d in itertools.product(range(3), repeat=2):
        assert hilbert_function(M, d) == 1


def test_point_ideal_custom_ring():
    R = del_pezzo_ring()
    P = point_ideal(R, DEL_PEZZO_POINTS[1])
    assert same_ideal(b_saturate(P), P)
    M = QuotientModule.cyclic(P)
    assert hilbert_function(M, (1, 1, 1)) == 1


# -- point configurations and genericity -----------------------------------------


def test_points_ideal_hilbert_gate():
    cfg = random_points(R11, 4, seed=11)
    I = points_ideal(cfg)
    M = QuotientModule.cyclic(I)
    for d in itertools.product(range(4), repeat=2):
        assert hilbert_function(M, d) == min(R11.hilbert_series_free(d), 4)


@pytest.mark.parametrize(
    "kind,m",
    [("P1xP1", 1), ("P1xP1", 3), ("P1xP1", 5), ("del Pezzo", 2), ("del Pezzo", 3)],
)
def test_points_ideal_is_b_saturated(kind, m):
    # an intersection of B-saturated point ideals needs no final saturation
    if kind == "P1xP1":
        cfg = random_points(R11, m, seed=m)
    else:
        cfg = PointConfig(del_pezzo_ring(), [(pt,) for pt in DEL_PEZZO_POINTS[:m]])
    I = points_ideal(cfg)
    assert b_saturate(I) == I


def test_del_pezzo_three_points_resolution():
    R = del_pezzo_ring()
    cfg = PointConfig(R, [(pt,) for pt in DEL_PEZZO_POINTS])
    I = points_ideal(cfg)
    B = BettiTable.from_complex(free_resolution(QuotientModule.cyclic(I)))
    assert tuple(B.totals) == (1, 5, 6, 2)
    tw = {}
    for (i, d), r in B.entries.items():
        tw.setdefault(i, {})[d] = r
    assert tw == DEL_PEZZO_MINIMAL_TWISTS


# -- Koszul pairs ------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,degs",
    [(4, [(1, 2), (1, 2)]), (5, [(1, 2), (1, 3)])],
)
def test_koszul_pair_for_points(m, degs):
    cfg = random_points(R11, m, seed=11)
    C, ok, report = koszul_pair_for_points(cfg)
    assert ok, report
    assert sorted(C.terms[1].gen_degrees) == sorted(degs)
    assert C.terms[2].gen_degrees == (tuple(a + b for a, b in zip(*degs)),)
    I = points_ideal(cfg, resample=False)
    M = QuotientModule.cyclic(I)
    for d in itertools.product(range(m + 2), repeat=2):
        full = (d[0] + 1) * (d[1] + 1)
        if full <= m + 4:
            assert hilbert_function(M, d) == min(full, m)


def test_koszul_pair_rejects_wrong_space():
    R = RingSpec.product([1, 2], char=32003)
    cfg = random_points(R, 3, seed=0)
    with pytest.raises(ValueError):
        koszul_pair_for_points(cfg)


# -- short resolutions via B^a -----------------------------------------------------


def test_hirzebruch_pdim_drop():
    I = hirzebruch_ideal()
    F = free_resolution(QuotientModule.cyclic(I))
    assert F.length == HIRZEBRUCH_PDIM
    for a1, pdim in HIRZEBRUCH_CAP_PDIM.items():
        J = intersect_with_irrelevant_power(I, (a1, 0))
        assert free_resolution(QuotientModule.cyclic(J)).length == pdim, a1
    a, G = search_short_resolution_exponent(I)
    assert a == (4, 0)
    assert G.length == 2 == I.ring.total_dim()
    assert is_virtual(G, I)[0]


def test_intersect_with_zero_exponent_is_identity():
    I = curve_ideal()
    assert intersect_with_irrelevant_power(I, (0, 0)) is I
    with pytest.raises(ValueError):
        intersect_with_irrelevant_power(I, (-1, 0))


def test_points_short_resolution_on_p1xp1():
    cfg = random_points(R11, 4, seed=11)
    I = points_ideal(cfg)
    a, F = search_short_resolution_exponent(I)
    assert F.length == 2
    assert is_virtual(F, I)[0]


# -- Hilbert-Burch -------------------------------------------------------------------


def test_hilbert_burch_on_curve_pair_ideal():
    I = curve_ideal()
    G = virtual_of_pair(QuotientModule.cyclic(I), (2, 1))
    J = ideal(I.ring, [col.coordinate(0) for col in G.maps[0]])
    cert = hilbert_burch(J, saturates_to=I)
    assert cert.minors_generate
    assert cert.saturation_recovers
    assert len(cert.matrix) == 4 and len(cert.matrix[0]) == 3


def test_hilbert_burch_rejects_wrong_shape():
    with pytest.raises(ValueError):
        hilbert_burch(curve_ideal())
