"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Each criterion checks exact integer data (Betti totals, twist multisets,
virtuality flags, regularity verdicts) and enforces a wall-clock budget.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from virtres import (
    BettiTable,
    PointConfig,
    Polynomial,
    QuotientModule,
    RingSpec,
    Submodule,
    b_saturate,
    beilinson_shape,
    codim,
    delta_set,
    free_resolution,
    groebner_basis,
    hilbert_burch,
    hilbert_function,
    ideal,
    intersect_with_irrelevant_power,
    irrelevant_power,
    is_virtual,
    koszul_pair_for_points,
    line_bundle_cohomology,
    points_ideal,
    random_points,
    regularity_check,
    search_short_resolution_exponent,
    syzygy_module,
    virtual_of_pair,
    winnow,
)
from virtres.fixtures import (
    CURVE_BEILINSON_22,
    CURVE_BETTI_TOTALS,
    CURVE_PAIR_21_TOTALS,
    CURVE_PAIR_21_TWISTS,
    CURVE_TWISTS,
    DEL_PEZZO_MINIMAL_TWISTS,
    DEL_PEZZO_POINTS,
    DEL_PEZZO_VIRTUAL_TWISTS,
    SIX_POINTS_BSAT_TABLE,
    SIX_POINTS_MINIMAL_DISTINCT,
    SIX_POINTS_MINIMAL_TOTALS,
    SIX_POINTS_PAIR_TABLE,
    SURFACE_BETTI_TOTALS,
    SURFACE_TWISTS,
    TWO_PLANES_BETTI_TOTALS,
    TWO_PLANES_TWISTS,
    curve_ideal,
    del_pezzo_ring,
    hirzebruch_ideal,
    surface_ideal,
    two_planes_ideal,
)


@contextmanager
def criterion(number: int, title: str, budget: float):
    start = time.time()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.time() - start
        status = "FAIL" if failed or elapsed > budget else "PASS"
        print(f"criterion {number:2d} [{title}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def twist_dict(B: BettiTable) -> dict:
    out: dict = {}
    for (i, d), r in B.entries.items():
        out.setdefault(i, {})[d] = r
    return out


def test_criterion_01_curve_minimal_resolution():
    with criterion(1, "curve minimal resolution", 10):
        B = BettiTable.from_complex(
            free_resolution(QuotientModule.cyclic(curve_ideal()))
        )
        assert tuple(B.totals) == CURVE_BETTI_TOTALS
        assert twist_dict(B) == CURVE_TWISTS


def test_criterion_02_curve_pair_resolution():
    with criterion(2, "curve pair resolution at (2,1)", 10):
        M = QuotientModule.cyclic(curve_ideal())
        W = BettiTable.from_complex(winnow(free_resolution(M), (2, 1)))
        V = BettiTable.from_complex(virtual_of_pair(M, (2, 1)))
        assert W == V
        assert tuple(W.totals) == CURVE_PAIR_21_TOTALS
        assert twist_dict(W) == CURVE_PAIR_21_TWISTS


def test_criterion_03_hilbert_burch_on_curve():
    with criterion(3, "Hilbert-Burch certificate on the curve", 30):
        I = curve_ideal()
        G = virtual_of_pair(QuotientModule.cyclic(I), (2, 1))
        J = ideal(I.ring, [col.coordinate(0) for col in G.maps[0]])
        cert = hilbert_burch(J, saturates_to=I)
        assert cert.minors_generate
        assert cert.saturation_recovers
        assert len(cert.matrix) == 4 and len(cert.matrix[0]) == 3


def test_criterion_04_two_planes_no_short_virtual():
    with criterion(4, "P2xP2 planes: no length-2 virtual resolution", 10):
        I = two_planes_ideal()
        F = free_resolution(QuotientModule.cyclic(I))
        B = BettiTable.from_complex(F)
        assert tuple(B.totals) == TWO_PLANES_BETTI_TOTALS
        assert twist_dict(B) == TWO_PLANES_TWISTS
        for d in itertools.product(range(-2, 3), repeat=2):
            W = winnow(F, d)
            if BettiTable.from_complex(W) == B:
                continue
            assert not is_virtual(W, I)[0], d


@pytest.fixture(scope="module")
def six_points_ideal():
    ring = RingSpec.product([1, 1, 2], char=32003)
    cfg = random_points(ring, 6, seed=42)
    return points_ideal(cfg)


def test_criterion_05_six_points_tables(six_points_ideal):
    with criterion(5, "6 general points: minimal and pair tables", 300):
        I = six_points_ideal
        M = QuotientModule.cyclic(I)
        B = BettiTable.from_complex(free_resolution(M))
        assert tuple(B.totals) == SIX_POINTS_MINIMAL_TOTALS
        assert B.distinct_twists == SIX_POINTS_MINIMAL_DISTINCT
        for d, (totals, distinct) in SIX_POINTS_PAIR_TABLE.items():
            G = BettiTable.from_complex(virtual_of_pair(M, d))
            assert tuple(G.totals) == totals, d
            assert G.distinct_twists == distinct, d


def test_criterion_06_six_points_bsat_powers(six_points_ideal):
    with criterion(6, "6 general points: I cap B^a resolutions", 300):
        I = six_points_ideal
        for a, (totals, distinct) in SIX_POINTS_BSAT_TABLE.items():
            J = intersect_with_irrelevant_power(I, a)
            F = free_resolution(QuotientModule.cyclic(J))
            B = BettiTable.from_complex(F)
            assert tuple(B.totals) == totals, a
            assert B.distinct_twists == distinct, a
            assert F.length == 4  # |n| for P^1 x P^1 x P^2
            assert is_virtual(F, I)[0], a


def test_criterion_07_beilinson_shape_curve():
    with criterion(7, "Beilinson shape of the curve at (2,2)", 30):
        shape = beilinson_shape(QuotientModule.cyclic(curve_ideal()), (2, 2))
        assert shape.blocks == CURVE_BEILINSON_22
        assert shape.totals() == [17, 41, 31, 7]


def test_criterion_08_koszul_pairs_for_points():
    with criterion(8, "Koszul pairs for 4 and 5 points on P1xP1", 30):
        ring = RingSpec.product([1, 1], char=32003)
        for m, degs in [(4, [(1, 2), (1, 2)]), (5, [(1, 2), (1, 3)])]:
            cfg = random_points(ring, m, seed=11)
            C, ok, report = koszul_pair_for_points(cfg)
            assert ok, report
            assert sorted(C.terms[1].gen_degrees) == sorted(degs)
            M = QuotientModule.cyclic(points_ideal(cfg, resample=False))
            for d in itertools.product(range(m + 2), repeat=2):
                full = (d[0] + 1) * (d[1] + 1)
                if full <= m + 4:
                    assert hilbert_function(M, d) == min(full, m)


def test_criterion_09_del_pezzo_points():
    with criterion(9, "del Pezzo custom ring: 3 points", 60):
        ring = del_pezzo_ring()
        cfg = PointConfig(ring, [(pt,) for pt in DEL_PEZZO_POINTS])
        I = points_ideal(cfg)
        B = BettiTable.from_complex(free_resolution(QuotientModule.cyclic(I)))
        assert tuple(B.totals) == (1, 5, 6, 2)
        assert twist_dict(B) == DEL_PEZZO_MINIMAL_TWISTS
        # length-2 virtual resolution from three degree-(0,2,0) forms
        from virtres.punctual import _flat_coords, _vanishing_forms

        flats = [_flat_coords(ring, (pt,)) for pt in DEL_PEZZO_POINTS]
        conics = _vanishing_forms(ring, ring.monomials_of_degree((0, 2, 0)), flats)
        G = free_resolution(QuotientModule.cyclic(ideal(ring, conics)))
        BG = BettiTable.from_complex(G)
        assert tuple(BG.totals) == (1, 3, 2)
        assert twist_dict(BG) == DEL_PEZZO_VIRTUAL_TWISTS
        assert is_virtual(G, I)[0]


def test_criterion_10_hirzebruch_pdim_drop():
    with criterion(10, "Hirzebruch custom ring: pdim drop", 60):
        I = hirzebruch_ideal()
        assert free_resolution(QuotientModule.cyclic(I)).length == 3
        J = intersect_with_irrelevant_power(I, (4, 0))
        assert free_resolution(QuotientModule.cyclic(J)).length == 2
        a, G = search_short_resolution_exponent(I)
        assert a == (4, 0) and G.length == 2


def test_criterion_11_surface_resolution_and_regularity():
    with criterion(11, "P1xP3 surface: resolution and regularity", 60):
        I = surface_ideal()
        B = BettiTable.from_complex(free_resolution(QuotientModule.cyclic(I)))
        assert tuple(B.totals) == SURFACE_BETTI_TOTALS
        assert twist_dict(B) == SURFACE_TWISTS
        rep = regularity_check(QuotientModule.cyclic(I), (1, 1))
        assert rep.verdict == "consistent-in-window"


# -- criterion 12: property suites ------------------------------------------------


def _random_bsat_ideal(ring, rng):
    while True:
        gens = []
        for _ in range(rng.randrange(2, 4)):
            d = tuple(rng.randrange(1, 3) for _ in range(ring.rank_grading))
            keys = ring.monomials_of_degree(d)
            take = rng.sample(keys, min(rng.randrange(1, 4), len(keys)))
            f = Polynomial(ring, {k: rng.randrange(1, ring.char) for k in take})
            if f.terms:
                gens.append(f)
        I = b_saturate(ideal(ring, gens))
        if gens and not I.gb().contains(I.module.wrap(ring.one())):
            return I


def _check_buchberger(gb):
    from virtres.groebner import term_mono, term_pos

    ring = gb.module.ring
    codec = ring.codec
    for i in range(len(gb.elements)):
        Ti, ci = gb.elements[i].lead_term()
        for j in range(i + 1, len(gb.elements)):
            Tj, cj = gb.elements[j].lead_term()
            if term_pos(Ti) != term_pos(Tj):
                continue
            L = codec.lcm(term_mono(Ti), term_mono(Tj))
            sp = gb.elements[i].mono_mul(
                codec.quot(L, term_mono(Ti)), ring.inv(ci)
            ) - gb.elements[j].mono_mul(codec.quot(L, term_mono(Tj)), ring.inv(cj))
            assert not gb.normal_form(sp).terms


def _check_resolution(F):
    ring = F.ring
    zero_deg = (0,) * ring.rank_grading
    # complex, minimal, exact in the middle
    for i in range(1, len(F.maps)):
        for col in F.maps[i]:
            img = F.maps[i - 1][0].module.zero()
            for pos in range(col.module.rank):
                f = col.coordinate(pos)
                if f.terms:
                    img = img + F.maps[i - 1][pos].poly_mul(f)
            assert not img.terms
    for cols in F.maps:
        for col in cols:
            for f in col.coordinates():
                for k in f.terms:
                    assert ring.mono_degree(k) != zero_deg
    for i in range(1, len(F.maps)):
        syz = syzygy_module(F.maps[i - 1], minimalize=False)
        assert groebner_basis(F.maps[i], module=F.terms[i]).reduces_to_zero(syz)


def test_criterion_12_property_suites():
    with criterion(12, "property suites", 180):
        rng = random.Random(2024)
        # winnow/pair agreement on 20 random B-saturated ideals, plus
        # Buchberger, exactness/minimality, and saturation idempotence
        for trial in range(20):
            ring = RingSpec.product([1, 1] if trial % 2 == 0 else [1, 2], char=101)
            I = _random_bsat_ideal(ring, rng)
            _check_buchberger(I.gb())
            S = b_saturate(I)
            assert S.gb().reduces_to_zero(I.gens) and I.gb().reduces_to_zero(S.gens)
            M = QuotientModule.cyclic(I)
            F = free_resolution(M)
            _check_resolution(F)
            d = tuple(rng.randrange(3) for _ in range(ring.rank_grading))
            assert BettiTable.from_complex(winnow(F, d)) == BettiTable.from_complex(
                virtual_of_pair(M, d)
            )
        # vanishing lemma: b in Delta_i + N^r, a in N^r nonzero =>
        # h^{|a|+i}(O(b-a)) = 0
        n = (1, 2)
        for i in range(sum(n) + 1):
            for delta in delta_set(n, i):
                for _ in range(10):
                    b = tuple(dd + rng.randrange(3) for dd in delta)
                    a = tuple(rng.randrange(3) for _ in n)
                    if not any(a):
                        continue
                    prof = line_bundle_cohomology(
                        n, tuple(bb - aa for bb, aa in zip(b, a))
                    )
                    assert prof.h(sum(a) + i) == 0, (i, b, a)
        # Serre duality over a sampled box
        for _ in range(40):
            a = (rng.randrange(-5, 6), rng.randrange(-6, 7))
            prof = line_bundle_cohomology(n, a)
            dual = line_bundle_cohomology(
                n, tuple(-ai - ni - 1 for ai, ni in zip(a, n))
            )
            for q in range(sum(n) + 1):
                assert prof.h(q) == dual.h(sum(n) - q)
        # delta_set vs the resolution of S/B on three rings
        for dims in [(1, 1), (1, 2), (1, 1, 2)]:
            R = RingSpec.product(list(dims), char=101)
            F = free_resolution(
                QuotientModule.cyclic(irrelevant_power(R, (1,) * len(dims)))
            )
            for i in range(sum(dims) + 1):
                assert set(F.terms[i].twists) == delta_set(dims, i)
        # virtual resolutions are never shorter than the codimension
        curve = curve_ideal()
        pairs = [
            (virtual_of_pair(QuotientModule.cyclic(curve), (2, 1)), curve),
        ]
        planes = two_planes_ideal()
        pairs.append((free_resolution(QuotientModule.cyclic(planes)), planes))
        for F, I in pairs:
            assert F.length >= codim(I)
