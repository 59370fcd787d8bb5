"""Sheaf cohomology, local cohomology, regularity, and Beilinson shapes."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from virtres import (
    FreeModule,
    QuotientModule,
    RingSpec,
    Submodule,
    beilinson_shape,
    check_linear_truncation,
    delta_set,
    euler_char_line,
    free_resolution,
    b_saturate,
    hilbert_function,
    ideal,
    intersect,
    irrelevant_power,
    line_bundle_cohomology,
    local_cohomology_dim,
    local_cohomology_dim_fast,
    points_ideal,
    random_points,
    regularity_check,
    sheaf_cohomology_exact,
    sheaf_euler_char,
    truncate,
    virtual_of_pair,
)
from virtres import cohomology, complexes
from virtres.cohomology import binom_poly
from virtres.fixtures import CURVE_BEILINSON_22, curve_ideal, curve_ring, surface_ideal
from virtres.groebner import LeadIndex, term_mono, term_pos
from virtres.punctual import _vanishing_forms
from virtres.ring import echelon_mod_p

R11 = RingSpec.product([1, 1], char=101)
R112 = RingSpec.product([1, 1, 2], char=101)


# -- line bundles --------------------------------------------------------------


def test_binom_poly_conventions():
    assert binom_poly(4, 2) == 6
    assert binom_poly(1, 2) == 0
    # polynomial convention: binom(m,k) = m(m-1)...(m-k+1)/k!, so negative
    # arguments give signed values rather than zero
    assert binom_poly(-1, 2) == 1
    assert binom_poly(-3, 2) == (-3) * (-4) // 2


@pytest.mark.parametrize(
    "n,a,q,dim",
    [
        ((1, 2), (2, 1), 0, 9),
        ((1, 2), (-2, 1), 1, 3),
        ((1, 2), (-2, -3), 3, 1),
        ((1, 2), (3, -1), None, 0),  # gap factor kills everything
        ((2,), (-3,), 2, 1),  # h^2(O_{P^2}(-3)) = 1 (canonical)
    ],
)
def test_line_bundle_cohomology_table(n, a, q, dim):
    prof = line_bundle_cohomology(n, a)
    if q is None:
        assert prof.is_zero()
    else:
        assert prof.dims == {q: dim}


@given(
    st.tuples(st.integers(-5, 5), st.integers(-6, 6)),
)
@settings(max_examples=80, deadline=None)
def test_serre_duality_on_products(a):
    n = (1, 2)
    prof = line_bundle_cohomology(n, a)
    dual = line_bundle_cohomology(n, tuple(-ai - ni - 1 for ai, ni in zip(a, n)))
    total = sum(n)
    for q in range(total + 1):
        assert prof.h(q) == dual.h(total - q)


@given(st.tuples(st.integers(-4, 4), st.integers(-5, 5)))
@settings(max_examples=60, deadline=None)
def test_euler_char_is_alternating_sum(a):
    n = (1, 2)
    assert euler_char_line(n, a) == line_bundle_cohomology(n, a).euler()


# -- exact sheaf cohomology of modules ----------------------------------------


def test_exact_cohomology_of_free_module_matches_kunneth():
    R = RingSpec.product([1, 2], char=32003)
    F = free_resolution(Submodule(ideal(R, [R.one()]).module, []))
    # resolution of S itself: a single free term
    M = QuotientModule(curve_ideal().module, Submodule(curve_ideal().module, []))
    for a in [(2, 1), (-2, 1), (-2, -3), (0, 0), (3, -1)]:
        got = sheaf_cohomology_exact(M, a)
        prof = line_bundle_cohomology((1, 2), a)
        for q in range(4):
            assert got.get(q, 0) == prof.h(q), (a, q)


def test_curve_cohomology_known_values():
    # genus-4 hyperelliptic curve of bidegree (2,8): O_C(1,0) is the g^1_2
    M = QuotientModule.cyclic(curve_ideal())
    h = sheaf_cohomology_exact(M, (2, 0))
    assert h[0] == 3 and h[1] == 2  # 2*g^1_2: deg 4, h^0 = 3 by Riemann-Roch
    h = sheaf_cohomology_exact(M, (3, 0))
    assert h[0] == 4 and h[1] == 1
    h = sheaf_cohomology_exact(M, (2, 1))
    # candidate regularity degree: positive sections, no higher cohomology
    assert h[1] == 0 and h[2] == 0
    assert h[0] == hilbert_function(QuotientModule.cyclic(curve_ideal()), (2, 1))


def test_curve_cohomology_matches_riemann_roch():
    # O_C(p) on the genus-4 curve has degree D = 2 p_1 + 8 p_2: h^0 = 0 and
    # h^1 = g - 1 - D when D < 0, h^0 = D + 1 - g and h^1 = 0 when D > 2g - 2;
    # the box holds every twist whose diagonals the curve's own sequence
    # leaves undetermined in the default (0,0) check, and deeper ones
    M = QuotientModule.cyclic(curve_ideal())
    for p in itertools.product(range(-3, 4), range(-4, 9)):
        D = 2 * p[0] + 8 * p[1]
        if 0 <= D <= 6:
            continue
        h = sheaf_cohomology_exact(M, p)
        assert h == {0: max(0, D - 3), 1: max(0, 3 - D), 2: 0, 3: 0}, p


def test_sheaf_euler_char_additivity():
    M = QuotientModule.cyclic(curve_ideal())
    for p in [(2, 1), (0, 3), (-1, 2), (4, 4)]:
        assert sheaf_euler_char(M, p) == 2 * p[0] + 8 * p[1] - 3
        # an ideal I is read as S/I
        assert sheaf_euler_char(curve_ideal(), p) == 2 * p[0] + 8 * p[1] - 3


@pytest.mark.parametrize("make", [curve_ideal, surface_ideal])
def test_sheaf_euler_char_of_ideal_matches_exact_cohomology(make):
    I = make()
    determined = 0
    for p in itertools.product(range(-2, 4), repeat=2):
        coh = sheaf_cohomology_exact(I, p)
        if None in coh.values():
            continue
        determined += 1
        assert sheaf_euler_char(I, p) == sum((-1) ** k * h for k, h in coh.items()), p
    assert determined >= 27


def test_exact_engine_agrees_with_ext_colimit_at_moderate_twists():
    M = QuotientModule.cyclic(curve_ideal())
    for p in [(2, 1), (1, 2), (3, 0)]:
        for i in [1, 2]:
            slow, stab = local_cohomology_dim(M, i, p)
            if stab:
                assert local_cohomology_dim_fast(M, i, p) == slow, (i, p)


def test_local_cohomology_h0_is_b_torsion_dimension():
    # S/B^[1] is all torsion: H^0_B = everything, sheaf cohomology all zero
    R = R11
    B = irrelevant_power(R, (1, 1))
    M = QuotientModule.cyclic(B)
    coh = sheaf_cohomology_exact(M, (1, 1))
    assert coh[0] == 0 and coh[1] == 0


def _cohomology_by_strand_ranks(F, p):
    """h^k(X, F~(p)) with every row of the E1 page, q = 0 included, built
    from explicit bases and ranked mod p: the engine before the row q = 0
    became a closed form, kept as the oracle for it.  Also returns E_2."""
    ring = F.ring
    n = tuple(ring.dimension_vector)
    nterms = len(F.terms)
    e1 = []  # [j][a] = (q, {basis exponents: index}) or None
    for term in F.terms:
        row = []
        for a in term.gen_degrees:
            c = tuple(pi - ai for pi, ai in zip(p, a))
            pat = cohomology._pattern(n, c)
            if pat is None:
                row.append(None)
                continue
            factors = [
                cohomology._factor_exponents(ni, qi, ci) for ni, qi, ci in zip(n, pat, c)
            ]
            basis = [sum(combo, ()) for combo in itertools.product(*factors)]
            row.append((sum(pat), {e: k for k, e in enumerate(basis)}) if basis else None)
        e1.append(row)
    e2 = {}
    for q in {d[0] for row in e1 for d in row if d}:
        offs, dims = [], []  # per j: {summand: first column}, total dimension
        for row in e1:
            off, total = {}, 0
            for ai, d in enumerate(row):
                if d and d[0] == q:
                    off[ai] = total
                    total += len(d[1])
            offs.append(off)
            dims.append(total)
        ranks = [0] * (nterms + 1)
        for j in range(1, nterms):
            rows = []
            for ai in offs[j]:
                basis = e1[j][ai][1]
                block = [{} for _ in basis]
                for t, coeff in F.maps[j - 1][ai].terms.items():
                    ti = term_pos(t)
                    if ti not in offs[j - 1]:
                        continue
                    mono = ring.codec.decode(term_mono(t))
                    dst = e1[j - 1][ti][1]
                    for exps, bi in basis.items():
                        tgt = dst.get(tuple(e + m for e, m in zip(exps, mono)))
                        if tgt is not None:
                            col = offs[j - 1][ti] + tgt
                            block[bi][col] = block[bi].get(col, 0) + coeff
                rows += block
            ranks[j] = len(echelon_mod_p(rows, ring.char))
        for j in range(nterms):
            if dims[j] - ranks[j] - ranks[j + 1]:
                e2[(j, q)] = dims[j] - ranks[j] - ranks[j + 1]
    out = {}
    for k in range(sum(n) + 1):
        total, determined = 0, True
        for j in range(min(nterms, sum(n) - k + 1)):
            q = k + j
            if not e2.get((j, q)):
                continue
            for r in range(2, nterms + 1):
                if e2.get((j + r, q + r - 1)) or (j >= r and e2.get((j - r, q - r + 1))):
                    determined = False
            total += e2[(j, q)]
        out[k] = total if determined else None
    return out, e2


def _five_points_p1p1():
    return QuotientModule.cyclic(points_ideal(random_points(R11, 5, 1)))


# (module, lower corner, upper corner) of the twist boxes the oracle covers
ORACLE_BOXES = {
    "curve": (lambda: QuotientModule.cyclic(curve_ideal()), (-3, -4), (3, 8)),
    "surface": (lambda: QuotientModule.cyclic(surface_ideal()), (-2, -5), (3, 3)),
    "S/B^(1,1)": (lambda: QuotientModule.cyclic(irrelevant_power(R11, (1, 1))), (-3, -3), (3, 3)),
    "S/B^(2,1)": (lambda: QuotientModule.cyclic(irrelevant_power(R11, (2, 1))), (-3, -3), (3, 3)),
    "5 points": (_five_points_p1p1, (-3, -3), (4, 4)),
    # three factors: rows q = 1 to 4, Čech keys over seven variables
    "S/B^(1,0,1) on P1xP1xP2": (
        lambda: QuotientModule.cyclic(irrelevant_power(R112, (1, 0, 1))),
        (-3, -3, -4),
        (1, 1, 1),
    ),
}
# the dimension of the support of each box's sheaf, above which h^k = 0
# (-1: the sheaf of a B-torsion module is zero)
SUPPORT_DIM = {
    "curve": 1, "surface": 2, "S/B^(1,1)": -1, "S/B^(2,1)": -1, "5 points": 0,
    "S/B^(1,0,1) on P1xP1xP2": -1,
}


@pytest.mark.parametrize("name", sorted(ORACLE_BOXES))
def test_closed_form_strand_row_matches_strand_ranks(name):
    make, lo, hi = ORACLE_BOXES[name]
    M = make()
    F = free_resolution(M)
    for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        want, e2 = _cohomology_by_strand_ranks(F, p)
        # the degree-p strand of a resolution of M is exact off column 0
        assert e2.get((0, 0), 0) == hilbert_function(M, p), p
        assert not any(e2.get((j, 0)) for j in range(1, len(F.terms))), p
        coh = sheaf_cohomology_exact(M, p)
        # every value is exact: the oracle's determined cells agree; where it
        # leaves a cell undetermined (None), the values sum to the Euler
        # characteristic, vanish above the support's dimension, and match a
        # second truncation, M_{>=e'} with e' = max(p + 2, generator degrees)
        assert None not in coh.values(), p
        assert {k: coh[k] for k in want if want[k] is not None} == {
            k: h for k, h in want.items() if h is not None
        }, p
        if None in want.values():
            assert sum((-1) ** k * h for k, h in coh.items()) == sheaf_euler_char(M, p), p
            assert not any(coh[k] for k in coh if k > SUPPORT_DIM[name]), p
            T = cohomology._truncation(M, tuple(c + 1 for c in p))
            other = dict.fromkeys(coh, 0) if T is None else cohomology._spectral_sequence(T, p)[0]
            assert other == coh, p
        # where M's own sequence determines h^0, H^0_B(M)_p = 0, so
        # H^1_B(M)_p = h^0 - HF(M, p)
        if want[0] is not None:
            assert local_cohomology_dim_fast(M, 1, p) == want[0] - hilbert_function(M, p), p
            assert local_cohomology_dim_fast(M, 0, p) == 0, p


def test_twist_outside_the_cech_key_range_is_refused(monkeypatch):
    # the refusal comes before any Čech basis is enumerated
    M = QuotientModule.cyclic(curve_ideal())
    enumerated = []
    factor_exponents = cohomology._factor_exponents

    def counting(*args):
        enumerated.append(args)
        return factor_exponents(*args)

    monkeypatch.setattr(cohomology, "_factor_exponents", counting)
    # every twist p - a with a cohomology row q > 0 is outside the range
    for p in [(-(2**30), 0), (2, -(2**31)), (-(2**31), 2**31)]:
        with pytest.raises(ValueError, match="outside the range"):
            sheaf_cohomology_exact(M, p)
    assert enumerated == []
    # no Čech basis is needed when every p - a is >= 0 or lies strictly
    # between -3 and 0 on P^2, so a twist beyond the range is answered
    assert sheaf_cohomology_exact(M, (2**31, 8))[1] == 0


def test_strand_row_needs_no_elimination(monkeypatch):
    # at (4, 8) every summand of the curve's resolution has p - a >= 0, so
    # the whole E1 page is the row q = 0: no Cech basis, no matrix
    M = QuotientModule.cyclic(curve_ideal())
    free_resolution(M)
    calls = []
    echelon = cohomology.echelon_mod_p

    def counting_echelon(rows, p):
        calls.append(1)
        return echelon(rows, p)

    monkeypatch.setattr(cohomology, "echelon_mod_p", counting_echelon)
    coh = sheaf_cohomology_exact(M, (4, 8))
    assert calls == []
    assert coh == {0: hilbert_function(M, (4, 8)), 1: 0, 2: 0, 3: 0}


def test_cohomology_of_a_free_complex_is_refused():
    # the closed-form row q = 0 holds only for a resolution, so the engine
    # resolves the module itself and takes no complex
    M = QuotientModule.cyclic(curve_ideal())
    F = free_resolution(M)
    with pytest.raises(TypeError, match="FreeComplex"):
        sheaf_cohomology_exact(F, (2, 1))
    with pytest.raises(TypeError, match="FreeComplex"):
        local_cohomology_dim_fast(F, 1, (2, 1))
    # an ideal is read as S/I
    assert sheaf_cohomology_exact(curve_ideal(), (2, 1)) == sheaf_cohomology_exact(M, (2, 1))


def test_bare_ideal_is_resolved_once(monkeypatch):
    # an ideal is read as one S/I, which keeps its resolution across calls
    calls = []
    iterated = complexes._iterated_syzygies

    def counting_iterated(*args, **kwargs):
        calls.append(1)
        return iterated(*args, **kwargs)

    monkeypatch.setattr(complexes, "_iterated_syzygies", counting_iterated)
    I = curve_ideal()
    M = QuotientModule.cyclic(curve_ideal())
    want = [sheaf_cohomology_exact(M, (2, 1)), local_cohomology_dim_fast(M, 1, (2, 1))]
    calls.clear()
    assert sheaf_cohomology_exact(I, (2, 1)) == want[0]
    assert sheaf_cohomology_exact(I, (2, 1)) == want[0]
    assert local_cohomology_dim_fast(I, 1, (2, 1)) == want[1]
    assert len(calls) == 1


def test_strand_sum_once_per_twist(monkeypatch):
    # sheaf_cohomology_exact and the i = 1 branch both read HF(M, p) from
    # the strand sum; the second reads the first's value
    M = QuotientModule.cyclic(curve_ideal())
    coh = sheaf_cohomology_exact(M, (2, 1))
    calls = []
    dim_S = RingSpec.hilbert_series_free

    def counting_dim_S(self, degree):
        calls.append(1)
        return dim_S(self, degree)

    monkeypatch.setattr(RingSpec, "hilbert_series_free", counting_dim_S)
    dim = local_cohomology_dim_fast(M, 1, (2, 1))
    assert calls == []
    assert dim == coh[0] - hilbert_function(M, (2, 1)) == 0


def _default_window_twists(M, d):
    """The twists of regularity_check's default window for the candidate d."""
    n = tuple(M.ring.dimension_vector)
    maxgen = [max(c) for c in zip(*(g.multidegree() for g in M.relations.gens))]
    lo = [-ni - 1 for ni in n]
    hi = [max(di + ni + 1, mg) for di, ni, mg in zip(d, n, maxgen)]
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


@pytest.mark.parametrize("make", [curve_ideal, surface_ideal])
def test_exact_cohomology_memo_matches_fresh_modules(make):
    warm = QuotientModule.cyclic(make())
    twists = _default_window_twists(warm, (0, 0))
    want = {p: sheaf_cohomology_exact(QuotientModule.cyclic(make()), p) for p in twists}
    assert {p: sheaf_cohomology_exact(warm, p) for p in twists} == want
    assert set(warm._cohomology) == set(twists)
    assert {p: sheaf_cohomology_exact(warm, list(p)) for p in twists} == want


def test_exact_cohomology_memo_hands_out_copies():
    M = QuotientModule.cyclic(curve_ideal())
    first = sheaf_cohomology_exact(M, (1, 0))
    want = dict(first)
    first[1] = 99
    first.clear()
    assert sheaf_cohomology_exact(M, (1, 0)) == want
    assert sheaf_cohomology_exact(M, (1, 0)) is not sheaf_cohomology_exact(M, (1, 0))
    assert local_cohomology_dim_fast(M, 2, (1, 0)) == want[1]


def test_refused_calls_store_nothing():
    M = QuotientModule.cyclic(curve_ideal())
    with pytest.raises(ValueError, match="outside the range"):
        sheaf_cohomology_exact(M, (-(2**30), 0))
    assert M._cohomology == {}
    with pytest.raises(TypeError, match="FreeComplex"):
        sheaf_cohomology_exact(free_resolution(M), (2, 1))
    assert M._cohomology == {}


def test_regularity_check_on_a_warm_module_matches_a_fresh_one():
    cases = [
        (curve_ideal, (2, 1), False),
        (curve_ideal, (0, 0), False),
        (surface_ideal, (1, 1), True),
    ]
    warm = {curve_ideal: QuotientModule.cyclic(curve_ideal()),
            surface_ideal: QuotientModule.cyclic(surface_ideal())}
    first = [regularity_check(warm[make], d, strict=strict) for make, d, strict in cases]
    for (make, d, strict), rep in zip(cases, first):
        fresh = regularity_check(QuotientModule.cyclic(make()), d, strict=strict)
        again = regularity_check(warm[make], d, strict=strict)
        for got in (rep, again):
            assert (got.checks, got.verdict) == (fresh.checks, fresh.verdict), (
                make.__name__, d
            )


def test_engine_runs_once_per_twist(monkeypatch):
    calls = []
    engine = cohomology._spectral_sequence

    def counting_engine(M, p):
        calls.append(p)
        return engine(M, p)

    monkeypatch.setattr(cohomology, "_spectral_sequence", counting_engine)
    shape = beilinson_shape(
        QuotientModule.cyclic(curve_ideal()), (2, 2), verify_vanishing=True
    )
    assert shape.vanishing_verified is True
    assert calls == [(2, 2)]
    calls.clear()
    M = QuotientModule.cyclic(curve_ideal())
    for d in [(2, 1), (2, 2), (3, 1)]:
        assert regularity_check(M, d).verdict == "consistent-in-window"
    assert len(calls) == len(set(calls)) == 32


# -- regularity -----------------------------------------------------------------


# the failure witnesses (i, p, dim) of the curve's default (0,0) check
CURVE_00_WITNESSES = [
    (2, (0, 0), 4), (1, (0, 1), 2), (1, (0, 2), 7), (1, (0, 3), 11),
    (1, (0, 4), 14), (1, (0, 5), 16), (1, (0, 6), 17), (1, (0, 7), 17),
    (1, (0, 8), 17), (2, (1, 0), 3), (1, (1, 1), 1), (1, (1, 2), 3),
    (1, (1, 3), 3), (1, (1, 4), 1), (2, (2, 0), 2), (2, (3, 0), 1),
]


# The (i, p) at which the curve's own spectral sequence leaves H^i_B
# undetermined, so that its (0,0) check reads the truncation's table
CURVE_00_FALLBACK = (
    {(1, (0, p)) for p in range(6)}
    | {(1, (1, p)) for p in range(1, 5)}
    | {(2, (0, p)) for p in range(6)}
)


def _checked_cells(monkeypatch):
    """The (i, p) that regularity_check asks local_cohomology_dim_fast for,
    in order."""
    cells = []
    fast = cohomology.local_cohomology_dim_fast

    def spy(M, i, p):
        cells.append((i, tuple(p)))
        return fast(M, i, p)

    monkeypatch.setattr(cohomology, "local_cohomology_dim_fast", spy)
    return cells


def _fallback_runs(monkeypatch):
    """The twists p at which a module's own spectral sequence leaves a
    diagonal undetermined, so that its truncation is built, in order."""
    runs = []
    truncation = cohomology._truncation

    def spy(M, p):
        runs.append(tuple(p))
        return truncation(M, p)

    monkeypatch.setattr(cohomology, "_truncation", spy)
    return runs


def _no_ext_colimit(monkeypatch):
    """Make any call of the Ext colimit fail the test."""

    def refuse(*args):
        raise AssertionError("the Ext colimit was read")

    monkeypatch.setattr(cohomology, "local_cohomology_dim", refuse)
    monkeypatch.setattr(cohomology, "_hom_matrix", refuse)


@pytest.mark.parametrize(
    "make,d,strict,ncells,heuristic,heuristic_witnesses",
    [
        (curve_ideal, (2, 1), False, 96, set(), []),
        (
            curve_ideal, (0, 0), False, 144, CURVE_00_FALLBACK,
            [w for w in CURVE_00_WITNESSES if w[:2] in CURVE_00_FALLBACK],
        ),
        (surface_ideal, (1, 1), False, 90, set(), []),
        (
            surface_ideal, (1, 1), True, 184,
            {(3, (0, 0)), (2, (0, 1)), (3, (0, 1)), (2, (0, 2)), (3, (0, 2))},
            [(3, (0, 0), 2)],
        ),
    ],
    ids=["curve-21", "curve-00", "surface-11", "surface-11-strict"],
)
def test_regularity_check_names_the_source_of_every_cell(
    monkeypatch, make, d, strict, ncells, heuristic, heuristic_witnesses
):
    # ``heuristic``: the cells the Ext colimit used to answer, and the
    # witnesses among them; the truncation now answers them exactly, with
    # the same values
    cells = _checked_cells(monkeypatch)
    runs = _fallback_runs(monkeypatch)
    _no_ext_colimit(monkeypatch)
    M = QuotientModule.cyclic(make())
    rep = regularity_check(M, d, strict=strict)
    # every cell once, in order of ascending twist, then ascending i
    assert len(cells) == len(set(cells)) == ncells
    assert cells == sorted(cells, key=lambda c: (c[1], c[0]))
    # the truncation runs once at each checked twist where M's own sequence
    # leaves a diagonal undetermined: every twist of a formerly heuristic
    # cell, and in the strict mode also twists whose undetermined
    # diagonals no region asks for
    own = QuotientModule.cyclic(make())
    undetermined = {
        p for _, p in cells if None in cohomology._spectral_sequence(own, p)[0].values()
    }
    assert len(runs) == len(set(runs))
    assert set(runs) == undetermined >= {p for _, p in heuristic}
    assert [w for w in rep.checks if w[:2] in heuristic] == heuristic_witnesses
    # every answer is one lookup or subtraction on the twist's exact table
    for i, p in cells:
        coh, image = M._cohomology[p]
        want = coh.get(i - 1, 0) if i >= 2 else coh[0] - image
        assert local_cohomology_dim_fast(M, i, p) == want, (i, p)


def test_fallback_runs_once_per_cell(monkeypatch):
    # the truncation is built once per twist of an undetermined cell
    runs = _fallback_runs(monkeypatch)
    M = QuotientModule.cyclic(curve_ideal())
    first = regularity_check(M, (0, 0))
    twists = {p for _, p in CURVE_00_FALLBACK}
    assert len(runs) == len(set(runs)) == len(twists) == 10
    assert set(runs) == twists
    runs.clear()
    assert regularity_check(M, (0, 0)) == first
    assert runs == []
    # the windows that cover every p >= (0,0) of the default window, then
    # the whole window: each undetermined twist reaches the truncation once
    M = QuotientModule.cyclic(curve_ideal())
    windows = [
        box for k in range(6) for box in (((-2, k), (0, k)), ((1, k), (3, k)))
    ] + [((-2, 6), (3, 8))]
    witnesses = []
    for window in windows:
        witnesses += regularity_check(M, (0, 0), window=window).checks
    assert regularity_check(M, (0, 0)) == first
    assert sorted(witnesses, key=lambda w: (w[1], w[0])) == first.checks
    assert len(runs) == len(set(runs)) == 10


def test_strict_regions_overlap_but_each_cell_is_read_once(monkeypatch):
    # at d = (1, 1) the strict regions of i = 2, 3 (d - q + N^r for |q| = i - 1)
    # overlap each other and the box of i = 1
    cells = _checked_cells(monkeypatch)
    runs = _fallback_runs(monkeypatch)
    M = QuotientModule.cyclic(curve_ideal())
    rep = regularity_check(M, (1, 1), strict=True)
    assert len(cells) == len(set(cells))
    twists = [p for _, p in cells]
    assert twists == sorted(twists)
    for p in set(twists):
        ii = [i for i, q in cells if q == p]
        assert ii == sorted(ii)
    assert len(runs) == len(set(runs))
    # the cells are exactly those of the regions
    n, top = (1, 2), 4
    want = {
        (i, p)
        for i in range(1, top + 1)
        for q in itertools.product(*(range(i) for _ in n))
        if sum(q) == i - 1
        for p in itertools.product(
            *(range(max(di - qi, lo), hi + 1) for di, qi, lo, hi in zip(
                (1, 1), q, rep.window[0], rep.window[1]
            ))
        )
    }
    assert set(cells) == want
    # each witness in order of ascending i within its twist
    for a, b in zip(rep.checks, rep.checks[1:]):
        assert (a[1], a[0]) < (b[1], b[0])


def test_regularity_check_curve():
    M = QuotientModule.cyclic(curve_ideal())
    rep = regularity_check(M, (2, 1))
    assert rep.verdict == "consistent-in-window"
    assert rep.checks == []
    rep = regularity_check(M, (0, 0))
    assert rep.window == ((-2, -3), (3, 8))
    assert rep.verdict == "refuted"
    assert rep.checks == CURVE_00_WITNESSES


def test_t_max_below_one_is_rejected():
    # with no Ext exponent to try, the fallback used to report dimension None,
    # which read as zero: a refutable window came back consistent
    M = QuotientModule.cyclic(curve_ideal())
    with pytest.raises(ValueError, match="t_max"):
        local_cohomology_dim(M, 1, (0, 0), t_max=0)


def test_regularity_check_surface():
    M = QuotientModule.cyclic(surface_ideal())
    rep = regularity_check(M, (1, 1))
    assert rep.verdict == "consistent-in-window"
    # the strict regions reach below (1, 1); the witness at (0, 0) comes from
    # the truncation's table, the other three from the surface's own sequence
    rep = regularity_check(M, (1, 1), strict=True)
    assert rep.verdict == "refuted"
    assert rep.checks == [
        (3, (0, 0), 2), (3, (1, -1), 4), (3, (1, 0), 1), (2, (3, 0), 1),
    ]


# -- rational curves: exact ground truth at every twist ---------------------------


R12 = RingSpec.product([1, 2], char=32003)


def _rational_curve(degrees, seed):
    """The ideal of the image of P^1 under seeded random forms of degree d1
    into P^1 and d2 into P^2.  Its degree-(a, b) piece is the forms that
    vanish at D + 1 points of the parametrization, D = a d1 + b d2: the pull
    back of such a form is a binary form of degree D with D + 1 zeros, so
    zero.  Generators up to degree (4, 4), then b_saturate."""
    rng = random.Random(seed)
    char = R12.char
    forms = [
        [[rng.randrange(char) for _ in range(d + 1)] for _ in range(n + 1)]
        for n, d in zip((1, 2), degrees)
    ]

    def point(u):  # the image of (1 : u)
        return tuple(
            sum(c * pow(u, k, char) for k, c in enumerate(f)) % char
            for fs in forms
            for f in fs
        )

    gens = []
    for a, b in itertools.product(range(5), repeat=2):
        D = a * degrees[0] + b * degrees[1]
        if D:
            pts = [point(u) for u in range(D + 1)]
            gens += _vanishing_forms(R12, R12.monomials_of_degree((a, b)), pts)
    I = b_saturate(ideal(R12, gens).minimalized())
    # guard the input: O_C(p) = O_P1(D) has D + 1 sections, and S/I must
    # have them on a probe box past the generator degrees
    M = QuotientModule.cyclic(I)
    for p in itertools.product(range(2, 6), repeat=2):
        assert hilbert_function(M, p) == degrees[0] * p[0] + degrees[1] * p[1] + 1, p
    return M


RATIONAL_DEGREES = [(1, 3), (2, 3), (2, 4)]


@pytest.mark.parametrize("degrees", RATIONAL_DEGREES, ids=str)
def test_rational_curve_cohomology_is_the_closed_form(degrees):
    # O_C(p) = O_P1(D) with D = d1 p1 + d2 p2: h^0 = max(0, D + 1) and
    # h^1 = max(0, -D - 1) at every twist, with no value left undetermined
    M = _rational_curve(degrees, 0)
    for p in itertools.product(range(-3, 5), repeat=2):
        D = degrees[0] * p[0] + degrees[1] * p[1]
        want = {0: max(0, D + 1), 1: max(0, -D - 1), 2: 0, 3: 0}
        assert sheaf_cohomology_exact(M, p) == want, p


@pytest.mark.parametrize(
    "degrees,h1", zip(RATIONAL_DEGREES, [8, 8, 11]), ids=[str(d) for d in RATIONAL_DEGREES]
)
def test_rational_curve_refutes_where_the_ext_colimit_read_zero(degrees, h1):
    # H^2_B(M)_(0,-3) = h^1(O_P1(-3 d2)); the Ext colimit stabilized at 0
    # there, and the window read "consistent-in-window"
    M = _rational_curve(degrees, 0)
    rep = regularity_check(M, (0, -3), window=((0, -3), (0, -3)))
    assert rep.verdict == "refuted"
    assert rep.checks == [(2, (0, -3), h1)]


def test_b_torsion_changes_no_higher_local_cohomology():
    # I/J is B-torsion for J = I ∩ B^(1,0), so H^i_B(S/J) = H^i_B(S/I) for
    # i >= 1; at (0, 8) S/J's own sequence leaves h^0 undetermined, and
    # h^0 - HF(S/J, p) would read 16
    I = curve_ideal()
    J = intersect(I, irrelevant_power(I.ring, (1, 0)))
    MI, MJ = QuotientModule.cyclic(I), QuotientModule.cyclic(J)
    assert sheaf_cohomology_exact(MJ, (0, 8))[0] - hilbert_function(MJ, (0, 8)) == 16
    for p in itertools.product(range(-2, 4), range(-3, 9)):
        for i in range(1, 5):
            assert local_cohomology_dim_fast(MJ, i, p) == local_cohomology_dim_fast(MI, i, p), (i, p)
        # H^0_B(S/J)_p is (I/J)_p
        assert local_cohomology_dim_fast(MJ, 0, p) == (
            hilbert_function(MJ, p) - hilbert_function(MI, p)
        ), p
    assert local_cohomology_dim_fast(MJ, 1, (0, 8)) == 17
    with pytest.raises(ValueError, match="at least 0"):
        local_cohomology_dim_fast(MJ, -1, (0, 8))


def test_regularity_check_hypersurface_both_modes():
    # hypersurface of degree d: candidate (max(0,d1-1), max(0,d2-1)) holds in
    # both region conventions; one step down fails
    x0, x1, y0, y1 = R11.variables()
    f = x0 ** 2 * y0 ** 2 + x1 ** 2 * y1 ** 2 + x0 * x1 * y0 * y1
    M = QuotientModule.cyclic(ideal(R11, [f]))
    for strict in (False, True):
        rep = regularity_check(M, (1, 1), strict=strict)
        assert rep.verdict == "consistent-in-window", strict
    rep = regularity_check(M, (0, 1))
    assert rep.verdict == "refuted"


def test_regularity_json_shape():
    M = QuotientModule.cyclic(curve_ideal())
    rep = regularity_check(M, (2, 1))
    d = rep.to_json_dict()
    assert d["candidate"] == [2, 1] and d["verdict"] == "consistent-in-window"
    assert d["failures"] == []


# -- memos of the module -----------------------------------------------------------


def _rank_two_module() -> QuotientModule:
    """A rank-2 quotient over the curve's ring; most of its normal forms
    have several terms, spread over both positions."""
    R = curve_ring()
    F = FreeModule(R, [(0, 0), (1, 0)])
    x = R.x
    e0, e1 = F.basis_element(0), F.basis_element(1)
    gens = [
        e0.poly_mul(x(1, 0) * x(2, 0) + x(1, 1) * x(2, 1)) + e1.poly_mul(x(2, 2)),
        e0.poly_mul(x(1, 0) * x(2, 2) ** 2 - x(1, 1) * x(2, 0) * x(2, 1))
        + e1.poly_mul(x(2, 0) * x(2, 1) + x(2, 2) ** 2),
        e1.poly_mul(x(2, 0) ** 2 + x(2, 1) * x(2, 2)),
    ]
    return QuotientModule(F, Submodule(F, gens))


MEMO_MODULES = {"curve": QuotientModule.cyclic(curve_ideal()), "rank-2": _rank_two_module()}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_graded_basis_memo_matches_fresh_module(data):
    M = MEMO_MODULES[data.draw(st.sampled_from(sorted(MEMO_MODULES)))]
    degree = tuple(data.draw(st.integers(-1, 5)) for _ in range(M.ring.rank_grading))
    fresh = QuotientModule(M.free, Submodule(M.free, M.relations.gens))
    want = fresh.graded_basis(degree)
    assert M.graded_basis(degree) == want
    assert M.graded_basis(list(degree)) == want


def test_memos_unchanged_by_regularity_check():
    M = QuotientModule.cyclic(curve_ideal())
    regularity_check(M, (0, 0), window=((-2, 0), (0, 0)))
    # (0, 0) is an undetermined twist: its truncation reads M_(1,1)
    assert M._graded_bases and (0, 0) in M._cohomology
    # a module built anew from the relations, sharing nothing with the memos
    fresh = QuotientModule(M.free, Submodule(M.free, M.relations.gens))
    for degree, basis in M._graded_bases.items():
        assert basis == fresh.graded_basis(degree)
    for p, (coh, _) in M._cohomology.items():
        assert coh == sheaf_cohomology_exact(fresh, p)
    assert M._cohomology == fresh._cohomology


def test_repeated_regularity_check_makes_no_reductions(monkeypatch):
    calls = []
    reduce = LeadIndex.reduce

    def counting_reduce(self, *args, **kwargs):
        calls.append(1)
        return reduce(self, *args, **kwargs)

    monkeypatch.setattr(LeadIndex, "reduce", counting_reduce)
    M = QuotientModule.cyclic(curve_ideal())
    window = ((-2, 0), (0, 0))
    first = regularity_check(M, (0, 0), window=window)
    assert calls  # the window reaches the truncation
    calls.clear()
    second = regularity_check(M, (0, 0), window=window)
    assert calls == []
    assert second == first


def test_regularity_check_builds_each_hom_matrix_once(monkeypatch):
    # regularity_check reads no Hom matrix: every value is exact; the Ext
    # colimit, the oracle, builds each (t, k, b) once per cell it is asked
    calls = []
    hom_matrix = cohomology._hom_matrix

    def counting_hom_matrix(M, F, k, b):
        calls.append((id(F), k, tuple(b)))  # F, one per t, lives in a module cache
        return hom_matrix(M, F, k, b)

    monkeypatch.setattr(cohomology, "_hom_matrix", counting_hom_matrix)
    M = QuotientModule.cyclic(curve_ideal())
    rep = regularity_check(M, (0, 0))
    assert calls == []
    assert rep.verdict == "refuted"
    assert rep.checks == CURVE_00_WITNESSES
    assert local_cohomology_dim(M, 1, (0, 1)) == (2, True)
    assert len(calls) == len(set(calls)) > 0


# -- delta sets and linear truncations -------------------------------------------


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (1, 1, 2)])
def test_delta_set_matches_resolution_of_cox_quotient(dims):
    R = RingSpec.product(list(dims), char=101)
    B = irrelevant_power(R, (1,) * len(dims))
    F = free_resolution(QuotientModule.cyclic(B))
    # the closed form covers homological indices 0..|n|; the resolution of
    # S/B continues past that
    for i in range(sum(dims) + 1):
        assert set(F.terms[i].twists) == delta_set(dims, i), i
    assert delta_set(dims, 0) == {(0,) * len(dims)}
    assert delta_set((1, 1), 1) == {(-1, -1)}
    assert delta_set((1, 1), 2) == {(-2, -1), (-1, -2)}


def test_linear_truncation_of_curve_pair_complex():
    # the pair complex at a regularity degree is Delta-shaped: each F_i
    # generator degree c satisfies c - d in Delta_i + N^r
    F = virtual_of_pair(QuotientModule.cyclic(curve_ideal()), (2, 1))
    assert check_linear_truncation(F, (2, 1))
    # pushing d past the generator degrees breaks the containment
    assert not check_linear_truncation(F, (5, 5))


# -- Beilinson shapes --------------------------------------------------------------


def test_beilinson_shape_curve():
    shape = beilinson_shape(QuotientModule.cyclic(curve_ideal()), (2, 2))
    assert shape.blocks == CURVE_BEILINSON_22
    assert shape.totals() == [17, 41, 31, 7]


def test_beilinson_shape_verified_flag():
    shape = beilinson_shape(
        QuotientModule.cyclic(curve_ideal()), (2, 2), verify_vanishing=True
    )
    assert shape.vanishing_verified is True
