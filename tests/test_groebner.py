"""Groebner engine tests: Buchberger criterion, normal forms, syzygies."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from virtres import (
    FreeComplex,
    FreeModule,
    ModuleElement,
    Polynomial,
    RingSpec,
    Submodule,
    groebner_basis,
    ideal,
    minimal_generators,
    quotient,
    syzygy_module,
    vadd,
    vsub,
)
from virtres.fixtures import hirzebruch_ideal
from virtres.groebner import term_key, term_mono, term_pos

R11 = RingSpec.product([1, 1], char=101)
R12 = RingSpec.product([1, 2], char=32003)


def random_ideal_gens(ring, rng, count=3, max_deg=2):
    gens = []
    for _ in range(count):
        d = tuple(rng.randrange(max_deg + 1) for _ in range(ring.rank_grading))
        keys = ring.monomials_of_degree(d)
        if not keys:
            continue
        take = rng.sample(keys, min(3, len(keys)))
        f = Polynomial(ring, {k: rng.randrange(1, ring.char) for k in take})
        if f.terms:
            gens.append(f)
    return gens


def wrap_all(ring, polys):
    F = FreeModule(ring, [(0,) * ring.rank_grading])
    return [F.wrap(f) for f in polys], F


def s_pair(gb, i, j):
    """The S-element of basis members i and j (same lead position), or None."""
    ring = gb.module.ring
    codec = ring.codec
    gi, gj = gb.elements[i], gb.elements[j]
    Ti, ci = gi.lead_term()
    Tj, cj = gj.lead_term()
    if term_pos(Ti) != term_pos(Tj):
        return None
    L = codec.lcm(term_mono(Ti), term_mono(Tj))
    a = gi.mono_mul(codec.quot(L, term_mono(Ti)), ring.inv(ci))
    b = gj.mono_mul(codec.quot(L, term_mono(Tj)), ring.inv(cj))
    return a - b


@pytest.mark.parametrize("ring,seed", [(R11, s) for s in range(6)] + [(R12, s) for s in range(4)])
def test_buchberger_criterion(ring, seed):
    rng = random.Random(seed)
    gens, F = wrap_all(ring, random_ideal_gens(ring, rng))
    gb = groebner_basis(gens, module=F)
    # every S-element reduces to zero, and every input generator is a member
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            sp = s_pair(gb, i, j)
            if sp is not None:
                assert not gb.normal_form(sp).terms
    assert gb.reduces_to_zero(gens)


def test_normal_form_is_idempotent_and_linear():
    rng = random.Random(7)
    gens, F = wrap_all(R11, random_ideal_gens(R11, rng))
    gb = groebner_basis(gens, module=F)
    u = F.wrap(R11.x(1, 0) ** 2 * R11.x(2, 1) + R11.x(1, 1) ** 2 * R11.x(2, 0))
    v = F.wrap(R11.x(1, 0) * R11.x(1, 1) * R11.x(2, 0))
    nu, nv = gb.normal_form(u), gb.normal_form(v)
    assert gb.normal_form(nu) == nu
    assert gb.normal_form(u + v) == nu + nv


def test_membership_known_example():
    # the twisted relation x^2*w - y^2*z lies in <x*w - y*z, ...> only when it should
    x, y = R11.x(1, 0), R11.x(1, 1)
    z, w = R11.x(2, 0), R11.x(2, 1)
    gens, F = wrap_all(R11, [x * w - y * z])
    gb = groebner_basis(gens, module=F)
    assert gb.contains(F.wrap(x ** 2 * w - x * y * z))
    assert not gb.contains(F.wrap(x * z))


@pytest.mark.parametrize("seed", range(5))
def test_syzygies_annihilate_generators(seed):
    rng = random.Random(seed)
    gens, F = wrap_all(R11, random_ideal_gens(R11, rng))
    if not gens:
        pytest.skip("empty sample")
    syz = syzygy_module(gens)
    for s in syz:
        combo = F.zero()
        for pos, g in enumerate(gens):
            combo = combo + g.poly_mul(s.coordinate(pos))
        assert not combo.terms
        assert s.is_homogeneous()


def test_syzygy_of_zero_input_is_its_basis_vector():
    F = FreeModule(R11, [(0, 0)])
    syz = syzygy_module([F.zero(), F.wrap(R11.x(1, 0))])
    assert syz == [syz[0].module.basis_element(0)]


def test_syzygies_keep_the_relation_of_a_redundant_input():
    # the colon routine reads the relations of inputs that reduce to zero
    x, y = R11.x(1, 0), R11.x(1, 1)
    gens, F = wrap_all(R11, [x, y, x])
    syz = syzygy_module(gens, minimalize=False)
    tag = syz[0].module
    rel = tag.basis_element(0) - tag.basis_element(2)
    assert rel in syz or -rel in syz


def test_minimal_generators_drops_redundant():
    x, y = R11.x(1, 0), R11.x(1, 1)
    z = R11.x(2, 0)
    gens, F = wrap_all(R11, [x, y, x * z, (x + y) * z])
    kept = minimal_generators(gens, module=F)
    assert len(kept) == 2
    gb = groebner_basis(kept, module=F)
    assert gb.reduces_to_zero(gens)


def test_module_groebner_positions():
    # submodule of S^2: leads carry positions; membership respects them
    F = FreeModule(R11, [(0, 0), (1, 0)])
    x, y = R11.x(1, 0), R11.x(1, 1)
    e0, e1 = F.basis_element(0), F.basis_element(1)
    gens = [e0.poly_mul(x) + e1, e0.poly_mul(y)]
    gb = groebner_basis(gens, module=F)
    assert gb.contains(e0.poly_mul(x * y) + e1.poly_mul(y))
    assert not gb.contains(e1)


def test_module_element_mono_mul_overflow_raises():
    # x0^30000 * x0^30000 used to wrap into exponents (-5536, 1, 0, 0)
    f = R11.x(1, 0) ** 30000
    elt = FreeModule(R11, [(0, 0)]).wrap(f)
    with pytest.raises(OverflowError):
        elt.mono_mul(max(f.terms))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_groebner_basis_is_reduced(data):
    ring = data.draw(st.sampled_from([R11, R12]))
    polys = []
    for _ in range(data.draw(st.integers(1, 4))):
        d = tuple(data.draw(st.integers(0, 2)) for _ in range(ring.rank_grading))
        monos = st.sampled_from(ring.monomials_of_degree(d))
        keys = data.draw(st.lists(monos, min_size=1, max_size=4))
        polys.append(Polynomial(ring, {k: data.draw(st.integers(1, ring.char - 1)) for k in keys}))
    gens, F = wrap_all(ring, polys)
    gb = groebner_basis(gens, module=F)
    leads = gb.lead_terms()
    for i, g in enumerate(gb.elements):
        assert g.lead_term()[1] == 1
        for t in g.terms:
            for j, (pos, K) in enumerate(leads):
                if j != i and pos == term_pos(t):
                    assert not ring.codec.divides(K, term_mono(t))
    assert gb.reduces_to_zero(gens)


# -- homogeneity refusals ------------------------------------------------------
# Each public entry point refuses inhomogeneous input with a ValueError that
# names two degrees occurring in it; the engine's internal calls rely on this.

MIXED_DEGREES = r"degrees \(.*\) and \(.*\) both occur"


def _mixed():
    x, y = R11.x(1, 0), R11.x(2, 0)
    F = FreeModule(R11, [(0, 0)])
    return x * y + x, F


@pytest.mark.parametrize(
    "call",
    [
        lambda f, F: f.multidegree(),
        lambda f, F: F.wrap(f).multidegree(),
        lambda f, F: ideal(R11, [R11.x(1, 1), f]),
        lambda f, F: Submodule(F, [F.wrap(f)]),
        lambda f, F: syzygy_module([F.wrap(R11.x(1, 1)), F.wrap(f)]),
        lambda f, F: minimal_generators([F.wrap(R11.x(1, 1)), F.wrap(f)], module=F),
        lambda f, F: FreeComplex([F, FreeModule(R11, [(1, 1)])], [[F.wrap(f)]]),
        lambda f, F: quotient(ideal(R11, [R11.x(1, 1)]), f),
        lambda f, F: groebner_basis([F.wrap(R11.x(1, 1)), F.wrap(f)], module=F),
    ],
    ids=[
        "Polynomial.multidegree",
        "ModuleElement.multidegree",
        "ideal",
        "Submodule",
        "syzygy_module",
        "minimal_generators",
        "FreeComplex",
        "quotient",
        "groebner_basis",
    ],
)
def test_inhomogeneous_input_is_refused(call):
    f, F = _mixed()
    with pytest.raises(ValueError, match=MIXED_DEGREES):
        call(f, F)


# -- homogeneity across positions ------------------------------------------------
# multidegree adds each generator degree once per (monomial degree, position)
# pair; the reference adds it once per term.

HOMOGENEITY_RINGS = [RingSpec.product([1, 1]), hirzebruch_ideal().ring]


def ref_term_degrees(elt):
    ring = elt.ring
    degs = set()
    for t in elt.terms:
        exps = ring.codec.decode(term_mono(t))
        mono = tuple(sum(map(operator.mul, exps, col)) for col in zip(*ring.var_degrees))
        degs.add(vadd(mono, elt.module.gen_degrees[term_pos(t)]))
    return degs


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_homogeneity_across_positions_matches_per_term_reference(data):
    ring = data.draw(st.sampled_from(HOMOGENEITY_RINGS))
    small = st.tuples(st.integers(0, 2), st.integers(0, 2))
    gen_degrees = data.draw(st.lists(small, min_size=2, max_size=3, unique=True))
    F = FreeModule(ring, gen_degrees)
    target = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    coeff = st.integers(1, ring.char - 1)
    mono_degrees = [vsub(target, a) for a in gen_degrees]
    terms = {}
    # every position at one total degree: the monomial degrees differ by position
    for pos, d in enumerate(mono_degrees):
        monos = ring.monomials_of_degree(d)
        for k in data.draw(st.lists(st.sampled_from(monos), max_size=3)) if monos else []:
            terms[term_key(k, pos)] = data.draw(coeff)
    # sometimes a stray term, at any position, whose monomial degree is
    # another position's or any small one
    if data.draw(st.booleans()):
        pos = data.draw(st.integers(0, len(gen_degrees) - 1))
        monos = ring.monomials_of_degree(data.draw(st.sampled_from(mono_degrees) | small))
        if monos:
            terms[term_key(data.draw(st.sampled_from(monos)), pos)] = data.draw(coeff)
    elt = ModuleElement(F, terms)
    ref = ref_term_degrees(elt)
    assert elt.is_homogeneous() == (len(ref) <= 1)
    if len(ref) == 1:
        assert elt.multidegree() == next(iter(ref))
    elif ref:
        d1, d2 = sorted(ref)[:2]
        with pytest.raises(ValueError, match=MIXED_DEGREES) as info:
            elt.multidegree()
        assert f"degrees {d1} and {d2} both occur" in str(info.value)
