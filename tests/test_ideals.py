"""Ideal operations: intersection, colon, saturation, truncation, Hilbert data."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import virtres.ideals
from virtres import (
    FreeModule,
    Polynomial,
    QuotientModule,
    RingSpec,
    Submodule,
    Subquotient,
    b_saturate,
    codim,
    hilbert_function,
    ideal,
    intersect,
    irrelevant_power,
    is_b_torsion,
    point_ideal,
    quotient,
    saturate,
    truncate,
)
from virtres.fixtures import (
    curve_ideal,
    curve_ring,
    del_pezzo_ring,
    hirzebruch_ideal,
    surface_ideal,
    two_planes_ideal,
)

R11 = RingSpec.product([1, 1], char=101)


def same_ideal(A: Submodule, B: Submodule) -> bool:
    return A.gb().reduces_to_zero(B.gens) and B.gb().reduces_to_zero(A.gens)


def monomial_ideal(ring, exps_list):
    return ideal(ring, [ring.monomial(e) for e in exps_list])


# -- intersection -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_intersect_monomial_oracle(seed):
    # for monomial ideals the intersection is generated by pairwise lcms
    rng = random.Random(seed)
    mk = lambda: [
        tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randrange(1, 4))
    ]
    A = monomial_ideal(R11, mk())
    B = monomial_ideal(R11, mk())
    expected = monomial_ideal(
        R11,
        [
            tuple(max(a, b) for a, b in zip(e1, e2))
            for e1 in (R11.codec.decode(next(iter(g.coordinate(0).terms))) for g in A.gens)
            for e2 in (R11.codec.decode(next(iter(g.coordinate(0).terms))) for g in B.gens)
        ],
    )
    assert same_ideal(intersect(A, B), expected)


def test_intersect_contains_and_is_contained():
    x0, x1, y0, y1 = R11.variables()
    A = ideal(R11, [x0 * y0 + x1 * y1, x0 ** 2 * y1])
    B = ideal(R11, [x0 * y1, x1 * y0 - x0 * y1])
    C = intersect(A, B)
    assert A.gb().reduces_to_zero(C.gens)
    assert B.gb().reduces_to_zero(C.gens)
    # a product of one generator from each side lies in the intersection
    prod = (x0 * y0 + x1 * y1) * (x0 * y1)
    assert C.gb().contains(C.module.wrap(prod))


# -- colon and saturation ---------------------------------------------------


def test_quotient_monomial_oracle():
    x0, x1, y0, y1 = R11.variables()
    I = monomial_ideal(R11, [(2, 0, 1, 0), (1, 0, 0, 2)])  # <x0^2 y0, x0 y1^2>
    Q = quotient(I, x0)
    assert same_ideal(Q, monomial_ideal(R11, [(1, 0, 1, 0), (0, 0, 0, 2)]))


def test_saturate_strips_variable_powers():
    x0, x1, y0, y1 = R11.variables()
    I = ideal(R11, [x0 ** 3 * (x0 * y0 + x1 * y1), x0 ** 2 * y1 ** 2])
    S = saturate(I, x0)
    # the saturation contains I, is a fixed point of the colon, and every
    # generator lands back in I after multiplying by a power of x0
    assert S.gb().reduces_to_zero(I.gens)
    assert same_ideal(quotient(S, x0), S)
    gbI = I.gb()
    for g in S.gens:
        f = g.coordinate(0)
        assert any(
            gbI.contains(I.module.wrap(f * x0 ** k)) for k in range(8)
        )
    # sanity witnesses found by hand: y1^2 and y0*y1 must appear
    assert S.gb().contains(S.module.wrap(y1 ** 2))
    assert S.gb().contains(S.module.wrap(y0 * y1))


def test_saturate_by_ideal_matches_iterated_variable_saturation():
    x0, x1, y0, y1 = R11.variables()
    I = ideal(R11, [x0 ** 2 * y0 ** 2, x0 ** 2 * x1 * y1, x1 ** 3 * y0 * y1])
    J = ideal(R11, [x0, x1])
    left = saturate(I, J)
    # saturating by <x0,x1> = intersecting the two single-variable saturations
    right = intersect(saturate(I, x0), saturate(I, x1))
    assert same_ideal(left, right)


def test_b_saturate_idempotent_and_fixes_saturated_ideals():
    I = curve_ideal()
    assert same_ideal(b_saturate(I), I)
    x0, x1, y0, y1 = R11.variables()
    J = ideal(R11, [x0 * y0, x0 * y1, x1 * y0 ** 2])
    S1 = b_saturate(J)
    assert same_ideal(b_saturate(S1), S1)
    assert S1.gb().reduces_to_zero(J.gens)


def test_b_saturate_derives_the_hirzebruch_example():
    # Cox ring of F_3: a custom grading with a negative entry
    R = RingSpec.custom(
        [(1, 0), (1, 0), (-2, 1), (0, 1)],
        [[0, 1], [2, 3]],
        char=32003,
        var_names=["y0", "y1", "y2", "y3"],
    )
    y0, y1, y2, y3 = R.variables()
    J = b_saturate(ideal(R, [y0**5 * y2**2 + y1 * y3**2, y0 * y3 + y2 * y1**3]))
    I = hirzebruch_ideal()
    assert I.ring == R
    assert [g.terms for g in J.minimalized().gens] == [g.terms for g in I.gens]


# -- oracles for the colon by an ideal -------------------------------------------


@st.composite
def forms(draw, ring, degree, max_terms=3):
    """A nonzero form of the given degree with up to ``max_terms`` terms."""
    keys = ring.monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=max_terms, unique=True))
    return Polynomial(ring, {k: draw(st.integers(1, ring.char - 1)) for k in chosen})


small_degrees = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda d: d != (0, 0))


@st.composite
def submodules(draw, rank=None):
    """A homogeneous ideal of P^1 x P^1, or a submodule of S + S(-1,0).

    ``rank`` (1 or 2) picks the ambient module; by default it is drawn too.
    """
    if rank is None:
        rank = draw(st.integers(1, 2))
    F = FreeModule(R11, [(0, 0), (1, 0)][:rank])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(small_degrees)
        coords = [
            draw(forms(R11, dg)) if min(dg) >= 0 and draw(st.booleans()) else R11.zero()
            for dg in (tuple(c - a for c, a in zip(d, shift)) for shift in F.gen_degrees)
        ]
        if not any(coords):
            coords[0] = draw(forms(R11, d))
        gens.append(F.element_from_coords(coords))
    return Submodule(F, gens)


colon_degrees = st.tuples(st.integers(0, 1), st.integers(0, 1)).filter(lambda d: d != (0, 0))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_colon_by_two_forms_is_intersection_of_colons(data):
    A = data.draw(submodules())
    f = data.draw(forms(R11, data.draw(colon_degrees), max_terms=2))
    g = data.draw(forms(R11, data.draw(colon_degrees), max_terms=2))
    Q = quotient(A, [f, g])
    assert Q == intersect(quotient(A, f), quotient(A, g))
    # every generator g' of (A : J) has g' * J inside A
    for q in Q.gens:
        assert A.contains(q.poly_mul(f)) and A.contains(q.poly_mul(g))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_intersect_against_hilbert_functions(data):
    # an oracle that shares no code with the colon: C = A ∩ B lies in both,
    # and dim C_d = dim A_d + dim B_d - dim (A + B)_d in every degree d
    rank = data.draw(st.integers(1, 2))
    A = data.draw(submodules(rank))
    B = data.draw(submodules(rank))
    C = intersect(A, B)
    assert A.contains_submodule(C) and B.contains_submodule(C)
    A_plus_B = Submodule(A.module, A.gens + B.gens)
    for d in itertools.product(range(6), repeat=2):
        assert hilbert_function(C, d) == (
            hilbert_function(A, d) + hilbert_function(B, d) - hilbert_function(A_plus_B, d)
        )
    # the generators come from the reduced basis, not from the denser syzygy block
    basis = [e.terms for e in C.gb().elements]
    assert all(g.terms in basis for g in C.gens)


def b_saturate_by_variables(A):
    """Reference B-saturation: per prime, saturate by each variable, then intersect."""
    for prime in A.ring.irrelevant_primes:
        A = functools.reduce(intersect, [saturate(A, A.ring.variable(j)) for j in prime])
    return A


@settings(max_examples=30, deadline=None)
@given(A=submodules())
def test_b_saturate_matches_per_variable_saturations(A):
    S = b_saturate(A)
    assert S == b_saturate_by_variables(A)
    assert S.contains_submodule(A)


def test_colon_by_zero_empty_non_ideal_or_foreign_ideal_raises():
    x0, x1, y0, y1 = R11.variables()
    I = ideal(R11, [x0 * y0])
    F2 = FreeModule(R11, [(0, 0), (0, 0)])
    rank_two = Submodule(F2, [F2.element_from_coords([x0, x1])])
    other_ring = RingSpec.product([1, 2], char=101)
    for J in (R11.zero(), [R11.zero()], [], ideal(R11, []), rank_two, other_ring.variable(4)):
        with pytest.raises(ValueError):
            quotient(I, J)
        with pytest.raises(ValueError):
            saturate(I, J)


# -- saturation against a colon-only oracle ---------------------------------
#
# ``saturate`` proves an ideal saturated by a variable of J that is regular
# on S/A (Bayer–Stillman) and runs the colon when it is not.  The oracle
# below is the colon loop alone; it never calls ``saturate``, so it shares
# no code with that proof, and the answers must agree generator for
# generator.

R12 = RingSpec.product([1, 2], char=101)


def colon_saturate(A, J):
    """Reference (A : J^∞): A <- (A : J) until (A : J) ⊆ A."""
    while True:
        nxt = quotient(A, J)
        if A.contains_submodule(nxt):
            return A
        A = nxt


def colon_b_saturate(A):
    for prime in A.ring.irrelevant_primes:
        A = colon_saturate(A, [A.ring.variable(j) for j in prime])
    return A


def gens_of(A):
    return [g.terms for g in A.gens]


def prime_power(ring, i, k):
    """The monomials of P_i^k."""
    a = [k if c == i else 0 for c in range(len(ring.irrelevant_primes))]
    return [g.coordinate(0) for g in irrelevant_power(ring, a).gens]


@st.composite
def rank_one_ideals(draw, ring):
    """A homogeneous ideal, alone or times a variable x_j or a prime power P_i^k."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any))
        gens.append(draw(forms(ring, d)))
    factor = draw(st.sampled_from(["none", "variable", "prime power"]))
    if factor == "variable":
        x = ring.variable(draw(st.integers(0, ring.nvars - 1)))
        gens = [f * x for f in gens]
    elif factor == "prime power":
        P = prime_power(ring, draw(st.integers(0, 1)), draw(st.integers(1, 2)))
        gens = [f * m for f in gens for m in P]
    return ideal(ring, gens)


@st.composite
def colon_ideals(draw, ring):
    """An irrelevant prime's variables, one variable, or variables with a form."""
    kind = draw(st.sampled_from(["prime", "variable", "variables and a form"]))
    if kind == "prime":
        return [ring.variable(j) for j in draw(st.sampled_from(ring.irrelevant_primes))]
    if kind == "variable":
        return ring.variable(draw(st.integers(0, ring.nvars - 1)))
    js = draw(st.lists(st.integers(0, ring.nvars - 1), max_size=2, unique=True))
    d = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)).filter(any))
    return [ring.variable(j) for j in js] + [draw(forms(ring, d, max_terms=2))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_saturate_matches_colon_oracle_on_ideals(data):
    ring = data.draw(st.sampled_from([R11, R12]))
    A = data.draw(rank_one_ideals(ring))
    J = data.draw(colon_ideals(ring))
    assert gens_of(saturate(A, J)) == gens_of(colon_saturate(A, J))
    assert gens_of(b_saturate(A)) == gens_of(colon_b_saturate(A))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_saturate_matches_colon_oracle_on_rank_two_modules(data):
    A = data.draw(submodules(rank=2))
    J = data.draw(colon_ideals(R11))
    assert gens_of(saturate(A, J)) == gens_of(colon_saturate(A, J))
    assert gens_of(b_saturate(A)) == gens_of(colon_b_saturate(A))


def coordinate_vectors(size):
    # coordinates drawn from {0, 1, 2} put many points on coordinate
    # hyperplanes, where the variable vanishing there is a zero divisor
    return st.lists(st.integers(0, 2), min_size=size, max_size=size).filter(any)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_b_saturate_matches_colon_oracle_on_points_on_coordinate_hyperplanes(data):
    points = data.draw(
        st.lists(st.tuples(coordinate_vectors(2), coordinate_vectors(3)), min_size=1, max_size=3)
    )
    I = functools.reduce(intersect, [point_ideal(R12, pt) for pt in points])
    i, k = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
    A = ideal(R12, [g.coordinate(0) * m for g in I.gens for m in prime_power(R12, i, k)])
    S = b_saturate(A)
    assert gens_of(S) == gens_of(colon_b_saturate(A))
    assert same_ideal(S, I)


@pytest.fixture
def colon_calls(monkeypatch):
    """The calls that ``saturate`` makes to ``ideals._colon``."""
    calls = []
    colon = virtres.ideals._colon

    def spy(*args):
        calls.append(args)
        return colon(*args)

    monkeypatch.setattr(virtres.ideals, "_colon", spy)
    return calls


@pytest.mark.parametrize("make", [curve_ideal, surface_ideal, hirzebruch_ideal])
def test_b_saturate_proves_saturated_ideals_without_a_colon(colon_calls, make):
    I = make()
    assert b_saturate(I) is I
    assert colon_calls == []


def test_b_saturate_reads_the_leads_of_the_reduced_basis(colon_calls):
    # the curve with the redundant generators f*x for every variable x: each
    # x divides the lead of a generator, yet no lead of the reduced basis
    I = curve_ideal()
    f = I.gens[0].coordinate(0)
    A = ideal(I.ring, [g.coordinate(0) for g in I.gens] + [f * x for x in I.ring.variables()])
    assert b_saturate(A) is A
    assert colon_calls == []


def test_b_saturate_runs_the_colon_when_no_variable_is_regular(colon_calls):
    # curve * P_0: every variable of P_0 is a zero divisor until the colon
    # has removed the factor
    I = curve_ideal()
    ring = I.ring
    P0 = prime_power(ring, 0, 1)
    A = ideal(ring, [g.coordinate(0) * x for g in I.gens for x in P0])
    S = b_saturate(A)
    assert colon_calls
    assert same_ideal(S, I)
    # one point on x(1,0) = 0 and one on x(1,1) = 0: both variables of P_0
    # are zero divisors on a saturated ideal, so only the colon proves it
    points = [((0, 1), (1, 1, 1)), ((1, 0), (1, 2, 1))]
    I = intersect(point_ideal(R12, points[0]), point_ideal(R12, points[1]))
    del colon_calls[:]
    assert b_saturate(I) is I
    assert len(colon_calls) == 1


# -- B and its powers -------------------------------------------------------


def test_irrelevant_power_basic():
    B11 = irrelevant_power(R11, (1, 1))
    x0, x1, y0, y1 = R11.variables()
    expected = ideal(R11, [x0 * y0, x0 * y1, x1 * y0, x1 * y1])
    assert same_ideal(B11, expected)
    # a = 0 in one factor drops that prime
    B10 = irrelevant_power(R11, (1, 0))
    assert same_ideal(B10, ideal(R11, [x0, x1]))


def test_irrelevant_power_is_intersection_of_prime_powers():
    R = RingSpec.product([1, 2], char=101)
    a = (2, 1)
    B = irrelevant_power(R, a)
    P1 = ideal(R, [R.x(1, 0), R.x(1, 1)])
    P1sq = ideal(R, [g1.coordinate(0) * g2.coordinate(0) for g1 in P1.gens for g2 in P1.gens])
    P2 = ideal(R, [R.x(2, j) for j in range(3)])
    assert same_ideal(B, intersect(P1sq, P2))


def test_irrelevant_power_is_a_product_of_prime_powers():
    # the del Pezzo primes <y0,y2> and <y0,y3> share y0, so their product
    # is not their intersection <y0, y2*y3>
    R = del_pezzo_ring()
    y0, y1, y2, y3, y4 = R.variables()
    B = irrelevant_power(R, (1, 1, 0, 0, 0))
    assert len(B.gens) == 4
    assert same_ideal(B, ideal(R, [y0**2, y0 * y2, y0 * y3, y2 * y3]))
    meet = intersect(ideal(R, [y0, y2]), ideal(R, [y0, y3]))
    assert same_ideal(meet, ideal(R, [y0, y2 * y3]))
    assert not same_ideal(B, meet)


# -- truncation and Hilbert functions ----------------------------------------


def test_truncate_degrees_and_hilbert_function():
    x0, x1, y0, y1 = R11.variables()
    I = ideal(R11, [x0 * y0 + x1 * y1])
    T = truncate(I, (2, 1))
    for g in T.minimalized().gens:
        d = g.multidegree()
        assert d[0] >= 2 and d[1] >= 1
    for p in itertools.product(range(2, 5), range(1, 4)):
        assert hilbert_function(T, p) == hilbert_function(I, p)
    assert hilbert_function(T, (1, 1)) == 0


def test_hilbert_function_free_and_point():
    M = QuotientModule(
        curve_ideal().module, Submodule(curve_ideal().module, [])
    )
    R = curve_ring()
    assert hilbert_function(M, (2, 3)) == R.hilbert_series_free((2, 3))
    # a single point has Hilbert function 1 in every nonnegative degree
    x0, x1, y0, y1 = R11.variables()
    P = ideal(R11, [x1, y1])
    for p in itertools.product(range(3), repeat=2):
        assert hilbert_function(QuotientModule.cyclic(P), p) == 1


def test_curve_hilbert_polynomial_values():
    # HF(S/I) agrees with the degree-(2,8) genus-4 curve polynomial 2a+8b-3
    M = QuotientModule.cyclic(curve_ideal())
    for p in [(3, 2), (4, 3), (3, 4)]:
        assert hilbert_function(M, p) == 2 * p[0] + 8 * p[1] - 3


# -- codimension and torsion --------------------------------------------------


def test_codim_examples():
    assert codim(curve_ideal()) == 2
    assert codim(two_planes_ideal()) == 2
    x0, x1, y0, y1 = R11.variables()
    assert codim(ideal(R11, [x1, y1])) == 2
    assert codim(ideal(R11, [x0])) == 1
    assert codim(Submodule(ideal(R11, [x0]).module, [])) == 0


def test_b_torsion_detection():
    x0, x1, y0, y1 = R11.variables()
    B = irrelevant_power(R11, (1, 1))
    S1 = Submodule(B.module, [B.module.wrap(R11.one())])
    assert is_b_torsion(Subquotient(S1, B))
    I = ideal(R11, [x0 * y0])
    assert not is_b_torsion(Subquotient(S1, I))
    assert is_b_torsion(Subquotient(I, I))
