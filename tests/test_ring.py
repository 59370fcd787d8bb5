"""Ring, grading, and polynomial arithmetic unit tests."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from virtres import Polynomial, RingSpec, vadd, vleq, vsub
from virtres.fixtures import del_pezzo_ring, hirzebruch_ideal
from virtres.groebner import FreeModule, ModuleElement, term_key, term_mono, term_pos
from virtres.punctual import _nullspace_mod_p
from virtres.ring import EXP_MAX, FIELD_BITS, MAX_VARS, MonomialCodec, axpy, echelon_mod_p

R11 = RingSpec.product([1, 1], char=101)
R12 = RingSpec.product([1, 2], char=32003)


def random_poly(ring, rng, degree, nterms=3):
    keys = ring.monomials_of_degree(degree)
    return Polynomial(
        ring, {k: rng.randrange(1, ring.char) for k in rng.sample(keys, min(nterms, len(keys)))}
    )


# -- codec ------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=5, max_size=5))
def test_codec_round_trip(exps):
    exps = tuple(exps)
    assert R12.codec.decode(R12.codec.encode(exps)) == exps


@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=4, max_size=4),
    st.lists(st.integers(min_value=0, max_value=15), min_size=4, max_size=4),
)
def test_codec_mul_divides_quot(e1, e2):
    c = R11.codec
    k1, k2 = c.encode(e1), c.encode(e2)
    prod = c.mul(k1, k2)
    assert c.decode(prod) == tuple(a + b for a, b in zip(e1, e2))
    assert c.divides(k1, prod)
    assert c.quot(prod, k1) == k2
    assert c.decode(c.lcm(k1, k2)) == tuple(max(a, b) for a, b in zip(e1, e2))


def test_mono_degree_additivity():
    c = R12.codec
    k1 = c.encode((2, 1, 0, 3, 0))
    k2 = c.encode((0, 4, 1, 0, 2))
    assert vadd(R12.mono_degree(k1), R12.mono_degree(k2)) == R12.mono_degree(c.mul(k1, k2))


# -- packed codec against per-variable formulas -------------------------------
# The codec answers lcm, coprimality, decode and degree with word operations on
# the packed key.  These are the per-variable formulas they replace.

CODEC_RINGS = {
    "P1xP2": R12,
    "P1xP1xP2": RingSpec.product([1, 1, 2]),
    "hirzebruch": hirzebruch_ideal().ring,
    "del-pezzo": del_pezzo_ring(),
    "300-vars": RingSpec.custom([(1,)] * 300, [list(range(300))]),
}


def ref_decode(codec, key):
    comp = key & codec.CMASK
    return tuple(
        EXP_MAX - ((comp >> (FIELD_BITS * j)) & ((1 << FIELD_BITS) - 1))
        for j in range(codec.nvars)
    )


def ref_mono_degree(ring, key):
    deg = [0] * ring.rank_grading
    for e, d in zip(ref_decode(ring.codec, key), ring.var_degrees):
        for k in range(ring.rank_grading):
            deg[k] += e * d[k]
    return tuple(deg)


def exponent_vectors(nvars):
    # small exponents meet often in lcm and gcd; 0 and EXP_MAX are the edges.
    # Drawing a sparse support keeps 300 variables as cheap as five.
    entry = st.one_of(st.integers(0, 3), st.sampled_from([0, EXP_MAX - 1, EXP_MAX]))
    support = st.dictionaries(st.integers(0, nvars - 1), entry, max_size=min(nvars, 12))
    return support.map(lambda d: [d.get(j, 0) for j in range(nvars)])


@pytest.mark.parametrize("name", sorted(CODEC_RINGS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_codec_matches_per_variable_formulas(name, data):
    ring = CODEC_RINGS[name]
    codec = ring.codec
    e1 = data.draw(exponent_vectors(ring.nvars))
    e2 = data.draw(exponent_vectors(ring.nvars))
    k1, k2 = codec.encode(e1), codec.encode(e2)
    assert codec.decode(k1) == ref_decode(codec, k1) == tuple(e1)
    assert codec.lcm(k1, k2) == codec.encode([max(a, b) for a, b in zip(e1, e2)])
    assert codec.gcd_is_one(k1, k2) == all(a == 0 or b == 0 for a, b in zip(e1, e2))
    # the first read computes the degree, the second reads the ring's memo
    ring._mono_degrees.pop(k1, None)
    cold = ring.mono_degree(k1)
    assert cold == ref_mono_degree(ring, k1)
    assert ring.mono_degree(k1) is cold


@given(st.lists(st.integers(0, 40), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_mono_degree_memo_is_per_ring(exps):
    # P^1 x P^1 and the Hirzebruch ring both have four variables; with no
    # power of the last one a monomial packs to the same key in both, yet
    # the gradings differ, so each ring's memo must keep its own degree
    hirzebruch = CODEC_RINGS["hirzebruch"]
    key = R11.codec.encode(exps + [0])
    assert hirzebruch.codec.encode(exps + [0]) == key
    for _ in range(2):
        assert R11.mono_degree(key) == ref_mono_degree(R11, key)
        assert hirzebruch.mono_degree(key) == ref_mono_degree(hirzebruch, key)
    if exps[2]:
        assert R11.mono_degree(key) != hirzebruch.mono_degree(key)


def test_lcm_and_coprimality_need_no_decode(monkeypatch):
    codec = R12.codec
    k1 = codec.encode((2, 0, 1, 0, 3))
    k2 = codec.encode((0, 4, 1, 0, 0))
    k3 = codec.encode((0, 1, 0, 2, 0))
    want = codec.encode((2, 4, 1, 0, 3))

    def boom(*args):
        raise AssertionError("decode or encode called")

    monkeypatch.setattr(MonomialCodec, "decode", boom)
    monkeypatch.setattr(MonomialCodec, "encode", boom)
    assert codec.lcm(k1, k2) == want
    assert not codec.gcd_is_one(k1, k2)
    assert codec.gcd_is_one(k1, k3)


# -- graded pieces ----------------------------------------------------------


@pytest.mark.parametrize("degree", [(0, 0), (1, 0), (2, 3), (5, 2)])
def test_monomial_count_matches_binomials(degree):
    keys = R12.monomials_of_degree(degree)
    assert len(set(keys)) == len(keys)
    expected = math.comb(degree[0] + 1, 1) * math.comb(degree[1] + 2, 2)
    assert len(keys) == expected == R12.hilbert_series_free(degree)
    assert all(R12.mono_degree(k) == degree for k in keys)


def test_monomials_of_negative_degree_empty():
    assert R12.monomials_of_degree((-1, 2)) == []
    assert R12.hilbert_series_free((-1, 2)) == 0


def test_custom_ring_graded_pieces():
    degrees = [(1, 0), (1, 0), (-2, 1), (0, 1)]
    primes = [[0, 1], [2, 3]]
    R = RingSpec.custom(degrees, primes, char=101, var_names=["y0", "y1", "y2", "y3"])
    keys = R.monomials_of_degree((1, 1))
    # y0*y3, y1*y3, y0^3*y2, y0^2*y1*y2, y0*y1^2*y2, y1^3*y2
    assert len(keys) == 6 == R.hilbert_series_free((1, 1))
    assert all(R.mono_degree(k) == (1, 1) for k in keys)


# -- polynomial arithmetic --------------------------------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(data):
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = random_poly(R11, rng, (1, 1))
    b = random_poly(R11, rng, (1, 1))
    c = random_poly(R11, rng, (2, 0))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a - a).terms == {}
    assert a * R11.one() == a
    assert (a * R11.zero()).terms == {}


def test_power_and_scale():
    x, y = R11.x(1, 0), R11.x(2, 0)
    f = x + y
    assert f ** 2 == f * f
    assert f.scale(100) == -f
    assert (f.scale(0)).terms == {}


def test_polynomial_mono_mul_overflow_raises():
    # x0^30000 * x0^30000 used to wrap into exponents (-5536, 1, 0, 0)
    f = R11.x(1, 0) ** 30000
    with pytest.raises(OverflowError):
        f.mono_mul(max(f.terms))
    with pytest.raises(OverflowError):
        f * f


def test_multidegree_and_homogeneity():
    x10, x20 = R11.x(1, 0), R11.x(2, 0)
    f = x10 * x20
    assert f.is_homogeneous() and f.multidegree() == (1, 1)
    g = x10 + x20
    assert not g.is_homogeneous()
    with pytest.raises(ValueError) as exc:
        g.multidegree()
    # the error names both offending degrees
    assert "(0, 1)" in str(exc.value) and "(1, 0)" in str(exc.value)


def test_variable_addressing():
    assert str(R12.x(1, 0)) == "x(1,0)"
    assert R12.variable(R12.var_index("x(2,2)")) == R12.x(2, 2)
    with pytest.raises(ValueError):
        R12.x(1, 5)
    with pytest.raises(ValueError):
        R12.var_index("nope")


def test_vector_helpers():
    assert vadd((1, 2), (3, -1)) == (4, 1)
    assert vsub((1, 2), (3, -1)) == (-2, 3)
    assert vleq((1, 2), (1, 3)) and not vleq((2, 2), (1, 3))


def test_irrelevant_primes_are_primitive_collections():
    assert R12.irrelevant_primes == ((0, 1), (2, 3, 4)) or [
        list(p) for p in R12.irrelevant_primes
    ] == [[0, 1], [2, 3, 4]]


# -- characteristic and mod-p elimination -------------------------------------


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# the primes on either side of the bound (p - 1)^2 <= 2^63 - 1
P_MAX = next(q for q in range(math.isqrt(2**63 - 1) + 1, 1, -1) if _is_prime(q))
P_OVER = next(q for q in range(math.isqrt(2**63 - 1) + 2, 2**32) if _is_prime(q))


@pytest.mark.parametrize("char", [1, 32002, 2**61 - 1, P_OVER])
def test_characteristic_must_be_a_small_prime(char):
    with pytest.raises(ValueError):
        RingSpec.product([1, 1], char=char)
    with pytest.raises(ValueError):
        echelon_mod_p([{0: 1}, {1: 1}], char)


def test_largest_characteristic_accepted():
    assert RingSpec.product([1, 1], char=P_MAX).char == P_MAX


def test_variable_count_is_bounded():
    # P^{MAX_VARS - 1} has exactly MAX_VARS variables
    assert RingSpec.product([MAX_VARS - 1], char=101).nvars == MAX_VARS
    with pytest.raises(ValueError, match=f"1 to {MAX_VARS} variables"):
        RingSpec.product([1, MAX_VARS], char=101)
    with pytest.raises(ValueError, match=f"1 to {MAX_VARS} variables"):
        RingSpec.custom([(1,)] * (MAX_VARS + 1), [list(range(MAX_VARS + 1))], char=101)
    with pytest.raises(ValueError, match=f"1 to {MAX_VARS} variables"):
        RingSpec.custom([], [], char=101)


@pytest.mark.parametrize("names", [["a", "b", "c"], ["a", "b", "c", "d", "e"]])
def test_variable_name_count_must_match(names):
    degrees, primes = [(1, 0), (1, 0), (-2, 1), (0, 1)], [[0, 1], [2, 3]]
    with pytest.raises(ValueError, match=f"{len(names)} variable names for 4 variables"):
        RingSpec.custom(degrees, primes, char=101, var_names=names)
    assert RingSpec.custom(degrees, primes, char=101, var_names="abcd").var_names == tuple("abcd")


def _rank_oracle(rows, p):
    """Rank over F_p by forward elimination in Python ints."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * pow(rows[rank][c], p - 2, p)
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_matrices(draw, p):
    """Sparse products U V of a rows x k and a k x cols matrix over F_p."""
    rows, cols, k = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 4))
    # zeros for sparsity, residues near p - 1 for the largest products
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(1, 2), st.integers(p - 2, p - 1), st.integers(0, p - 1)
    )
    U = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rows, max_size=rows))
    V = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=k, max_size=k))
    return [
        [sum(U[i][t] * V[t][j] for t in range(k)) % p for j in range(cols)] for i in range(rows)
    ]


def _sparse(A):
    return [{c: x for c, x in enumerate(row) if x} for row in A]


def _check_against_oracle(rows, cols, p):
    """echelon_mod_p and _nullspace_mod_p on sparse rows against the dense oracle."""
    A = [[row.get(c, 0) for c in range(cols)] for row in rows]
    ech = echelon_mod_p(rows, p)
    for c, row in ech.items():
        assert row[c] == 1 and min(row) == c
        assert all(0 < v < p for v in row.values())
    assert len(ech) == _rank_oracle(A, p)
    null = _nullspace_mod_p(rows, cols, p)
    assert len(ech) + len(null) == cols
    for v in null:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)


@pytest.mark.parametrize("p", [101, 32003, P_MAX])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_mod_p_against_python_int_elimination(p, data):
    A = data.draw(low_rank_matrices(p))
    _check_against_oracle(_sparse(A), len(A[0]), p)


@st.composite
def structurally_sparse_rows(draw, p):
    """Sparse rows with empty and repeated rows and entries outside 0..p-1."""
    cols = draw(st.integers(1, 12))
    entry = st.one_of(
        st.integers(-3 * p, -1), st.integers(p, 3 * p), st.just(p), st.integers(1, p - 1)
    )
    row = st.dictionaries(st.integers(0, cols - 1), entry, max_size=4)
    rows = draw(st.lists(row, max_size=10))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    return cols, rows + [{}] + [dict(r) for r in repeats]


@pytest.mark.parametrize("p", [101, 32003, P_MAX])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_mod_p_structurally_sparse_rows(p, data):
    cols, rows = data.draw(structurally_sparse_rows(p))
    _check_against_oracle(rows, cols, p)


# -- the sparse update kernel --------------------------------------------------------


def _dense_oracle(p, pairs):
    """Sum of the (key, value) pairs in Python ints, reduced mod p at the end
    with the zeros filtered out."""
    acc: dict = {}
    for k, v in pairs:
        acc[k] = acc.get(k, 0) + v
    return {k: v % p for k, v in acc.items() if v % p}


@st.composite
def axpy_cases(draw):
    """(d, c, src, shift, p, cancelled): d stores reduced nonzero values, and
    the keys in ``cancelled`` are set up so that c * src cancels them exactly."""
    p = draw(st.sampled_from([2, 7, 101, P_MAX]))
    src = draw(st.dictionaries(st.integers(0, 40), st.integers(-3 * p, 3 * p), max_size=12))
    c = draw(st.one_of(st.integers(1, p - 1), st.integers(-3 * p, 3 * p)))
    shift = draw(st.integers(-50, 50).filter(bool))
    d = draw(st.dictionaries(st.integers(-50, 90), st.integers(1, p - 1), max_size=12))
    cancelled = draw(st.sets(st.sampled_from(sorted(src)))) if src else set()
    cancelled = {k for k in cancelled if c * src[k] % p}
    for k in cancelled:
        d[k + shift] = -c * src[k] % p
    return d, c, src, shift, p, {k + shift for k in cancelled}


@given(axpy_cases())
@settings(max_examples=300, deadline=None)
def test_axpy_against_dense_oracle(case):
    d, c, src, shift, p, cancelled = case
    want = _dense_oracle(p, [*d.items(), *((k + shift, c * v) for k, v in src.items())])
    src_before = dict(src)
    axpy(d, c, src, shift, p)
    assert d == want
    assert src == src_before
    assert not cancelled & d.keys()
    assert all(0 < v < p for v in d.values())


# a small field and few monomials, so that terms often cancel
R7 = RingSpec.product([1, 1], char=7)


@st.composite
def exponent_polys(draw, ring):
    """{exponent tuple: coefficient}, inhomogeneous, small exponents."""
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    return draw(st.dictionaries(exps, st.integers(1, ring.char - 1), max_size=6))


def _poly(ring, terms):
    return Polynomial(ring, {ring.codec.encode(e): c for e, c in terms.items()})


def _decoded(ring, poly):
    assert all(0 < c < ring.char for c in poly.terms.values())
    return {ring.codec.decode(k): c for k, c in poly.terms.items()}


def _eadd(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


# a scalar or monomial coefficient, 0 and multiples of 7 included
SCALARS = st.integers(-15, 15)
EXPONENTS = st.tuples(*[st.integers(0, 2)] * R7.nvars)


@given(exponent_polys(R7), exponent_polys(R7), SCALARS, EXPONENTS, SCALARS)
# scaling and a monomial product by 0
@example({(1, 0, 0, 0): 3}, {(0, 1, 0, 0): 4}, 0, (0, 0, 1, 0), 0)
@example({(1, 0, 0, 0): 3}, {(0, 1, 0, 0): 4}, 14, (0, 0, 1, 0), -7)
@settings(max_examples=200, deadline=None)
def test_polynomial_arithmetic_against_dense_oracle(a, b, c, m, cm):
    p = R7.char
    fa, fb = _poly(R7, a), _poly(R7, b)
    assert _decoded(R7, fa + fb) == _dense_oracle(p, [*a.items(), *b.items()])
    assert _decoded(R7, fa - fb) == _dense_oracle(p, [*a.items(), *((e, -c) for e, c in b.items())])
    assert (fa - fa).terms == {}
    assert _decoded(R7, fa * fb) == _dense_oracle(
        p, [(_eadd(e1, e2), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()]
    )
    assert _decoded(R7, -fa) == _dense_oracle(p, [(e, -v) for e, v in a.items()])
    assert _decoded(R7, fa.scale(c)) == _dense_oracle(p, [(e, c * v) for e, v in a.items()])
    assert _decoded(R7, fa.mono_mul(R7.codec.encode(m), cm)) == _dense_oracle(
        p, [(_eadd(e, m), cm * v) for e, v in a.items()]
    )


def _element(F, coords):
    encode = R7.codec.encode
    return ModuleElement(
        F, {term_key(encode(e), pos): c for pos, a in coords.items() for e, c in a.items()}
    )


def _element_decoded(elt):
    assert all(0 < c < R7.char for c in elt.terms.values())
    return {(R7.codec.decode(term_mono(t)), term_pos(t)): c for t, c in elt.terms.items()}


def _element_pairs(coords, sign=1):
    return [((e, pos), sign * c) for pos, a in coords.items() for e, c in a.items()]


MODULE_COORDS = st.dictionaries(st.integers(0, 2), exponent_polys(R7), max_size=3)


@given(MODULE_COORDS, exponent_polys(R7), MODULE_COORDS, SCALARS, EXPONENTS, SCALARS)
# (x0 + x1) e1 * (x0 - x1): the cross terms cancel
@example(
    {1: {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}},
    {(1, 0, 0, 0): 1, (0, 1, 0, 0): 6},
    {1: {(1, 0, 0, 0): 6}},
    1,
    (0, 0, 0, 0),
    1,
)
# scaling and a monomial product by 0
@example({0: {(1, 0, 0, 0): 3}}, {}, {0: {(1, 0, 0, 0): 4}}, 0, (0, 0, 1, 0), 0)
@settings(max_examples=200, deadline=None)
def test_module_poly_mul_against_dense_oracle(coords, b, coords2, c, m, cm):
    F = FreeModule(R7, [(0, 0), (1, 0), (0, 1)])
    p = R7.char
    elt, elt2 = _element(F, coords), _element(F, coords2)
    want = _dense_oracle(
        p,
        [
            ((_eadd(e1, e2), pos), c1 * c2)
            for pos, a in coords.items()
            for e1, c1 in a.items()
            for e2, c2 in b.items()
        ],
    )
    assert _element_decoded(elt.poly_mul(_poly(R7, b))) == want
    pairs, pairs2 = _element_pairs(coords), _element_pairs(coords2)
    assert _element_decoded(elt + elt2) == _dense_oracle(p, pairs + pairs2)
    assert _element_decoded(elt - elt2) == _dense_oracle(p, pairs + _element_pairs(coords2, -1))
    assert (elt - elt).terms == {}
    assert _element_decoded(-elt) == _dense_oracle(p, _element_pairs(coords, -1))
    assert _element_decoded(elt.scale(c)) == _dense_oracle(p, _element_pairs(coords, c))
    assert _element_decoded(elt.mono_mul(R7.codec.encode(m), cm)) == _dense_oracle(
        p, [((_eadd(e, m), pos), cm * v) for (e, pos), v in pairs]
    )


def test_module_poly_mul_overflow_raises():
    F = FreeModule(R11, [(0, 0)])
    f = R11.x(1, 0) ** 30000
    with pytest.raises(OverflowError):
        F.wrap(f).poly_mul(f)
