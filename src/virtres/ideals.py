"""Submodules of free modules and the multigraded ideal/module toolkit.

All inputs are required to be homogeneous for the Z^r grading.  Here live
intersection, colon, saturation, B-saturation, truncation, Hilbert
functions, codimension and B-torsion tests.  One private routine, ``_colon``,
finds the g with g*f_i in A_i for every block (f_i, A_i) in a single syzygy
computation.  ``quotient`` (A : J) calls it with blocks (f, A), one per form
f of J, and ``intersect`` A ∩ B with blocks (1, A) and (1, B).  ``saturate``
repeats the colon until the result stops growing, and ``b_saturate``
saturates by each irrelevant prime in turn.

Before each colon, ``saturate`` tries to prove that A is already saturated
by the Bayer–Stillman criterion (D. Bayer and M. Stillman, "A criterion for
detecting m-regularity", Invent. Math. 87, 1987): for a homogeneous ideal A
and a weighted grevlex order with x_j last, x_j is a nonzerodivisor on S/A
exactly when x_j divides no lead of A's reduced Groebner basis.  A regular
x_j among the generators of J proves (A : J^∞) = A with one Groebner basis
and no colon.  The test applies to ideals (rank one) and to one generator
of J that is a scalar multiple of a variable; everything else runs the
colon loop alone.

A containment A ⊆ (W : B^∞) is decided by ``_in_b_saturation``: a B-power
certificate proves it, and only when none is found is W saturated.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from .groebner import (
    FreeModule,
    GroebnerBasis,
    GroebnerEngine,
    ModuleElement,
    _add_by_degree,
    groebner_basis,
    minimal_generators,
    syzygy_module,
    term_key,
    term_mono,
    term_pos,
)
from .ring import (
    MonomialCodec,
    Multidegree,
    Polynomial,
    RingSpec,
    _weak_compositions,
    degree_vector,
    vleq,
    vmax,
    vsub,
)


class Submodule:
    """A graded submodule of a free module, given by homogeneous generators."""

    # _cyclic: the one S/I that the cohomology engines read an ideal I as;
    # _bsat: (self : B^infinity), or True when that is self, kept by b_saturate
    __slots__ = ("module", "gens", "_gb", "_cyclic", "_bsat")

    def __init__(self, module: FreeModule, gens: Iterable[ModuleElement]):
        self.module = module
        clean = []
        for g in gens:
            if g.module != module:
                raise ValueError("generator lives in a different module")
            if not g.terms:
                continue
            g.multidegree()  # raises with a witness if inhomogeneous
            clean.append(g)
        self.gens = clean
        self._gb: GroebnerBasis | None = None
        self._cyclic: QuotientModule | None = None
        self._bsat: Submodule | bool | None = None

    @property
    def ring(self) -> RingSpec:
        return self.module.ring

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = groebner_basis(self.gens, module=self.module)
        return self._gb

    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, elt: ModuleElement) -> bool:
        if not elt.terms:
            return True
        return self.gb().contains(elt)

    def contains_all(self, elts: Iterable[ModuleElement]) -> bool:
        return all(self.contains(e) for e in elts)

    def contains_submodule(self, other: "Submodule") -> bool:
        return self.contains_all(other.gens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        if self.module != other.module:
            return False
        return self.contains_submodule(other) and other.contains_submodule(self)

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def minimalized(self) -> "Submodule":
        return Submodule(self.module, minimal_generators(self.gens, module=self.module))

    def gen_degrees(self) -> list[Multidegree]:
        return [g.multidegree() for g in self.gens]

    def __repr__(self) -> str:
        return f"Submodule({len(self.gens)} gens of {self.module!r})"


def ideal(ring: RingSpec, polys: Sequence[Polynomial]) -> Submodule:
    """The ideal generated by homogeneous polynomials, as a rank-1 submodule."""
    amb = FreeModule(ring, [(0,) * ring.rank_grading])
    return Submodule(amb, [amb.wrap(f) for f in polys])


def free_rank_one(ring: RingSpec) -> FreeModule:
    return FreeModule(ring, [(0,) * ring.rank_grading])


class QuotientModule:
    """A cokernel presentation F / W with W a submodule of the free module F."""

    __slots__ = ("free", "relations", "_resolution", "_graded_bases", "_cohomology")

    def __init__(self, free: FreeModule, relations: Submodule):
        if relations.module != free:
            raise ValueError("relations do not live in the given free module")
        self.free = free
        self.relations = relations
        self._resolution = None
        self._graded_bases: dict[Multidegree, tuple[tuple[int, int], ...]] = {}
        # per twist p: {k: h^k(M~(p))} and the dimension of the image of M_p
        # in H^0(M~(p)); see cohomology._twist_entry
        self._cohomology: dict[Multidegree, tuple[dict[int, int], int]] = {}

    @classmethod
    def cyclic(cls, I: Submodule) -> "QuotientModule":
        """S/I for an ideal I."""
        if I.module.rank != 1:
            raise ValueError("cyclic presentation requires a rank-one ambient")
        return cls(I.module, I)

    @property
    def ring(self) -> RingSpec:
        return self.free.ring

    def hilbert_function(self, degree: Multidegree) -> int:
        return hilbert_function(self, degree)

    def graded_basis(self, degree: Multidegree) -> tuple[tuple[int, int], ...]:
        """Standard monomial basis ((position, monomial key), ...) of degree ``degree``.

        Memoised per degree: the relations' reduced basis never changes.
        """
        degree = tuple(degree)
        basis = self._graded_bases.get(degree)
        if basis is None:
            gb = self.relations.gb()
            basis = self._graded_bases[degree] = tuple(
                (pos, K)
                for pos, gdeg in enumerate(self.free.gen_degrees)
                for K in _standard_monomials(self.ring, gb.leads_at(pos), vsub(degree, gdeg))
            )
        return basis

    def __repr__(self) -> str:
        return f"QuotientModule(rank {self.free.rank}, {len(self.relations.gens)} relations)"


def _standard_monomials(ring: RingSpec, leads: list[int], degree: Multidegree) -> list[int]:
    """Monomial keys of the given degree that none of the leads divides."""
    divides = ring.codec.divides
    return [
        K for K in ring.monomials_of_degree(degree) if not any(divides(L, K) for L in leads)
    ]


# ---------------------------------------------------------------------------
# colon and intersection


def _colon(F: FreeModule, blocks: Sequence[tuple[Polynomial, Submodule]]) -> list[ModuleElement]:
    """Generators, not minimal, of the g in F with g*f_i in A_i for every
    block (f_i, A_i).

    g qualifies exactly when (g*f_1, ..., g*f_s) lies in A_1 (+) ... (+) A_s.
    So these are the first block of the syzygies, in F^s with block i's
    generator degrees shifted by -deg f_i, of the columns e_j*(f_1, ..., f_s)
    followed by the blocks a*e_i for a in A_i.
    """
    if any(A.is_zero() for _, A in blocks):
        return []
    r = F.rank
    forms = [f for f, _ in blocks]
    Fs = FreeModule(F.ring, [vsub(a, f.multidegree()) for f in forms for a in F.gen_degrees])
    gens = [
        ModuleElement(
            Fs,
            {term_key(K, i * r + j): c for i, f in enumerate(forms) for K, c in f.terms.items()},
        )
        for j in range(r)
    ]
    # a term key's position field is complemented: key - n moves it n places on
    for i, (_, A) in enumerate(blocks):
        gens += [ModuleElement(Fs, {t - i * r: c for t, c in a.terms.items()}) for a in A.gens]
    out = []
    for s in syzygy_module(gens, minimalize=False):
        terms = {t: c for t, c in s.terms.items() if term_pos(t) < r}
        if terms:
            out.append(ModuleElement(F, terms))
    return out


def intersect(A: Submodule, B: Submodule) -> Submodule:
    """A ∩ B, the g with g*1 in A and g*1 in B: one colon computation in F^2.

    The generators are taken from the reduced basis of the result, which the
    result keeps; the syzygy block spans the same module but is denser, and
    that density slows every later resolution of it.
    """
    if A.module != B.module:
        raise ValueError("intersection requires a common ambient module")
    F = A.module
    one = A.ring.one()
    gb = groebner_basis(_colon(F, [(one, A), (one, B)]), module=F)
    C = Submodule(F, minimal_generators(gb.elements, module=F))
    C._gb = gb
    return C


def _colon_forms(
    ring: RingSpec, J: Polynomial | Sequence[Polynomial] | Submodule
) -> list[Polynomial]:
    """The nonzero homogeneous forms of ``ring`` generating J."""
    if isinstance(J, Submodule):
        if J.module.rank != 1:
            raise ValueError("the colon ideal must have a rank-one ambient")
        J = [g.coordinate(0) for g in J.gens]
    elif isinstance(J, Polynomial):
        J = [J]
    forms = [f for f in J if f.terms]
    if not forms:
        raise ValueError("colon by the zero ideal")
    for f in forms:
        if f.ring != ring:
            raise ValueError("the colon ideal lives in a different ring")
        f.multidegree()  # raises with a witness if inhomogeneous
    return forms


def quotient(A: Submodule, J: Polynomial | Sequence[Polynomial] | Submodule) -> Submodule:
    """The colon module (A : J) for J a form, a list of forms or an ideal:
    the g with g*f in A for every generator f of J."""
    forms = _colon_forms(A.ring, J)
    F = A.module
    return Submodule(F, minimal_generators(_colon(F, [(f, A) for f in forms]), module=F))


# ---------------------------------------------------------------------------
# saturation and powers of B


@functools.lru_cache(maxsize=64)
def _ring_with_last(ring: RingSpec, j: int) -> RingSpec:
    """``ring`` with variables j and n-1 swapped, so that its weighted
    grevlex orders x_j last; built on first use and kept per (ring, j)."""
    perm = list(range(ring.nvars))
    perm[j], perm[-1] = perm[-1], j
    return RingSpec(
        [ring.var_degrees[k] for k in perm],
        [[perm[k] for k in prime] for prime in ring.irrelevant_primes],
        ring.char,
        [ring.var_names[k] for k in perm],
    )


def _is_regular(A: Submodule, j: int) -> bool:
    """Whether x_j is a nonzerodivisor on S/A, for a homogeneous ideal A.

    Bayer–Stillman: under a weighted grevlex with x_j last, a homogeneous
    f has x_j | lead(f) only when x_j | f, so (in(A) : x_j) = in(A : x_j),
    and x_j is regular on S/A exactly when it divides no minimal generator
    of in(A), that is no lead of the reduced basis.  The ring's own order
    puts x_{n-1} last, so A.gb() serves j = n-1, and stays on A for later
    membership tests.  Any other j runs one engine on A's generators
    re-encoded into the ring with x_j and x_{n-1} swapped, and reads the
    minimal leads of its basis, with no tail reduction.
    """
    ring = A.ring
    last = ring.nvars - 1
    if j == last:
        leads = A.gb().leads_at(0)
    else:
        decode = ring.codec.decode
        ring = _ring_with_last(ring, j)
        encode = ring.codec.encode
        F = free_rank_one(ring)

        def swapped(t: int) -> int:
            e = list(decode(term_mono(t)))
            e[j], e[last] = e[last], e[j]
            return term_key(encode(e), 0)

        gens = [ModuleElement(F, {swapped(t): c for t, c in g.terms.items()}) for g in A.gens]
        engine = GroebnerEngine(F)
        _add_by_degree(engine, gens)
        engine.process()
        leads = _monomial_minimalize(ring.codec, engine.index.lead_K)
    divides = ring.codec.divides
    (x,) = ring.variable(last).terms
    return not any(divides(x, K) for K in leads)


def _proof_variable(ring: RingSpec, forms: Sequence[Polynomial]) -> int | None:
    """The variable that ``saturate`` tests for regularity: the largest j
    with some form a scalar multiple of x_j, or None when there is none.

    So J's x_{n-1} is tested whenever J has it: its basis is A.gb(), which
    the colon's containment test needs anyway.  One variable only: on an A
    that is not yet saturated every variable of J is a zero divisor, so
    each further test would cost a basis in another order and fail.  A
    saturated A with a component inside x_j = 0 is left to the colon.
    """
    js = []
    for f in forms:
        if len(f.terms) == 1:
            exps = ring.codec.decode(next(iter(f.terms)))
            if sum(exps) == 1:
                js.append(exps.index(1))
    return max(js, default=None)


def saturate(A: Submodule, J: Polynomial | Sequence[Polynomial] | Submodule) -> Submodule:
    """The saturation (A : J^infinity) of a homogeneous submodule A.

    A <- (A : J) until it stops growing, that is until (A : J) ⊆ A, which
    holds exactly when A is J-saturated.  Before each colon, when A is an
    ideal and J has a variable x_j among its generators (the largest such
    j, ``_proof_variable``), x_j is tested for being a nonzerodivisor on
    S/A (``_is_regular``: the Bayer–Stillman criterion on the reduced basis
    under weighted grevlex with x_j last; D. Bayer and M. Stillman, Invent.
    Math. 87, 1987).  A regular x_j proves A saturated: g J^k ⊆ A gives
    g x_j^k in A, so g lies in A.  The loop therefore visits the same A's
    as the colon loop alone and stops at the same one.  Submodules of rank
    two or more, and J with no variable among its generators, run the colon
    loop alone.  The containment test reads the colon's raw generators;
    only a colon that goes round again is minimalized.
    """
    forms = _colon_forms(A.ring, J)
    F = A.module
    j = _proof_variable(A.ring, forms) if F.rank == 1 else None
    while True:
        if j is not None and _is_regular(A, j):
            return A
        colon = _colon(F, [(f, A) for f in forms])
        if A.contains_all(colon):
            return A
        A = Submodule(F, minimal_generators(colon, module=F))


def b_saturate(A: Submodule) -> Submodule:
    """Saturation (A : B^infinity) by the irrelevant ideal B = ∩_i P_i, one
    prime at a time: (A : (P Q)^infinity) = ((A : P^infinity) : Q^infinity).

    Each step is ``saturate`` by the prime's variables, so an ideal A that
    is already saturated is proved so, without a colon, when the prime's
    variable of largest index is regular on S/A (Bayer–Stillman: homogeneous
    A, reduced basis, weighted grevlex with that variable last).  Otherwise,
    and for every module of rank two or more, the colon loop decides.

    Computed once per submodule: a later call on A, or on the result,
    returns it.
    """
    if A._bsat is None:
        S = A
        for prime in A.ring.irrelevant_primes:
            S = saturate(S, [A.ring.variable(j) for j in prime])
        # the saturation is marked True, not pointed at itself (when S is A,
        # too): that cycle would keep it and its Groebner basis alive
        A._bsat = S
        S._bsat = True
    return A if A._bsat is True else A._bsat


def _monomial_minimalize(codec: MonomialCodec, keys: Iterable[int]) -> list[int]:
    """The minimal monomial keys under divisibility, in increasing order."""
    out: list[int] = []
    # a proper divisor has a smaller weighted degree, hence a smaller key, so
    # in sorted order each key meets its divisors before itself
    for K in sorted(set(keys)):
        if not any(codec.divides(L, K) for L in out):
            out.append(K)
    return out


@functools.lru_cache(maxsize=256)
def _prime_power_keys(ring: RingSpec, i: int, k: int) -> tuple[int, ...]:
    """Monomial keys of P_i^k, the k-th power of the i-th irrelevant prime."""
    prime = ring.irrelevant_primes[i]
    keys = []
    for combo in _weak_compositions(k, len(prime)):
        exps = [0] * ring.nvars
        for v, e in zip(prime, combo):
            exps[v] = e
        keys.append(ring.codec.encode(exps))
    return tuple(keys)


def irrelevant_power(ring: RingSpec, a: Sequence[int]) -> Submodule:
    """The product B^[a] = prod_i P_i^{a_i} of powers of the irrelevant
    primes (monomial, minimally generated).

    It equals the intersection of the P_i^{a_i} when the primes are pairwise
    disjoint, as on products of projective spaces and on F_3, but not when
    they share variables: on the del Pezzo ring, <y0,y2> <y0,y3> is
    <y0^2, y0 y2, y0 y3, y2 y3>, while <y0,y2> ∩ <y0,y3> is <y0, y2 y3>.
    """
    a = degree_vector(a, len(ring.irrelevant_primes), "exponent vector")
    if any(c < 0 for c in a):
        raise ValueError("exponents must be nonnegative")
    codec = ring.codec
    blocks = [_prime_power_keys(ring, i, ai) for i, ai in enumerate(a) if ai]
    amb = free_rank_one(ring)
    if not blocks:
        return Submodule(amb, [amb.wrap(ring.one())])
    prod = blocks[0]
    for blk in blocks[1:]:
        prod = [codec.mul(k1, k2) for k1 in prod for k2 in blk]
    return Submodule(
        amb, [ModuleElement(amb, {term_key(K, 0): 1}) for K in _monomial_minimalize(codec, prod)]
    )


# The largest |e| = e_1 + ... + e_s that the B-power certificate searches for
# one generator.  The del Pezzo points need e = (0,2,2,2,0), so |e| = 6.
_CERT_BOUND = 6


def _b_power_certificate(A: Submodule, W: Submodule) -> tuple[int, ...] | None:
    """An exponent vector e with B^[e] A ⊆ W, which proves A ⊆ (W : B^∞);
    None when some generator of A has no such e with |e| <= _CERT_BOUND.

    Each generator a is searched on its own.  The vector f found for the
    generators before it is tried first; if f fails, the candidates run in
    order of |e|, skipping every e <= f, which fails with f.  The answer is
    the componentwise max of the vectors found, which works for every
    generator since B^[max] ⊆ B^[e_a].  Each test is a set of memberships
    K*a in W over the monomials K of B^[e].
    """
    ring = A.ring
    codec = ring.codec
    s = len(ring.irrelevant_primes)

    def certifies(a: ModuleElement, e: tuple[int, ...]) -> bool:
        blocks = [_prime_power_keys(ring, i, k) for i, k in enumerate(e) if k]
        # the products span B^[e]; those that are not minimal only repeat
        # a test.  The product is lazy, so a failure stops it early.
        return all(
            W.contains(a.mono_mul(functools.reduce(codec.mul, combo, codec.one)))
            for combo in itertools.product(*blocks)
        )

    found = (0,) * s
    for a in A.gens:
        if certifies(a, found):
            continue
        e = next(
            (
                e
                for total in range(1, _CERT_BOUND + 1)
                for e in _weak_compositions(total, s)
                if not vleq(e, found) and certifies(a, e)
            ),
            None,
        )
        if e is None:
            return None
        found = vmax(found, e)
    return found


def _in_b_saturation(A: Submodule, W: Submodule) -> tuple[bool, dict]:
    """Whether A ⊆ (W : B^∞), and how that was decided.

    A B-power certificate proves containment; only when none is found is
    W saturated.  So True comes from either path, and False only from the
    saturation.  The second value is {"path": "certificate", "e": e} or
    {"path": "saturation", "e": None}.
    """
    e = _b_power_certificate(A, W)
    if e is not None:
        return True, {"path": "certificate", "e": e}
    return b_saturate(W).contains_submodule(A), {"path": "saturation", "e": None}


# ---------------------------------------------------------------------------
# truncation, Hilbert functions, codimension


def truncate(A: Submodule, a: Sequence[int]) -> Submodule:
    """The degree-wise truncation A_{>= a}, product rings only."""
    ring = A.ring
    if not ring.is_product:
        raise NotImplementedError("truncation is implemented for products of projective spaces")
    a = degree_vector(a, ring.rank_grading)
    out: list[ModuleElement] = []
    zero = (0,) * ring.rank_grading
    for g in A.gens:
        need = vmax(vsub(a, g.multidegree()), zero)
        for key in ring.monomials_of_degree(need):
            out.append(g.mono_mul(key))
    return Submodule(A.module, minimal_generators(out, module=A.module))


def hilbert_function(M: QuotientModule | Submodule, degree: Sequence[int]) -> int:
    """dim_k M_degree for a quotient presentation (or a submodule)."""
    degree = degree_vector(degree, M.ring.rank_grading)
    if isinstance(M, Submodule):
        free = QuotientModule(M.module, Submodule(M.module, []))
        total = hilbert_function(free, degree)
        return total - hilbert_function(QuotientModule(M.module, M), degree)
    ring = M.ring
    gb = M.relations.gb()
    count = 0
    for pos, gdeg in enumerate(M.free.gen_degrees):
        target = vsub(degree, gdeg)
        leads = gb.leads_at(pos)
        if not leads:
            count += ring.hilbert_series_free(target)
        else:
            count += len(_standard_monomials(ring, leads, target))
    return count


def codim(I: Submodule) -> int:
    """Codimension of V(I) inside the ambient affine space Spec S."""
    if I.module.rank != 1:
        raise ValueError("codim is defined for ideals")
    if I.is_zero():
        return 0
    ring = I.ring
    supports = []
    for _, K in I.gb().lead_terms():
        exps = ring.codec.decode(K)
        supports.append(frozenset(j for j, e in enumerate(exps) if e))
    if frozenset() in supports:
        return ring.nvars  # unit ideal
    nvars = ring.nvars
    best = 0
    allvars = list(range(nvars))
    for size in range(nvars, 0, -1):
        if size <= best:
            break
        for U in itertools.combinations(allvars, size):
            Uset = frozenset(U)
            if not any(s <= Uset for s in supports):
                best = size
                break
        if best:
            break
    return nvars - best


# ---------------------------------------------------------------------------
# subquotients and B-torsion


class Subquotient:
    """U / W for nested submodules W ⊆ U of a common free module."""

    __slots__ = ("upper", "lower")

    def __init__(self, upper: Submodule, lower: Submodule, verify: bool = True):
        if upper.module != lower.module:
            raise ValueError("subquotient pieces must share an ambient module")
        if verify and not upper.contains_submodule(lower):
            raise ValueError("lower piece is not contained in the upper piece")
        self.upper = upper
        self.lower = lower

    def __repr__(self) -> str:
        return f"Subquotient({len(self.upper.gens)} upper gens / {len(self.lower.gens)} lower gens)"


def is_b_torsion(M: Subquotient) -> bool:
    """True when every element of U/W is annihilated by a power of B.

    That is U ⊆ (W : B^∞).  An exponent vector e with B^[e] U ⊆ W proves
    it, searched with |e| <= 6 (``_CERT_BOUND``) for each generator of U;
    only when none is found is W B-saturated, so False always comes from
    the saturation.
    """
    return _in_b_saturation(M.upper, M.lower)[0]
