"""Submodules of free modules and the multigraded ideal/module toolkit.

All inputs are required to be homogeneous for the Z^r grading.  Here live
intersection (homogenised elimination trick), colon, saturation,
B-saturation, truncation, Hilbert functions, codimension and B-torsion tests.
One colon routine, ``quotient``, takes a form, a list of forms or an ideal
and needs a single syzygy computation; ``saturate`` repeats it until the
result stops growing, and ``b_saturate`` saturates by each irrelevant prime
in turn.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .groebner import (
    FreeModule,
    GroebnerBasis,
    ModuleElement,
    POS_BITS,
    groebner_basis,
    minimal_generators,
    syzygy_module,
    term_key,
    term_mono,
    term_pos,
)
from .ring import Multidegree, Polynomial, RingSpec, _weak_compositions, vmax, vsub


class Submodule:
    """A graded submodule of a free module, given by homogeneous generators."""

    __slots__ = ("module", "gens", "_gb")

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
        out = Submodule(self.module, minimal_generators(self.gens, module=self.module))
        return out

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gens)

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

    __slots__ = ("free", "relations", "_resolution", "_graded_bases", "_hom_ranks")

    def __init__(self, free: FreeModule, relations: Submodule):
        if relations.module != free:
            raise ValueError("relations do not live in the given free module")
        self.free = free
        self.relations = relations
        self._resolution = None
        self._graded_bases: dict[Multidegree, tuple[tuple[int, int], ...]] = {}
        # ranks of the Ext-colimit's Hom maps, keyed on (t, k, b); see cohomology
        self._hom_ranks: dict[tuple[int, int, Multidegree], int] = {}

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
# monomial fast paths


def _monomial_minimalize(module: FreeModule, terms: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Minimal elements of a set of (pos, key) monomial generators."""
    codec = module.ring.codec
    terms = sorted(set(terms), key=lambda pk: (pk[0], pk[1]))
    out: list[tuple[int, int]] = []
    for pos, K in terms:
        if not any(p == pos and codec.divides(L, K) for p, L in out):
            out = [(p, L) for p, L in out if not (p == pos and codec.divides(K, L))]
            out.append((pos, K))
    return out


def _monomial_gens(A: Submodule) -> list[tuple[int, int]]:
    out = []
    for g in A.gens:
        ((t, _),) = g.terms.items()
        out.append((term_pos(t), term_mono(t)))
    return out


def _from_monomials(module: FreeModule, terms: list[tuple[int, int]]) -> Submodule:
    gens = [
        ModuleElement(module, {term_key(K, pos): 1})
        for pos, K in _monomial_minimalize(module, terms)
    ]
    return Submodule(module, gens)


# ---------------------------------------------------------------------------
# intersect via the homogenised elimination trick


def _lift_to_elim(
    src: FreeModule, dst: FreeModule, elt: ModuleElement, ext: RingSpec
) -> ModuleElement:
    terms = {}
    for t, c in elt.terms.items():
        exps = src.ring.codec.decode(term_mono(t)) + (0,)
        terms[term_key(ext.codec.encode(exps), term_pos(t))] = c
    return ModuleElement(dst, terms)


def _drop_elim(dst: FreeModule, elt: ModuleElement, ext: RingSpec) -> ModuleElement:
    terms = {}
    ring = dst.ring
    for t, c in elt.terms.items():
        exps = ext.codec.decode(term_mono(t))
        if exps[-1] != 0:
            raise ValueError("element still involves the elimination variable")
        terms[term_key(ring.codec.encode(exps[:-1]), term_pos(t))] = c
    return ModuleElement(dst, terms)


def intersect(A: Submodule, B: Submodule) -> Submodule:
    """A ∩ B via a degree-zero homogenising variable and elimination order."""
    if A.module != B.module:
        raise ValueError("intersection requires a common ambient module")
    if A.is_zero() or B.is_zero():
        return Submodule(A.module, [])
    if A.is_monomial() and B.is_monomial():
        codec = A.ring.codec
        terms = []
        for pa, Ka in _monomial_gens(A):
            for pb, Kb in _monomial_gens(B):
                if pa == pb:
                    terms.append((pa, codec.lcm(Ka, Kb)))
        return _from_monomials(A.module, terms)
    ring = A.ring
    ext = ring.with_elim_variable()
    extmod = FreeModule(ext, A.module.gen_degrees)
    t_poly = ext.variable(ext.nvars - 1)
    one_minus_t = ext.one() - t_poly
    gens = []
    for a in A.gens:
        gens.append(_lift_to_elim(A.module, extmod, a, ext).poly_mul(t_poly))
    for b in B.gens:
        gens.append(_lift_to_elim(A.module, extmod, b, ext).poly_mul(one_minus_t))
    gb = groebner_basis(gens, module=extmod)
    elim_shift = ext.codec.elim_shift + POS_BITS
    kept = []
    for e in gb:
        T, _ = e.lead_term()
        if T >> elim_shift:
            continue  # lead involves t, hence (elimination order) so does e
        kept.append(_drop_elim(A.module, e, ext))
    return Submodule(A.module, minimal_generators(kept, module=A.module))


# ---------------------------------------------------------------------------
# colon and saturation


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
    """The colon module (A : J) for J a form, a list of forms or an ideal.

    g lies in (A : (f_1, ..., f_s)) exactly when (g*f_1, ..., g*f_s) lies in
    A^s.  So (A : J) is the first block of the syzygies, in F^s with block
    i's generator degrees shifted by -deg f_i, of the columns
    e_j*(f_1, ..., f_s) followed by the blocks a*e_i for a in A.
    """
    forms = _colon_forms(A.ring, J)
    if A.is_zero():
        return A
    F = A.module
    r = F.rank
    Fs = FreeModule(
        A.ring, [vsub(a, f.multidegree()) for f in forms for a in F.gen_degrees]
    )
    gens = [
        ModuleElement(
            Fs,
            {term_key(K, i * r + j): c for i, f in enumerate(forms) for K, c in f.terms.items()},
        )
        for j in range(r)
    ]
    # a term key's position field is complemented: key - n moves it n places on
    for i in range(len(forms)):
        gens += [ModuleElement(Fs, {t - i * r: c for t, c in a.terms.items()}) for a in A.gens]
    out = []
    for s in syzygy_module(gens, minimalize=False):
        terms = {t: c for t, c in s.terms.items() if term_pos(t) < r}
        if terms:
            out.append(ModuleElement(F, terms))
    return Submodule(F, minimal_generators(out, module=F))


def saturate(A: Submodule, J: Polynomial | Sequence[Polynomial] | Submodule) -> Submodule:
    """The saturation (A : J^infinity): A <- (A : J) until it stops growing."""
    while True:
        nxt = quotient(A, J)
        if A.contains_submodule(nxt):
            return A
        A = nxt


def b_saturate(A: Submodule) -> Submodule:
    """Saturation (A : B^infinity) by the irrelevant ideal B = ∩_i P_i, one
    prime at a time: (A : (P Q)^infinity) = ((A : P^infinity) : Q^infinity)."""
    ring = A.ring
    for prime in ring.irrelevant_primes:
        A = saturate(A, [ring.variable(j) for j in prime])
    return A


def irrelevant_power(ring: RingSpec, a: Sequence[int]) -> Submodule:
    """The ideal B^[a] = ∩_i P_i^{a_i} (monomial, minimally generated)."""
    a = tuple(a)
    if len(a) != len(ring.irrelevant_primes):
        raise ValueError("exponent vector length must match the number of irrelevant primes")
    if any(c < 0 for c in a):
        raise ValueError("exponents must be nonnegative")
    codec = ring.codec
    blocks: list[list[int]] = []
    for prime, ai in zip(ring.irrelevant_primes, a):
        if ai == 0:
            continue
        keys = []
        for combo in _weak_compositions(ai, len(prime)):
            exps = [0] * ring.nvars
            for v, e in zip(prime, combo):
                exps[v] = e
            keys.append(codec.encode(exps))
        blocks.append(keys)
    amb = free_rank_one(ring)
    if not blocks:
        return Submodule(amb, [amb.wrap(ring.one())])
    prod = blocks[0]
    for blk in blocks[1:]:
        prod = [codec.mul(k1, k2) for k1 in prod for k2 in blk]
    return _from_monomials(amb, [(0, k) for k in prod])


# ---------------------------------------------------------------------------
# truncation, Hilbert functions, codimension


def truncate(A: Submodule, a: Sequence[int]) -> Submodule:
    """The degree-wise truncation A_{>= a}, product rings only."""
    ring = A.ring
    if not ring.is_product:
        raise NotImplementedError("truncation is implemented for products of projective spaces")
    a = tuple(a)
    out: list[ModuleElement] = []
    zero = (0,) * ring.rank_grading
    for g in A.gens:
        need = vmax(vsub(a, g.multidegree()), zero)
        for key in ring.monomials_of_degree(need):
            out.append(g.mono_mul(key))
    return Submodule(A.module, minimal_generators(out, module=A.module))


def hilbert_function(M: QuotientModule | Submodule, degree: Sequence[int]) -> int:
    """dim_k M_degree for a quotient presentation (or a submodule)."""
    degree = tuple(degree)
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
    import itertools as _it

    for size in range(nvars, 0, -1):
        if size <= best:
            break
        for U in _it.combinations(allvars, size):
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

    def is_zero(self) -> bool:
        return self.lower.contains_submodule(self.upper)

    def __repr__(self) -> str:
        return f"Subquotient({len(self.upper.gens)} upper gens / {len(self.lower.gens)} lower gens)"


def is_b_torsion(M: Subquotient) -> bool:
    """True when every element of U/W is annihilated by a power of B."""
    if M.is_zero():
        return True
    return b_saturate(M.lower).contains_submodule(M.upper)
