"""Free modules, module elements and Buchberger's algorithm with syzygies.

Elements of a free module ``F = (+)_j S(-a_j)`` are dicts mapping packed
term keys to coefficients.  A term key stacks the packed monomial key above
a complemented position field, so plain integer comparison realises the
term-over-position order induced by the ring's weighted grevlex.
Their arithmetic and degree checks are the sparse-element core that
``ring.Polynomial`` uses too, with keys shifted up by ``POS_BITS``.

Inputs enter an engine only through ``_add_by_degree``, in degree order:
each is top-reduced by the basis completed up to its degree and kept only
when something is left, so the kept inputs generate minimally.  A tracking
engine tags input i with position i and keeps, for every basis element, its
representation in the inputs.  Every S-pair that reduces to zero then hands
us a syzygy of the kept inputs; with the Koszul relations of coprime-skipped
pairs these generate all their syzygies, and the relations recorded for the
dropped inputs complete the syzygies of all inputs.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .ring import Multidegree, Polynomial, RingSpec, _SparseElement, axpy, vadd

POS_BITS = 20
POS_MAX = (1 << POS_BITS) - 1
PMASK = POS_MAX


def term_key(key: int, pos: int) -> int:
    return (key << POS_BITS) | (POS_MAX - pos)


def term_pos(tkey: int) -> int:
    return POS_MAX - (tkey & PMASK)


def term_mono(tkey: int) -> int:
    return tkey >> POS_BITS


class FreeModule:
    """A free graded module (+)_j S(-a_j); gen_degrees lists the a_j."""

    __slots__ = ("ring", "gen_degrees")

    def __init__(self, ring: RingSpec, gen_degrees: Sequence[Multidegree]):
        self.ring = ring
        self.gen_degrees = tuple(tuple(d) for d in gen_degrees)
        if len(self.gen_degrees) > POS_MAX:
            raise ValueError("rank too large")

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    @property
    def twists(self) -> tuple[Multidegree, ...]:
        """The twists -a_j, matching the S(-a_j) notation."""
        return tuple(tuple(-c for c in d) for d in self.gen_degrees)

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def basis_element(self, pos: int) -> "ModuleElement":
        return ModuleElement(self, {term_key(self.ring.codec.one, pos): 1})

    def element_from_coords(self, coords: Sequence[Polynomial]) -> "ModuleElement":
        if len(coords) != self.rank:
            raise ValueError("coordinate count does not match rank")
        terms: dict[int, int] = {}
        for pos, poly in enumerate(coords):
            for k, c in poly.terms.items():
                terms[term_key(k, pos)] = c
        return ModuleElement(self, terms)

    def wrap(self, poly: Polynomial) -> "ModuleElement":
        if self.rank != 1:
            raise ValueError("wrap requires rank one")
        return ModuleElement(self, {term_key(k, 0): c for k, c in poly.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.gen_degrees == other.gen_degrees
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.gen_degrees))

    def __repr__(self) -> str:
        return f"FreeModule(rank {self.rank})"


class ModuleElement(_SparseElement):
    """Element of a FreeModule: dict mapping packed term key -> coeff."""

    __slots__ = ("module",)
    _bits = POS_BITS
    _noun = "element"

    def __init__(self, module: FreeModule, terms: dict[int, int]):
        self.module = module
        self.terms = terms

    @property
    def ring(self) -> RingSpec:
        return self.module.ring

    def _new(self, terms: dict[int, int]) -> "ModuleElement":
        return ModuleElement(self.module, terms)

    def _space(self) -> FreeModule:
        return self.module

    def coordinate(self, pos: int) -> Polynomial:
        ring = self.ring
        return Polynomial(
            ring,
            {term_mono(t): c for t, c in self.terms.items() if term_pos(t) == pos},
        )

    def coordinates(self) -> list[Polynomial]:
        ring = self.ring
        polys = [dict() for _ in range(self.module.rank)]
        for t, c in self.terms.items():
            polys[term_pos(t)][term_mono(t)] = c
        return [Polynomial(ring, d) for d in polys]

    def lead_term(self) -> tuple[int, int]:
        """(term key, coefficient) of the largest term."""
        t = max(self.terms)
        return t, self.terms[t]

    # -- grading -------------------------------------------------------------

    def _degrees(self) -> set[Multidegree]:
        """The degrees of all terms, with one vector add per distinct
        (monomial degree, position) pair rather than one per term."""
        mono_degree = self.ring.mono_degree
        pairs = {(mono_degree(term_mono(t)), term_pos(t)) for t in self.terms}
        gen_degrees = self.module.gen_degrees
        return {vadd(d, gen_degrees[pos]) for d, pos in pairs}

    def _degree(self) -> Multidegree:
        """The degree of one term: the multidegree of a nonzero element known
        to be homogeneous, because the engine built it or a check passed it."""
        t = next(iter(self.terms))
        return vadd(self.ring.mono_degree(term_mono(t)), self.module.gen_degrees[term_pos(t)])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        coords = self.coordinates()
        parts = []
        for j, poly in enumerate(coords):
            if poly:
                parts.append(f"({poly})*e{j}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ModuleElement({self})"


def element_wdeg(module: FreeModule, degree: Multidegree) -> int:
    return sum(w * c for w, c in zip(module.ring.weights, degree))


# ---------------------------------------------------------------------------
# lead index and reduction


class LeadIndex:
    """Term dicts indexed by position and lead monomial, with the reduction loop.

    The Buchberger engine and ``GroebnerBasis`` both keep their elements in
    one of these.  ``reps[i]`` is element i's representation in the tag
    module (empty without tracking).
    """

    __slots__ = (
        "ring", "polys", "reps", "lead_K", "lead_C", "lead_pos", "lead_inv", "by_pos",
    )

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.polys: list[dict[int, int]] = []
        self.reps: list[dict[int, int]] = []
        self.lead_K: list[int] = []
        self.lead_C: list[int] = []  # complement words of the leads
        self.lead_pos: list[int] = []
        self.lead_inv: list[int] = []  # inverses of the lead coefficients
        self.by_pos: dict[int, list[int]] = {}

    def add(self, f: dict[int, int], rep: dict[int, int] | None = None) -> None:
        T = max(f)
        pos = term_pos(T)
        self.by_pos.setdefault(pos, []).append(len(self.polys))
        self.polys.append(f)
        self.reps.append(rep if rep is not None else {})
        self.lead_K.append(term_mono(T))
        self.lead_C.append(term_mono(T) & self.ring.codec.CMASK)
        self.lead_pos.append(pos)
        self.lead_inv.append(self.ring.inv(f[T]))

    def reduce(
        self, f: dict[int, int], rep: dict[int, int] | None = None, full: bool = False
    ) -> dict[int, int]:
        """Reduce the term dict f in place by the indexed elements.

        Top reduction stops at the first irreducible lead and returns f.
        Full reduction moves every irreducible term into the returned dict
        and leaves f empty.  A given ``rep`` undergoes the same operations
        on the elements' representations.  The reducer of a term is the
        first indexed element whose lead divides it.
        """
        p = self.ring.char
        codec = self.ring.codec
        C0 = codec.C0
        divides = codec.divides
        quot = codec.quot
        polys, reps, lead_K, lead_inv = self.polys, self.reps, self.lead_K, self.lead_inv
        by_pos = self.by_pos
        out: dict[int, int] = {}
        while f:
            T = max(f)
            K = term_mono(T)
            for red in by_pos.get(term_pos(T), ()):
                if divides(lead_K[red], K):
                    break
            else:
                if not full:
                    return f
                out[T] = f.pop(T)
                continue
            c = -f[T] * lead_inv[red] % p
            shift = (quot(K, lead_K[red]) - C0) << POS_BITS
            axpy(f, c, polys[red], shift, p)
            if rep is not None:
                axpy(rep, c, reps[red], shift, p)
        return out if full else f


# ---------------------------------------------------------------------------
# the Buchberger engine


class GroebnerEngine:
    """Incremental Buchberger with optional representation tracking.

    The basis is append-only; ``process(limit)`` completes all S-pairs whose
    weighted element degree is at most ``limit`` (or all of them when limit
    is None), so the engine supports degree-truncated membership tests.
    Inputs enter through ``_add_by_degree``.  ``syzygies`` holds the S-pair
    and Koszul syzygies, ``relations`` those of the inputs that were zero
    or reduced to zero.
    """

    def __init__(self, module: FreeModule, track: bool = False):
        self.module = module
        self.ring = module.ring
        self.codec = module.ring.codec
        self.p = module.ring.char
        self.track = track
        self.index = LeadIndex(module.ring)
        self.pairs: list[tuple[int, int, int, int]] = []
        self.syzygies: list[dict[int, int]] = []
        self.relations: list[dict[int, int]] = []

    # -- bookkeeping ---------------------------------------------------------

    def _append(self, f: dict[int, int], rep: dict[int, int] | None) -> None:
        codec = self.codec
        idx = self.index
        b = len(idx.polys)
        idx.add(f, rep)
        K = idx.lead_K[b]
        pos = idx.lead_pos[b]
        pw0 = element_wdeg(self.module, self.module.gen_degrees[pos])
        # the coprime-lead (product) criterion is only valid in rank one;
        # with tracking the skipped pair still owes its Koszul syzygy
        use_product = self.module.rank == 1
        for i in idx.by_pos[pos][:-1]:
            Ki = idx.lead_K[i]
            if use_product and self.codec.gcd_is_one(Ki, K):
                if self.track:
                    self._record_koszul(i, b)
                continue
            L = codec.lcm(Ki, K)
            heapq.heappush(self.pairs, (codec.wdeg(L) + pw0, L, i, b))

    def _record_koszul(self, i: int, j: int) -> None:
        """Syzygy g_j * rep_i - g_i * rep_j for a coprime-skipped pair."""
        C0 = self.codec.C0
        polys, reps = self.index.polys, self.index.reps
        syz: dict[int, int] = {}
        for g, rep, sign in ((polys[j], reps[i], 1), (polys[i], reps[j], -1)):
            for Tg, cg in g.items():
                axpy(syz, sign * cg, rep, (term_mono(Tg) - C0) << POS_BITS, self.p)
        if syz:
            self.syzygies.append(syz)

    # -- the main loop ---------------------------------------------------------

    def _chain_skip(self, i: int, j: int, L: int, pos: int) -> bool:
        """Buchberger's chain criterion: some other lead k at ``pos`` divides
        L = lcm(i, j), and lcm(i, k) and lcm(j, k) both differ from L.

        Tested on complement words: two monomials are equal exactly when
        their complement words are, so no weighted degree is computed.
        """
        codec = self.codec
        divides = codec.divides
        lcm_comp = codec.lcm_comp
        lead_C = self.index.lead_C
        cL = L & codec.CMASK
        ci = lead_C[i]
        cj = lead_C[j]
        for k in self.index.by_pos.get(pos, ()):
            if k == i or k == j:
                continue
            ck = lead_C[k]
            if not divides(ck, cL):
                continue
            if lcm_comp(ci, ck) == cL or lcm_comp(cj, ck) == cL:
                continue
            return True
        return False

    def process(self, limit: int | None = None) -> None:
        p = self.p
        codec = self.codec
        idx = self.index
        while self.pairs:
            pw, L, i, j = self.pairs[0]
            if limit is not None and pw > limit:
                return
            heapq.heappop(self.pairs)
            pos = idx.lead_pos[i]
            if self._chain_skip(i, j, L, pos):
                continue
            ci = idx.lead_inv[i]
            cj = idx.lead_inv[j]
            si = (codec.quot(L, idx.lead_K[i]) - codec.C0) << POS_BITS
            sj = (codec.quot(L, idx.lead_K[j]) - codec.C0) << POS_BITS
            f: dict[int, int] = {}
            axpy(f, ci, idx.polys[i], si, p)
            axpy(f, -cj, idx.polys[j], sj, p)
            rep: dict[int, int] | None = None
            if self.track:
                rep = {}
                axpy(rep, ci, idx.reps[i], si, p)
                axpy(rep, -cj, idx.reps[j], sj, p)
            idx.reduce(f, rep)
            if f:
                self._append(f, rep)
            elif self.track and rep:
                self.syzygies.append(rep)


# ---------------------------------------------------------------------------
# public entry points


class GroebnerBasis:
    """A reduced Groebner basis of a submodule, with normal-form service."""

    __slots__ = ("module", "elements", "_index")

    def __init__(self, module: FreeModule, elements: list[ModuleElement]):
        self.module = module
        self.elements = elements
        self._index = LeadIndex(module.ring)
        for e in elements:
            self._index.add(e.terms)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def lead_terms(self) -> list[tuple[int, int]]:
        """List of (position, packed monomial key) of the leads."""
        return list(zip(self._index.lead_pos, self._index.lead_K))

    def leads_at(self, pos: int) -> list[int]:
        """Packed monomial keys of the leads at position ``pos``."""
        idx = self._index
        return [idx.lead_K[i] for i in idx.by_pos.get(pos, ())]

    def normal_form(self, elt: ModuleElement) -> ModuleElement:
        return ModuleElement(self.module, self._index.reduce(dict(elt.terms), full=True))

    def contains(self, elt: ModuleElement) -> bool:
        # top reduction decides membership: it stops at an irreducible lead
        return not self._index.reduce(dict(elt.terms))

    def reduces_to_zero(self, elts: Iterable[ModuleElement]) -> bool:
        return all(self.contains(e) for e in elts)


def _interreduce(engine: GroebnerEngine) -> list[ModuleElement]:
    codec = engine.codec
    idx = engine.index
    n = len(idx.polys)
    # keep only elements whose lead is minimal among all leads
    keep = []
    for i in range(n):
        Ki, pi = idx.lead_K[i], idx.lead_pos[i]
        redundant = False
        for j in idx.by_pos.get(pi, ()):
            if j == i:
                continue
            Kj = idx.lead_K[j]
            if codec.divides(Kj, Ki) and (Kj != Ki or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    # tail-reduce each kept element against all kept ones: a tail term lies
    # below its own lead, so that lead never divides it
    p = engine.p
    kept = GroebnerBasis(
        engine.module, [ModuleElement(engine.module, idx.polys[i]) for i in keep]
    )
    out = []
    for i in keep:
        f = dict(idx.polys[i])
        T = max(f)
        del f[T]
        tail = kept.normal_form(ModuleElement(engine.module, f))
        inv = idx.lead_inv[i]
        terms = {t: (c * inv) % p for t, c in tail.terms.items()}
        terms[T] = 1
        out.append(ModuleElement(engine.module, terms))
    out.sort(key=lambda e: max(e.terms))
    return out


def _check_homogeneous(elements: Iterable[ModuleElement]) -> None:
    """Raise, naming two degrees, unless every element is homogeneous."""
    for e in elements:
        if e.terms:
            e.multidegree()


def _add_by_degree(engine: GroebnerEngine, elems: Sequence[ModuleElement]) -> list[int]:
    """Feed homogeneous ``elems`` into ``engine`` in degree order.

    Before each element the engine completes the S-pairs up to its degree;
    the element is then top-reduced and added only when something is left.
    A tracking engine tags element i with position i and records, in
    ``engine.relations``, the representation of each element that is zero
    or reduces to zero.  Returns the positions of the elements added, in
    the order they entered: a minimal generating subset of ``elems``.
    """
    one = engine.codec.one
    degs = {i: e._degree() for i, e in enumerate(elems) if e.terms}
    wdegs = {i: element_wdeg(engine.module, d) for i, d in degs.items()}
    if engine.track:
        engine.relations += [{term_key(one, i): 1} for i in range(len(elems)) if i not in degs]
    kept: list[int] = []
    for i in sorted(degs, key=lambda i: (wdegs[i], degs[i], i)):
        engine.process(wdegs[i])
        rep = {term_key(one, i): 1} if engine.track else None
        f = engine.index.reduce(dict(elems[i].terms), rep)
        if f:
            kept.append(i)
            engine._append(f, rep)
        elif rep:
            engine.relations.append(rep)
    return kept


def groebner_basis(
    gens: Sequence[ModuleElement], module: FreeModule | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by homogeneous ``gens``."""
    _check_homogeneous(gens)
    gens = [g for g in gens if g.terms]
    if not gens:
        if module is None:
            raise ValueError("no nonzero generators and no ambient module given")
        return GroebnerBasis(module, [])
    module = gens[0].module
    for g in gens:
        if g.module != module:
            raise ValueError("generators live in different modules")
    # inputs that reduce to zero by degree order never enter the basis, so
    # they spawn no S-pairs
    engine = GroebnerEngine(module)
    _add_by_degree(engine, gens)
    engine.process()
    return GroebnerBasis(module, _interreduce(engine))


def syzygy_module(
    gens: Sequence[ModuleElement], minimalize: bool = True
) -> list[ModuleElement]:
    """Generators of the syzygy module of homogeneous ``gens``.

    The result lives in the tag module (+) S(-deg g_i); with ``minimalize``
    it is a minimal generating set.
    """
    _check_homogeneous(gens)
    if not gens:
        return []
    engine = GroebnerEngine(gens[0].module, track=True)
    _add_by_degree(engine, gens)
    engine.process()
    # zero generators still occupy a tag slot; give them degree 0
    zero = (0,) * engine.ring.rank_grading
    tag = FreeModule(engine.ring, [g._degree() if g.terms else zero for g in gens])
    syz = [ModuleElement(tag, s) for s in engine.relations + engine.syzygies]
    if minimalize:
        syz = minimal_generators(syz, module=tag)
    return syz


def minimal_generators(
    elements: Sequence[ModuleElement], module: FreeModule | None = None
) -> list[ModuleElement]:
    """A subset of homogeneous ``elements`` that minimally generates the same submodule."""
    _check_homogeneous(elements)
    elems = [e for e in elements if e.terms]
    if not elems:
        return []
    if module is None:
        module = elems[0].module
    return [elems[i] for i in _add_by_degree(GroebnerEngine(module), elems)]
