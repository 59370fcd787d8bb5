"""Free modules, module elements and Buchberger's algorithm with syzygies.

Elements of a free module ``F = (+)_j S(-a_j)`` are dicts mapping packed
term keys to coefficients.  A term key stacks the packed monomial key above
a complemented position field, so plain integer comparison realises the
term-over-position order induced by the ring's weighted grevlex.

The engine keeps, for every basis element, a representation in the original
generators ("tag").  Every S-pair that reduces to zero then hands us a
syzygy of the generators for free; together with the Koszul relations of
coprime-skipped pairs these generate the full syzygy module.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .ring import Multidegree, Polynomial, RingSpec, vadd

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


class ModuleElement:
    __slots__ = ("module", "terms")

    def __init__(self, module: FreeModule, terms: dict[int, int]):
        self.module = module
        self.terms = terms

    @property
    def ring(self) -> RingSpec:
        return self.module.ring

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def copy(self) -> "ModuleElement":
        return ModuleElement(self.module, dict(self.terms))

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

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        p = self.ring.char
        d = dict(self.terms)
        for t, c in other.terms.items():
            v = (d.get(t, 0) + c) % p
            if v:
                d[t] = v
            else:
                d.pop(t, None)
        return ModuleElement(self.module, d)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        p = self.ring.char
        d = dict(self.terms)
        for t, c in other.terms.items():
            v = (d.get(t, 0) - c) % p
            if v:
                d[t] = v
            else:
                d.pop(t, None)
        return ModuleElement(self.module, d)

    def __neg__(self) -> "ModuleElement":
        p = self.ring.char
        return ModuleElement(self.module, {t: p - c for t, c in self.terms.items()})

    def scale(self, c: int) -> "ModuleElement":
        p = self.ring.char
        c %= p
        if not c:
            return self.module.zero()
        return ModuleElement(self.module, {t: (c * v) % p for t, v in self.terms.items()})

    def mono_mul(self, key: int, coeff: int = 1) -> "ModuleElement":
        ring = self.ring
        p = ring.char
        coeff %= p
        if not coeff or not self.terms:
            return self.module.zero()
        shift = (key - ring.codec.C0) << POS_BITS
        return ModuleElement(
            self.module, {t + shift: (c * coeff) % p for t, c in self.terms.items()}
        )

    def poly_mul(self, poly: Polynomial) -> "ModuleElement":
        out = self.module.zero()
        for k, c in sorted(poly.terms.items()):
            out = out + self.mono_mul(k, c)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- grading -------------------------------------------------------------

    def term_degree(self, tkey: int) -> Multidegree:
        ring = self.ring
        return vadd(ring.mono_degree(term_mono(tkey)), self.module.gen_degrees[term_pos(tkey)])

    def is_homogeneous(self) -> bool:
        degs = {self.term_degree(t) for t in self.terms}
        return len(degs) <= 1

    def multidegree(self) -> Multidegree:
        if not self.terms:
            raise ValueError("the zero element has no multidegree")
        degs = {self.term_degree(t) for t in self.terms}
        if len(degs) > 1:
            w = sorted(degs)[:2]
            raise ValueError(f"inhomogeneous element: degrees {w[0]} and {w[1]} both occur")
        return next(iter(degs))

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

    __slots__ = ("ring", "polys", "reps", "lead_K", "lead_pos", "lead_inv", "by_pos")

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.polys: list[dict[int, int]] = []
        self.reps: list[dict[int, int]] = []
        self.lead_K: list[int] = []
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
            c = (f[T] * lead_inv[red]) % p
            shift = (quot(K, lead_K[red]) - C0) << POS_BITS
            for T2, c2 in polys[red].items():
                t = T2 + shift
                v = (f.get(t, 0) - c * c2) % p
                if v:
                    f[t] = v
                else:
                    f.pop(t, None)
            if rep is not None:
                for T2, c2 in reps[red].items():
                    t = T2 + shift
                    v = (rep.get(t, 0) - c * c2) % p
                    if v:
                        rep[t] = v
                    else:
                        rep.pop(t, None)
        return out if full else f


# ---------------------------------------------------------------------------
# the Buchberger engine


class GroebnerEngine:
    """Incremental Buchberger with optional representation tracking.

    The basis is append-only; ``process(limit)`` completes all S-pairs whose
    weighted element degree is at most ``limit`` (or all of them when limit
    is None), so the engine supports degree-truncated membership tests.
    """

    def __init__(
        self,
        module: FreeModule,
        gens: Iterable[ModuleElement] = (),
        track: bool = False,
    ):
        self.module = module
        self.ring = module.ring
        self.codec = module.ring.codec
        self.p = module.ring.char
        self.track = track
        self.index = LeadIndex(module.ring)
        self.pairs: list[tuple[int, int, int, int]] = []
        self.syzygies: list[dict[int, int]] = []
        self.n_input = 0
        self.tag_module: FreeModule | None = None
        gens = list(gens)
        if track:
            # zero generators still occupy a tag slot; give them degree 0
            degs = [
                g.multidegree() if g.terms else (0,) * module.ring.rank_grading
                for g in gens
            ]
            self.tag_module = FreeModule(module.ring, degs)
        for i, g in enumerate(gens):
            self.n_input += 1
            if not g.terms:
                if track:
                    self.syzygies.append({term_key(self.codec.one, i): 1})
                continue
            rep = {term_key(self.codec.one, i): 1} if track else None
            self._append(dict(g.terms), rep)

    # -- bookkeeping ---------------------------------------------------------

    def _pos_wdeg(self, pos: int) -> int:
        deg = self.module.gen_degrees[pos]
        return sum(w * c for w, c in zip(self.ring.weights, deg))

    def _append(self, f: dict[int, int], rep: dict[int, int] | None) -> None:
        codec = self.codec
        idx = self.index
        b = len(idx.polys)
        idx.add(f, rep)
        K = idx.lead_K[b]
        pos = idx.lead_pos[b]
        pw0 = self._pos_wdeg(pos)
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
        p = self.p
        C0 = self.codec.C0
        polys, reps = self.index.polys, self.index.reps
        syz: dict[int, int] = {}
        for gsrc, rep in ((polys[j], reps[i]), (polys[i], reps[j])):
            sign = 1 if gsrc is polys[j] else -1
            for Tg, cg in gsrc.items():
                shift = (term_mono(Tg) - C0) << POS_BITS
                for Tr, cr in rep.items():
                    t = Tr + shift
                    v = (syz.get(t, 0) + sign * cg * cr) % p
                    if v:
                        syz[t] = v
                    else:
                        syz.pop(t, None)
        if syz:
            self.syzygies.append(syz)

    # -- the main loop ---------------------------------------------------------

    def _chain_skip(self, i: int, j: int, L: int, pos: int) -> bool:
        codec = self.codec
        lead_K = self.index.lead_K
        for k in self.index.by_pos.get(pos, ()):
            if k == i or k == j:
                continue
            if not codec.divides(lead_K[k], L):
                continue
            if codec.lcm(lead_K[i], lead_K[k]) == L:
                continue
            if codec.lcm(lead_K[j], lead_K[k]) == L:
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
            for T2, c2 in idx.polys[i].items():
                f[T2 + si] = (ci * c2) % p
            for T2, c2 in idx.polys[j].items():
                t = T2 + sj
                v = (f.get(t, 0) - cj * c2) % p
                if v:
                    f[t] = v
                else:
                    f.pop(t, None)
            rep: dict[int, int] | None = None
            if self.track:
                rep = {}
                for T2, c2 in idx.reps[i].items():
                    rep[T2 + si] = (ci * c2) % p
                for T2, c2 in idx.reps[j].items():
                    t = T2 + sj
                    v = (rep.get(t, 0) - cj * c2) % p
                    if v:
                        rep[t] = v
                    else:
                        rep.pop(t, None)
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
        return not self.normal_form(elt).terms

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


def groebner_basis(
    gens: Sequence[ModuleElement], module: FreeModule | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens``."""
    gens = [g for g in gens if g.terms]
    if not gens:
        if module is None:
            raise ValueError("no nonzero generators and no ambient module given")
        return GroebnerBasis(module, [])
    module = gens[0].module
    for g in gens:
        if g.module != module:
            raise ValueError("generators live in different modules")
    engine = GroebnerEngine(module, gens, track=False)
    engine.process()
    return GroebnerBasis(module, _interreduce(engine))


def normal_form(elt: ModuleElement, gb: GroebnerBasis) -> ModuleElement:
    return gb.normal_form(elt)


def syzygy_module(
    gens: Sequence[ModuleElement], minimalize: bool = True
) -> list[ModuleElement]:
    """Generators of the syzygy module of ``gens``.

    The result lives in the tag module (+) S(-deg g_i); with ``minimalize``
    it is a minimal generating set.
    """
    if not gens:
        return []
    module = gens[0].module
    engine = GroebnerEngine(module, gens, track=True)
    engine.process()
    tag = engine.tag_module
    syz = [ModuleElement(tag, s) for s in engine.syzygies]
    if minimalize:
        syz = minimal_generators(syz, module=tag)
    return syz


def minimal_generators(
    elements: Sequence[ModuleElement], module: FreeModule | None = None
) -> list[ModuleElement]:
    """A subset of ``elements`` that minimally generates the same submodule."""
    elems = [e for e in elements if e.terms]
    if not elems:
        return []
    if module is None:
        module = elems[0].module
    # multidegree() checks homogeneity, so it raises on a mixed element
    degs = [e.multidegree() for e in elems]
    wdegs = [element_wdeg(module, d) for d in degs]
    order = sorted(range(len(elems)), key=lambda i: (wdegs[i], degs[i], i))
    engine = GroebnerEngine(module, [], track=False)
    kept: list[ModuleElement] = []
    for i in order:
        engine.process(wdegs[i])
        f = engine.index.reduce(dict(elems[i].terms))
        if f:
            kept.append(elems[i])
            engine._append(f, None)
    return kept
