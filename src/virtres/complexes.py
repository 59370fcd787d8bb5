"""Free complexes, minimal free resolutions, Betti tables and virtuality.

A ``FreeComplex`` stores the terms ``F_0, ..., F_p`` and, for each
``i >= 1``, the differential ``d_i : F_i -> F_{i-1}`` as a list of columns
(elements of ``F_{i-1}``, one per generator of ``F_i``).
"""

from __future__ import annotations

import json
from typing import Sequence

from .groebner import (
    POS_BITS,
    FreeModule,
    GroebnerEngine,
    ModuleElement,
    _add_by_degree,
    element_wdeg,
    syzygy_module,
    term_key,
    term_mono,
    term_pos,
)
from .ideals import (
    QuotientModule,
    Submodule,
    Subquotient,
    _in_b_saturation,
)
from .ring import Multidegree, Polynomial, RingSpec, axpy, vadd, vleq


class FreeComplex:
    """A complex of free modules F_0 <- F_1 <- ... <- F_p."""

    __slots__ = ("terms", "maps")

    def __init__(
        self,
        terms: Sequence[FreeModule],
        maps: Sequence[Sequence[ModuleElement]],
        validate: bool = True,
    ):
        self.terms = list(terms)
        self.maps = [list(cols) for cols in maps]
        if len(self.maps) != len(self.terms) - 1:
            raise ValueError("need exactly one differential per consecutive pair of terms")
        if validate:
            for i, cols in enumerate(self.maps):
                src = self.terms[i + 1]
                dst = self.terms[i]
                if len(cols) != src.rank:
                    raise ValueError(f"differential {i + 1} has wrong number of columns")
                for j, col in enumerate(cols):
                    if col.module != dst:
                        raise ValueError(f"column {j} of differential {i + 1} in wrong module")
                    if col.terms and col.multidegree() != src.gen_degrees[j]:
                        raise ValueError(
                            f"column {j} of differential {i + 1} is not homogeneous of the "
                            f"generator degree {src.gen_degrees[j]}"
                        )

    @property
    def ring(self) -> RingSpec:
        return self.terms[0].ring

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def betti(self) -> "BettiTable":
        return BettiTable.from_complex(self)

    def __repr__(self) -> str:
        ranks = " <- ".join(str(t.rank) for t in self.terms)
        return f"FreeComplex({ranks})"

    # -- homological structure ---------------------------------------------

    def homology(self, i: int) -> Subquotient:
        """H_i = ker d_i / im d_{i+1} as a subquotient of F_i."""
        if i < 0 or i > self.length:
            raise ValueError("homological index out of range")
        F = self.terms[i]
        if i == 0:
            upper = Submodule(F, [F.basis_element(j) for j in range(F.rank)])
        else:
            syz = syzygy_module(self.maps[i - 1])
            # the tag module of the syzygies is F_i by construction
            upper = Submodule(F, [ModuleElement(F, s.terms) for s in syz])
        if i == self.length:
            lower = Submodule(F, [])
        else:
            lower = Submodule(F, list(self.maps[i]))
        return Subquotient(upper, lower, verify=False)


class BettiTable:
    """Multigraded Betti numbers of a free complex."""

    __slots__ = ("entries", "totals")

    def __init__(self, entries: dict[tuple[int, Multidegree], int], totals: list[int]):
        self.entries = dict(entries)
        self.totals = list(totals)

    @classmethod
    def from_complex(cls, F: FreeComplex) -> "BettiTable":
        entries: dict[tuple[int, Multidegree], int] = {}
        totals = []
        for i, term in enumerate(F.terms):
            totals.append(term.rank)
            for d in term.gen_degrees:
                entries[(i, d)] = entries.get((i, d), 0) + 1
        return cls(entries, totals)

    @property
    def distinct_twists(self) -> int:
        """Number of distinct twist vectors appearing anywhere in the complex."""
        return len({d for (_, d) in self.entries})

    def rank(self, i: int, degree: Sequence[int]) -> int:
        return self.entries.get((i, tuple(degree)), 0)

    def to_json_dict(self) -> dict:
        ordered = sorted(self.entries.items())
        return {
            "lengths": list(range(len(self.totals))),
            "totals": self.totals,
            "entries": [
                {"i": i, "twist": list(d), "rank": r} for (i, d), r in ordered
            ],
            "distinct_twists": self.distinct_twists,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BettiTable)
            and self.entries == other.entries
            and self.totals == other.totals
        )

    def __str__(self) -> str:
        lines = [f"totals: {tuple(self.totals)}"]
        by_i: dict[int, list[tuple[Multidegree, int]]] = {}
        for (i, d), r in sorted(self.entries.items()):
            by_i.setdefault(i, []).append((d, r))
        for i in sorted(by_i):
            parts = []
            for d, r in by_i[i]:
                ds = ",".join(str(c) for c in d)
                parts.append(f"S(-({ds}))" + (f"^{r}" if r > 1 else ""))
            lines.append(f"  F_{i} = " + " + ".join(parts))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# resolutions


def _iterated_syzygies(
    terms: list[FreeModule],
    cols: list[ModuleElement],
    cap: int,
    bound: Multidegree | None = None,
) -> list[list[ModuleElement]] | None:
    """Differentials of a minimal resolution of the module that ``cols``
    generate in terms[-1], one tracked Buchberger run per level.

    Each level feeds its columns, with ``bound`` only those of degree
    <= bound (componentwise), into one tracking engine in degree order.
    With ``bound`` the engine also stops at the weighted degree w.bound:
    the weights are positive, so a syzygy above it is not <= bound and the
    next level drops it anyway, and an element of higher degree never
    reduces a lower one, so the kept columns and surviving syzygies, and
    their order, are those of the uncapped run.
    The columns it keeps generate minimally and form the differential,
    whose source module is appended to ``terms``; its S-pair and Koszul
    syzygies, renumbered to the kept columns, are the next level's columns,
    generators that need not be minimal.  The result is a minimal
    resolution, but which minimal generators are chosen depends on the
    input order, so its maps are not canonical.  Returns None when columns
    remain after ``cap`` differentials.
    """
    ring = terms[0].ring
    maps: list[list[ModuleElement]] = []
    while True:
        if bound is not None:
            cols = [c for c in cols if vleq(c._degree(), bound)]
        if not cols or len(maps) == cap:
            return None if cols else maps
        engine = GroebnerEngine(terms[-1], track=True)
        kept = _add_by_degree(engine, cols)
        engine.process(None if bound is None else element_wdeg(terms[-1], bound))
        G = FreeModule(ring, [cols[i]._degree() for i in kept])
        pos = {old: new for new, old in enumerate(kept)}
        maps.append([cols[i] for i in kept])
        terms.append(G)
        cols = [
            ModuleElement(G, {term_key(term_mono(t), pos[term_pos(t)]): c for t, c in s.items()})
            for s in engine.syzygies
        ]


def _presentation(F: FreeModule, gens: list) -> tuple[FreeModule, list[ModuleElement]]:
    """F and the relations ``gens`` with their unit entries cancelled (see
    ``_cancel_units``) and the relations left zero dropped, so that a minimal
    set of them, in m·F, is the first differential of a minimal resolution.
    Without a unit entry F and ``gens`` are returned as they are."""
    cut = _cancel_units(F.ring, [[w.terms for w in gens]])
    if cut is None:
        return F, gens
    (cols,), dead = cut
    pos = {old: new for new, old in enumerate(j for j in range(F.rank) if j not in dead[0])}
    P = FreeModule(F.ring, [F.gen_degrees[j] for j in pos])
    cols = [c for j, c in enumerate(cols) if c and j not in dead[1]]
    cols = [{term_key(term_mono(t), pos[term_pos(t)]): a for t, a in c.items()} for c in cols]
    return P, [ModuleElement(P, c) for c in cols]


def free_resolution(M: QuotientModule | Submodule) -> FreeComplex:
    """Minimal free resolution, one tracked Buchberger run per differential
    (see ``_iterated_syzygies``; the maps are minimal, not canonical).

    For a QuotientModule F/W the resolution starts from its minimal
    presentation (``_presentation``): the relations lie in m·F and each
    level keeps a minimal set of columns, so every map is minimal as built.
    A Submodule input is resolved as the module it generates: the same loop
    run from its ambient module, with that first term cut off, so that F_0
    is built on its minimal generators.
    """
    if isinstance(M, Submodule):
        terms, cols = [M.module], M.gens
    elif M._resolution is not None:
        return M._resolution
    else:
        F, cols = _presentation(M.free, M.relations.gens)
        terms = [F]
    ring = terms[0].ring
    cut = isinstance(M, Submodule)
    maps = _iterated_syzygies(terms, cols, ring.nvars + 1 + cut)
    if maps is None:
        raise RuntimeError("resolution did not terminate within the length cap")
    if cut:
        terms, maps = terms[1:] or [FreeModule(ring, [])], maps[1:]
    out = FreeComplex(terms, maps, validate=False)
    if not cut:
        M._resolution = out
    return out


def minimalize(F: FreeComplex) -> FreeComplex:
    """Cancel the unit (constant) entries of the differentials, in one pass
    (see ``_cancel_units``); a complex without one is returned as it is."""
    cut = _cancel_units(F.ring, [[col.terms for col in cols] for cols in F.maps])
    if cut is None:
        return F
    maps, dead = cut
    keep = [[j for j in range(t.rank) if j not in gone] for t, gone in zip(F.terms, dead)]
    return _keep_summands(F.terms, maps, keep)


def _cancel_units(ring: RingSpec, maps: list[list[dict]]) -> tuple[list, list[set[int]]] | None:
    """Copies of the differentials ``maps`` (term dicts) with their unit
    entries cancelled, and for each term F_i the generators split off; None
    when no column has a unit entry.

    A unit u at row r, column c of d_i splits off S(-a) <-u- S(-a): column
    operations clear row r from the other columns of d_i, then column c of
    d_i, row c of d_{i+1} and column r of d_{i-1} go.  Only d_i gains
    entries, and a column gains a unit only when it had one at row r, so
    the differentials are cleared in turn, each column in order, and no
    level is visited twice.  A constant monomial has the smallest term key,
    so one ``min`` per column finds a unit entry.
    """
    p = ring.char
    one = ring.codec.one
    C0 = ring.codec.C0
    if not any(col and term_mono(min(col)) == one for cols in maps for col in cols):
        return None
    maps = [[dict(col) for col in cols] for cols in maps]
    dead: list[set[int]] = [set() for _ in range(len(maps) + 1)]
    for i, cols in enumerate(maps):
        # cols are d_{i+1}; drop the rows that clearing d_i split off
        for col in cols if dead[i] else ():
            for t in [t for t in col if term_pos(t) in dead[i]]:
                del col[t]
        for c, piv in enumerate(cols):
            t = min(piv, default=None)
            if t is None or term_mono(t) != one:
                continue
            r = term_pos(t)
            uinv = ring.inv(piv[t])
            dead[i].add(r)
            dead[i + 1].add(c)
            for j, col in enumerate(cols):
                if j in dead[i + 1]:
                    continue
                for tk, a in [(tk, a) for tk, a in col.items() if term_pos(tk) == r]:
                    axpy(col, -a * uinv, piv, (term_mono(tk) - C0) << POS_BITS, p)
    return maps, dead


def _keep_summands(
    terms: list[FreeModule], maps: list[list[dict[int, int]]], keep: list[list[int]]
) -> FreeComplex:
    """The complex on the generators ``keep[i]`` of each term F_i, renumbered
    in order, without its trailing zero terms.  Every kept column must map
    into the kept summands."""
    ring = terms[0].ring
    new_terms = [FreeModule(ring, [t.gen_degrees[j] for j in js]) for t, js in zip(terms, keep)]
    new_maps: list[list[ModuleElement]] = []
    for i, cols in enumerate(maps):
        dst_index = {old: new for new, old in enumerate(keep[i])}
        out_cols = []
        for j in keep[i + 1]:
            terms_ = {}
            for t, c in cols[j].items():
                pos = dst_index.get(term_pos(t))
                if pos is None:
                    raise ValueError(
                        "kept columns map outside the kept summands; "
                        "input complex is not a free resolution in the expected range"
                    )
                terms_[term_key(term_mono(t), pos)] = c
            out_cols.append(ModuleElement(new_terms[i], terms_))
        new_maps.append(out_cols)
    while len(new_terms) > 1 and new_terms[-1].rank == 0:
        new_terms.pop()
        new_maps.pop()
    return FreeComplex(new_terms, new_maps, validate=False)


# ---------------------------------------------------------------------------
# virtuality


def is_virtual(
    F: FreeComplex, target: Submodule | QuotientModule
) -> tuple[bool, dict]:
    """Check that F is a virtual resolution of the (B-saturated) target W.

    The target is a QuotientModule, or a submodule W read as F/W.  When
    its free module is not F_0 it is read through the minimal presentation
    that the builders start from, so ``is_virtual(free_resolution(M), M)``
    holds for every M.  A zero F_0 is read as the identity on that module,
    so it is virtual only for a B-torsion target; any other F_0 that
    matches the target neither way is refused with ValueError.

    Conditions: coker d_1 agrees with the target up to B-saturation, that is
    im d_1 ⊆ (W : B^∞) and W ⊆ (im d_1 : B^∞), and every higher homology
    module ker d_i / im d_{i+1} is B-torsion, that is ker d_i ⊆
    (im d_{i+1} : B^∞).  Each containment A ⊆ (C : B^∞) is first tried by
    a certificate: an exponent vector e with B^[e] A ⊆ C, found by
    membership tests in C, searching |e| <= 6 for each generator of A.
    Only when no certificate is found is C B-saturated.  So "virtual" is
    proved by certificates or saturations, and "not virtual" always comes
    from a saturation.

    The report holds the verdicts "h0" (a bool) and "torsion" ({i: bool}),
    and how each condition was decided: "h0_paths" maps "image" (im d_1 in
    the saturated target) and "target" (the target in the saturated image)
    to {"path": "certificate" or "saturation", "e": e or None}, and
    "torsion_paths" maps each i to the same.  Checking stops at the first
    failed condition.
    """
    W = target if isinstance(target, Submodule) else target.relations
    F0 = F.terms[0]
    if W.module != F0:
        free, gens = _presentation(W.module, W.gens)
        if free != F0 and F0.rank:
            raise ValueError(
                f"F_0 of rank {F0.rank} is neither the target's free module, of rank "
                f"{W.module.rank}, nor its minimal presentation's, of rank {free.rank}"
            )
        W = Submodule(free, gens)
    report: dict = {"h0": None, "torsion": {}, "h0_paths": {}, "torsion_paths": {}}
    if F0.rank:
        im1 = Submodule(F0, list(F.maps[0]) if F.maps else [])
    else:  # H_0 = 0
        im1 = Submodule(W.module, [W.module.basis_element(j) for j in range(W.module.rank)])
    for name, A, C in (("image", im1, W), ("target", W, im1)):
        ok, report["h0_paths"][name] = _in_b_saturation(A, C)
        if not ok:
            report["h0"] = False
            return False, report
    report["h0"] = True
    for i in range(1, F.length + 1):
        Hi = F.homology(i)
        ok, report["torsion_paths"][i] = _in_b_saturation(Hi.upper, Hi.lower)
        report["torsion"][i] = ok
        if not ok:
            return False, report
    return True, report


def winnow(F: FreeComplex, d: Sequence[int]) -> FreeComplex:
    """Subcomplex on the summands with generator degree <= d + n componentwise."""
    ring = F.ring
    if not ring.is_product:
        raise NotImplementedError("winnowing requires a product of projective spaces")
    bound = vadd(tuple(d), ring.dimension_vector)
    keep = [[j for j, a in enumerate(t.gen_degrees) if vleq(a, bound)] for t in F.terms]
    return _keep_summands(F.terms, [[col.terms for col in cols] for cols in F.maps], keep)


class NotVirtualError(ValueError):
    """A checked pair complex that is not a virtual resolution; ``report``
    is is_virtual's report on it."""

    def __init__(self, degree: Multidegree, report: dict):
        super().__init__(
            f"result is not a virtual resolution ({report}); "
            f"{degree} is likely not in the multigraded regularity of the module"
        )
        self.report = report


def virtual_of_pair(
    M: QuotientModule | Submodule,
    d: Sequence[int],
    check: bool = False,
) -> FreeComplex:
    """Virtual resolution of the pair (M, d): iterated bounded syzygies.

    It starts, as ``free_resolution`` does, from M's minimal presentation
    (``_presentation``).  At every level only the kernel generators of
    degree at most d + n (componentwise) enter that level's one tracked
    Buchberger run, which keeps a minimal subset of them as the
    differential (see ``_iterated_syzygies``; the maps are minimal, not
    canonical).  So on every presentation the result is Betti-table-equal
    to winnowing the minimal free resolution.  With ``check`` the result is
    verified with is_virtual (expensive for large inputs), and one that is
    not virtual raises NotVirtualError, carrying is_virtual's report.
    """
    if isinstance(M, Submodule):
        M = QuotientModule.cyclic(M)
    ring = M.ring
    if not ring.is_product:
        raise NotImplementedError("virtual resolutions of a pair require a product ring")
    d = tuple(d)
    bound = vadd(d, ring.dimension_vector)
    F, cols = _presentation(M.free, M.relations.gens)
    terms = [F]
    maps = _iterated_syzygies(terms, cols, ring.nvars + 2, bound)
    if maps is None:
        raise RuntimeError(
            "virtual resolution of the pair did not terminate; "
            f"{d} is likely not in the multigraded regularity of the module"
        )
    out = FreeComplex(terms, maps, validate=False)
    if check:
        ok, report = is_virtual(out, M)
        if not ok:
            raise NotVirtualError(d, report)
    return out


# ---------------------------------------------------------------------------
# building blocks


def koszul_pair_complex(f: Polynomial, g: Polynomial) -> FreeComplex:
    """The Koszul complex S <- S(-a) + S(-b) <- S(-a-b) of two forms."""
    ring = f.ring
    a = f.multidegree()
    b = g.multidegree()
    F0 = FreeModule(ring, [(0,) * ring.rank_grading])
    F1 = FreeModule(ring, [a, b])
    F2 = FreeModule(ring, [vadd(a, b)])
    d1 = [F0.wrap(f), F0.wrap(g)]
    d2 = [F1.element_from_coords([-g, f])]
    return FreeComplex([F0, F1, F2], [d1, d2])


def tensor_complex(C: FreeComplex, D: FreeComplex) -> FreeComplex:
    """Tensor product complex (C ⊗ D) with the usual sign convention."""
    ring = C.ring
    p = ring.char
    # index the generators of (C⊗D)_k by pairs (i, a, j, b)
    layout: list[list[tuple[int, int, int, int]]] = []
    gen_index: dict[tuple[int, int, int, int], int] = {}
    new_terms: list[FreeModule] = []
    top = C.length + D.length
    for k in range(top + 1):
        gens = []
        degs = []
        for i in range(0, k + 1):
            j = k - i
            if i > C.length or j > D.length:
                continue
            for a in range(C.terms[i].rank):
                for b in range(D.terms[j].rank):
                    gen_index[(i, a, j, b)] = len(gens)
                    gens.append((i, a, j, b))
                    degs.append(vadd(C.terms[i].gen_degrees[a], D.terms[j].gen_degrees[b]))
        layout.append(gens)
        new_terms.append(FreeModule(ring, degs))
    new_maps: list[list[ModuleElement]] = []
    for k in range(1, top + 1):
        cols = []
        dst = new_terms[k - 1]
        for (i, a, j, b) in layout[k]:
            terms_: dict[int, int] = {}
            if i >= 1:
                col = C.maps[i - 1][a]  # element of C_{i-1}
                for t, c in col.terms.items():
                    pos = gen_index[(i - 1, term_pos(t), j, b)]
                    tk = term_key(term_mono(t), pos)
                    terms_[tk] = (terms_.get(tk, 0) + c) % p
            if j >= 1:
                sign = 1 if i % 2 == 0 else p - 1
                col = D.maps[j - 1][b]
                for t, c in col.terms.items():
                    pos = gen_index[(i, a, j - 1, term_pos(t))]
                    tk = term_key(term_mono(t), pos)
                    terms_[tk] = (terms_.get(tk, 0) + sign * c) % p
            terms_ = {t: c for t, c in terms_.items() if c}
            cols.append(ModuleElement(dst, terms_))
        new_maps.append(cols)
    return FreeComplex(new_terms, new_maps, validate=False)
