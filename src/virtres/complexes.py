"""Free complexes, minimal free resolutions, Betti tables and virtuality.

A ``FreeComplex`` stores the terms ``F_0, ..., F_p`` and, for each
``i >= 1``, the differential ``d_i : F_i -> F_{i-1}`` as a list of columns
(elements of ``F_{i-1}``, one per generator of ``F_i``).
"""

from __future__ import annotations

import json
from typing import Sequence

from .groebner import (
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
from .ring import Multidegree, Polynomial, RingSpec, vadd, vleq


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

    def differential(self, i: int) -> list[ModuleElement]:
        """Columns of d_i : F_i -> F_{i-1} (i between 1 and length)."""
        return self.maps[i - 1]

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


def free_resolution(M: QuotientModule | Submodule) -> FreeComplex:
    """Minimal free resolution, one tracked Buchberger run per differential
    (see ``_iterated_syzygies``; the maps are minimal, not canonical).

    For a QuotientModule F/W the resolution starts at F; a Submodule input
    is resolved as the module it generates: the same loop run from its
    ambient module, with that first term cut off, so that F_0 is built on
    its minimal generators.
    """
    if isinstance(M, Submodule):
        terms, cols = [M.module], M.gens
    elif M._resolution is not None:
        return M._resolution
    else:
        terms, cols = [M.free], M.relations.gens
    ring = terms[0].ring
    cut = isinstance(M, Submodule)
    maps = _iterated_syzygies(terms, cols, ring.nvars + 1 + cut)
    if maps is None:
        raise RuntimeError("resolution did not terminate within the length cap")
    if cut:
        terms, maps = terms[1:] or [FreeModule(ring, [])], maps[1:]
    out = FreeComplex(terms, maps)
    # iterated syzygies of minimal generators are minimal except when the
    # presentation itself has unit entries (e.g. a relation hitting a free
    # generator); trim those.  The grading is positive, so a unit entry is a
    # term on the constant monomial.
    one = ring.codec.one
    if maps and any(term_mono(t) == one for col in maps[0] for t in col.terms):
        out = minimalize(out)
    if not cut:
        M._resolution = out
    return out


def minimalize(F: FreeComplex) -> FreeComplex:
    """Cancel unit (constant) entries of the differentials."""
    terms = [FreeModule(t.ring, t.gen_degrees) for t in F.terms]
    maps = [[col.copy() for col in cols] for cols in F.maps]
    ring = F.ring
    one_key = ring.codec.one

    def drop_coordinate(cols: list[ModuleElement], module: FreeModule, r: int):
        new_mod = FreeModule(ring, [d for j, d in enumerate(module.gen_degrees) if j != r])
        out = []
        for col in cols:
            terms_ = {}
            for t, c in col.terms.items():
                pos = term_pos(t)
                if pos == r:
                    continue
                terms_[term_key(term_mono(t), pos - (pos > r))] = c
            out.append(ModuleElement(new_mod, terms_))
        return new_mod, out

    changed = True
    while changed:
        changed = False
        for i in range(len(maps)):
            cols = maps[i]
            # find a constant (degree-zero monomial) entry
            pivot = None
            for cidx, col in enumerate(cols):
                for t, c in col.terms.items():
                    if term_mono(t) == one_key:
                        pivot = (cidx, term_pos(t), c)
                        break
                if pivot:
                    break
            if not pivot:
                continue
            cidx, r, u = pivot
            uinv = ring.inv(u)
            pivot_col = cols[cidx]
            # column operations: clear row r from the other columns entirely
            new_cols = []
            for j, col in enumerate(cols):
                if j == cidx:
                    continue
                q = col.coordinate(r)
                if q.terms:
                    col = col - pivot_col.poly_mul(q.scale(uinv))
                new_cols.append(col)
            # deleting generator r of F_i and generator cidx of F_{i+1}
            # splits off the trivial summand spanned by the pivot
            src_mod, new_cols = drop_coordinate(new_cols, terms[i], r)
            terms[i] = src_mod
            maps[i] = new_cols
            # delete coordinate cidx from the next differential's columns
            nxt = maps[i + 1] if i + 1 < len(maps) else []
            terms[i + 1], nxt = drop_coordinate(nxt, terms[i + 1], cidx)
            if i + 1 < len(maps):
                maps[i + 1] = nxt
            # delete column r from the previous differential
            if i >= 1:
                maps[i - 1] = [c for j, c in enumerate(maps[i - 1]) if j != r]
                maps[i - 1] = [ModuleElement(terms[i - 1], c.terms) for c in maps[i - 1]]
            changed = True
            break
    # drop trailing zero terms
    while len(terms) > 1 and terms[-1].rank == 0:
        terms.pop()
        maps.pop()
    return FreeComplex(terms, maps, validate=False)


# ---------------------------------------------------------------------------
# virtuality


def is_virtual(
    F: FreeComplex, target: Submodule | QuotientModule
) -> tuple[bool, dict]:
    """Check that F is a virtual resolution of the (B-saturated) target W.

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
    if isinstance(target, Submodule):
        W = target
    else:
        W = target.relations
        if target.free != F.terms[0]:
            return False, {"reason": "ambient free module mismatch"}
    if W.module != F.terms[0]:
        return False, {"reason": "ambient free module mismatch"}
    report: dict = {"h0": None, "torsion": {}, "h0_paths": {}, "torsion_paths": {}}
    im1 = Submodule(F.terms[0], list(F.maps[0])) if F.maps else Submodule(F.terms[0], [])
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
    d = tuple(d)
    bound = vadd(d, ring.dimension_vector)
    keep: list[list[int]] = []
    new_terms: list[FreeModule] = []
    for term in F.terms:
        idx = [j for j, a in enumerate(term.gen_degrees) if vleq(a, bound)]
        keep.append(idx)
        new_terms.append(FreeModule(ring, [term.gen_degrees[j] for j in idx]))
    new_maps: list[list[ModuleElement]] = []
    for i, cols in enumerate(F.maps):
        src_keep = keep[i + 1]
        dst_keep = keep[i]
        dst_index = {old: new for new, old in enumerate(dst_keep)}
        out_cols = []
        for j in src_keep:
            col = cols[j]
            terms_ = {}
            for t, c in col.terms.items():
                pos = term_pos(t)
                if pos not in dst_index:
                    raise ValueError(
                        "winnowed columns map outside the kept summands; "
                        "input complex is not a free resolution in the expected range"
                    )
                terms_[term_key(term_mono(t), dst_index[pos])] = c
            out_cols.append(ModuleElement(new_terms[i], terms_))
        new_maps.append(out_cols)
    out = FreeComplex(new_terms, new_maps, validate=False)
    # drop trailing zero terms
    while out.length >= 1 and out.terms[-1].rank == 0:
        out.terms.pop()
        out.maps.pop()
    return out


def virtual_of_pair(
    M: QuotientModule | Submodule,
    d: Sequence[int],
    check: bool = False,
) -> FreeComplex:
    """Virtual resolution of the pair (M, d): iterated bounded syzygies.

    At every level only the kernel generators of degree at most d + n
    (componentwise) enter that level's one tracked Buchberger run, which
    keeps a minimal subset of them as the differential (see
    ``_iterated_syzygies``; the maps are minimal, not canonical).  The
    result is Betti-table-equal to winnowing the minimal free resolution.
    With ``check`` the result is verified with is_virtual (expensive for
    large inputs).
    """
    if isinstance(M, Submodule):
        M = QuotientModule.cyclic(M)
    ring = M.ring
    if not ring.is_product:
        raise NotImplementedError("virtual resolutions of a pair require a product ring")
    d = tuple(d)
    bound = vadd(d, ring.dimension_vector)
    terms = [M.free]
    maps = _iterated_syzygies(terms, M.relations.gens, ring.nvars + 2, bound)
    if maps is None:
        raise RuntimeError(
            "virtual resolution of the pair did not terminate; "
            f"{d} is likely not in the multigraded regularity of the module"
        )
    out = FreeComplex(terms, maps)
    if check:
        ok, report = is_virtual(out, M)
        if not ok:
            raise RuntimeError(
                f"result is not a virtual resolution ({report}); "
                f"{d} is likely not in the multigraded regularity of the module"
            )
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
