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
    ModuleElement,
    minimal_generators,
    syzygy_module,
    term_key,
    term_mono,
    term_pos,
)
from .ideals import (
    QuotientModule,
    Submodule,
    Subquotient,
    b_saturate,
    is_b_torsion,
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

    def apply(self, i: int, elt: ModuleElement) -> ModuleElement:
        """Apply d_i to an element of F_i."""
        cols = self.maps[i - 1]
        out = self.terms[i - 1].zero()
        for t, c in sorted(elt.terms.items()):
            out = out + cols[term_pos(t)].mono_mul(term_mono(t), c)
        return out

    def is_complex(self) -> bool:
        for i in range(2, self.length + 1):
            src = self.terms[i]
            for j in range(src.rank):
                if self.apply(i - 1, self.maps[i - 1][j]).terms:
                    return False
        return True

    def matrix_entries(self, i: int) -> list[list[Polynomial]]:
        """d_i as a rank(F_{i-1}) x rank(F_i) matrix of polynomials."""
        rows = self.terms[i - 1].rank
        return [
            [col.coordinate(r) for col in self.maps[i - 1]]
            for r in range(rows)
        ]

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
    """Differentials from iterated syzygies, starting with ``cols`` in terms[-1].

    Each step appends the source module to ``terms``.  With ``bound`` only
    the syzygies of degree <= bound (componentwise) are kept.  Returns None
    when syzygies remain after ``cap`` differentials.
    """
    ring = terms[0].ring
    maps: list[list[ModuleElement]] = []
    while cols and len(maps) < cap:
        G = FreeModule(ring, [c.multidegree() for c in cols])
        maps.append(cols)
        terms.append(G)
        cols = [
            ModuleElement(G, s.terms)
            for s in syzygy_module(cols)
            if bound is None or vleq(s.multidegree(), bound)
        ]
    return None if cols else maps


def free_resolution(
    M: QuotientModule | Submodule, length_cap: int | None = None
) -> FreeComplex:
    """Minimal free resolution (iterated minimal syzygies).

    For a QuotientModule F/W the resolution starts at F; a Submodule input
    is resolved as the module it generates (F_0 built on its minimal
    generators).
    """
    if isinstance(M, Submodule):
        gens = minimal_generators(M.gens, module=M.module)
        if not gens:
            amb = FreeModule(M.ring, [])
            return FreeComplex([amb], [])
        F0 = FreeModule(M.ring, [g.multidegree() for g in gens])
        terms = [F0]
        cols = syzygy_module(gens)
        cols = [ModuleElement(F0, s.terms) for s in cols]
    else:
        if M._resolution is not None and length_cap is None:
            return M._resolution
        terms = [M.free]
        cols = minimal_generators(M.relations.gens, module=M.free)
    ring = terms[0].ring
    cap = length_cap if length_cap is not None else ring.nvars + 1
    maps = _iterated_syzygies(terms, cols, cap)
    if maps is None:
        raise RuntimeError("resolution did not terminate within the length cap")
    out = FreeComplex(terms, maps)
    # iterated syzygies of minimal generators are minimal except when the
    # presentation itself has unit entries (e.g. a relation hitting a free
    # generator); trim those
    zero_deg = (0,) * ring.rank_grading
    if maps and any(
        ring.mono_degree(term_mono(t)) == zero_deg
        for col in maps[0]
        for t in col.terms
    ):
        out = minimalize(out)
    if isinstance(M, QuotientModule) and length_cap is None:
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
    """Check that F is a virtual resolution of the (B-saturated) target.

    Conditions: coker d_1 agrees with the target up to B-saturation, and
    every higher homology module is B-torsion.
    """
    if isinstance(target, Submodule):
        W = target
    else:
        W = target.relations
        if target.free != F.terms[0]:
            return False, {"reason": "ambient free module mismatch"}
    if W.module != F.terms[0]:
        return False, {"reason": "ambient free module mismatch"}
    report: dict = {"h0": None, "torsion": {}}
    im1 = Submodule(F.terms[0], list(F.maps[0])) if F.maps else Submodule(F.terms[0], [])
    satW = b_saturate(W)
    sat_im = b_saturate(im1)
    ok0 = sat_im == satW
    report["h0"] = ok0
    if not ok0:
        return False, report
    for i in range(1, F.length + 1):
        Hi = F.homology(i)
        ok = is_b_torsion(Hi)
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

    At every step only the minimal kernel generators of degree at most
    d + n (componentwise) are kept; the result is Betti-table-equal to
    winnowing the minimal free resolution.  With ``check`` the result is
    verified with is_virtual (expensive for large inputs).
    """
    if isinstance(M, Submodule):
        M = QuotientModule.cyclic(M)
    ring = M.ring
    if not ring.is_product:
        raise NotImplementedError("virtual resolutions of a pair require a product ring")
    d = tuple(d)
    bound = vadd(d, ring.dimension_vector)
    terms = [M.free]
    rel = minimal_generators(M.relations.gens, module=M.free)
    cols = [g for g in rel if vleq(g.multidegree(), bound)]
    maps = _iterated_syzygies(terms, cols, ring.nvars + 2, bound)
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
