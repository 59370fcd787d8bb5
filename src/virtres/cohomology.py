"""Cohomology of line bundles on products of projective spaces.

Exact Künneth cohomology of O(a), Euler characteristics of twisted modules,
bounded local-cohomology and regularity checks, Delta_i twist sets with the
linear-truncation test, and Beilinson-style virtual-resolution shapes.

All module-level computations require a product ring; custom toric gradings
are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod
from operator import le
from typing import Sequence

from .complexes import FreeComplex, free_resolution
from .groebner import FreeModule, ModuleElement, syzygy_module, term_key, term_mono, term_pos
from .ideals import (
    QuotientModule,
    Submodule,
    b_saturate,
    hilbert_function,
    irrelevant_power,
)
from .ring import (
    Multidegree,
    RingSpec,
    SparseRow,
    _weak_compositions,
    echelon_mod_p,
    vadd,
    vmax,
    vsub,
)


# ---------------------------------------------------------------------------
# line bundles


def binom_poly(m: int, k: int) -> int:
    """Binomial coefficient in the polynomial convention.

    ``m (m-1) ... (m-k+1) / k!`` for any integer ``m`` and ``k >= 0``, so the
    result is a genuine polynomial in ``m`` (negative for some negative m).
    """
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= m - j
    # a product of k consecutive integers is divisible by k!
    return num // factorial(k)


def _dims(n) -> tuple[int, ...]:
    if isinstance(n, RingSpec):
        if not n.is_product:
            raise ValueError("cohomology requires a product of projective spaces")
        return tuple(n.dimension_vector)
    return tuple(int(c) for c in n)


def _as_quotient(M: QuotientModule | Submodule) -> QuotientModule:
    """M as a presented quotient, an ideal I read as S/I.

    Anything else is refused, a FreeComplex in particular: the closed-form
    row q = 0 of sheaf_cohomology_exact holds only for a resolution of M,
    so the engine resolves M itself.
    """
    if isinstance(M, QuotientModule):
        return M
    if isinstance(M, Submodule):
        # one S/I per ideal, like its Groebner basis, so that the resolution
        # memoised on S/I serves every later call on I
        if M._cyclic is None:
            M._cyclic = QuotientModule.cyclic(M)
        return M._cyclic
    raise TypeError(
        f"expected a QuotientModule or an ideal, got {type(M).__name__}"
    )


@dataclass
class CohomologyProfile:
    """Cohomology dimensions h^q of a line bundle, as a map q -> dim."""

    dims: dict[int, int] = field(default_factory=dict)

    def h(self, q: int) -> int:
        return self.dims.get(q, 0)

    def is_zero(self) -> bool:
        return not self.dims

    def euler(self) -> int:
        return sum((-1) ** q * d for q, d in self.dims.items())


def _pattern(n: tuple[int, ...], c: Multidegree) -> tuple[int, ...] | None:
    """Per-factor cohomological degrees (q_1, ..., q_r) of O(c), or None."""
    out = []
    for ni, ci in zip(n, c):
        if ci >= 0:
            out.append(0)
        elif ci <= -ni - 1:
            out.append(ni)
        else:
            return None
    return tuple(out)


def line_bundle_cohomology(n, a: Sequence[int]) -> CohomologyProfile:
    """Künneth cohomology of O(a) on the product of projective spaces P^n.

    Each factor contributes in degree 0 (a_i >= 0) or in its top degree n_i
    (a_i <= -n_i - 1); a factor with a_i strictly between kills everything.
    """
    n = _dims(n)
    a = tuple(a)
    if len(a) != len(n):
        raise ValueError("twist length must match the number of factors")
    pat = _pattern(n, a)
    if pat is None:
        return CohomologyProfile({})
    dim = prod(
        binom_poly(ai + ni, ni) if qi == 0 else binom_poly(-ai - 1, ni)
        for ni, qi, ai in zip(n, pat, a)
    )
    return CohomologyProfile({sum(pat): dim})


def euler_char_line(n, a: Sequence[int]) -> int:
    """chi(O(a)) = prod_i binom(a_i + n_i, n_i) in the polynomial convention."""
    n = _dims(n)
    a = tuple(a)
    if len(a) != len(n):
        raise ValueError("twist length must match the number of factors")
    out = 1
    for ni, ai in zip(n, a):
        out *= binom_poly(ai + ni, ni)
    return out


def _alternating_sum(F: FreeComplex, f) -> int:
    """sum_j (-1)^j sum_{a in F_j} f(a), over the generator degrees a of
    each term F_j: the additivity of an Euler characteristic over F."""
    return sum(
        (-1) ** j * f(a) for j, term in enumerate(F.terms) for a in term.gen_degrees
    )


def sheaf_euler_char(M: QuotientModule | Submodule | FreeComplex, b: Sequence[int]) -> int:
    """chi of the sheafification of M twisted by b, by additivity over a
    free resolution.  An ideal I is read as S/I; a FreeComplex is taken as
    the resolution itself."""
    F = M if isinstance(M, FreeComplex) else free_resolution(_as_quotient(M))
    n = _dims(F.ring)
    b = tuple(b)
    return _alternating_sum(F, lambda a: euler_char_line(n, vsub(b, a)))


# ---------------------------------------------------------------------------
# local cohomology via the Ext colimit: an independent oracle


_POWER_RES_CACHE: dict[tuple, FreeComplex] = {}


def _irrelevant_power_resolution(ring: RingSpec, t: int) -> FreeComplex:
    key = (tuple(ring.dimension_vector), ring.char, t)
    F = _POWER_RES_CACHE.get(key)
    if F is None:
        B = irrelevant_power(ring, (t,) * len(ring.dimension_vector))
        F = free_resolution(QuotientModule.cyclic(B))
        _POWER_RES_CACHE[key] = F
    return F


def _hom_matrix(M: QuotientModule, F: FreeComplex, k: int, b: Multidegree) -> list[SparseRow]:
    """Hom(F_k, M)_b -> Hom(F_{k+1}, M)_b (precomposition with d) as sparse
    rows: row i is the image of source basis element i (the transposed
    matrix, so the rank is the same)."""
    mul = M.ring.codec.mul
    normal_form = M.relations.gb().normal_form
    src_blocks = [M.graded_basis(vadd(b, a)) for a in F.terms[k].gen_degrees]
    dst_degs = [vadd(b, c) for c in F.terms[k + 1].gen_degrees]
    dst_index = {
        deg: {term_key(K, pos): i for i, (pos, K) in enumerate(M.graded_basis(deg))}
        for deg in set(dst_degs)
    }
    src_off = list(itertools.accumulate(map(len, src_blocks), initial=0))
    dst_off = list(itertools.accumulate((len(dst_index[d]) for d in dst_degs), initial=0))
    rows: list[SparseRow] = [{} for _ in range(src_off[-1])]
    for kk, col in enumerate(F.maps[k]):
        dst_idx = dst_index[dst_degs[kk]]
        if not dst_idx:
            continue
        off = dst_off[kk]
        # column kk of d_{k+1} has entries p_{j,kk} in coordinate j
        entries: dict[int, list[tuple[int, int]]] = {}
        for t, c in col.terms.items():
            entries.setdefault(term_pos(t), []).append((term_mono(t), c))
        for j, mono_terms in entries.items():
            for col_i, (pos, K) in enumerate(src_blocks[j]):
                # the basis monomial times the entry p_{j,kk}, in normal form
                image = {term_key(mul(K, K2), pos): c2 for K2, c2 in mono_terms}
                row = rows[src_off[j] + col_i]
                for t2, c3 in normal_form(ModuleElement(M.free, image)).terms.items():
                    row[off + dst_idx[t2]] = c3
    return rows


def _ext_dim(M: QuotientModule, i: int, b: Multidegree, t: int) -> int:
    """dim Ext^i(S/B^[t], M)_b over F_p."""
    F = _irrelevant_power_resolution(M.ring, t)
    if i > F.length:
        return 0
    dim_i = sum(
        len(M.graded_basis(vadd(b, a))) for a in F.terms[i].gen_degrees
    )
    if dim_i == 0:
        return 0
    # Hom(F_k, M)_b -> Hom(F_{k+1}, M)_b leaves and enters Hom(F_i, M)_b
    ranks = [
        len(echelon_mod_p(_hom_matrix(M, F, k, b), M.ring.char))
        for k in (i - 1, i)
        if 0 <= k < F.length
    ]
    return dim_i - sum(ranks)


def local_cohomology_dim(
    M: QuotientModule | Submodule,
    i: int,
    b: Sequence[int],
    t_max: int = 6,
) -> tuple[int, bool]:
    """dim H^i_B(M)_b via the colimit of Ext^i(S/B^[t], M)_b over t.

    Returns (dimension, stabilized).  Stabilization is declared when two
    consecutive values of t agree; if t_max is reached first the last value
    is returned with the flag false.  t_max must be at least 1.

    An independent cross-check of local_cohomology_dim_fast, which nothing
    in virtres reads: stabilization is a heuristic, and a value can repeat
    before the colimit is reached.  Nothing is memoised but the graded
    bases of M and the resolutions of S/B^[t].
    """
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    M = _as_quotient(M)
    ring = M.ring
    if not ring.is_product:
        raise ValueError("local cohomology requires a product of projective spaces")
    b = tuple(b)
    prev = None
    for t in range(1, t_max + 1):
        val = _ext_dim(M, i, b, t)
        if prev is not None and val == prev:
            return val, True
        prev = val
    return prev, False


# ---------------------------------------------------------------------------
# regularity checks


@dataclass
class RegularityReport:
    candidate: Multidegree
    window: tuple[Multidegree, Multidegree]
    checks: list  # failure witnesses (i, p, dim)
    verdict: str  # "consistent-in-window" | "refuted"

    def to_json_dict(self) -> dict:
        return {
            "candidate": list(self.candidate),
            "window": [list(self.window[0]), list(self.window[1])],
            "failures": [
                {"i": i, "p": list(p), "dim": d} for (i, p, d) in self.checks
            ],
            "verdict": self.verdict,
        }


def _box(lo: Multidegree, hi: Multidegree):
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return itertools.product(*ranges)


def _factor_exponents(ni: int, qi: int, ci: int) -> list[tuple[int, ...]]:
    """Monomial basis of H^{q_i}(P^{n_i}, O(c_i)) as exponent tuples.

    Degree 0: ordinary monomials (exponents >= 0).  Top degree n_i: Laurent
    monomials with every exponent <= -1 (the Cech local-cohomology basis).
    """
    if qi == 0:
        return list(_weak_compositions(ci, ni + 1))
    total = -ci - (ni + 1)
    return [tuple(-1 - f for f in e) for e in _weak_compositions(total, ni + 1)]


# A Čech basis exponent vector is one integer key: variable v holds e_v +
# _LAURENT_OFFSET in bits [v W, (v + 1) W) with W = _LAURENT_BITS.  A twist
# with every |c_i| < _LAURENT_OFFSET keeps each basis exponent, and each image
# under a monomial of exponents <= EXP_MAX, inside its field, so adding a
# monomial's shift never carries and two keys are equal exactly when their
# exponent vectors are.
_LAURENT_BITS = 32
_LAURENT_OFFSET = 1 << 30


def _laurent_key(exps: Sequence[int], start: int = 0, offset: int = 0) -> int:
    """Packed key of ``exps`` (each plus ``offset``) from variable ``start``
    on.  With offset 0 it is the shift that multiplies a key by the monomial
    of exponents ``exps``."""
    return sum((e + offset) << (_LAURENT_BITS * v) for v, e in enumerate(exps, start))


@lru_cache(maxsize=None)
def _cech_basis(
    n: tuple[int, ...], c: Multidegree
) -> tuple[int, tuple[int, ...], dict[int, int]] | None:
    """(q, basis, index of each basis key) for the single nonzero
    cohomology H^q(O(c)) when q > 0, or None.  The basis is a tuple of
    packed Laurent keys (see _LAURENT_BITS), so a basis element times a
    monomial is its key plus the monomial's _laurent_key.

    H^0 (c >= 0 componentwise) also gives None: sheaf_cohomology_exact counts
    the row q = 0 in closed form and never enumerates its basis.  A twist
    outside the keys' range is refused with ValueError before its basis is
    enumerated.  Memoised: the value is shared, so the basis is a tuple and
    the index is only read.
    """
    pat = _pattern(n, c)
    if pat is None or not any(pat):
        return None
    if max(map(abs, c)) >= _LAURENT_OFFSET:
        raise ValueError(
            f"twist {c} is outside the range of the Čech basis keys "
            f"(|c_i| < 2^{_LAURENT_OFFSET.bit_length() - 1})"
        )
    starts = itertools.accumulate((ni + 1 for ni in n), initial=0)
    factors = [
        [_laurent_key(e, start, _LAURENT_OFFSET) for e in _factor_exponents(ni, qi, ci)]
        for ni, qi, ci, start in zip(n, pat, c, starts)
    ]
    if any(not f for f in factors):
        return None
    basis = tuple(map(sum, itertools.product(*factors)))
    return sum(pat), basis, {e: k for k, e in enumerate(basis)}


def _strand_euler_char(M: QuotientModule, p: Multidegree) -> int:
    """HF(M, p) as sum_j (-1)^j sum_{a in F_j} dim S_{p-a}, the Euler
    characteristic of the degree-p strand of M's resolution F.

    Only the engine calls it, once per twist; sheaf_cohomology_exact keeps
    the value beside the twist's cohomology, where the i = 1 branch of
    local_cohomology_dim_fast reads it too.
    """
    F = free_resolution(M)
    dim_S = F.ring.hilbert_series_free
    return _alternating_sum(F, lambda a: dim_S(vsub(p, a)))


def sheaf_cohomology_exact(
    M: QuotientModule | Submodule, p: Sequence[int]
) -> dict[int, int]:
    """Exact dims of H^k(X, M~(p)) for a module M (an ideal I is read as S/I).

    Runs the hypercohomology spectral sequence of the twisted minimal free
    resolution F of M (memoised on M), with E1 entries H^q(O(p - a)) for the
    summands S(-a) of F_j, takes E_2 and reads off each diagonal whose
    higher differentials are forced to vanish.

    The row q = 0 is the degree-p strand of F, which is exact: E2(0,0) is
    HF(M, p), the strand's Euler characteristic, and E2(j,0) = 0 for j >= 1.
    Only the rows q > 0 are built, with explicit Laurent-monomial (Čech)
    bases of H^q(O(c)) as packed integer keys, on which the induced
    multiplication maps are integer shifts.

    When a diagonal is left undetermined, the sequence runs once more on
    the truncation M_{>=e} (see _truncation), which has the same sheaf and
    whose E1 page is the single row q = |n|: it degenerates at E_2, so every
    h^k is determined and the table returned is that one.

    A twist p - a whose Čech basis is needed and which lies outside the
    keys' range (some |p_i - a_i| >= 2^30) is refused with ValueError.  A
    FreeComplex is refused with TypeError, since the closed form needs a
    resolution.  Memoised per twist on M (see _twist_entry), like M's
    resolution and graded bases, and with no size cap: an ideal I reaches
    the one S/I kept on it, and each call returns a fresh dict.  A refused
    M or twist stores nothing.
    """
    M = _as_quotient(M)
    return dict(_twist_entry(M, tuple(p))[0])


def _twist_entry(M: QuotientModule, p: Multidegree) -> tuple[dict[int, int], int]:
    """M's memo entry for the twist p: {k: h^k(M~(p))} and the dimension of
    the image of M_p in H^0(M~(p)), HF(M / H^0_B(M), p).

    When M's own sequence determines h^0, that image is HF(M, p): a nonzero
    E2(0,0) = M_p is determined only when no entry of the diagonal -1 could
    map into it, so H^0_B(M)_p, the kernel of M_p -> H^0, is zero.  When
    the truncation supplies h^0, it is the Hilbert function of F / (W :
    B^infinity), and b_saturate returns W itself when W is saturated.
    """
    entry = M._cohomology.get(p)
    if entry is None:
        coh, image = _spectral_sequence(M, p)
        if None in coh.values():
            if coh[0] is None:
                image = hilbert_function(QuotientModule(M.free, b_saturate(M.relations)), p)
            T = _truncation(M, p)
            coh = dict.fromkeys(coh, 0) if T is None else _spectral_sequence(T, p)[0]
        entry = M._cohomology[p] = (coh, image)
    return entry


def _truncation(M: QuotientModule, p: Multidegree) -> QuotientModule | None:
    """M_{>=e} for e the componentwise max of p + (1, ..., 1) and the
    generator degrees of M's free module, or None when it is zero.

    Since e is at least every generator degree, M_{>=e} is generated by M_e
    (a monomial of degree d >= e factors through degree e), so it is
    presented on the standard monomials of M_e modulo their syzygies with
    M's relations, read off one syzygy_module call.  They need not be
    minimal: free_resolution keeps a minimal subset at its first level.
    M / M_{>=e} is B-torsion, so the sheaves agree; every summand S(-a) of
    the resolution has a >= e > p, so each O(p - a) has cohomology in
    degree |n| only.
    """
    e = tuple(c + 1 for c in p)
    for g in M.free.gen_degrees:
        e = vmax(e, g)
    basis = [ModuleElement(M.free, {term_key(K, pos): 1}) for pos, K in M.graded_basis(e)]
    if not basis:
        return None
    m = len(basis)
    G = FreeModule(M.ring, [e] * m)
    relations = [
        ModuleElement(G, {t: c for t, c in s.terms.items() if term_pos(t) < m})
        for s in syzygy_module(basis + M.relations.gens, minimalize=False)
    ]
    return QuotientModule(G, Submodule(G, relations))


def _spectral_sequence(
    M: QuotientModule, p: Multidegree
) -> tuple[dict[int, int | None], int]:
    """The engine of sheaf_cohomology_exact: ({k: h^k or None}, HF(M, p))."""
    n = _dims(M.ring)
    F = free_resolution(M)
    char = F.ring.char
    decode = F.ring.codec.decode
    nterms = len(F.terms)
    # E1 rows q > 0: [j][a] = (q, basis, index map) or None
    summand_data = [
        [_cech_basis(n, vsub(p, a)) for a in term.gen_degrees] for term in F.terms
    ]
    shifts: dict[int, int] = {}  # packed monomial key -> its Laurent shift
    hf = _strand_euler_char(M, p)
    e2: dict[tuple[int, int], int] = {(0, 0): hf} if hf else {}
    qs = sorted({d[0] for row in summand_data for d in row if d})
    for q in qs:
        dims = []
        for j in range(nterms):
            dims.append(
                sum(len(d[1]) for d in summand_data[j] if d and d[0] == q)
            )
        ranks = [0] * (nterms + 1)
        for j in range(1, nterms):
            if dims[j] == 0 or dims[j - 1] == 0:
                continue
            src = [
                (ai, d) for ai, d in enumerate(summand_data[j]) if d and d[0] == q
            ]
            dst = [
                (ai, d) for ai, d in enumerate(summand_data[j - 1]) if d and d[0] == q
            ]
            dst_off = {}
            off = 0
            for ai, d in dst:
                dst_off[ai] = off
                off += len(d[1])
            # one sparse row per source basis element: the transposed matrix
            rows = []
            cols = F.maps[j - 1]
            for ai, d in src:
                col = cols[ai]
                basis = d[1]
                block = [{} for _ in basis]
                for t, coeff in col.terms.items():
                    ti = term_pos(t)
                    ddst = summand_data[j - 1][ti]
                    if ddst is None or ddst[0] != q:
                        continue
                    mono = term_mono(t)
                    shift = shifts.get(mono)
                    if shift is None:
                        shift = shifts[mono] = _laurent_key(decode(mono))
                    off = dst_off[ti]
                    # an image leaving the Čech basis region (a top-degree
                    # exponent reaching >= 0) is zero and misses the target
                    # index; distinct monomials of one column send a basis
                    # element to distinct targets, so each entry is set once
                    get = ddst[2].get
                    for row, key in zip(block, basis):
                        tgt = get(key + shift)
                        if tgt is not None:
                            row[off + tgt] = coeff
                rows += block
            ranks[j] = len(echelon_mod_p(rows, char))
        for j in range(nterms):
            val = dims[j] - ranks[j] - ranks[j + 1]
            if val:
                e2[(j, q)] = val
    out: dict[int, int | None] = {}
    maxq = sum(n)
    for k in range(0, maxq + 1):
        total = 0
        determined = True
        for j in range(nterms):
            q = k + j
            if q > maxq:
                break
            val = e2.get((j, q), 0)
            if not val:
                continue
            # higher differentials: d_r hits (j - r, q - r + 1) and is fed
            # from (j + r, q + r - 1), r >= 2
            for r in range(2, nterms + 1):
                if e2.get((j + r, q + r - 1), 0):
                    determined = False
                if j - r >= 0 and e2.get((j - r, q - r + 1), 0):
                    determined = False
            total += val
        out[k] = total if determined else None
    return out, hf


def local_cohomology_dim_fast(
    M: QuotientModule | Submodule,
    i: int,
    p: Sequence[int],
) -> int:
    """dim H^i_B(M)_p, exactly, from the memo entry of the twist p.

    For i >= 2 the value is h^{i-1}(X, M~(p)).  For i = 1 it is h^0(M~(p))
    minus the dimension of the image of M_p in H^0(M~(p)), and for i = 0
    the kernel of that map, HF(M, p) minus the same image (see
    _twist_entry).  A negative i is refused with ValueError.  An ideal I is
    read as S/I; a FreeComplex is refused with TypeError.  Every i at one
    twist shares one memo entry on M, so the engine runs once per twist.
    """
    M = _as_quotient(M)
    p = tuple(p)
    coh, image = _twist_entry(M, p)
    if i >= 2:
        return coh.get(i - 1, 0)
    if i == 1:
        return coh[0] - image
    if i == 0:
        return hilbert_function(M, p) - image
    raise ValueError(f"local cohomology index must be at least 0, got {i}")


def regularity_check(
    M: QuotientModule | Submodule,
    d: Sequence[int],
    window: tuple[Sequence[int], Sequence[int]] | None = None,
    strict: bool = False,
) -> RegularityReport:
    """Test whether d is a regularity candidate for M, inside a window.

    By default checks H^i_B(M)_p = 0 for all i >= 1 and all p in
    (d + N^r) intersected with the window.  With ``strict`` the regions are
    enlarged to the union of (d - q + N^r) over q in N^r with |q| = i - 1,
    the shifted-region form of multigraded regularity; the strict regions
    are genuinely more demanding (for instance they probe twists below d in
    one factor), and several classical examples satisfy only the default
    condition.  Every value is exact (local_cohomology_dim_fast), so a
    nonzero witness refutes d for the chosen regions, and an empty failure
    list means "consistent-in-window": nothing is checked outside it.

    The cells (i, p) are built once per distinct region (in the default
    mode every i shares one box) and read in order of ascending twist, then
    ascending i.  Each answer comes from the per-twist memo on M, so
    further candidates and windows on one module run the engine only at
    twists not asked before.
    """
    M = _as_quotient(M)
    ring = M.ring
    if not ring.is_product:
        raise ValueError("regularity checks require a product of projective spaces")
    n = _dims(ring)
    r = len(n)
    d = tuple(d)
    if window is None:
        lo = tuple(-ni - 1 for ni in n)
        maxgen = [0] * r
        for g in M.relations.gens:
            maxgen = [max(a, b) for a, b in zip(maxgen, g.multidegree())]
        hi = tuple(
            max(di + ni + 1, mg) for di, ni, mg in zip(d, n, maxgen)
        )
    else:
        lo = tuple(int(c) for c in window[0])
        hi = tuple(int(c) for c in window[1])
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError("empty window")
    # the corner d - q of each region, with the i that share it; in the
    # default mode every i shares the one corner d
    top = sum(n) + 1
    if strict:
        corners: dict[Multidegree, list[int]] = {}
        for i in range(1, top + 1):
            for q in _weak_compositions(i - 1, r):
                corners.setdefault(vsub(d, q), []).append(i)
    else:
        corners = {d: list(range(1, top + 1))}
    boxes = []
    for corner, ii in corners.items():
        plo = tuple(map(max, corner, lo))
        if all(map(le, plo, hi)):
            boxes.append((plo, ii))
    if len(boxes) == 1:
        # one box, whose twists come out in ascending order
        ((plo, ii),) = boxes
        twists = [(p, ii) for p in _box(plo, hi)]
    else:
        needed: dict[Multidegree, set[int]] = {}
        for plo, ii in boxes:
            for p in _box(plo, hi):
                needed.setdefault(p, set()).update(ii)
        twists = [(p, sorted(needed[p])) for p in sorted(needed)]
    failures = [
        (i, p, dim)
        for p, ii in twists
        for i in ii
        if (dim := local_cohomology_dim_fast(M, i, p))
    ]
    verdict = "refuted" if failures else "consistent-in-window"
    return RegularityReport(d, (lo, hi), failures, verdict)


# ---------------------------------------------------------------------------
# Delta sets and linear truncations


def _delta_twists(n: tuple[int, ...], i: int) -> set[Multidegree]:
    """The twists -a with 1 <= a_k <= n_k + 1 and |a| = r + i - 1: a = q + 1
    for the weak compositions q of i - 1 with q_k <= n_k."""
    if i == 0:
        return {(0,) * len(n)}
    return {
        tuple(-1 - c for c in q)
        for q in _weak_compositions(i - 1, len(n))
        if all(map(le, q, n))
    }


def delta_set(ring_or_n, i: int) -> set[Multidegree]:
    """Twist set of the i-th step of the minimal free resolution of S/B."""
    n = _dims(ring_or_n)
    if i < 0 or i > sum(n):
        raise ValueError("index out of range for delta_set")
    return _delta_twists(n, i)


def check_linear_truncation(F: FreeComplex, d: Sequence[int]) -> bool:
    """True iff every generator degree c of F_i satisfies c in d + Delta_i + N^r.

    An untwisted unit summand S(0) in F_0 is exempt, so the test applies
    both to resolutions of truncated modules (F_0 generated in degree d)
    and to pair complexes starting at S itself.
    """
    ring = F.ring
    n = _dims(ring)
    d = tuple(d)
    zero = (0,) * len(d)
    for i, term in enumerate(F.terms):
        deltas = _delta_twists(n, i)
        for c in term.gen_degrees:
            if i == 0 and c == zero:
                continue
            shifted = vsub(c, d)
            if not any(
                all(s - dd >= 0 for s, dd in zip(shifted, delta))
                for delta in deltas
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# Beilinson shapes


@lru_cache(maxsize=None)
def _chi_omega(n: int, u: int, t: int) -> int:
    """chi(Omega^u(t)) on P^n via the truncated Koszul / Euler recursion."""
    if u < 0 or u > n:
        return 0
    if u == 0:
        return binom_poly(t + n, n)
    return binom_poly(n + 1, u) * binom_poly(t - u + n, n) - _chi_omega(n, u - 1, t)


@dataclass
class BeilinsonShape:
    """Ranks of the S(-d-u) blocks of the Beilinson-style virtual resolution."""

    degree: Multidegree
    blocks: dict[int, dict[Multidegree, int]]
    vanishing_verified: bool | None = None

    def totals(self) -> list[int]:
        top = max(self.blocks) if self.blocks else 0
        return [
            sum(self.blocks.get(i, {}).values()) for i in range(top + 1)
        ]

    def to_json_dict(self) -> dict:
        return {
            "degree": list(self.degree),
            "blocks": [
                {"i": i, "twist": list(c), "rank": rk}
                for i in sorted(self.blocks)
                for c, rk in sorted(self.blocks[i].items())
            ],
            "vanishing_verified": self.vanishing_verified,
        }


def beilinson_shape(
    M: QuotientModule | Submodule,
    d: Sequence[int],
    verify_vanishing: bool = False,
) -> BeilinsonShape:
    """Shape (twists and ranks) of the Beilinson-style virtual resolution.

    The block indexed by u (0 <= u <= n componentwise) sits in homological
    index |u| with generator degree d + u and rank chi(M~ tensor Omega^u(u+d)),
    computed by additivity over a free resolution of M and the per-factor
    Koszul recursion for chi(Omega^u(t)).  With ``verify_vanishing`` it
    checks H^q_B(M)_d = 0 for q >= 2 through local_cohomology_dim_fast, which
    runs the exact engine once for the twist d, and its truncation when the
    twist leaves a diagonal undetermined: the flag is exact.
    """
    M = _as_quotient(M)
    n = _dims(M.ring)
    d = tuple(d)
    F = free_resolution(M)
    blocks: dict[int, dict[Multidegree, int]] = {}
    for u in itertools.product(*[range(ni + 1) for ni in n]):
        rank = _alternating_sum(
            F,
            lambda a: prod(
                _chi_omega(ni, ui, ui + di - ai) for ni, ui, di, ai in zip(n, u, d, a)
            ),
        )
        if rank < 0:
            raise ValueError(
                f"vanishing assumption violated: block u={u} has negative "
                f"Euler characteristic {rank}; d={d} is not positive enough"
            )
        if rank:
            blocks.setdefault(sum(u), {})[vadd(d, u)] = rank
    verified = None
    if verify_vanishing:
        verified = not any(local_cohomology_dim_fast(M, q, d) for q in range(2, sum(n) + 2))
    return BeilinsonShape(d, blocks, verified)
