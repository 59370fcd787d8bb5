"""Zero-dimensional schemes: point ideals, short resolutions, Hilbert-Burch.

Seeded general-point generation with a Hilbert-function genericity gate,
B-saturated point ideals (2x2 minors on products, evaluation kernels on
custom toric rings), the intersect-with-irrelevant-power construction of
short virtual resolutions, Hilbert-Burch certificates for codimension-2
Cohen-Macaulay quotients, and Koszul-pair virtual resolutions of points on
P^1 x P^1.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from typing import Sequence

from .complexes import (
    FreeComplex,
    free_resolution,
    is_virtual,
    koszul_pair_complex,
)
from .groebner import syzygy_module
from .ideals import (
    QuotientModule,
    Submodule,
    b_saturate,
    ideal,
    intersect,
    irrelevant_power,
)
from .ring import (
    Multidegree,
    Polynomial,
    RingSpec,
    SparseRow,
    _weak_compositions,
    axpy,
    echelon_mod_p,
    vadd,
)


# ---------------------------------------------------------------------------
# point configurations


@dataclass
class PointConfig:
    """A finite list of rational points, one coordinate vector per factor.

    ``points[k]`` is a tuple of per-factor homogeneous coordinate vectors;
    custom toric rings use a single vector of Cox coordinates per point.
    """

    ring: RingSpec
    points: list[tuple[tuple[int, ...], ...]]
    seed: int | None = None

    def __post_init__(self):
        p = self.ring.char
        norm = []
        for pt in self.points:
            vecs = tuple(tuple(int(c) % p for c in v) for v in pt)
            for v in vecs:
                if not any(v):
                    raise ValueError("all-zero coordinate vector in a factor")
            norm.append(vecs)
        self.points = norm
        seen = set()
        for pt in self.points:
            key = tuple(_proj_normalize(v, p) for v in pt)
            if key in seen:
                raise ValueError("duplicate points in configuration")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.points)


def _proj_normalize(v: tuple[int, ...], p: int) -> tuple[int, ...]:
    for c in v:
        if c:
            inv = pow(c, p - 2, p)
            return tuple(x * inv % p for x in v)
    raise ValueError("all-zero coordinate vector")


def random_points(
    ring: RingSpec, count: int, seed: int | None = None
) -> PointConfig:
    """Uniform random points over F_p, pairwise distinct, seeded."""
    rng = random.Random(seed)
    p = ring.char
    if ring.is_product:
        shapes = [n + 1 for n in ring.dimension_vector]
    else:
        shapes = [ring.nvars]
    points: list[tuple[tuple[int, ...], ...]] = []
    seen: set = set()
    guard = 0
    while len(points) < count:
        guard += 1
        if guard > 100 * count + 100:
            raise RuntimeError("could not sample enough distinct points")
        pt = []
        for sz in shapes:
            v = tuple(rng.randrange(p) for _ in range(sz))
            while not any(v):
                v = tuple(rng.randrange(p) for _ in range(sz))
            pt.append(v)
        key = tuple(_proj_normalize(v, p) for v in pt)
        if key in seen:
            continue
        seen.add(key)
        points.append(tuple(pt))
    return PointConfig(ring, points, seed)


# ---------------------------------------------------------------------------
# point ideals


def _flat_coords(ring: RingSpec, pt: Sequence[Sequence[int]]) -> tuple[int, ...]:
    flat: list[int] = []
    for v in pt:
        flat.extend(int(c) % ring.char for c in v)
    if len(flat) != ring.nvars:
        raise ValueError("coordinate count does not match the ring")
    return tuple(flat)


def _eval_monomial(ring: RingSpec, key: int, flat: tuple[int, ...]) -> int:
    p = ring.char
    val = 1
    for c, e in zip(flat, ring.codec.decode(key)):
        if e:
            val = val * pow(c, e, p) % p
            if val == 0:
                return 0
    return val


def _nullspace_mod_p(rows: list[SparseRow], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right nullspace over F_p of the matrix with the given
    sparse rows and ``ncols`` columns."""
    ech = echelon_mod_p(rows, p)
    # back-substitute, last pivot first, to the reduced echelon form
    pivots = sorted(ech)
    for i in range(len(pivots) - 1, -1, -1):
        row = ech[pivots[i]]
        for pc in pivots[i + 1:]:
            if pc in row:
                axpy(row, -row[pc], ech[pc], 0, p)
    basis = []
    for fc in range(ncols):
        if fc in ech:
            continue
        v = [0] * ncols
        v[fc] = 1
        for pc in pivots:
            v[pc] = -ech[pc].get(fc, 0) % p
        basis.append(v)
    return basis


def _vanishing_forms(
    ring: RingSpec, keys: Sequence[int], flats: list[tuple[int, ...]]
) -> list[Polynomial]:
    """A basis of the forms supported on the monomials ``keys`` that vanish
    at the points with flat coordinates ``flats``."""
    keys = sorted(keys, reverse=True)
    rows = [{i: _eval_monomial(ring, k, fl) for i, k in enumerate(keys)} for fl in flats]
    return [
        Polynomial(ring, {k: c for k, c in zip(keys, v) if c})
        for v in _nullspace_mod_p(rows, len(keys), ring.char)
    ]


def point_ideal(ring: RingSpec, coords) -> Submodule:
    """B-saturated ideal of a single point.

    On a product of projective spaces: per factor, the 2x2 minors of the
    matrix with rows (variables, coordinates).  On a custom toric ring:
    evaluation kernels over a monomial degree box, then B-saturation.
    """
    if ring.is_product:
        pt = tuple(tuple(int(c) % ring.char for c in v) for v in coords)
        if len(pt) != len(ring.dimension_vector):
            raise ValueError("expected one coordinate vector per factor")
        gens: list[Polynomial] = []
        for i, v in enumerate(pt):
            if not any(v):
                raise ValueError("all-zero coordinate vector in a factor")
            ni = ring.dimension_vector[i]
            if len(v) != ni + 1:
                raise ValueError("coordinate vector length mismatch")
            xs = [ring.x(i + 1, j) for j in range(ni + 1)]
            for j in range(ni + 1):
                for k in range(j + 1, ni + 1):
                    g = v[k] * xs[j] - v[j] * xs[k]
                    if g.terms:
                        gens.append(g)
        return ideal(ring, gens).minimalized()
    flat = _flat_coords(ring, [coords] if not isinstance(coords[0], (tuple, list)) else coords)
    return _evaluation_ideal(ring, [flat])


# The largest total exponent of the monomials that ``_evaluation_ideal`` uses.
_EVAL_EXP_TOTAL = 3


def _evaluation_ideal(ring: RingSpec, flats: list[tuple[int, ...]]) -> Submodule:
    """Forms of bounded monomial support vanishing at the points, saturated."""
    by_degree: dict[Multidegree, list[int]] = {}
    for total in range(1, _EVAL_EXP_TOTAL + 1):
        for exps in _weak_compositions(total, ring.nvars):
            key = ring.codec.encode(exps)
            by_degree.setdefault(ring.mono_degree(key), []).append(key)
    gens: list[Polynomial] = []
    for keys in by_degree.values():
        gens += _vanishing_forms(ring, keys, flats)
    J = ideal(ring, gens).minimalized()
    return b_saturate(J)


def points_ideal(config: PointConfig, resample: bool = True) -> Submodule:
    """B-saturated ideal of the configuration, with a genericity gate.

    Intersects the per-point saturated ideals.  On product rings the Hilbert
    function is compared against min(HF(S, d), m) on a probe window; a
    mismatch warns "non-generic sample" (and, for seeded configurations,
    resamples up to 5 times first).
    """
    ring = config.ring
    attempts = 5 if (resample and config.seed is not None) else 1
    last = None
    for attempt in range(attempts):
        cfg = config
        if attempt:
            cfg = random_points(ring, len(config), config.seed + attempt)
        I = _points_ideal_raw(cfg)
        last = I
        if not ring.is_product or _generic_hilbert_gate(I, len(cfg)):
            return I
    warnings.warn("non-generic sample: Hilbert-function gate failed")
    return last


def _points_ideal_raw(config: PointConfig) -> Submodule:
    ring = config.ring
    I = None
    for pt in config.points:
        P = point_ideal(ring, pt)
        I = P if I is None else intersect(I, P)
    # each point ideal is B-saturated, and saturation commutes with
    # intersection, so I is B-saturated already
    return I


def _generic_hilbert_gate(I: Submodule, m: int) -> bool:
    """HF(S/I, d) == min(HF(S, d), m) on the window where HF(S, d) <= m + 4."""
    ring = I.ring
    M = QuotientModule.cyclic(I)
    for d in itertools.product(range(m + 4), repeat=ring.rank_grading):
        full = ring.hilbert_series_free(d)
        if full > m + 4:
            continue
        if M.hilbert_function(d) != min(full, m):
            return False
    return True


# ---------------------------------------------------------------------------
# short resolutions via intersection with powers of the irrelevant ideal


def intersect_with_irrelevant_power(I: Submodule, a: Sequence[int]) -> Submodule:
    """I intersected with the product B^a = prod_i P_i^{a_i}.

    The product equals the intersection of the P_i^{a_i} when the primes are
    pairwise disjoint, as on products of projective spaces and on F_3.
    """
    a = tuple(int(c) for c in a)
    if any(c < 0 for c in a):
        raise ValueError("exponent vector must be nonnegative")
    if not any(a):
        return I
    return intersect(I, irrelevant_power(I.ring, a))


def search_short_resolution_exponent(
    I: Submodule, bound: int = 6
) -> tuple[tuple[int, ...], FreeComplex]:
    """Smallest exponent a (by |a|, then lex) with a_r = 0 and entries <= bound
    such that pdim S/(I cap B^a) equals the dimension of the variety.

    Returns (a, minimal free resolution of S/(I cap B^a)).
    """
    ring = I.ring
    r = len(ring.irrelevant_primes)
    target = ring.total_dim()
    best: tuple[int, tuple[int, ...]] | None = None
    candidates = sorted(
        itertools.product(range(bound + 1), repeat=r - 1),
        key=lambda a: (sum(a), a),
    )
    for head in candidates:
        a = head + (0,)
        J = intersect_with_irrelevant_power(I, a)
        F = free_resolution(QuotientModule.cyclic(J))
        if F.length == target:
            return a, F
        if best is None or abs(F.length - target) < abs(best[0] - target):
            best = (F.length, a)
    raise RuntimeError(
        f"no exponent with entries <= {bound} reached projective dimension "
        f"{target}; best seen was pdim {best[0]} at a = {best[1]}"
    )


# ---------------------------------------------------------------------------
# Hilbert-Burch certificates


@dataclass
class HilbertBurchCertificate:
    """An (m+1) x m matrix whose maximal minors generate the given ideal."""

    matrix: list[list[Polynomial]]
    ideal: Submodule
    minors_generate: bool
    saturation_recovers: bool | None = None


def _determinant(rows: tuple[int, ...], cols: tuple[int, ...], phi, memo) -> Polynomial:
    ring = phi[0][0].ring
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        det = phi[rows[0]][cols[0]]
    else:
        det = Polynomial(ring, {})
        sub_rows = rows[1:]
        for idx, c in enumerate(cols):
            entry = phi[rows[0]][c]
            if not entry.terms:
                continue
            sub_cols = cols[:idx] + cols[idx + 1 :]
            minor = _determinant(sub_rows, sub_cols, phi, memo)
            term = entry * minor
            det = det + term if idx % 2 == 0 else det - term
    memo[key] = det
    return det


def hilbert_burch(
    J: Submodule, saturates_to: Submodule | None = None
) -> HilbertBurchCertificate:
    """Hilbert-Burch certificate for a codimension-2 Cohen-Macaulay quotient.

    Requires the minimal free resolution of S/J to have shape
    S <- S^{m+1} <- S^m <- 0; returns the second differential and verifies
    (as a Groebner-basis ideal equality) that its maximal minors generate J.
    """
    ring = J.ring
    F = free_resolution(QuotientModule.cyclic(J))
    ranks = [len(t.gen_degrees) for t in F.terms]
    if F.length != 2 or ranks[0] != 1 or ranks[1] != ranks[2] + 1:
        raise ValueError(
            f"resolution not of Hilbert-Burch shape (ranks {tuple(ranks)})"
        )
    m = ranks[2]
    phi = [
        [F.maps[1][j].coordinate(i) for j in range(m)] for i in range(m + 1)
    ]
    memo: dict = {}
    all_rows = tuple(range(m + 1))
    minors = []
    for i in range(m + 1):
        rows = tuple(rr for rr in all_rows if rr != i)
        det = _determinant(rows, tuple(range(m)), phi, memo)
        if i % 2 == 1:
            det = -det
        if det.terms:
            minors.append(det)
    minor_ideal = ideal(ring, minors)
    ok = minor_ideal == J
    sat = None
    if saturates_to is not None:
        sat = b_saturate(J) == saturates_to
    return HilbertBurchCertificate(phi, J, ok, sat)


# ---------------------------------------------------------------------------
# Koszul pairs for points on P^1 x P^1


def koszul_pair_for_points(
    config: PointConfig,
) -> tuple[FreeComplex, bool, dict]:
    """Koszul-complex virtual resolution of m general points on P^1 x P^1.

    For m = 2k the two forms have bidegree (1, k); for m = 2k + 1 they have
    bidegrees (1, k) and (1, k+1).  The pair is verified to be a regular
    sequence and the complex is checked with is_virtual against the points
    ideal; returns (complex, is_virtual flag, report).
    """
    ring = config.ring
    if not ring.is_product or tuple(ring.dimension_vector) != (1, 1):
        raise ValueError("Koszul pairs for points require P^1 x P^1")
    m = len(config)
    k = m // 2
    flats = [_flat_coords(ring, pt) for pt in config.points]
    low = _vanishing_forms(ring, ring.monomials_of_degree((1, k)), flats)
    f = g = None
    if m % 2 == 0:
        if len(low) >= 2:
            f, g = low[0], low[1]
    elif low:
        f = low[0]
        fI = ideal(ring, [f])
        high = _vanishing_forms(ring, ring.monomials_of_degree((1, k + 1)), flats)
        g = next((c for c in high if not fI.contains(fI.module.wrap(c))), None)
    if g is None:
        raise ValueError("insufficient vanishing sections (non-generic configuration)")
    F0 = ideal(ring, []).module
    syz = syzygy_module([F0.wrap(f), F0.wrap(g)])
    if len(syz) != 1 or syz[0]._degree() != vadd(
        f.multidegree(), g.multidegree()
    ):
        raise ValueError(
            "chosen forms are not a regular sequence (non-generic configuration)"
        )
    C = koszul_pair_complex(f, g)
    I = points_ideal(config, resample=False)
    ok, report = is_virtual(C, I)
    return C, ok, report
