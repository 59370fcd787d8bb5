"""Multigraded polynomial rings over finite prime fields.

A ring here is the coordinate ring of a smooth projective toric variety,
graded by the Picard group Z^r.  Two flavours are supported:

* products of projective spaces ``P^{n_1} x ... x P^{n_r}``, with variables
  ``x(i, j)`` (block ``i`` in ``1..r``, index ``j`` in ``0..n_i``) of degree
  ``e_i``; and
* custom toric rings given by an explicit list of variable multidegrees and
  an explicit list of irrelevant primes (variable index sets).

Monomials are packed into single Python ints so that integer comparison of
packed keys realises a weighted-grevlex term order, divisibility is one
masked subtraction and multiplication is one addition.  Layout, low to high:

    [comp_0 | comp_1 | ... | comp_{n-1} | wdeg]

where ``comp_j = EXP_MAX - e_j`` occupies 16 bits (complement form makes
"smaller exponent on the last variable wins ties" come out of plain int
comparison, i.e. grevlex) and ``wdeg`` is the weighted total degree.

The top bit of every field is a guard bit that a stored field never sets.
Subtracting one complement word from another with the guards set leaves a
guard standing exactly in the fields where the first is at least the
second, so divisibility, lcm (the field-wise min of the complements) and
coprimality (their field-wise max is ``C0``) are masked word operations
with no per-variable loop.  ``C0 - comp`` holds e_j in field j with no
borrow between fields, so decoding reads those fields as little-endian
16-bit words.

``Polynomial`` and ``groebner.ModuleElement`` share one sparse-element core,
``_SparseElement``: sums, differences, negation, scaling, products by a
monomial or a polynomial (each with one capacity guard), equality, hashing
and the degree checks.  All their term arithmetic is ``axpy``.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache
from math import comb, isqrt
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence, TypeVar

Multidegree = tuple[int, ...]

FIELD_BITS = 16
EXP_MAX = (1 << (FIELD_BITS - 1)) - 1  # 32767; exponents must stay below this
# the struct code that reads one field as an unsigned word; a FIELD_BITS
# that is not a whole word size has none and fails here
_FIELD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}[FIELD_BITS]
INT64_MAX = (1 << 63) - 1
# a packed key holds 16 bits per variable, so building a ring (one key per
# variable) grows quadratically in the variable count; the bundled rings
# have at most 7 variables
MAX_VARS = 1000


# ---------------------------------------------------------------------------
# multidegree helpers


def vadd(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(map(add, a, b))


def vsub(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(map(sub, a, b))


def vmax(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(map(max, a, b))


def vleq(a: Multidegree, b: Multidegree) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# packed monomial codec


class MonomialCodec:
    """Packs exponent vectors into order-respecting integer keys."""

    __slots__ = (
        "nvars", "weights", "comp_bits", "wshift", "C0", "GUARD", "CMASK", "one",
        "_nbytes", "_fields",
    )

    def __init__(self, weights: Sequence[int]):
        self.nvars = len(weights)
        self.weights = tuple(weights)
        if any(w <= 0 for w in self.weights):
            raise ValueError("order weights must be strictly positive")
        self.comp_bits = FIELD_BITS * self.nvars
        self.wshift = self.comp_bits
        c0 = 0
        guard = 0
        for j in range(self.nvars):
            c0 |= EXP_MAX << (FIELD_BITS * j)
            guard |= (1 << (FIELD_BITS - 1)) << (FIELD_BITS * j)
        self.C0 = c0
        self.GUARD = guard
        self.CMASK = (1 << self.comp_bits) - 1
        self._nbytes = self.comp_bits // 8
        # unpacks the little-endian bytes of C0 - comp into (e_0, ..., e_{n-1})
        self._fields = struct.Struct(f"<{self.nvars}{_FIELD_CODE}").unpack
        self.one = self.encode((0,) * self.nvars)

    def encode(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise ValueError("wrong number of exponents")
        comp = 0
        wdeg = 0
        for j, (e, w) in enumerate(zip(exps, self.weights)):
            if e < 0 or e > EXP_MAX:
                raise ValueError(f"exponent {e} out of range")
            comp |= (EXP_MAX - e) << (FIELD_BITS * j)
            wdeg += w * e
        return (wdeg << self.wshift) | comp

    def decode(self, key: int) -> tuple[int, ...]:
        return self._fields((self.C0 - (key & self.CMASK)).to_bytes(self._nbytes, "little"))

    def wdeg(self, key: int) -> int:
        return key >> self.wshift

    def mul(self, k1: int, k2: int) -> int:
        """Product of two monomial keys (caller guards against overflow)."""
        return k1 + k2 - self.C0

    def divides(self, kd: int, km: int) -> bool:
        """True when the monomial of kd divides that of km."""
        cd = kd & self.CMASK
        cm = km & self.CMASK
        return ((cd | self.GUARD) - cm) & self.GUARD == self.GUARD

    def quot(self, km: int, kd: int) -> int:
        """km / kd, assuming divisibility."""
        head = (km >> self.comp_bits) - (kd >> self.comp_bits)
        comp = (km & self.CMASK) + (self.C0 - (kd & self.CMASK))
        return (head << self.comp_bits) | comp

    def _ge_mask(self, c1: int, c2: int) -> int:
        """All ones in the stored bits of each field where c1 >= c2."""
        ge = ((c1 | self.GUARD) - c2) & self.GUARD
        return ge - (ge >> (FIELD_BITS - 1))

    def lcm_comp(self, c1: int, c2: int) -> int:
        """Complement word of the lcm of the monomials with complement words
        c1 and c2: the field-wise min, i.e. the larger exponent."""
        m = self._ge_mask(c1, c2)
        return (c2 & m) | (c1 & ~m)

    def lcm(self, k1: int, k2: int) -> int:
        comp = self.lcm_comp(k1 & self.CMASK, k2 & self.CMASK)
        exps = self._fields((self.C0 - comp).to_bytes(self._nbytes, "little"))
        return (sum(map(mul, self.weights, exps)) << self.wshift) | comp

    def gcd_is_one(self, k1: int, k2: int) -> bool:
        c1 = k1 & self.CMASK
        c2 = k2 & self.CMASK
        m = self._ge_mask(c1, c2)
        # field-wise max: EXP_MAX, i.e. exponent 0, in every field
        return (c1 & m) | (c2 & ~m) == self.C0


# ---------------------------------------------------------------------------
# prime fields


@lru_cache(maxsize=32)
def check_char(p: int) -> None:
    """Reject p unless it is a prime with (p - 1)^2 <= 2^63 - 1.

    Inverses come from Fermat's little theorem, which needs a prime.  The
    bound p <= 3037000493 is the supported range; it also keeps the trial
    division here cheap.
    """
    if p < 2 or (p - 1) ** 2 > INT64_MAX:
        raise ValueError(f"characteristic {p} is outside 2 <= p <= {isqrt(INT64_MAX) + 1}")
    if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"characteristic {p} is not a prime")


SparseRow = dict[int, int]


def axpy(d: SparseRow, c: int, src: SparseRow, shift: int, p: int) -> None:
    """d += c * src, src's keys moved by ``shift``, over F_p, in place.

    For each key k of src, d[k + shift] becomes (d[k + shift] + c * src[k])
    mod p, and a key whose value becomes 0 is dropped, so d never stores a
    zero.  Every sparse update of polynomials, module elements and matrix
    rows goes through here: with packed keys, multiplying by a monomial is
    the shift.
    """
    get = d.get
    for k, v in src.items():
        k += shift
        w = (get(k, 0) + c * v) % p
        if w:
            d[k] = w
        else:
            d.pop(k, None)


def echelon_mod_p(rows: Iterable[SparseRow], p: int) -> dict[int, SparseRow]:
    """Row echelon form over F_p of sparse ``{column: value}`` rows.

    Entries may be any ints; they are reduced mod p on entry.  Returns
    pivot column -> row, each row monic at its pivot and empty left of it,
    so the rank is the number of rows.  Rows are processed shortest first;
    each has its smallest column cleared by the stored pivot row there
    until it is empty or becomes a new pivot.
    """
    check_char(p)
    reduced = []
    for row in rows:
        red: SparseRow = {}
        axpy(red, 1, row, 0, p)
        if red:
            reduced.append(red)
    reduced.sort(key=len)
    pivots: dict[int, SparseRow] = {}
    for row in reduced:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            axpy(row, -row[c], prow, 0, p)
    return pivots


# ---------------------------------------------------------------------------
# ring


def _positive_weights(var_degrees: Sequence[Multidegree]) -> tuple[int, ...]:
    """Find an integer functional w with w . deg(x) > 0 for every variable."""
    r = len(var_degrees[0])
    if all(all(c >= 0 for c in d) and any(c > 0 for c in d) for d in var_degrees):
        cand = (1,) * r
        if all(sum(w * c for w, c in zip(cand, d)) > 0 for d in var_degrees):
            return cand
    for bound in range(1, 8):
        for w in itertools.product(range(1, bound + 1), repeat=r):
            if max(w) != bound:
                continue
            if all(sum(a * c for a, c in zip(w, d)) > 0 for d in var_degrees):
                return w
    raise ValueError("no positive grading functional found; grading cone not pointed")


class RingSpec:
    """A multigraded polynomial ring over F_p with its irrelevant primes."""

    __slots__ = (
        "char", "var_degrees", "var_names", "irrelevant_primes",
        "dimension_vector", "rank_grading", "nvars", "weights", "codec",
        "_inv_cache", "_mono_degrees", "_degree_columns",
    )

    def __init__(
        self,
        var_degrees: Sequence[Multidegree],
        irrelevant_primes: Sequence[Sequence[int]],
        char: int,
        var_names: Sequence[str] | None = None,
        dimension_vector: Multidegree | None = None,
    ):
        check_char(char)
        self.char = char
        self.var_degrees = tuple(tuple(d) for d in var_degrees)
        self.nvars = len(self.var_degrees)
        if not 0 < self.nvars <= MAX_VARS:
            raise ValueError(f"a ring has 1 to {MAX_VARS} variables, got {self.nvars}")
        self.rank_grading = len(self.var_degrees[0])
        if any(len(d) != self.rank_grading for d in self.var_degrees):
            raise ValueError("inconsistent multidegree lengths")
        self.irrelevant_primes = tuple(tuple(p) for p in irrelevant_primes)
        self.dimension_vector = dimension_vector
        if var_names is None:
            var_names = [f"y{j}" for j in range(self.nvars)]
        self.var_names = tuple(var_names)
        if len(self.var_names) != self.nvars:
            raise ValueError(
                f"{len(self.var_names)} variable names for {self.nvars} variables"
            )
        self.weights = _positive_weights(self.var_degrees)
        per_var = tuple(
            sum(w * c for w, c in zip(self.weights, d)) for d in self.var_degrees
        )
        self.codec = MonomialCodec(per_var)
        self._inv_cache: dict[int, int] = {}
        self._mono_degrees: dict[int, Multidegree] = {}
        # column k holds the k-th grading entry of every variable
        self._degree_columns = tuple(zip(*self.var_degrees))

    # -- constructors ------------------------------------------------------

    @classmethod
    def product(cls, dims: Sequence[int], char: int = 32003) -> "RingSpec":
        """Cox ring of P^{n_1} x ... x P^{n_r}."""
        dims = tuple(dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError("dimension vector entries must be >= 1")
        r = len(dims)
        degrees: list[Multidegree] = []
        names: list[str] = []
        primes: list[list[int]] = []
        idx = 0
        for i, n in enumerate(dims):
            block = []
            for j in range(n + 1):
                degrees.append(tuple(1 if k == i else 0 for k in range(r)))
                names.append(f"x({i + 1},{j})")
                block.append(idx)
                idx += 1
            primes.append(block)
        return cls(degrees, primes, char, names, dimension_vector=dims)

    @classmethod
    def custom(
        cls,
        var_degrees: Sequence[Multidegree],
        irrelevant_primes: Sequence[Sequence[int]],
        char: int = 32003,
        var_names: Sequence[str] | None = None,
    ) -> "RingSpec":
        return cls(var_degrees, irrelevant_primes, char, var_names)

    @property
    def is_product(self) -> bool:
        return self.dimension_vector is not None

    def total_dim(self) -> int:
        """Dimension of the toric variety (#variables - Picard rank)."""
        return self.nvars - self.rank_grading

    # -- field arithmetic ---------------------------------------------------

    def inv(self, c: int) -> int:
        c %= self.char
        v = self._inv_cache.get(c)
        if v is None:
            v = pow(c, self.char - 2, self.char)
            self._inv_cache[c] = v
        return v

    # -- monomials ----------------------------------------------------------

    def mono_degree(self, key: int) -> Multidegree:
        """The multidegree of a monomial key: its exponents dotted with each
        grading column.  The product is taken once per key and ring; later
        calls read it from the ring's memo, which grows with the distinct
        monomials seen (a few hundred on the bundled examples)."""
        deg = self._mono_degrees.get(key)
        if deg is None:
            exps = self.codec.decode(key)
            deg = tuple([sum(map(mul, col, exps)) for col in self._degree_columns])
            self._mono_degrees[key] = deg
        return deg

    def monomials_of_degree(self, degree: Multidegree) -> list[int]:
        """All monomial keys of the given multidegree (finite by positivity)."""
        if self.is_product:
            dims = self.dimension_vector
            if any(c < 0 for c in degree):
                return []
            per_block = []
            for i, n in enumerate(dims):
                per_block.append(list(_weak_compositions(degree[i], n + 1)))
            keys = []
            for combo in itertools.product(*per_block):
                exps = tuple(itertools.chain.from_iterable(combo))
                keys.append(self.codec.encode(exps))
            return keys
        out: list[int] = []
        exps = [0] * self.nvars

        def rec(j: int, rem: Multidegree, wrem: int) -> None:
            if j == self.nvars:
                if all(c == 0 for c in rem):
                    out.append(self.codec.encode(tuple(exps)))
                return
            w = sum(a * c for a, c in zip(self.weights, self.var_degrees[j]))
            e = 0
            while w * e <= wrem:
                exps[j] = e
                rec(j + 1, vsub(rem, tuple(e * x for x in self.var_degrees[j])), wrem - w * e)
                e += 1
            exps[j] = 0

        wtot = sum(a * c for a, c in zip(self.weights, degree))
        if wtot >= 0:
            rec(0, tuple(degree), wtot)
        return sorted(out)

    def hilbert_series_free(self, degree: Multidegree) -> int:
        """dim_k S_degree."""
        if self.is_product:
            if any(c < 0 for c in degree):
                return 0
            v = 1
            for n, c in zip(self.dimension_vector, degree):
                v *= comb(c + n, n)
            return v
        return len(self.monomials_of_degree(degree))

    # -- polynomials ---------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self.codec.one: 1})

    def constant(self, c: int) -> "Polynomial":
        c %= self.char
        return Polynomial(self, {self.codec.one: c} if c else {})

    def variable(self, j: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[j] = 1
        return Polynomial(self, {self.codec.encode(exps): 1})

    def x_index(self, block: int, index: int) -> int:
        """Position of the product-ring variable x(block, index), block
        counted from 1."""
        if not self.is_product:
            raise ValueError("x(i,j) addressing requires a product ring")
        if block < 1 or block > len(self.dimension_vector):
            raise ValueError("factor index out of range")
        if index < 0 or index > self.dimension_vector[block - 1]:
            raise ValueError("variable index out of range")
        return sum(n + 1 for n in self.dimension_vector[: block - 1]) + index

    def x(self, block: int, index: int) -> "Polynomial":
        """Product-ring variable x(block, index), block counted from 1."""
        return self.variable(self.x_index(block, index))

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        coeff %= self.char
        if not coeff:
            return self.zero()
        return Polynomial(self, {self.codec.encode(exps): coeff})

    def variables(self) -> list["Polynomial"]:
        return [self.variable(j) for j in range(self.nvars)]

    def var_index(self, name: str) -> int:
        return self.var_names.index(name)

    def __repr__(self) -> str:
        if self.is_product:
            dims = ",".join(str(n) for n in self.dimension_vector)
            return f"RingSpec(P({dims}), char {self.char})"
        return f"RingSpec(custom {self.nvars} vars, char {self.char})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingSpec)
            and self.char == other.char
            and self.var_degrees == other.var_degrees
            and self.irrelevant_primes == other.irrelevant_primes
        )

    def __hash__(self) -> int:
        return hash((self.char, self.var_degrees, self.irrelevant_primes))


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of the given length and sum; none for a negative sum."""
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# sparse elements: the core that polynomials and module elements share

_CAPACITY = "weighted degree exceeds packed-monomial capacity"
_E = TypeVar("_E", bound="_SparseElement")


class _SparseElement:
    """The arithmetic shared by ``Polynomial`` and ``ModuleElement``.

    ``terms`` maps packed keys to coefficients in 1..p-1.  A key is a
    monomial key shifted up by the class constant ``_bits`` (a module
    element keeps its position field below), so the monomial of key t is
    ``t >> _bits`` and multiplying by the monomial K adds
    ``(K - C0) << _bits`` to every key.  A subclass supplies ``ring``,
    ``_bits``, ``_noun`` (the word of its error messages), ``_new(terms)``
    (an element of the same ring or module), ``_space()`` (the ring or
    module that equality compares) and ``_degrees()``.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self: _E, other: _E) -> _E:
        d = dict(self.terms)
        axpy(d, 1, other.terms, 0, self.ring.char)
        return self._new(d)

    def __sub__(self: _E, other: _E) -> _E:
        d = dict(self.terms)
        axpy(d, -1, other.terms, 0, self.ring.char)
        return self._new(d)

    def __neg__(self: _E) -> _E:
        p = self.ring.char
        return self._new({k: p - c for k, c in self.terms.items()})

    def scale(self: _E, c: int) -> _E:
        p = self.ring.char
        c %= p
        if not c:
            return self._new({})
        return self._new({k: (c * v) % p for k, v in self.terms.items()})

    def mono_mul(self: _E, key: int, coeff: int = 1) -> _E:
        """Multiply by a single monomial (packed key) and a coefficient."""
        ring = self.ring
        p = ring.char
        coeff %= p
        if not coeff or not self.terms:
            return self._new({})
        codec = ring.codec
        if codec.wdeg(max(self.terms) >> self._bits) + codec.wdeg(key) > EXP_MAX:
            raise OverflowError(_CAPACITY)
        shift = (key - codec.C0) << self._bits
        return self._new({k + shift: (c * coeff) % p for k, c in self.terms.items()})

    def poly_mul(self: _E, poly: Polynomial) -> _E:
        """The product with a polynomial: one axpy of ``self`` per term of
        ``poly``."""
        ring = self.ring
        if not self.terms or not poly.terms:
            return self._new({})
        codec, bits, p = ring.codec, self._bits, ring.char
        if codec.wdeg(max(self.terms) >> bits) + codec.wdeg(max(poly.terms)) > EXP_MAX:
            raise OverflowError(_CAPACITY)
        C0 = codec.C0
        d: dict[int, int] = {}
        for k, c in poly.terms.items():
            axpy(d, c, self.terms, (k - C0) << bits, p)
        return self._new(d)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- grading -------------------------------------------------------------

    def is_homogeneous(self) -> bool:
        return len(self._degrees()) <= 1

    def multidegree(self) -> Multidegree:
        if not self.terms:
            raise ValueError(f"the zero {self._noun} has no multidegree")
        degs = self._degrees()
        if len(degs) > 1:
            w = sorted(degs)[:2]
            raise ValueError(f"inhomogeneous {self._noun}: degrees {w[0]} and {w[1]} both occur")
        return next(iter(degs))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial(_SparseElement):
    """Element of a RingSpec: dict mapping packed monomial key -> coeff."""

    __slots__ = ("ring",)
    _bits = 0
    _noun = "polynomial"

    def __init__(self, ring: RingSpec, terms: dict[int, int]):
        self.ring = ring
        self.terms = terms

    def _new(self, terms: dict[int, int]) -> "Polynomial":
        return Polynomial(self.ring, terms)

    def _space(self) -> RingSpec:
        return self.ring

    def __len__(self) -> int:
        return len(self.terms)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        # one axpy per term of the shorter factor
        if len(self.terms) < len(other.terms):
            return other.poly_mul(self)
        return self.poly_mul(other)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _degrees(self) -> set[Multidegree]:
        return set(map(self.ring.mono_degree, self.terms))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            exps = ring.codec.decode(k)
            factors = []
            for name, e in zip(ring.var_names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
