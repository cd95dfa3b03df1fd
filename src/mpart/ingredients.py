"""Building blocks consumed by the constructions.

Small pair-balanced designs (a validated catalog), resolutions into
parallel classes (found by the block-partition search of
:mod:`mpart.verify`), Hadamard matrices, orthogonal arrays, and a
brute-force existence oracle.  Every catalog design is validated
computationally on first use rather than trusted from any table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import prod
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    UNKNOWN,
    InvalidInputError,
    NotConstructibleError,
    NotInCatalogError,
)
from .model import BlockDesign, _constant_count, _index, as_multipart, complement_design

# --------------------------------------------------------------------------
# balance checking


def check_t_design(design: BlockDesign, t: int) -> int | None:
    """The constant t-subset coverage count, or None if not balanced.

    Requires uniform block sizes; a design whose blocks vary in size is
    reported as unbalanced.  The count may legitimately be 0 when the
    blocks are smaller than t.  The kernel of multi-part strength,
    :func:`mpart.model._constant_count`, counts it with the points as one
    factor and each block as its own part: Z is its own part matrix.
    """
    t = _index(t, "t")
    if t < 1:
        raise InvalidInputError(f"t must be >= 1, got {t}")
    if len(set(map(len, design._parts))) != 1:
        return None
    return _constant_count([(design.incidence, design.incidence, np.arange(design.b), t)])


# --------------------------------------------------------------------------
# catalog designs


def pair_design(v: int) -> BlockDesign:
    """All pairs of a v-set: the unique 2-(v,2,1)."""
    if v < 3:
        raise InvalidInputError(f"pair design needs v >= 3, got {v}")
    return BlockDesign(v=v, blocks=tuple(combinations(range(v), 2)))


def near_complete_design(v: int) -> BlockDesign:
    """All (v-1)-subsets of a v-set: the symmetric 2-(v,v-1,v-2)."""
    if v < 3:
        raise InvalidInputError(f"near-complete design needs v >= 3, got {v}")
    pts = set(range(v))
    return BlockDesign(v=v, blocks=tuple(tuple(sorted(pts - {x})) for x in range(v)))


def cyclic_development(v: int, base_blocks: Sequence[Sequence[int]]) -> BlockDesign:
    """Develop base blocks under x -> x+1 (mod v), deduplicating short orbits."""
    v = _index(v, "v")
    seen = set()
    out = []
    for base in base_blocks:
        for s in range(v):
            block = tuple(sorted((x + s) % v for x in base))
            if block not in seen:
                seen.add(block)
                out.append(block)
    return BlockDesign(v=v, blocks=tuple(out))


def affine_plane(q: int) -> BlockDesign:
    """Lines of the affine plane over Z_q, q prime; resolvable 2-(q^2,q,1).

    Lines come out grouped by direction: q parallel classes of slope
    0..q-1 followed by the vertical class.
    """
    q = _index(q, "q")
    if not _is_prime(q):
        raise InvalidInputError(f"affine_plane needs a prime, got {q}")
    lines = []
    for s in range(q):
        for c in range(q):
            lines.append(tuple(sorted(q * x + (s * x + c) % q for x in range(q))))
    for c in range(q):
        lines.append(tuple(q * c + y for y in range(q)))
    return BlockDesign(v=q * q, blocks=tuple(lines))


# Kirkman triple system on 15 points: resolvable 2-(15,3,1) whose 35
# blocks are listed class-major (7 parallel classes of 5 triples).
_KIRKMAN_15 = (
    ((1, 2, 3), (4, 8, 12), (5, 10, 15), (6, 11, 13), (7, 9, 14)),
    ((1, 4, 5), (2, 8, 10), (3, 13, 14), (6, 9, 15), (7, 11, 12)),
    ((1, 6, 7), (2, 9, 11), (3, 12, 15), (4, 10, 14), (5, 8, 13)),
    ((1, 8, 9), (2, 12, 14), (3, 5, 6), (4, 11, 15), (7, 10, 13)),
    ((1, 10, 11), (2, 13, 15), (3, 4, 7), (5, 9, 12), (6, 8, 14)),
    ((1, 12, 13), (2, 4, 6), (3, 9, 10), (5, 11, 14), (7, 8, 15)),
    ((1, 14, 15), (2, 5, 7), (3, 8, 11), (4, 9, 13), (6, 10, 12)),
)


def kirkman_15() -> BlockDesign:
    """Resolvable 2-(15,3,1), blocks listed class-major."""
    blocks = tuple(tuple(x - 1 for x in tri) for day in _KIRKMAN_15 for tri in day)
    return BlockDesign(v=15, blocks=blocks)


# 2-(16,6,2): developed from the difference set {0,1,2,4,8,15} in the
# elementary abelian group of order 16 (XOR on 0..15); no difference set
# with these parameters exists in Z16.
_BLOCKS_16_6_2 = tuple(tuple(sorted(x ^ d for d in (0, 1, 2, 4, 8, 15))) for x in range(16))

# 2-(25,9,3): no difference set with these parameters exists in either
# group of order 25, so the design cannot be developed; this one was
# found by backtracking constrained to pairwise block meets of 3.
_BLOCKS_25_9_3 = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 9, 10, 11, 12, 13, 14),
    (0, 1, 2, 15, 16, 17, 18, 19, 20), (0, 3, 4, 9, 10, 15, 16, 21, 22),
    (0, 3, 4, 11, 12, 17, 18, 23, 24), (0, 5, 6, 9, 10, 19, 20, 23, 24),
    (0, 5, 6, 13, 14, 17, 18, 21, 22), (0, 7, 8, 11, 12, 19, 20, 21, 22),
    (0, 7, 8, 13, 14, 15, 16, 23, 24), (1, 3, 5, 11, 13, 15, 19, 21, 23),
    (1, 3, 5, 12, 14, 16, 20, 22, 24), (1, 4, 7, 9, 13, 17, 19, 22, 24),
    (1, 4, 7, 10, 14, 18, 20, 21, 23), (1, 6, 8, 9, 11, 16, 18, 21, 24),
    (1, 6, 8, 10, 12, 15, 17, 22, 23), (2, 3, 8, 9, 13, 18, 20, 22, 23),
    (2, 3, 8, 10, 14, 17, 19, 21, 24), (2, 4, 6, 11, 14, 16, 19, 22, 23),
    (2, 4, 6, 12, 13, 15, 20, 21, 24), (2, 5, 7, 9, 12, 16, 17, 21, 23),
    (2, 5, 7, 10, 11, 15, 18, 22, 24), (3, 6, 7, 9, 11, 14, 15, 17, 20),
    (3, 6, 7, 10, 12, 13, 16, 18, 19), (4, 5, 8, 9, 12, 14, 15, 18, 19),
    (4, 5, 8, 10, 11, 13, 16, 17, 20),
)


def _quadratic_residues(p: int) -> tuple[int, ...]:
    return tuple(sorted({(i * i) % p for i in range(1, p)}))


_DIFFERENCE_FAMILIES: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {
    (7, 3, 1): ((0, 1, 3),),
    (11, 5, 2): (_quadratic_residues(11),),
    (13, 4, 1): ((0, 1, 3, 9),),
    (15, 7, 3): ((0, 1, 2, 4, 5, 8, 10),),
    (19, 9, 4): (_quadratic_residues(19),),
    (23, 11, 5): (_quadratic_residues(23),),
}


def hadamard_halves(order: int) -> BlockDesign:
    """Resolvable 2-(n, n/2, n/2-1) from a Hadamard matrix of order n.

    Each row after the first of the normalized matrix splits the columns
    into its +1 set and its -1 set; the 2(n-1) blocks come out in
    complementary pairs, so the parallel classes are consecutive pairs.
    """
    rows = _row_halves(hadamard_matrix(order).as_array())
    return BlockDesign(v=order, blocks=tuple(half for halves in rows[1:] for half in halves))


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog design: its parameters and a builder; b follows from (v, k, lam)."""

    v: int
    k: int
    lam: int
    name: str
    build: Callable[[], BlockDesign]
    b: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "b", self.lam * self.v * (self.v - 1) // (self.k * (self.k - 1)))

    @property
    def symmetric(self) -> bool:
        return self.b == self.v

    def complement(self) -> "CatalogEntry | None":
        """The complementary design (k -> v - k, lam -> lam + b - 2r), or
        None when its blocks would have fewer than two points or its pairs
        would go uncovered."""
        kc = self.v - self.k
        lamc = self.lam + self.b - 2 * (self.b * self.k // self.v)
        if kc < 2 or lamc < 1:
            return None
        return CatalogEntry(self.v, kc, lamc, f"complement of {self.name}",
                            lambda: complement_design(self.build()))


def _fixed_entries() -> tuple[CatalogEntry, ...]:
    entries = [CatalogEntry(v, k, lam, f"cyclic 2-({v},{k},{lam})",
                            lambda v=v, bases=bases: cyclic_development(v, bases))
               for (v, k, lam), bases in _DIFFERENCE_FAMILIES.items()]
    entries.append(CatalogEntry(16, 6, 2, "2-(16,6,2) from a difference set in (Z2)^4",
                                lambda: BlockDesign(16, _BLOCKS_16_6_2)))
    entries.append(CatalogEntry(25, 9, 3, "2-(25,9,3) by backtracking",
                                lambda: BlockDesign(25, _BLOCKS_25_9_3)))
    entries.append(CatalogEntry(6, 3, 2, "2-(6,3,2) by brute force", _brute_662))
    entries.append(CatalogEntry(9, 3, 1, "affine plane of order 3", lambda: affine_plane(3)))
    entries.append(CatalogEntry(15, 3, 1, "Kirkman triple system", kirkman_15))
    for order in (8, 12, 16):
        entries.append(CatalogEntry(order, order // 2, order // 2 - 1,
                                    f"halves of a Hadamard matrix of order {order}",
                                    lambda order=order: hadamard_halves(order)))
    return tuple(entries)


def _family_entry(v: int, k: int) -> CatalogEntry:
    """All pairs of a v-set (k = 2) or all its (v-1)-subsets (k = v - 1)."""
    if k == 2:
        return CatalogEntry(v, 2, 1, f"all pairs of {v}", lambda: pair_design(v))
    return CatalogEntry(v, v - 1, v - 2, f"all {v - 1}-subsets of {v}",
                        lambda: near_complete_design(v))


def _brute_662() -> BlockDesign:
    design = brute_force_bibd(6, 3, 2, 10)
    assert isinstance(design, BlockDesign)
    return design


def catalog_entries(max_blocks: int = 64,
                    include_complements: bool = True) -> tuple[CatalogEntry, ...]:
    """Every catalog design with at most ``max_blocks`` blocks.

    Parametric families (all pairs, all (v-1)-subsets) are expanded up
    to the block bound; complements are included unless they collide
    with an existing parameter triple.
    """
    max_blocks = _index(max_blocks, "max_blocks")
    entries = list(_fixed_entries())
    v = 3
    while v * (v - 1) // 2 <= max_blocks:
        entries.append(_family_entry(v, 2))
        v += 1
    entries += (_family_entry(v, v - 1) for v in range(4, max_blocks + 1))
    entries = [e for e in entries if e.b <= max_blocks]
    if include_complements:
        known = {(e.v, e.k, e.lam) for e in entries}
        for e in list(entries):
            comp = e.complement()
            if comp is None or (comp.v, comp.k, comp.lam) in known:
                continue
            known.add((comp.v, comp.k, comp.lam))
            entries.append(comp)
    return tuple(sorted(entries, key=lambda e: (e.b, e.v, e.k, e.lam)))


@lru_cache(maxsize=None)
def _catalog_index() -> dict[tuple[int, int, int], CatalogEntry]:
    """Each catalog design of at most 256 blocks by its (v, k, lam); the
    listing has one entry per key."""
    return {(e.v, e.k, e.lam): e for e in catalog_entries(max_blocks=256)}


@lru_cache(maxsize=None)
def _validated(key: tuple[int, int, int]) -> BlockDesign:
    v, k, lam = key
    if (k, lam) in ((2, 1), (v - 1, v - 2)):
        entry = _family_entry(v, k)
    else:
        entry = _catalog_index().get(key)
    if entry is None:
        raise NotInCatalogError(f"no 2-({v},{k},{lam}) in the built-in catalog")
    design = entry.build()
    got = check_t_design(design, 2)
    if got != lam or len(design.blocks[0]) != k:
        raise AssertionError(
            f"catalog entry {entry.name} failed validation: lambda={got}")
    return design


def get_bibd(v: int, k: int, lam: int) -> BlockDesign:
    """A catalog 2-(v,k,lam), validated by :func:`check_t_design`.

    Raises NotInCatalogError when the parameters are admissible but not
    covered (which is weaker than nonexistence), InvalidInputError when
    they are inadmissible.
    """
    v, k, lam = map(_index, (v, k, lam), ("v", "k", "lambda"))
    if v < 2 or not 2 <= k < v or lam < 1:
        raise InvalidInputError(f"inadmissible parameters ({v},{k},{lam})")
    if (lam * (v - 1)) % (k - 1) or (lam * v * (v - 1)) % (k * (k - 1)):
        raise InvalidInputError(f"divisibility fails for ({v},{k},{lam})")
    return _validated((v, k, lam))


# --------------------------------------------------------------------------
# resolvability


def resolvable_classes(design: BlockDesign, budget: int = DEFAULT_BUDGET):
    """Partition the blocks into parallel classes, None, or UNKNOWN.

    A parallel class covers every point exactly once: it is a class of a
    c-partition at c = r, where every point's quota is 1.  So this is
    :func:`~mpart.verify.find_partition` on the 1-part view at c = r,
    under its contract: the lexicographically least resolution when
    phase 1 decides, up to 2 x ``budget`` nodes, and UNKNOWN only when
    both phases run out.  None also when the blocks differ in size or
    the points in replication, where some point's quota would not be 1.
    """
    # Imported here, so that get_bibd does not load the search module.
    from .verify import find_partition

    budget = _index(budget, "budget")
    r = check_t_design(design, 1)
    if r is None:
        return None
    return find_partition(as_multipart(design), r, budget)


# --------------------------------------------------------------------------
# Hadamard matrices


@dataclass(frozen=True)
class HadamardMatrix:
    """A +-1 matrix with pairwise orthogonal rows."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Read as objects for the shape, then each entry through _index, so
        # that a float is refused rather than truncated to a +-1.
        H = np.asarray(self.entries, dtype=object)
        n = H.shape[0] if H.ndim == 2 else 0
        entries = [_index(x, "Hadamard entry") for x in H.flat] if H.ndim == 2 else ()
        if H.shape != (n, n) or not {-1, 1}.issuperset(entries):
            raise InvalidInputError("entries must form a square +-1 matrix")
        H = np.array(entries, dtype=np.int64).reshape(n, n)
        if not np.array_equal(H @ H.T, n * np.eye(n, dtype=np.int64)):
            raise InvalidInputError("rows are not pairwise orthogonal")
        object.__setattr__(self, "entries", tuple(tuple(int(x) for x in row) for row in H))

    @property
    def order(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=np.int64)


def _normalize_pm_matrix(H: np.ndarray) -> np.ndarray:
    """Negate columns then rows so the first row and column are all +1."""
    H = H.copy()
    H[:, H[0] == -1] *= -1
    H[H[:, 0] == -1] *= -1
    return H


def _row_halves(H: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The +1 columns and then the -1 columns of each row of H normalized."""
    return [(tuple(int(j) for j in np.flatnonzero(row == 1)),
             tuple(int(j) for j in np.flatnonzero(row == -1)))
            for row in _normalize_pm_matrix(H)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def _paley_type_1(q: int) -> np.ndarray:
    """Order q+1 from the quadratic character of Z_q, q prime, q = 3 mod 4."""
    squares = set(_quadratic_residues(q))
    chi = [0] + [1 if x in squares else -1 for x in range(1, q)]
    n = q + 1
    H = np.ones((n, n), dtype=np.int64)
    for i in range(1, n):
        H[i, 0] = -1
        for j in range(1, n):
            H[i, j] = 1 if i == j else chi[(j - i) % q]
    return H


_BUILTIN_H12 = (
    (+1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1),
    (+1, +1, +1, +1, +1, +1, -1, -1, -1, -1, -1, -1),
    (+1, -1, +1, -1, +1, -1, +1, -1, -1, +1, +1, -1),
    (+1, -1, -1, -1, +1, +1, -1, -1, +1, -1, +1, +1),
    (+1, +1, +1, -1, -1, -1, -1, +1, +1, -1, +1, -1),
    (+1, -1, -1, +1, +1, -1, +1, +1, +1, -1, -1, -1),
    (+1, -1, -1, +1, -1, +1, -1, +1, -1, +1, +1, -1),
    (+1, -1, +1, +1, -1, -1, -1, -1, +1, +1, -1, +1),
    (+1, +1, -1, -1, +1, -1, -1, +1, -1, +1, -1, +1),
    (+1, +1, -1, +1, -1, -1, +1, -1, -1, -1, +1, +1),
    (+1, +1, -1, -1, -1, +1, +1, -1, +1, +1, -1, -1),
    (+1, -1, +1, -1, -1, +1, +1, +1, -1, -1, -1, +1),
)


@lru_cache(maxsize=None, typed=True)  # typed: 8.0 is refused, not served 8's matrix
def hadamard_matrix(order: int) -> HadamardMatrix:
    """A verified Hadamard matrix of the given order.

    Construction preference: the built-in order-12 matrix, Paley type I
    when order-1 is a prime congruent to 3 mod 4 and order is not a power
    of two, then doubling of a constructible half-order, which reaches a
    power of two from order 1 as Sylvester's construction does.
    """
    order = _index(order, "order")
    if order < 1 or (order > 2 and order % 4):
        raise InvalidInputError(f"no Hadamard matrix of order {order} exists")
    if order == 1:
        return HadamardMatrix(((1,),))
    if order == 12:
        return HadamardMatrix(_BUILTIN_H12)
    q = order - 1
    if order & q and _is_prime(q) and q % 4 == 3:  # order & q is 0 for powers of two
        return HadamardMatrix(_paley_type_1(q))
    try:
        half = hadamard_matrix(order // 2).as_array()
    except (NotConstructibleError, InvalidInputError):
        raise NotConstructibleError(
            f"order {order} is outside the built-in constructions") from None
    return HadamardMatrix(np.block([[half, half], [half, -half]]))


# --------------------------------------------------------------------------
# orthogonal arrays


@dataclass(frozen=True)
class OrthogonalArray:
    """Rows over per-column alphabets, balanced on every t-subset of columns."""

    rows: tuple[tuple[int, ...], ...]
    symbols: tuple[int, ...]
    strength: int

    def __post_init__(self):
        rows = tuple(tuple(_index(x, "array entry") for x in row) for row in self.rows)
        symbols = tuple(_index(s, "alphabet size") for s in self.symbols)
        m = len(symbols)
        if not rows or any(len(row) != m for row in rows):
            raise InvalidInputError("rows must all have one entry per column")
        for row in rows:
            for x, s in zip(row, symbols):
                if not 0 <= x < s:
                    raise InvalidInputError(f"symbol {x} out of range for alphabet {s}")
        t = _index(self.strength, "strength")
        if not 1 <= t <= m:
            raise InvalidInputError(f"strength must be in 1..{m}, got {t}")
        # A t-subset of columns is balanced iff every tuple of its symbols
        # is in equally many rows: one count over the rows' tuples, each
        # read as one mixed-radix number.
        array = np.array(rows)
        for cols in combinations(range(m), t):
            sizes = [symbols[c] for c in cols]
            tuples = prod(sizes)
            if tuples > len(rows) or np.ptp(np.bincount(
                    np.ravel_multi_index(array[:, cols].T, sizes), minlength=tuples)):
                raise InvalidInputError(f"columns {cols} are not balanced")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "symbols", symbols)

    @property
    def s(self) -> int:
        return len(self.rows)

    @property
    def columns(self) -> int:
        return len(self.symbols)


def full_factorial_oa(symbols: Sequence[int]) -> OrthogonalArray:
    """All symbol combinations in lexicographic row order; strength = m."""
    symbols = tuple(_index(s, "alphabet size") for s in symbols)
    rows = tuple(product(*(range(s) for s in symbols)))
    return OrthogonalArray(rows=rows, symbols=symbols, strength=len(symbols))


def orthogonal_array(symbols: Sequence[int], strength: int) -> OrthogonalArray:
    """A verified orthogonal array from the built-in families.

    Families: full factorial (strength = column count); strength-2
    linear arrays with q^2 rows over a prime alphabet q on up to q+1
    columns; strength-2 two-symbol arrays read off a normalized Hadamard
    matrix of the least built-in order above the column count.
    """
    symbols = tuple(_index(s, "alphabet size") for s in symbols)
    strength = _index(strength, "strength")
    m = len(symbols)
    if m < 1 or any(s < 2 for s in symbols):
        raise InvalidInputError(f"need at least one column of >= 2 symbols, got {symbols}")
    if not 1 <= strength <= m:
        raise InvalidInputError(f"strength must be in 1..{m}, got {strength}")
    if strength == m:
        return full_factorial_oa(symbols)
    if strength == 2:
        q = symbols[0]
        if all(s == q for s in symbols) and _is_prime(q) and m <= q + 1:
            rows = []
            for a, bsym in product(range(q), repeat=2):
                row = [a, bsym] + [(a + i * bsym) % q for i in range(1, m - 1)]
                rows.append(tuple(row[:m]))
            return OrthogonalArray(rows=tuple(rows), symbols=symbols, strength=2)
        if all(s == 2 for s in symbols):
            # the least constructible order 4n with at least m columns after
            # the first; a power of two always is
            order = 4 * (m // 4 + 1)
            while True:
                try:
                    H = _normalize_pm_matrix(hadamard_matrix(order).as_array())
                    break
                except NotConstructibleError:
                    order += 4
            rows = tuple(tuple(0 if H[i, j] == 1 else 1 for j in range(1, m + 1))
                         for i in range(order))
            return OrthogonalArray(rows=rows, symbols=symbols, strength=2)
    raise NotConstructibleError(
        f"no built-in orthogonal array for symbols {symbols} at strength {strength}")


# --------------------------------------------------------------------------
# brute-force existence oracle


def brute_force_bibd(v: int, k: int, lam: int, b: int,
                     budget: int = DEFAULT_BUDGET):
    """First 2-(v,k,lam) in b blocks in lex order, None, or UNKNOWN.

    Backtracking over non-decreasing block sequences (repeats allowed)
    with pair-count and replication pruning.  UNKNOWN means the node
    budget ran out before the search was decided.  The search keeps its
    own stack, so any number of blocks cannot overflow Python's.
    """
    v, k, lam, b, budget = map(_index, (v, k, lam, b, budget), ("v", "k", "lambda", "b", "budget"))
    if v < 2 or not 2 <= k < v or lam < 1 or b < 1:
        raise InvalidInputError(f"inadmissible parameters ({v},{k},{lam};{b})")
    if (b * k) % v or b * k * (k - 1) != lam * v * (v - 1):
        raise InvalidInputError(f"counting relations fail for ({v},{k},{lam};{b})")
    r = b * k // v

    candidates = list(combinations(range(v), k))
    pair = Counter()
    rep = [0] * v

    def fits(block) -> bool:
        if any(rep[x] >= r for x in block):
            return False
        return all(pair[p] < lam for p in combinations(block, 2))

    def place(block, sign):
        for p in combinations(block, 2):
            pair[p] += sign
        for x in block:
            rep[x] += sign

    # The candidate index of each chosen block; the next depth starts at
    # the last one, since a block may repeat.
    chosen: list[int] = []
    i = 0
    nodes = 0
    while len(chosen) < b:
        while i < len(candidates):
            nodes += 1
            if nodes > budget:
                return UNKNOWN
            if fits(candidates[i]):
                break
            i += 1
        else:
            if not chosen:
                return None
            i = chosen.pop()
            place(candidates[i], -1)
            i += 1
            continue
        place(candidates[i], +1)
        chosen.append(i)
    return BlockDesign(v=v, blocks=tuple(candidates[i] for i in chosen))
