"""Immutable data model for multi-part block designs.

A multi-part design allocates, to each of its b blocks, one non-empty
subset of levels per factor.  The model is deliberately permissive: it
enforces structural sanity (indices in range, non-empty parts, sorted
storage, no duplicate levels) but not balance, so the verifier can
report exactly which balance conditions fail instead of refusing to
represent the object.

Levels are 0-based internally; the file formats in :mod:`mpart.files`
use 1-based labels with factor-name prefixes.  Blocks are multisets:
repeated blocks are legal and design equality is multiset equality of
blocks, while the stored order is the construction order and is
preserved through serialization.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count
from math import comb, prod
from operator import index, is_, lt
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, NonUniformIntersectionError

_DEFAULT_NAMES = ("C", "D", "B", "A")
_INT = {int}  # the one type of a stored level


def default_factor_names(m: int) -> tuple[str, ...]:
    """Default factor labels: C, D, B, A, then F5, F6, ..."""
    names = list(_DEFAULT_NAMES[:m])
    while len(names) < m:
        names.append(f"F{len(names) + 1}")
    return tuple(names)


def _part_matrix(size: int, parts: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The read-only size x len(parts) 0/1 matrix of levels against distinct
    parts; the one function that builds incidence counts: Z is read from
    it, and so are the meets of parts that :func:`_constant_count` counts."""
    try:
        P = np.zeros((size, len(parts)), dtype=np.int64)
    except ValueError:  # more rows than an array can index
        raise InvalidInputError(f"{size} levels are too many to count") from None
    P[list(chain.from_iterable(parts)), np.repeat(np.arange(len(parts)), list(map(len, parts)))] = 1
    P.flags.writeable = False
    return P


def _index(value, what: str) -> int:
    """``value`` as an int; one without ``__index__`` is refused, not truncated."""
    try:
        return index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def _normalize_part(part: Iterable[int], size: int, where: str, *args) -> tuple[int, ...]:
    """``part`` as stored: integer levels in 0..size-1, none repeated, in
    increasing order.  A tuple already in that form is returned itself.  An
    error names the part as ``where.format(*args)``, which is formatted only
    on failure."""
    # The stored form is told cheaply: an exact tuple of exact ints, in
    # strictly increasing order and in range.  Anything else, every fault
    # among it, takes the full check below.
    if (type(part) is tuple and part and _INT.issuperset(map(type, part))
            and 0 <= part[0] and part[-1] < size and all(map(lt, part, part[1:]))):
        return part
    levels = tuple(part)
    try:
        stored = tuple(sorted(map(index, levels)))
    except TypeError:
        raise InvalidInputError(
            f"non-integer level in {where.format(*args)}: {levels}") from None
    if len(set(stored)) != len(stored):
        raise InvalidInputError(f"duplicate level in {where.format(*args)}: {list(stored)}")
    if not stored:
        raise InvalidInputError(f"empty part in {where.format(*args)}")
    if stored[0] < 0 or stored[-1] >= size:
        x = next(x for x in map(index, levels) if not 0 <= x < size)
        raise InvalidInputError(f"level {x} out of range [0, {size}) in {where.format(*args)}")
    return part if levels is part and all(map(is_, stored, part)) else stored


def _count_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The int64 matrix A B^T of two count matrices, multiplied in float64,
    which numpy hands to BLAS (it multiplies int64 without it); exact while
    every count stays below 2**53."""
    A64 = A.astype(np.float64)
    B64 = A64 if B is A else B.astype(np.float64)
    return (A64 @ B64.T).astype(np.int64)


def _offsets(sizes: Sequence[int]) -> tuple[int, ...]:
    """Start offset of each group of ``sizes`` in the zipped point set."""
    return tuple(accumulate(sizes, initial=0))[:-1]


def _spans(sizes: Sequence[int]) -> tuple[slice, ...]:
    """The rows of each group of ``sizes`` in the zipped point set."""
    return tuple(slice(o, o + size) for o, size in zip(_offsets(sizes), sizes))


class _BadPart(Exception):
    """The first bad part of a column: its block ``t`` and the error it raised."""

    def __init__(self, t: int, error: Exception):
        super().__init__(t, error)
        self.t = t
        self.error = error


def _column(column: Sequence, size: int, where: str
            ) -> tuple[tuple[tuple[int, ...], ...], list[int], bool]:
    """Check one factor's part of every block, each distinct object once,
    in the order of the first block that holds it.

    Returns the distinct parts as stored, each value once, in order of
    first appearance; the position among them of each block's part; and
    whether every stored part is the object given.  Objects are checked
    by identity, not equality: (0, 1.0) equals (0, 1) but is no part.  The
    first bad object raises :class:`_BadPart`; an error names a part as
    ``where.format(t)`` for its first block t.
    """
    # id of an object -> its position among the distinct objects, numbered
    # as they first occur; ``column`` keeps every id in use meanwhile
    position: dict[int, int] = defaultdict(count().__next__)
    index = list(map(position.__getitem__, map(id, column)))
    objects, parts = [], []
    t = 0
    for p in range(len(position)):
        t = index.index(p, t)
        part = column[t]
        objects.append(part)
        try:
            parts.append(_normalize_part(part, size, where, t))
        except Exception as exc:  # any error of a part; the caller raises the first
            raise _BadPart(t, exc) from None
    distinct = dict.fromkeys(parts)
    if len(distinct) < len(parts):  # equal parts given as distinct objects
        merged = list(map(dict(zip(distinct, count())).__getitem__, parts))
        index = list(map(merged.__getitem__, index))
    return tuple(distinct), index, all(map(is_, parts, objects))


def _blocks(parts: Sequence, index: Sequence[Iterable]) -> Iterable[tuple]:
    """Each block t as the tuple of ``parts[i][index[i][t]]`` over factors
    i, the part objects shared between the blocks that hold them."""
    return zip(*(map(distinct.__getitem__, picks) for distinct, picks in zip(parts, index)))


def _complement(part: Iterable[int], size: int) -> tuple[int, ...]:
    """The levels 0..size-1 outside ``part``, in increasing order."""
    inside = set(part)
    return tuple(x for x in range(size) if x not in inside)


class _BlockMultiset:
    """``b``, repr, and equality and hashing of the blocks as a multiset,
    for both design types; designs of different types are never equal."""

    @property
    def b(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.v == other.v and sorted(self.blocks) == sorted(other.blocks)

    def __hash__(self) -> int:
        return hash((self.v, tuple(sorted(self.blocks))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(v={self.v}, b={self.b})"


@dataclass(frozen=True, eq=False, repr=False)
class MultipartDesign(_BlockMultiset):
    """m factors with level counts ``v`` and blocks of per-factor level sets.

    ``blocks[t][i]`` is the sorted tuple of factor-``i`` levels of block
    ``t``.  Equality and hashing treat the blocks as a multiset.
    """

    v: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    factor_names: tuple[str, ...] = ()

    def __post_init__(self):
        v = tuple(_index(x, "factor size") for x in self.v)
        if not v or any(x < 1 for x in v):
            raise InvalidInputError(f"factor sizes must be positive, got {v}")
        m = len(v)
        names = tuple(self.factor_names) or default_factor_names(m)
        if len(names) != m or len(set(names)) != m:
            raise InvalidInputError(f"need {m} distinct factor names, got {names}")
        # Blocks up to the first that is not m parts, and the error that
        # block raises once every earlier block has passed.
        rows: list[tuple] = []
        fault = None
        try:
            rows.extend(map(tuple, self.blocks))
        except Exception as exc:  # any error of reading a block, raised in block order
            fault = exc
        lengths = list(map(len, rows))
        if lengths.count(m) != len(rows):
            t = next(t for t, n in enumerate(lengths) if n != m)
            fault = InvalidInputError(f"block {t} has {lengths[t]} parts, expected {m}")
            del rows[t:]
        # Each factor's parts are checked column by column.  Parsed files and
        # products repeat one object for each distinct part of a factor, so
        # each is checked once.  Of the faults found, the one raised is the
        # first in block order, and within a block in factor order: a later
        # column is checked only in the blocks before the first fault so far.
        columns = []
        for i, column in enumerate(zip(*rows)):
            try:
                columns.append(_column(column[:len(rows)], v[i], f"block {{}}, factor {i}"))
            except _BadPart as bad:
                fault = bad.error
                del rows[bad.t:]
        if fault is not None:
            raise fault
        if not rows:
            raise InvalidInputError("a design needs at least one block")
        parts, index, kept = zip(*columns)
        if not all(kept):
            rows = _blocks(parts, index)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "blocks", tuple(rows))
        object.__setattr__(self, "factor_names", names)
        # Each factor's distinct parts, and at [i, t] the position among
        # factor i's of block t's part; every count is read from these.
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_part_index", np.array(index, dtype=np.intp))

    @property
    def m(self) -> int:
        return len(self.v)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Start offset of each factor's levels in the zipped point set."""
        return _offsets(self.v)

    @property
    def spans(self) -> tuple[slice, ...]:
        """The rows of each factor's levels in the zipped point set."""
        return _spans(self.v)

    @property
    def zipped_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Each block's levels as sorted points of the zipped point set."""
        offsets = self.offsets
        return tuple(tuple(offsets[i] + x for i, part in enumerate(block) for x in part)
                     for block in self.blocks)

    @cached_property
    def _part_matrices(self) -> tuple[np.ndarray, ...]:
        """Each factor's part matrix, its levels against its distinct parts."""
        return tuple(map(_part_matrix, self.v, self._parts))

    @cached_property
    def incidence(self) -> np.ndarray:
        """The read-only sum(v) x b 0/1 matrix Z of zipped points against
        blocks; every count of the design is read from Z or :attr:`gram`."""
        Z = np.concatenate([P[:, picks] for P, picks in zip(self._part_matrices, self._part_index)])
        Z.flags.writeable = False
        return Z

    @cached_property
    def _part_sizes(self) -> np.ndarray:
        """The read-only m x b matrix of each block's part size in each factor."""
        sizes = np.array([np.array(list(map(len, parts)))[picks]
                          for parts, picks in zip(self._parts, self._part_index)])
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def gram(self) -> np.ndarray:
        """The read-only Gram matrix Z Z^T: replications on the diagonal,
        within-factor pair counts and cross-factor counts off it."""
        G = _count_product(self.incidence, self.incidence)
        G.flags.writeable = False
        return G


@dataclass(frozen=True, eq=False, repr=False)
class BlockDesign(_BlockMultiset):
    """A single-factor block design: ``v`` points, blocks as level subsets.

    Repeated blocks are legal (multiset semantics); equality is multiset
    equality of blocks.
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        v = _index(self.v, "point count")
        if v < 1:
            raise InvalidInputError(f"point count must be positive, got {v}")
        blocks = tuple(self.blocks)
        try:
            parts, index, kept = _column(blocks, v, "block {}")
        except _BadPart as bad:
            raise bad.error from None
        if not blocks:
            raise InvalidInputError("a design needs at least one block")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "blocks", blocks if kept else tuple(map(parts.__getitem__, index)))
        # The distinct blocks, and the position among them of block t.
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_part_index", np.array(index, dtype=np.intp))

    @cached_property
    def incidence(self) -> np.ndarray:
        """The read-only v x b 0/1 matrix of points against blocks."""
        Z = _part_matrix(self.v, self._parts)[:, self._part_index]
        Z.flags.writeable = False
        return Z


@dataclass(frozen=True)
class BlockPartition:
    """Grouping of block indices 0..b-1 into equal-size disjoint classes,
    each stored sorted.  The classes keep their given order, which is the
    class matching of the class-wise constructions."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        classes = tuple(tuple(sorted(_index(x, "block index") for x in cls)) for cls in self.classes)
        if not classes:
            raise InvalidInputError("a partition needs at least one class")
        sizes = {len(cls) for cls in classes}
        if len(sizes) != 1 or 0 in sizes:
            raise InvalidInputError(f"classes must be equal-size and non-empty, got sizes {sorted(sizes)}")
        seen = [x for cls in classes for x in cls]
        b = len(seen)
        if sorted(seen) != list(range(b)):
            raise InvalidInputError("classes must partition the block indices 0..b-1")
        object.__setattr__(self, "classes", classes)

    @property
    def c(self) -> int:
        return len(self.classes)

    @property
    def b(self) -> int:
        return self.c * len(self.classes[0])


@dataclass(frozen=True)
class MultipartParams:
    """Exact counted parameters of a design.

    Entries are ``None`` when the corresponding raw counts are not
    constant across the design; the ``uniform`` property is true when
    every field is constant.  ``lam[i][i]`` is the within-factor pair
    concurrence, ``lam[i][j]`` the cross-factor level-pair count.
    """

    b: int
    v: tuple[int, ...]
    k: tuple[int | None, ...]
    r: tuple[int | None, ...]
    lam: tuple[tuple[int | None, ...], ...]

    @property
    def m(self) -> int:
        return len(self.v)

    @property
    def uniform(self) -> bool:
        if any(x is None for x in self.k) or any(x is None for x in self.r):
            return False
        return all(x is not None for row in self.lam for x in row)


def _constant(values: np.ndarray) -> int | None:
    """The value of a non-empty array whose entries are all equal, else None."""
    low = values.min()
    return int(low) if low == values.max() else None


def _off_diagonal_constant(W: np.ndarray) -> int | None:
    """The value of every off-diagonal entry of the square count matrix W,
    else None.  By Cauchy-Schwarz, n counts summing to S whose squares sum
    to Q are all equal exactly when n Q = S^2; both sums are read from W
    and its diagonal, so no temporary grows with W.  Each count is at most
    b, so the int64 sums stay exact for any Z that fits in memory."""
    diagonal = np.diagonal(W)
    n = W.size - diagonal.size
    total = int(W.sum()) - int(diagonal.sum())
    squares = int(np.einsum("ij,ij->", W, W)) - int(np.dot(diagonal, diagonal))
    return total // n if n * squares == total * total else None


def derive_parameters(design: MultipartDesign) -> MultipartParams:
    """Count k, r and the full concurrence table of a design.

    k is read from the design's part sizes, every other value from its
    Gram matrix; counting is multiset over blocks and never fails.  A
    quantity that varies across the design is reported as ``None``.
    """
    m, v, spans = design.m, design.v, design.spans
    G = design.gram
    k = tuple(map(_constant, design._part_sizes))
    r = tuple(_constant(np.diagonal(G)[span]) for span in spans)
    lam: list[list[int | None]] = [[None] * m for _ in range(m)]
    for i, si in enumerate(spans):
        lam[i][i] = 0 if v[i] == 1 else _off_diagonal_constant(G[si, si])
        for j in range(i + 1, m):
            lam[i][j] = lam[j][i] = _constant(G[si, spans[j]])
    return MultipartParams(b=design.b, v=v, k=k, r=r,
                           lam=tuple(tuple(row) for row in lam))


def _constant_count(factors: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, int]]) -> int | None:
    """The number of blocks that hold a given t_i-subset of each factor i's
    levels, when it is the same for every choice of subsets; else None.

    Each factor is (its rows of Z, its part matrix P_i, each block's part,
    t_i).  The E = prod C(v_i, t_i) counts are read in the first of three
    ways whose temporaries fit in the size of Z or of its Gram matrix:
    over combinations of parts, when they fit and so does each factor's
    K_i = C(P_i^T P_i, t_i); level by level, when the E counts fit; else
    over pairs of blocks, a slice of blocks at a time.  Level by level,
    each level chosen keeps only the blocks that hold it, the last two are
    counted together as one product of rows, and every count must equal
    the first.  The other two ways read the counts' sum I, over blocks of
    prod C(k_i, t_i), and the sum Q of their squares, over ordered pairs of
    blocks of prod C(meet_i, t_i): E must divide I, and then the counts
    are constant exactly when E Q = I^2 (Cauchy-Schwarz).  With N the
    blocks of each combination of parts, Q = N (K_1 x ... x K_m) N.  Every
    sum is at most b^2 prod C(largest k_i, t_i): exact in float64 (which
    numpy hands to BLAS) below 2^53, and in Python ints past it.
    """
    Z, P, picks, t = zip(*factors)
    v = [len(rows) for rows in Z]
    b = len(picks[0])
    entries = prod(map(comb, v, t))
    size = sum(v) * b
    shape = [A.shape[1] for A in P]
    by_parts = max(prod(shape), max(shape) ** 2) <= size
    if not entries:
        return None
    if not by_parts and entries <= size:
        # The factor of each level chosen, each factor's in increasing order,
        # and the count of the first t_i levels of every factor.
        slots = [i for i, ti in enumerate(t) for _ in range(ti)]
        value = int(prod(rows[:ti].prod(axis=0) for rows, ti in zip(Z, t)).sum())

        def constant(s: int, start: int, blocks: np.ndarray) -> bool:
            rows = Z[slots[s]][start:, blocks]
            if s < len(slots) - 2:
                same = slots[s + 1] == slots[s]
                return all(constant(s + 1, (start + x + 1) * same, blocks[row == 1])
                           for x, row in enumerate(rows))
            if s == len(slots) - 1:
                counts = rows.sum(axis=1)
            elif slots[s + 1] == slots[s]:
                later = np.arange(len(rows))
                counts = _count_product(rows, rows)[later[:, None] < later]
            else:
                counts = _count_product(rows, Z[slots[s + 1]][:, blocks])
            return bool((counts == value).all())

        return value if constant(0, 0, np.arange(b)) else None
    sizes = [A.sum(axis=0) for A in P]
    largest = [int(k.max()) for k in sizes]
    dtype = np.float64 if b * b * prod(map(comb, largest, t)) < 2 ** 53 else object
    # C(x, t_i) for each x up to factor i's largest part, looked up by x
    binomials = [np.array([comb(x, ti) for x in range(k + 1)], dtype) for k, ti in zip(largest, t)]
    incidences = int(prod(C[k][q] for C, k, q in zip(binomials, sizes, picks)).sum())
    if incidences % entries:
        return None
    if by_parts:
        N = np.bincount(np.ravel_multi_index(picks, shape), minlength=prod(shape)).astype(dtype)
        # Factor i's axis leads as the rows of S and comes back last, so
        # after every factor the axes are in order again.
        S = N
        for C, A, n in zip(binomials, (A.T for A in P), shape):
            S = (C[_count_product(A, A)] @ S.reshape(n, -1)).T
        squares = int(np.dot(N, S.reshape(-1)))
    else:
        rows = [A.astype(np.float64) for A in Z]
        step = max(1, size // b)
        squares = sum(int(prod(C[(A[:, s:s + step].T @ A).astype(np.intp)]
                               for C, A in zip(binomials, rows)).sum())
                      for s in range(0, b, step))
    return incidences // entries if entries * squares == incidences ** 2 else None


def zip_design(design: MultipartDesign) -> BlockDesign:
    """Unite each block's parts over the disjoint union of the level sets.

    Factor i's levels are offset by v_1 + ... + v_{i-1}; the result has
    one point set of size sum(v) and block sizes k_1 + ... + k_m.
    """
    return BlockDesign(v=sum(design.v), blocks=design.zipped_blocks)


def unzip_design(bd: BlockDesign, group_sizes: Sequence[int]) -> MultipartDesign:
    """Inverse of :func:`zip_design` for a given grouping of the points.

    Every block must meet each group in the same count across blocks;
    otherwise the grouping is not a valid multi-part split and
    :class:`NonUniformIntersectionError` is raised.
    """
    sizes = tuple(_index(x, "group size") for x in group_sizes)
    if any(x < 1 for x in sizes):
        raise InvalidInputError(f"group sizes must be positive, got {sizes}")
    if sum(sizes) != bd.v:
        raise InvalidInputError(f"group sizes {sizes} do not sum to {bd.v} points")
    offsets = _offsets(sizes)
    split_blocks = []
    for block in bd.blocks:
        parts = tuple(
            tuple(x - offsets[i] for x in block if offsets[i] <= x < offsets[i] + sizes[i])
            for i in range(len(sizes))
        )
        split_blocks.append(parts)

    for i in range(len(sizes)):
        counts = {len(parts[i]) for parts in split_blocks}
        if len(counts) != 1:
            raise NonUniformIntersectionError(
                f"blocks meet group {i} in varying counts {sorted(counts)}")
        if counts == {0}:
            raise NonUniformIntersectionError(f"no block meets group {i}")

    return MultipartDesign(v=sizes, blocks=tuple(split_blocks))


def factor_rows(design: MultipartDesign, factor: int) -> slice:
    """The rows of ``factor``'s levels in the design's incidence matrix."""
    if not 0 <= factor < design.m:
        raise InvalidInputError(f"factor {factor} out of range for m={design.m}")
    return design.spans[factor]


def incidence_matrix(design: MultipartDesign, factor: int) -> np.ndarray:
    """The read-only v_i x b 0/1 matrix of factor levels against blocks."""
    return design.incidence[factor_rows(design, factor)]


def as_multipart(bd: BlockDesign) -> MultipartDesign:
    """View a plain block design as a 1-part design, preserving block order."""
    return MultipartDesign(v=(bd.v,), blocks=tuple((block,) for block in bd.blocks))


def complement_design(bd: BlockDesign) -> BlockDesign:
    """Replace every block by its complement in the point set."""
    return BlockDesign(v=bd.v, blocks=tuple(_complement(b, bd.v) for b in bd.blocks))


def relabel_levels(design: MultipartDesign,
                   perms: Sequence[Sequence[int]]) -> MultipartDesign:
    """Apply per-factor level permutations (``perms[i][old] = new``)."""
    if len(perms) != design.m:
        raise InvalidInputError(f"need {design.m} permutations, got {len(perms)}")
    for i, perm in enumerate(perms):
        if sorted(perm) != list(range(design.v[i])):
            raise InvalidInputError(f"not a permutation of factor {i} levels: {perm}")
    parts = [[tuple(sorted(map(perm.__getitem__, part))) for part in distinct]
             for perm, distinct in zip(perms, design._parts)]
    return MultipartDesign(v=design.v, blocks=_blocks(parts, design._part_index.tolist()),
                           factor_names=design.factor_names)


def permute_factors(design: MultipartDesign, order: Sequence[int]) -> MultipartDesign:
    """Reorder factors so new position j holds old factor ``order[j]``."""
    order = [_index(i, "factor") for i in order]
    if sorted(order) != list(range(design.m)):
        raise InvalidInputError(f"not a permutation of factors: {order}")
    return select_factors(design, order)


def select_factors(design: MultipartDesign, factors: Sequence[int]) -> MultipartDesign:
    """Restrict the design to a subset of factors, in the given order."""
    factors = [_index(i, "factor") for i in factors]
    if not factors or len(set(factors)) != len(factors):
        raise InvalidInputError(f"factor selection must be non-empty and distinct: {factors}")
    for i in factors:
        if not 0 <= i < design.m:
            raise InvalidInputError(f"factor {i} out of range for m={design.m}")
    return MultipartDesign(
        v=tuple(design.v[i] for i in factors),
        blocks=tuple(tuple(block[i] for i in factors) for block in design.blocks),
        factor_names=tuple(design.factor_names[i] for i in factors),
    )


def reorder_blocks(design: MultipartDesign, order: Sequence[int]) -> MultipartDesign:
    """Permute the stored block order (the design stays equal as a multiset)."""
    order = [_index(t, "block index") for t in order]
    if sorted(order) != list(range(design.b)):
        raise InvalidInputError(f"not a permutation of blocks: {order}")
    return MultipartDesign(v=design.v,
                           blocks=tuple(design.blocks[t] for t in order),
                           factor_names=design.factor_names)
