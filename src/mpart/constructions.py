"""Constructions that produce multi-part designs.

Every function returns a :class:`MultipartDesign` with a fixed,
reproducible block order: lexicographic by (class, array row) for the
orthogonal-array composition, by (first ingredient block, second
ingredient block) for products, and by host-block order for the
filtering construction.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Sequence

from .errors import (
    ClassCountMismatchError,
    ClassNotUniformError,
    ComplementTooSmallError,
    FactorNotPreservedError,
    IngredientNotBalancedError,
    InvalidInputError,
    LambdaTooSmallError,
    NoBlocksSelectedError,
    NotHadamardError,
    NotNormalizableError,
    NotSymmetricDesignError,
    SizeMismatchError,
    SymbolCountMismatchError,
)
from .ingredients import HadamardMatrix, OrthogonalArray, _row_halves, check_t_design
from .model import (
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    _blocks,
    _complement,
    _index,
    _normalize_part,
    _offsets,
    unzip_design,
)
from .verify import verify_partition


def _require_2_design(bd: BlockDesign, role: str) -> int:
    lam = check_t_design(bd, 2)
    k = None if lam is None else len(bd.blocks[0])
    if lam is None or lam < 1 or k >= bd.v:
        raise IngredientNotBalancedError(
            f"{role} must be a pair-balanced design with k < v "
            f"(got lambda={lam}, k={k}, v={bd.v})")
    return lam


def _require_uniform_classes(bd: BlockDesign | MultipartDesign, partition: BlockPartition,
                             role: str):
    if partition.b != bd.b:
        raise ClassCountMismatchError(
            f"{role}: partition covers {partition.b} blocks, design has {bd.b}")
    if not verify_partition(bd, partition):
        raise ClassNotUniformError(
            f"{role}: classes do not replicate every point equally")


def _split_by(v: int, blocks, inside) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each block as (its points in ``inside``, its other points), with
    each side renumbered 0, 1, ... in point order."""
    inside = set(inside)
    index, sizes = [0] * v, [0, 0]
    for p in range(v):
        side = p not in inside
        index[p] = sizes[side]
        sizes[side] += 1
    return [(tuple(sorted(index[p] for p in block if p in inside)),
             tuple(sorted(index[p] for p in block if p not in inside)))
            for block in blocks]


def arrange_by_classes(bd: BlockDesign, partition: BlockPartition) -> BlockDesign:
    """Reorder blocks class-major so each class is a contiguous index run."""
    if partition.b != bd.b:
        raise ClassCountMismatchError(
            f"partition covers {partition.b} blocks, design has {bd.b}")
    order = [t for cls in partition.classes for t in cls]
    return BlockDesign(v=bd.v, blocks=tuple(bd.blocks[t] for t in order))


# --------------------------------------------------------------------------
# products


def cartesian_product(parts: Sequence[BlockDesign]) -> MultipartDesign:
    """All combinations of one block from each ingredient.

    b is the product of the ingredient block counts and the result has
    strength equal to the number of ingredients.
    """
    parts = tuple(parts)
    if not parts:
        raise InvalidInputError("need at least one ingredient design")
    for i, bd in enumerate(parts):
        _require_2_design(bd, f"ingredient {i}")
    blocks = tuple(combo for combo in product(*(bd.blocks for bd in parts)))
    return MultipartDesign(v=tuple(bd.v for bd in parts), blocks=blocks)


def subcartesian_product(d1: BlockDesign, d2: BlockDesign,
                         p2: BlockPartition) -> MultipartDesign:
    """Product taken class-by-class instead of in full.

    The blocks of ``d1`` are cut into c groups of b1/c in index order;
    group g is crossed with class g of ``p2`` only, giving b1*b2/c
    blocks.  The order of the classes is the matching: for another
    pairing, pass ``p2`` with its classes reordered.  Classes of ``p2``
    must replicate every point of ``d2`` equally.
    """
    _require_2_design(d1, "first ingredient")
    _require_2_design(d2, "second ingredient")
    _require_uniform_classes(d2, p2, "second ingredient")
    c = p2.c
    if d1.b % c:
        raise ClassCountMismatchError(
            f"class count {c} does not divide the {d1.b} blocks of the first ingredient")
    group = d1.b // c
    blocks = []
    for t1, block1 in enumerate(d1.blocks):
        cls = p2.classes[t1 // group]
        for t2 in cls:
            blocks.append((block1, d2.blocks[t2]))
    return MultipartDesign(v=(d1.v, d2.v), blocks=tuple(blocks))


# --------------------------------------------------------------------------
# Hadamard matrices


def hadamard_2part(H, second_row: int = 1) -> MultipartDesign:
    """Two-factor design from a Hadamard matrix of order 4n, n >= 2.

    After normalization the chosen row splits the columns into 2n
    C-columns (+1) and 2n D-columns (-1); every remaining row yields two
    blocks, its +1 columns and its -1 columns, listed in that order so
    consecutive block pairs form the (4n-2) partition classes.  ``H`` is
    a :class:`HadamardMatrix` or any array that forms one.
    """
    if not isinstance(H, HadamardMatrix):
        try:
            H = HadamardMatrix(H)
        except InvalidInputError as exc:
            raise NotHadamardError(str(exc)) from None
    order = H.order
    if order % 4 or order < 8:
        raise NotHadamardError(f"need order 4n with n >= 2, got {order}")
    if not 0 <= second_row < order or second_row == 0:
        raise NotNormalizableError(
            f"splitting row must differ from the all-ones row 0, got {second_row}")
    rows = _row_halves(H.as_array())
    blocks = _split_by(order, [half for i, halves in enumerate(rows)
                               if i not in (0, second_row) for half in halves],
                       rows[second_row][0])
    half = order // 2
    return MultipartDesign(v=(half, half), blocks=tuple(blocks))


def row_pair_partition(design: MultipartDesign) -> BlockPartition:
    """The consecutive-pair classes {2t, 2t+1} of a Hadamard-built design."""
    if design.b % 2:
        raise InvalidInputError("needs an even number of blocks")
    return BlockPartition(tuple((2 * t, 2 * t + 1) for t in range(design.b // 2)))


# --------------------------------------------------------------------------
# symmetric designs


def symmetric_block_split(bd: BlockDesign, gamma: int) -> MultipartDesign:
    """Split a symmetric design around one of its blocks.

    The points of block ``gamma`` become the second factor, the rest the
    first; every other block splits into its part outside gamma and its
    meet with gamma.  Yields b = v - 1 blocks with k = (k - lam, lam).
    """
    lam = check_t_design(bd, 2)
    if lam is None or bd.b != bd.v:
        raise NotSymmetricDesignError(
            f"need a symmetric pair-balanced design (b={bd.b}, v={bd.v})")
    k = len(bd.blocks[0])
    if not 0 <= gamma < bd.b:
        raise InvalidInputError(f"block index {gamma} out of range")
    special = set(bd.blocks[gamma])
    meets = {len(special & set(block)) for t, block in enumerate(bd.blocks) if t != gamma}
    if meets != {lam}:
        raise NotSymmetricDesignError(
            f"blocks meet the chosen block in {sorted(meets)}, expected {{{lam}}}")
    if lam < 2:
        raise LambdaTooSmallError(
            f"pairwise balance {lam} < 2 leaves the second factor unbalanced")

    blocks = [(outside, meet) for meet, outside in _split_by(
        bd.v, [block for t, block in enumerate(bd.blocks) if t != gamma], special)]
    return MultipartDesign(v=(bd.v - k, k), blocks=tuple(blocks))


# --------------------------------------------------------------------------
# augmentation and swaps


def augment(design: MultipartDesign, factor: int) -> MultipartDesign:
    """Add one level to a factor with v = 2k + 1, doubling the blocks.

    Each block is replaced by two: one keeps its part plus the new
    level, the other takes the complement of the original part within
    the old level set.
    """
    if not 0 <= factor < design.m:
        raise InvalidInputError(f"factor {factor} out of range")
    sizes = set(design._part_sizes[factor].tolist())
    if len(sizes) != 1:
        raise SizeMismatchError("augment needs a uniform part size on the factor")
    k = sizes.pop()
    v = design.v[factor]
    if v != 2 * k + 1:
        raise SizeMismatchError(f"augment needs v = 2k + 1, got v={v}, k={k}")

    new_v = tuple(x + 1 if i == factor else x for i, x in enumerate(design.v))
    parts = list(design._parts)
    distinct = parts[factor]
    parts[factor] = [p + (v,) for p in distinct] + [_complement(p, v) for p in distinct]
    index = design._part_index.repeat(2, axis=1)
    index[factor, 1::2] += len(distinct)
    return MultipartDesign(v=new_v, blocks=_blocks(parts, index.tolist()),
                           factor_names=design.factor_names)


def part_swap(design: MultipartDesign, factor: int) -> MultipartDesign:
    """Replace the chosen factor's part of every block by its complement.

    Needs at least two levels outside every part; on a uniform design
    the parameters transform as k -> v - k, within-concurrence ->
    b - 2r + lambda, and cross counts -> r_other - lambda.
    """
    if not 0 <= factor < design.m:
        raise InvalidInputError(f"factor {factor} out of range")
    parts = list(design._parts)
    parts[factor] = [_complement(part, design.v[factor]) for part in parts[factor]]
    index = design._part_index.tolist()
    for p, comp in enumerate(parts[factor]):  # parts in order of their first block
        if len(comp) < 2:
            raise ComplementTooSmallError(f"block {index[factor].index(p)} leaves only "
                                          f"{len(comp)} levels after complementing")
    return MultipartDesign(v=design.v, blocks=_blocks(parts, index),
                           factor_names=design.factor_names)


# --------------------------------------------------------------------------
# group actions and block filters


def orbit_design(v: Sequence[int], generators: Sequence[Sequence[int]],
                 seed: Sequence[Sequence[int]]) -> MultipartDesign:
    """Orbit of a seed block under permutations of the zipped point set.

    Every generator must preserve each factor's level range setwise.
    The orbit is deduplicated and sorted; validity is not guaranteed and
    is the verifier's job.
    """
    sizes = tuple(_index(x, "factor size") for x in v)
    total = sum(sizes)
    offsets = _offsets(sizes)
    ranges = [set(range(off, off + s)) for off, s in zip(offsets, sizes)]

    perms = []
    for g, perm in enumerate(generators):
        perm = tuple(_index(x, "generator entry") for x in perm)
        if sorted(perm) != list(range(total)):
            raise InvalidInputError(f"generator {g} is not a permutation of {total} points")
        for i, rng in enumerate(ranges):
            if {perm[p] for p in rng} != rng:
                raise FactorNotPreservedError(
                    f"generator {g} does not preserve factor {i}")
        perms.append(perm)

    seed = tuple(seed)
    if len(seed) != len(sizes):
        raise InvalidInputError(f"seed has {len(seed)} parts, expected {len(sizes)}")
    seed_parts = tuple(_normalize_part(part, size, "seed factor {}", i)
                       for i, (part, size) in enumerate(zip(seed, sizes)))
    if any(len(p) < 2 for p in seed_parts):
        raise InvalidInputError("every seed part needs at least two levels")

    start = frozenset(offsets[i] + x for i, part in enumerate(seed_parts) for x in part)
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for perm in perms:
            image = frozenset(perm[p] for p in current)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    # Orbit parts have one size per factor, so the zipped blocks sort as
    # their per-factor parts do.
    return unzip_design(BlockDesign(total, tuple(sorted(map(sorted, seen)))), sizes)


def meet_filter(host: BlockDesign, special: Sequence[int], t: int) -> MultipartDesign:
    """Two-factor design from host blocks meeting a fixed set in t points.

    Selected blocks split into their meet with the special set (first
    factor) and the remainder (second factor); blocks that would leave
    either part empty are discarded.
    """
    special_set = {_index(x, "special point") for x in special}
    if not special_set or not special_set <= set(range(host.v)):
        raise InvalidInputError("special set must be a non-empty subset of the points")
    blocks = [(meet, rest) for meet, rest in _split_by(host.v, host.blocks, special_set)
              if len(meet) == t and meet and rest]
    if not blocks:
        raise NoBlocksSelectedError(
            f"no host block meets the special set in exactly {t} points "
            f"with a non-empty remainder")
    return MultipartDesign(v=(len(special_set), host.v - len(special_set)),
                           blocks=tuple(blocks))


# --------------------------------------------------------------------------
# orthogonal-array composition and multi-part products


def oa_compose(parts: Sequence[BlockDesign],
               partitions: Sequence[BlockPartition],
               oa: OrthogonalArray) -> MultipartDesign:
    """Cross one block per ingredient, chosen class-by-class via an array.

    For every class j and array row, the row's symbol in column i picks
    a block (in index order) from class j of ``partitions[i]``; the
    chosen blocks are crossed into one block of the result.  The order
    of each partition's classes is the matching: for another pairing,
    pass a partition with its classes reordered.  b = c * rows, and the
    strength matches the array's (verified by the caller).
    """
    parts = tuple(parts)
    partitions = tuple(partitions)
    m = len(parts)
    if oa.columns != m:
        raise ClassCountMismatchError(
            f"array has {oa.columns} columns for {m} ingredients")
    if len(partitions) != m:
        raise ClassCountMismatchError(
            f"{len(partitions)} partitions for {m} ingredients")
    cs = {p.c for p in partitions}
    if len(cs) != 1:
        raise ClassCountMismatchError(f"class counts differ: {sorted(cs)}")
    c = cs.pop()

    for i, (bd, partition) in enumerate(zip(parts, partitions)):
        _require_2_design(bd, f"ingredient {i}")
        _require_uniform_classes(bd, partition, f"ingredient {i}")
        if oa.symbols[i] != bd.b // c:
            raise SymbolCountMismatchError(
                f"column {i} has {oa.symbols[i]} symbols, class size is {bd.b // c}")

    blocks = []
    for j in range(c):
        chosen_classes = [partitions[i].classes[j] for i in range(m)]
        for row in oa.rows:
            blocks.append(tuple(parts[i].blocks[chosen_classes[i][row[i]]]
                                for i in range(m)))
    return MultipartDesign(v=tuple(bd.v for bd in parts), blocks=tuple(blocks))


def multipart_product(a: MultipartDesign, b: MultipartDesign) -> MultipartDesign:
    """Concatenate every block of ``a`` with every block of ``b``."""
    blocks = tuple(block_a + block_b
                   for block_a in a.blocks for block_b in b.blocks)
    return MultipartDesign(v=a.v + b.v, blocks=blocks)


def class_matched_product(theta: MultipartDesign, p: BlockPartition,
                          delta: BlockDesign) -> MultipartDesign:
    """Append one block of ``delta`` as a new factor to each class of ``theta``.

    Class j of the partition gets delta's block j; the partition must be
    a verified equal-replication grouping and delta must have exactly
    one block per class.
    """
    if delta.b != p.c:
        raise ClassCountMismatchError(
            f"delta has {delta.b} blocks for {p.c} classes")
    _require_uniform_classes(theta, p, "design")

    extended: list = [None] * theta.b
    for j, cls in enumerate(p.classes):
        for t in cls:
            extended[t] = theta.blocks[t] + (delta.blocks[j],)
    return MultipartDesign(v=theta.v + (delta.v,), blocks=tuple(extended))
