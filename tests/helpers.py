"""Shared test helpers: independent counting oracles and random generators.

The oracle functions recount everything directly from the block lists
with itertools, independent of the library's own counting paths, so
they can serve as ground truth for derived values.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

from mpart.model import MultipartDesign
from mpart.verify import _first_steps, _quotas, _Search, _second_steps


def oracle_pair_counts(blocks, factor: int) -> Counter:
    counts: Counter = Counter()
    for block in blocks:
        counts.update(combinations(sorted(block[factor]), 2))
    return counts


def oracle_cross_counts(blocks, i: int, j: int) -> Counter:
    counts: Counter = Counter()
    for block in blocks:
        counts.update(product(block[i], block[j]))
    return counts


def oracle_replications(blocks, factor: int) -> Counter:
    counts: Counter = Counter()
    for block in blocks:
        counts.update(block[factor])
    return counts


def oracle_strength_counts(blocks, factors) -> Counter:
    """Blocks containing each tuple of levels, one level per factor in ``factors``."""
    counts: Counter = Counter()
    for block in blocks:
        counts.update(product(*(block[i] for i in factors)))
    return counts


def oracle_strength(blocks, v: tuple[int, ...], t: int) -> dict | None:
    """The constant count of every t-subset of factors, recounted directly;
    None when that or any lower strength from 2 up is unbalanced."""
    table = None
    for tt in range(2, t + 1):
        table = {}
        for factors in combinations(range(len(v)), tt):
            value = oracle_constant(oracle_strength_counts(blocks, factors),
                                    product(*(range(v[i]) for i in factors)))
            if value is None:
                return None
            table[factors] = value
    return table


def oracle_subset_counts(blocks, t: int) -> Counter:
    """Blocks of a plain block design containing each t-subset of points."""
    counts: Counter = Counter()
    for block in blocks:
        counts.update(combinations(sorted(block), t))
    return counts


def oracle_constant(counter: Counter, keys) -> int | None:
    """The constant value of counter over all keys (missing = 0), else None."""
    values = {counter.get(key, 0) for key in keys}
    return values.pop() if len(values) == 1 else None


def oracle_lambda(blocks, v: tuple[int, ...], i: int, j: int) -> int | None:
    """Constant within- (i == j) or cross-factor count, recounted directly."""
    if i == j:
        if v[i] < 2:
            return 0
        return oracle_constant(oracle_pair_counts(blocks, i),
                               combinations(range(v[i]), 2))
    return oracle_constant(oracle_cross_counts(blocks, i, j),
                           product(range(v[i]), range(v[j])))


def random_design(rng: random.Random, max_m: int = 3, max_v: int = 6,
                  max_b: int = 12, min_part: int = 1,
                  max_part_slack: int = 0,
                  uniform_k: bool = False) -> MultipartDesign:
    """A random structurally valid (not necessarily balanced) design.

    ``uniform_k`` fixes one part size per factor, which is what the
    zip/unzip grouping requires; otherwise parts may be ragged.
    """
    m = rng.randint(1, max_m)
    v = [rng.randint(max(2, min_part + max_part_slack), max_v) for _ in range(m)]
    b = rng.randint(1, max_b)
    fixed = [rng.randint(min_part, vi - max_part_slack) for vi in v]
    blocks = []
    for _ in range(b):
        block = []
        for i in range(m):
            size = fixed[i] if uniform_k else rng.randint(min_part, v[i] - max_part_slack)
            block.append(tuple(sorted(rng.sample(range(v[i]), size))))
        blocks.append(tuple(block))
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks))


def random_relabeled(rng: random.Random, design: MultipartDesign) -> MultipartDesign:
    from mpart.model import relabel_levels, reorder_blocks

    perms = [rng.sample(range(size), size) for size in design.v]
    order = rng.sample(range(design.b), design.b)
    return reorder_blocks(relabel_levels(design, perms), order)


def oracle_partition_exists(blocks, v: tuple[int, ...], c: int) -> bool:
    """Whether the blocks split into c classes of equal size that each
    replicate every level equally, by trying every such split."""
    b = len(blocks)
    if b % c:
        return False
    size = b // c

    def replications(cls):
        return tuple(oracle_replications([blocks[t] for t in cls], i).get(x, 0)
                     for i in range(len(v)) for x in range(v[i]))

    def split(remaining: tuple[int, ...], target) -> bool:
        if not remaining:
            return True
        pivot, rest = remaining[0], remaining[1:]
        for others in combinations(rest, size - 1):
            counts = replications((pivot,) + others)
            if target in (None, counts):
                if split(tuple(t for t in rest if t not in others), counts):
                    return True
        return False

    return split(tuple(range(b)), None)


def first_phase(design: MultipartDesign, c: int, budget: int):
    """``find_partition``'s phase 1 alone: block-index-order backtracking."""
    quotas = _quotas(design, c)
    return None if quotas is None else _Search(_first_steps(*quotas)).run(budget)


def second_phase(design: MultipartDesign, c: int, budget: int):
    """``find_partition``'s phase 2 alone: the most-constrained-first search."""
    quotas = _quotas(design, c)
    return None if quotas is None else _Search(_second_steps(*quotas)).run(budget)
