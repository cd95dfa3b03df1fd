import random
import timeit
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import numpy as np
import pytest

from mpart.errors import UNKNOWN, InvalidInputError
from mpart.fixtures import load_design
from mpart.ingredients import get_bibd
from mpart.model import BlockDesign, BlockPartition, MultipartDesign, as_multipart, relabel_levels
from mpart.verify import (
    FIRST_SLICE,
    _first_steps,
    _Search,
    _second_steps,
    check_admissible,
    check_multipart,
    check_strength,
    concurrence_matrix,
    cross_matrix,
    design_strength,
    find_partition,
    verify_partition,
)

from helpers import (
    first_phase,
    oracle_constant,
    oracle_cross_counts,
    oracle_pair_counts,
    oracle_partition_exists,
    oracle_strength,
    oracle_subset_counts,
    random_design,
    second_phase,
)


def test_concurrence_fig2b():
    M = concurrence_matrix(load_design("fig1"), 0)
    assert (np.diag(M) == 5).all()
    assert (M[~np.eye(6, dtype=bool)] == 2).all()


def test_concurrence_single_block():
    d = MultipartDesign(v=(4, 2), blocks=(((1, 2), (0,)),))
    M = concurrence_matrix(d, 0)
    assert M[1, 2] == M[2, 1] == 1
    assert M.sum() == 2 + 2  # one off-diagonal pair plus two diagonal 1s


def test_concurrence_fig5b():
    d = load_design("fig5b")
    # oracle: count pairs over the 12 listed blocks
    counts = oracle_pair_counts(d.blocks, 0)
    assert set(counts.values()) == {2}
    M = concurrence_matrix(d, 0)
    assert (np.diag(M) == 6).all()
    assert (M[~np.eye(4, dtype=bool)] == 2).all()


def test_cross_fig2b():
    d = load_design("fig1")
    M = cross_matrix(d, 0, 1)
    assert (M == 2).all()
    # (C1, D1) appears in blocks 1 and 2 exactly
    hits = [t for t, block in enumerate(d.blocks) if 0 in block[0] and 0 in block[1]]
    assert hits == [0, 1]


def test_cross_single_pair():
    d = MultipartDesign(v=(2, 2), blocks=(((0,), (0,)),))
    M = cross_matrix(d, 0, 1)
    assert M[0, 0] == 1 and M.sum() == 1


def test_cross_fig8b_factors_0_2():
    d = load_design("fig8b")
    # oracle: direct count; also the counting identity b k1 k3 / (v1 v3) = 3
    counts = oracle_cross_counts(d.blocks, 0, 2)
    assert set(counts.values()) == {3}
    assert 12 * 2 * 2 // (4 * 4) == 3
    assert (cross_matrix(d, 0, 2) == 3).all()


def test_check_multipart_fig2b():
    report = check_multipart(load_design("fig1"))
    assert report.valid
    assert report.strength == 2
    assert report.within_lambda == (2, 1)
    assert report.cross_lambda[0][1] == 2


def test_check_multipart_fig9():
    report = check_multipart(load_design("fig9"))
    assert report.valid
    assert report.m == 4
    assert report.strength == 2


def test_check_multipart_block_deleted():
    d = load_design("fig1")
    smaller = MultipartDesign(v=d.v, blocks=d.blocks[1:])
    # oracle: recount after deletion, some pair drops below 2
    counts = oracle_pair_counts(smaller.blocks, 0)
    assert 1 in counts.values()
    report = check_multipart(smaller)
    assert not report.valid
    assert not report.within_balance[0]


def test_check_multipart_degenerate_flag():
    blocks = tuple(((x,), (0, 1)) for x in range(3))
    blocks += tuple(((x,), (0, 2) if x != 2 else (1, 2)) for x in range(3))
    # sizes k1=1: within-factor concurrence is zero
    d = MultipartDesign(v=(3, 3), blocks=blocks)
    assert not check_multipart(d).valid
    report = check_multipart(d, allow_degenerate=True)
    assert report.within_lambda[0] == 0
    assert not report.within_nonzero[0]


def test_check_strength_fig8b():
    d = load_design("fig8b")
    table2 = check_strength(d, 2)
    assert table2 == {(0, 1): 3, (0, 2): 3, (1, 2): 3}
    assert check_strength(d, 3) is None
    assert design_strength(d) == 2


def test_check_strength_product_is_3():
    from mpart.constructions import multipart_product

    prod = multipart_product(load_design("fig1"), as_multipart(get_bibd(3, 2, 1)))
    table = check_strength(prod, 3)
    assert table is not None
    assert set(table.values()) == {4}
    assert design_strength(prod) == 3


def test_check_strength_m2_matches_cross():
    d = load_design("fig5a")
    table = check_strength(d, 2)
    assert table == {(0, 1): 3}
    assert int(cross_matrix(d, 0, 1)[0, 0]) == 3


def _halves(v: int, rows) -> MultipartDesign:
    """One factor of v levels per column of ``rows``; a block takes, in
    each factor, the lower half of the levels at symbol 0 and the upper
    half at symbol 1."""
    halves = (tuple(range(v // 2)), tuple(range(v // 2, v)))
    return MultipartDesign(v=(v,) * len(rows[0]),
                           blocks=tuple(tuple(halves[x] for x in row) for row in rows))


OA_4_3_2_2 = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def _box_partition() -> MultipartDesign:
    """8 blocks whose parts, each half of 8 levels, cut the 8 x 8 x 8 cube
    of level triples into 8 boxes: strength 3 with 2, 4 and 8 distinct
    parts per factor, so 64 combinations and 512 triples against 8 blocks."""
    def rest(part):
        return tuple(x for x in range(8) if x not in part)

    halves = ((0, 1, 2, 3), (0, 2, 4, 6), (0, 1, 4, 5), (0, 3, 5, 6))
    blocks = []
    for first, second, thirds in (((0, 1, 2, 3), halves[0], halves[:2]),
                                  ((4, 5, 6, 7), halves[1], halves[2:])):
        for part, third in ((second, thirds[0]), (rest(second), thirds[1])):
            blocks += [(first, part, third), (first, part, rest(third))]
    return MultipartDesign(v=(8, 8, 8), blocks=tuple(blocks))


def test_strength_matches_the_oracle_when_part_combinations_outnumber_blocks():
    from mpart.constructions import cartesian_product, multipart_product
    from mpart.model import _constant_count

    # 8 blocks: the even-weight rows of length 4, an array of strength 3.
    # Each factor has 2 distinct parts, so 16 combinations could occur.
    halves = _halves(4, [row for row in np.ndindex(2, 2, 2, 2) if sum(row) % 2 == 0])
    # 60 blocks, strength 4; its 4 factors have 3, 6, 10 and 10 parts.
    product = multipart_product(load_design("fig3"), load_design("fig1"))
    boxes = _box_partition()
    cases = ((halves, 3), (product, 4), (boxes, 3), (_halves(4, OA_4_3_2_2), 2))
    for d, strength in cases:
        for t in range(2, d.m + 1):
            assert check_strength(d, t) == oracle_strength(d.blocks, d.v, t)
        assert design_strength(d) == strength
    assert check_strength(halves, 3) == {factors: 1 for factors in combinations(range(4), 3)}
    assert check_strength(boxes, 3) == {(0, 1, 2): 1}

    def tuple_count(d):
        return _constant_count([(d.incidence[span], P, index, 1)
                                for span, P, index in zip(d.spans, d._part_matrices, d._part_index)])

    # Each keeps its incidence count, but some triples lie in no block and
    # some in two: the last box repeats the one before it, and the first
    # block of (7,3,1)^3 is replaced by its second.
    overlap = boxes.blocks[:-1] + boxes.blocks[-2:-1]
    assert tuple_count(MultipartDesign(v=boxes.v, blocks=overlap)) is None
    cube = cartesian_product([get_bibd(7, 3, 1)] * 3)
    assert tuple_count(MultipartDesign(v=cube.v, blocks=cube.blocks[1:2] + cube.blocks[1:])) is None


def _route(factors) -> str:
    """The way ``_constant_count`` counts ``factors``, by its rule: over
    combinations of parts when they, and each factor's parts squared, fit
    in Z's size; else level by level when the E counts fit; else over
    pairs of blocks."""
    v = [len(rows) for rows, _, _, _ in factors]
    size = sum(v) * factors[0][0].shape[1]
    shape = [P.shape[1] for _, P, _, _ in factors]
    if max(prod(shape), max(shape) ** 2) <= size:
        return "parts"
    return "level" if prod(comb(x, t) for x, (*_, t) in zip(v, factors)) <= size else "pairs"


def _relabeled_union(design: MultipartDesign, copies: int, seed: int) -> MultipartDesign:
    """The blocks of ``copies`` random relabelings of ``design``: each
    keeps its counts, so the union has every strength the design has."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(copies):
        blocks += relabel_levels(design, [rng.sample(range(s), s) for s in design.v]).blocks
    return MultipartDesign(v=design.v, blocks=tuple(blocks))


def test_each_route_of_the_counting_kernel_matches_the_oracles():
    from mpart.constructions import cartesian_product, multipart_product
    from mpart.fixtures import steiner_4_23_7
    from mpart.ingredients import check_t_design

    fano = get_bibd(7, 3, 1)
    triples = BlockDesign(12, tuple(combinations(range(12), 3)))
    steiner = steiner_4_23_7()
    # (design, t, route, count); each unbalanced input repeats one block
    # in place of another.
    t_designs = [
        (fano, 2, "parts", 1),
        (BlockDesign(7, fano.blocks[:-1] + fano.blocks[:1]), 2, "parts", None),
        (triples, 3, "level", 1),
        (BlockDesign(12, triples.blocks[:-1] + triples.blocks[:1]), 3, "level", None),
        (steiner, 4, "pairs", 1),
        (BlockDesign(23, steiner.blocks[:-1] + steiner.blocks[:1]), 4, "pairs", None),
    ]
    for d, t, route, count in t_designs:
        # check_t_design takes each block as its own part
        assert _route([(d.incidence, d.incidence, np.arange(d.b), t)]) == route
        assert check_t_design(d, t) == count == oracle_constant(
            oracle_subset_counts(d.blocks, t), combinations(range(d.v), t))

    fig3_fig1 = multipart_product(load_design("fig3"), load_design("fig1"))
    # 20 levels a factor, and 10 relabeled copies of 8 blocks (or 4) whose
    # parts are halves: up to 20 distinct parts a factor, as many as levels.
    cube = _halves(20, list(product((0, 1), repeat=3)))
    square = _halves(20, OA_4_3_2_2)
    # (design, route of all its factors, strength, count of all its factors)
    strength_inputs = [
        (cartesian_product([fano] * 3), "parts", 3, 27),
        (_halves(4, OA_4_3_2_2), "parts", 2, None),
        (_relabeled_union(fig3_fig1, 4, 0), "parts", 4, 16),
        (fig3_fig1, "level", 4, 4),
        (_relabeled_union(fig3_fig1, 2, 0), "level", 4, 8),
        (_relabeled_union(cube, 10, 2), "pairs", 3, 10),
        (_relabeled_union(square, 10, 3), "pairs", 2, None),
    ]
    for d, route, strength, count in strength_inputs:
        factors = [(d.incidence[span], P, picks, 1)
                   for span, P, picks in zip(d.spans, d._part_matrices, d._part_index)]
        assert _route(factors) == route
        for t in range(2, d.m + 1):
            assert check_strength(d, t) == oracle_strength(d.blocks, d.v, t)
        assert design_strength(d) == strength
        full = check_strength(d, d.m)
        assert (full and full[tuple(range(d.m))]) == count


def test_a_strength_count_beyond_int64_is_exact():
    # One block holding every level of 10 factors of 100 levels: each
    # t-tuple of levels lies in it, and the sums behind t = 10 pass 2^63.
    d = MultipartDesign(v=(100,) * 10, blocks=((tuple(range(100)),) * 10,))
    assert design_strength(d) == 10
    assert check_strength(d, 10) == {tuple(range(10)): 1}


@pytest.mark.parametrize("name, strength, valid, peak_mb, ms", [
    # Its table of level counts for all 3 factors has 8,000,000 entries.
    ("halves200", 2, False, 4, 50),
    ("7,3,1^4", 4, True, 2, 200),
])
def test_check_multipart_stays_within_memory_and_time(name, strength, valid, peak_mb, ms):
    """The bounds are far above what the check takes (under 1 MB and a few
    ms on a 2-vCPU VM) and far below what a table of level counts takes."""
    from mpart.constructions import cartesian_product

    if name == "halves200":
        d = _halves(200, OA_4_3_2_2)
    else:
        d = cartesian_product([get_bibd(7, 3, 1)] * 4)
    d.gram  # Z and its Gram matrix are cached on the design; the bound is on the rest
    tracemalloc.start()
    try:
        report = check_multipart(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.strength, report.valid) == (strength, valid)
    assert peak < peak_mb * 2 ** 20
    assert min(timeit.repeat(lambda: check_multipart(d), number=1, repeat=5)) < ms / 1000


def test_check_admissible_fig1_parameters():
    report = check_admissible(10, (6, 5), (3, 2))
    assert report.ok
    assert report.r == (Fraction(5), Fraction(4))
    assert report.lam[0][0] == 2 and report.lam[1][1] == 1 and report.lam[0][1] == 2
    assert report.bound_basic
    assert 10 == 6 + 5 - 2 + 1  # bound is tight


def test_check_admissible_nonintegral():
    report = check_admissible(5, (4, 3), (2, 2))
    assert not report.ok
    assert report.r[0] == Fraction(5, 2)
    assert not report.r_integral[0]


def test_check_admissible_with_classes():
    report = check_admissible(20, (6, 6), (3, 3), c=10)
    assert report.ok
    assert report.bound_partitioned
    assert 20 == 6 + 6 + 10 - 2  # partitioned bound is tight


def test_check_admissible_rejects_complete_blocks():
    with pytest.raises(InvalidInputError):
        check_admissible(10, (6, 5), (6, 2))
    with pytest.raises(InvalidInputError):
        check_admissible(0, (6, 5), (3, 2))


def test_verify_partition_single_class():
    d = load_design("fig1")
    assert verify_partition(d, BlockPartition((tuple(range(10)),)))


def test_verify_partition_fig2b_halves_false():
    d = load_design("fig1")
    p = BlockPartition((tuple(range(5)), tuple(range(5, 10))))
    assert not verify_partition(d, p)


def test_verify_partition_hadamard_row_pairs():
    from mpart.constructions import hadamard_2part, row_pair_partition
    from mpart.ingredients import hadamard_matrix

    d = hadamard_2part(hadamard_matrix(12), 1)
    assert verify_partition(d, row_pair_partition(d))


def test_verify_partition_of_a_block_design():
    pairs = get_bibd(4, 2, 1)
    assert verify_partition(pairs, BlockPartition(((0, 5), (1, 4), (2, 3))))
    assert not verify_partition(pairs, BlockPartition(((0, 1), (2, 3), (4, 5))))


def test_find_partition_fig8b():
    d = load_design("fig8b")
    p = find_partition(d, 3)
    assert p == BlockPartition(((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)))
    assert verify_partition(d, p)


def test_find_partition_trivial_class():
    d = load_design("fig1")
    p = find_partition(d, 1)
    assert p.c == 1 and verify_partition(d, p)


def test_find_partition_quota_failure_is_immediate_none():
    assert find_partition(load_design("fig1"), 10) is None


def test_find_partition_budget_unknown():
    # Phase 1 needs 65 nodes to refute 10 classes of fig4a; phase 2 needs 2.
    d = load_design("fig4a")
    assert first_phase(d, 10, budget=3) is UNKNOWN
    assert find_partition(d, 10, budget=1) is UNKNOWN
    assert find_partition(d, 10, budget=2) is None


def test_find_partition_witness_always_verifies():
    rng = random.Random(99)
    found = 0
    for _ in range(50):
        d = random_design(rng, max_m=2, max_v=4, max_b=8)
        for c in (2, 3):
            result = find_partition(d, c, budget=20_000)
            if isinstance(result, BlockPartition):
                assert verify_partition(d, result)
                found += 1
    assert found  # the generator does produce some partitionable designs


def test_find_partition_agrees_with_exhaustive_search():
    rng = random.Random(1234)
    outcomes = {True: 0, False: 0}
    for trial in range(60):
        d = random_design(rng, max_m=2, max_v=4, max_b=6)
        if trial % 2 == 0:
            # c concatenated copies of the block list are c-partitionable,
            # which keeps the positive branch of the oracle exercised
            d = MultipartDesign(v=d.v, blocks=d.blocks * rng.choice((2, 3)))
        for c in (2, 3):
            if d.b > 9:
                continue
            result = find_partition(d, c, budget=100_000)
            assert result is not UNKNOWN
            expected = oracle_partition_exists(d.blocks, d.v, c)
            assert (result is not None) == expected, (d, c)
            alone = second_phase(d, c, budget=100_000)
            assert alone is not UNKNOWN and (alone is not None) == expected, (d, c)
            assert alone is None or verify_partition(d, alone)
            outcomes[expected] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10


# Least budget, in search nodes, at which find_partition's phase 1 decides,
# for every primary catalog design of at most 64 blocks and class count c
# whose search does not end at the divisibility checks; recorded from the
# recursive search before it was made iterative.  Every other divisor c
# decides at budget 0.
LEAST_DECIDING_BUDGET = {
    "all pairs of 4": {3: (12, True)},
    "all pairs of 5": {2: (23, True)},
    "2-(6,3,2) by brute force": {5: (20, False)},
    "affine plane of order 3": {2: (18, True), 4: (30, True)},
    "halves of a Hadamard matrix of order 8": {7: (56, True)},
    "all pairs of 6": {5: (95, True)},
    "2-(16,6,2) from a difference set in (Z2)^4": {2: (503, False)},
    "all pairs of 7": {3: (48, True)},
    "halves of a Hadamard matrix of order 12": {11: (132, True)},
    "all pairs of 8": {7: (112, True)},
    "halves of a Hadamard matrix of order 16": {3: (60, True), 5: (90, True),
                                                15: (240, True)},
    "Kirkman triple system": {7: (140, True)},
    "all pairs of 9": {2: (162, True), 4: (286, True)},
    "all pairs of 10": {3: (126, True), 9: (1296, True)},
    "all pairs of 11": {5: (39025, True)},
}
# Every catalog complement is dense, so its search runs on the complements of
# its parts, which are its primary's parts: it decides at exactly its
# primary's budget.  Searched on the parts themselves, the complements took
# these budgets; a None stayed undecided past 200000 nodes.
COMPLEMENT_BUDGET_ON_THE_PARTS = {
    "complement of all pairs of 5": {2: 61},
    "complement of affine plane of order 3": {2: 18, 4: 30},
    "complement of all pairs of 6": {5: 16449},
    "complement of 2-(16,6,2) from a difference set in (Z2)^4": {2: 2211},
    "complement of Kirkman triple system": {7: 140},
    "complement of all pairs of 7": {3: None},
    "complement of all pairs of 8": {7: None},
    "complement of all pairs of 9": {2: None, 4: None},
    "complement of all pairs of 10": {3: None, 9: None},
    "complement of all pairs of 11": {5: None},
}


def test_find_partition_spends_the_recorded_budget():
    from mpart.ingredients import catalog_entries

    beyond = 0
    for entry in catalog_entries(max_blocks=64):
        d = as_multipart(entry.build())
        primary = entry.name.removeprefix("complement of ")
        searched = LEAST_DECIDING_BUDGET.get(primary, {})
        before = COMPLEMENT_BUDGET_ON_THE_PARTS.get(entry.name, {})
        assert primary == entry.name or before.keys() == searched.keys(), entry.name
        for c in range(2, d.b + 1):
            if d.b % c:
                continue
            budget, exists = searched.get(c, (0, False))
            if c in before:
                assert before[c] is None or budget <= before[c], (entry.name, c)
            if budget:
                assert first_phase(d, c, budget - 1) is UNKNOWN, (entry.name, c)
            result = first_phase(d, c, budget)
            assert (result is not None) == exists, (entry.name, c)
            if exists:
                assert verify_partition(d, result)
            found = find_partition(d, c, budget=budget)
            if budget <= FIRST_SLICE:
                assert found == result, (entry.name, c)
            else:
                # Phase 2 decides within the first slice, before phase 1.
                beyond += 1
                assert found is not None and found is not UNKNOWN, (entry.name, c)
                assert verify_partition(d, found), (entry.name, c)
    # All pairs of 10 at c = 9, of 11 at c = 5, and their complements.
    assert beyond == 4


def test_second_phase_alone_agrees_with_the_recorded_answers():
    from mpart.ingredients import catalog_entries

    decided = 0
    for entry in catalog_entries(max_blocks=64):
        d = as_multipart(entry.build())
        searched = LEAST_DECIDING_BUDGET.get(entry.name.removeprefix("complement of "), {})
        for c in range(2, d.b + 1):
            if d.b % c:
                continue
            result = second_phase(d, c, budget=50_000)
            if result is UNKNOWN:
                continue
            decided += 1
            assert (result is not None) == searched.get(c, (0, False))[1], (entry.name, c)
            assert result is None or verify_partition(d, result)
    assert decided > 300


# The searches phase 1 leaves undecided at 50000 nodes in some block order:
# phase 2 decides the catalog ones, and the digit-sum witness the products.
LISTED_SEARCHES = {
    "halves of a Hadamard matrix of order 16": (3, 5),
    "complement of all pairs of 10": (9,),
    "complement of all pairs of 11": (5,),
}


def _listed_searches():
    from mpart.constructions import cartesian_product
    from mpart.ingredients import catalog_entries

    for entry in catalog_entries(max_blocks=64):
        for c in LISTED_SEARCHES.get(entry.name, ()):
            yield as_multipart(entry.build()), c, False
    for power in (3, 4):
        yield cartesian_product([get_bibd(7, 3, 1)] * power), 7, True


def test_listed_searches_decide_in_every_block_order():
    from mpart.model import reorder_blocks
    from mpart.verify import _digit_sums

    for d, c, product in _listed_searches():
        result = find_partition(d, c, budget=50_000)
        assert result is not UNKNOWN and verify_partition(d, result), (d.b, c)
        for seed in range(11):
            order = random.Random(seed).sample(range(d.b), d.b) if seed else range(d.b)
            shuffled = reorder_blocks(d, order)
            if product:
                witness = _digit_sums(shuffled, c)
            else:
                witness = second_phase(shuffled, c, budget=50_000)
            assert witness is not None and witness is not UNKNOWN, (d.b, c, seed)
            assert verify_partition(shuffled, witness)


def test_product_witness_needs_the_full_product_and_verifies():
    from mpart.constructions import cartesian_product
    from mpart.verify import _digit_sums

    d = cartesian_product([get_bibd(7, 3, 1)] * 2)
    assert verify_partition(d, _digit_sums(d, 7))
    # One block dropped and another repeated: b is still 7 x 7.
    repeated = MultipartDesign(v=d.v, blocks=d.blocks[:-1] + d.blocks[:1])
    assert _digit_sums(repeated, 7) is None
    # Classes by index sum mod 3 hold 7 blocks each, but the 7 parts of
    # the first factor do not spread evenly over 3 classes.
    d = cartesian_product([get_bibd(7, 3, 1), get_bibd(3, 2, 1)])
    assert _digit_sums(d, 3) is None


def test_product_witness_indexes_equal_parts_once():
    from mpart.constructions import cartesian_product
    from mpart.verify import _digit_sums

    d = cartesian_product([get_bibd(7, 3, 1)] * 3)
    # Every part a fresh tuple: the design checks 343 distinct objects per
    # factor and stores each of the 7 values once.
    fresh = MultipartDesign(v=d.v, blocks=tuple(tuple(tuple(list(part)) for part in block)
                                                for block in d.blocks))
    assert len(fresh._parts[0]) == 7
    # The witness recounted from the blocks: each factor's parts indexed by
    # value in order of first appearance, classes by index sum mod 7.
    index: list[dict] = [{} for _ in d.v]
    classes: list[list[int]] = [[] for _ in range(7)]
    for t, block in enumerate(d.blocks):
        classes[sum(parts.setdefault(part, len(parts))
                    for parts, part in zip(index, block)) % 7].append(t)
    expected = BlockPartition(tuple(map(tuple, classes)))
    assert _digit_sums(fresh, 7) == _digit_sums(d, 7) == expected


def test_diagonal_cosets_decide_the_powers_of_the_fano_plane():
    from mpart.constructions import cartesian_product
    from mpart.verify import _diagonal_cosets, _digit_sums

    for power, c in ((3, 49), (4, 49), (4, 343)):
        d = cartesian_product([get_bibd(7, 3, 1)] * power)
        assert _digit_sums(d, c) is None
        # The default budget: phase 1's first slice, then the witness.
        witness = find_partition(d, c)
        assert witness == _diagonal_cosets(d, c) and verify_partition(d, witness), (power, c)
    # Block t holds parts (x, y, z), t = 49 x + 7 y + z: its class is
    # (y - x) + 7 (z - x), each difference mod 7.
    d = cartesian_product([get_bibd(7, 3, 1)] * 3)
    classes: list[list[int]] = [[] for _ in range(49)]
    for t in range(d.b):
        x, y, z = t // 49, t // 7 % 7, t % 7
        classes[(y - x) % 7 + 7 * ((z - x) % 7)].append(t)
    assert _diagonal_cosets(d, 49) == BlockPartition(tuple(map(tuple, classes)))
    # Only factors with equal numbers of distinct parts form a coset.
    assert _diagonal_cosets(cartesian_product([get_bibd(7, 3, 1), get_bibd(4, 2, 1)]), 7) is None


def test_complement_pairs_are_a_hadamard_splits_row_pairs():
    from mpart.constructions import hadamard_2part, row_pair_partition
    from mpart.ingredients import hadamard_matrix
    from mpart.verify import _complement_pairs

    d = hadamard_2part(hadamard_matrix(16), 1)
    pairs = row_pair_partition(d).classes
    for c in (7, 14):
        run = d.b // (2 * c)
        expected = BlockPartition(tuple(sum(pairs[j * run:(j + 1) * run], ())
                                        for j in range(c)))
        assert _complement_pairs(d, c) == expected
        # Decided with no phase-2 node: at any budget, however small.
        for budget in (0, 1, 20):
            assert find_partition(d, c, budget=budget) == expected, (c, budget)
    # c must divide the 14 pairs; all pairs of 4 pair up, all pairs of 5 do not.
    assert _complement_pairs(d, 4) is None
    assert _complement_pairs(as_multipart(get_bibd(4, 2, 1)), 3) is not None
    assert _complement_pairs(as_multipart(get_bibd(5, 2, 1)), 5) is None


def _at_once(steps, budget: int):
    """A phase run once with ``budget`` nodes: its answer and nodes spent."""
    search = _Search(steps)
    return search.run(budget), search.nodes


def _in_slices(steps, budget: int):
    """A phase resumed on slices of 1, 1, 2, 4, ... nodes up to ``budget``."""
    search, limit = _Search(steps), 1
    while True:
        answer = search.run(limit)
        if answer is not UNKNOWN or limit == budget:
            return answer, search.nodes
        limit = min(2 * limit, budget)


def _phases_in_slices(quotas, first_budget: int, second_budget: int):
    """Both phases, each the same in slices as at once: (answer, nodes) each."""
    runs = []
    for steps, budget in ((_first_steps, first_budget), (_second_steps, second_budget)):
        whole = _at_once(steps(*quotas), budget)
        assert _in_slices(steps(*quotas), budget) == whole
        runs.append(whole)
    return runs


def test_slicing_never_changes_a_phase():
    from mpart.ingredients import catalog_entries
    from mpart.verify import _quotas

    searches = 0
    for entry in catalog_entries(max_blocks=64):
        d = as_multipart(entry.build())
        primary = entry.name.removeprefix("complement of ")
        for c, (budget, exists) in LEAST_DECIDING_BUDGET.get(primary, {}).items():
            (first, nodes), (second, _) = _phases_in_slices(_quotas(d, c), budget, 50_000)
            assert nodes == budget and (first is not None) == exists, (entry.name, c)
            assert second is not UNKNOWN and (second is not None) == exists, (entry.name, c)
            searches += 1
    assert searches == sum(map(len, LEAST_DECIDING_BUDGET.values())) + sum(
        map(len, COMPLEMENT_BUDGET_ON_THE_PARTS.values()))


def test_slicing_keeps_the_recorded_phase_2_counts():
    """The searches that phase 1 leaves undecided in the partition-tables
    benchmark, in its block order and level relabeling for each recorded
    seed: phase 2 spends the recorded nodes, in slices or at once, and
    the products decide by their witness."""
    import json
    from pathlib import Path

    from mpart.constructions import cartesian_product
    from mpart.ingredients import catalog_entries
    from mpart.verify import _digit_sums, _quotas

    here = Path(__file__).resolve().parent
    inputs = json.loads((here / "undecided_searches.json").read_text())["searches"]
    recorded = json.loads((here.parent / "BENCH_10.json").read_text())[
        "undecided_searches"]["searches"]
    assert inputs.keys() == recorded.keys()
    entries = {entry.name: entry for entry in catalog_entries(max_blocks=64)}
    checked = 0
    for name, search in inputs.items():
        c = search["c"]
        if "product" in search:
            blocks = cartesian_product([get_bibd(*vkl) for vkl in search["product"]]).blocks
        else:
            built = entries[search["entry"]].build().blocks
            blocks = [(built[t],) for t in search["order"]]
        assert search["levels"].keys() == recorded[name].keys(), name
        for seed, levels in search["levels"].items():
            d = MultipartDesign(
                v=tuple(map(len, levels)),
                blocks=tuple(tuple(tuple(sorted(level[x] for x in part))
                                   for level, part in zip(levels, block))
                             for block in blocks))
            expected = recorded[name][seed]
            product = expected == "witness"
            (first, _), (second, nodes) = _phases_in_slices(
                _quotas(d, c), 4 * FIRST_SLICE, 200 if product else 50_000)
            assert first is UNKNOWN, (name, seed)
            if product:
                witness = _digit_sums(d, c)
                assert verify_partition(d, witness), (name, seed)
                assert find_partition(d, c, budget=50_000) == witness, (name, seed)
            else:
                assert nodes == expected and verify_partition(d, second), (name, seed)
            checked += 1
    assert checked == sum(map(len, recorded.values()))
