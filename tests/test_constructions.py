import hashlib
import random

import pytest

from mpart.constructions import (
    arrange_by_classes,
    augment,
    cartesian_product,
    class_matched_product,
    hadamard_2part,
    meet_filter,
    multipart_product,
    oa_compose,
    orbit_design,
    part_swap,
    row_pair_partition,
    subcartesian_product,
    symmetric_block_split,
)
from mpart.errors import (
    ClassCountMismatchError,
    ClassNotUniformError,
    DesignError,
    ComplementTooSmallError,
    FactorNotPreservedError,
    IngredientNotBalancedError,
    InvalidInputError,
    LambdaTooSmallError,
    NoBlocksSelectedError,
    NotConstructibleError,
    NotHadamardError,
    NotNormalizableError,
    NotSymmetricDesignError,
    SizeMismatchError,
)
from mpart.fixtures import (
    DESIGN_FIXTURES,
    EXTENSION_POINT_23,
    load_design,
    steiner_3_22_6,
    steiner_4_23_7,
)
from mpart.ingredients import (
    catalog_entries,
    full_factorial_oa,
    get_bibd,
    hadamard_matrix,
    orthogonal_array,
    resolvable_classes,
)
from mpart.isomorphism import are_isomorphic
from mpart.model import (
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    as_multipart,
    complement_design,
    zip_design,
)
from mpart.verify import check_multipart, check_strength, find_partition

from helpers import oracle_lambda


# ---------------------------------------------------------------- products


def test_cartesian_product_pair_designs():
    d = cartesian_product([get_bibd(3, 2, 1), get_bibd(3, 2, 1)])
    assert d.b == 9 and d.v == (3, 3)
    report = check_multipart(d)
    assert report.valid and report.k == (2, 2)


def test_cartesian_product_fano_times_pairs():
    d = cartesian_product([get_bibd(7, 3, 1), get_bibd(3, 2, 1)])
    assert d.b == 21 and d.v == (7, 3)
    assert check_multipart(d).valid


def test_cartesian_product_single_ingredient():
    fano = get_bibd(7, 3, 1)
    d = cartesian_product([fano])
    assert d.m == 1 and d.b == 7
    assert d.blocks == tuple((b,) for b in fano.blocks)


def test_cartesian_product_rejects_unbalanced():
    bad = BlockDesign(v=4, blocks=((0, 1), (0, 1), (2, 3)))
    with pytest.raises(IngredientNotBalancedError):
        cartesian_product([bad, get_bibd(3, 2, 1)])


def test_subcartesian_gives_fig3():
    d1 = get_bibd(3, 2, 1)
    d2 = get_bibd(4, 2, 1)
    classes = resolvable_classes(d2)
    d = subcartesian_product(d1, d2, classes)
    assert d.b == 6
    assert are_isomorphic(d, load_design("fig3"))


def test_subcartesian_matches_resolution_classes_fig5a():
    r421 = get_bibd(4, 2, 1)
    classes = resolvable_classes(r421)
    arranged = arrange_by_classes(r421, classes)
    d = subcartesian_product(arranged, r421, classes)
    assert d.b == 12
    assert are_isomorphic(d, load_design("fig5a"))
    # index-order groups of the lexicographic pair list are not parallel
    # classes, which gives the other design
    d_other = subcartesian_product(r421, r421, classes)
    assert are_isomorphic(d_other, load_design("fig5b"))
    assert not are_isomorphic(d, d_other)


def test_subcartesian_fano_with_kirkman():
    fano = get_bibd(7, 3, 1)
    kirkman = get_bibd(15, 3, 1)
    classes = resolvable_classes(kirkman)
    assert classes.c == 7
    d = subcartesian_product(fano, kirkman, classes)
    assert d.b == 35
    report = check_multipart(d)
    assert report.valid
    assert report.r == (35 * 3 // 7, 35 * 3 // 15)  # (15, 7) by counting
    assert report.within_lambda == (5, 1)
    assert report.cross_lambda[0][1] == 3


def test_subcartesian_class_count_must_divide():
    d2 = get_bibd(4, 2, 1)
    classes = resolvable_classes(d2)
    with pytest.raises(ClassCountMismatchError):
        subcartesian_product(get_bibd(7, 3, 1), d2, classes)  # 3 does not divide 7


def test_unequal_classes_are_refused_by_every_class_construction():
    r421 = get_bibd(4, 2, 1)
    unequal = BlockPartition(((0, 1), (2, 3), (4, 5)))  # class 0 holds point 0 twice
    with pytest.raises(ClassNotUniformError):
        subcartesian_product(get_bibd(3, 2, 1), r421, unequal)
    with pytest.raises(ClassNotUniformError):
        oa_compose([r421] * 3, [unequal] * 3, orthogonal_array((2, 2, 2), 2))
    with pytest.raises(ClassNotUniformError):
        class_matched_product(as_multipart(r421), unequal, get_bibd(3, 2, 1))


# ---------------------------------------------------------------- hadamard


def test_hadamard_2part_order_12_matrix():
    d = hadamard_2part(hadamard_matrix(12), 1)
    assert d.b == 20 and d.v == (6, 6)
    report = check_multipart(d)
    assert report.valid and report.k == (3, 3)
    # equals the first two factors of the three-factor fixture exactly
    from mpart.model import select_factors

    assert d == select_factors(load_design("fig4b"), (0, 1))


def test_hadamard_2part_sylvester_8():
    d = hadamard_2part(hadamard_matrix(8), 1)
    assert d.b == 12 and d.v == (4, 4)
    assert check_multipart(d).valid


def test_hadamard_2part_order_4_rejected():
    with pytest.raises(NotHadamardError):
        hadamard_2part(hadamard_matrix(4), 1)


def test_hadamard_2part_second_row_validation():
    with pytest.raises(NotNormalizableError):
        hadamard_2part(hadamard_matrix(12), 0)


def test_hadamard_2part_rejects_non_hadamard():
    import numpy as np

    with pytest.raises(NotHadamardError):
        hadamard_2part(np.ones((8, 8), dtype=int), 1)


# ---------------------------------------------------------------- symmetric split


def test_symmetric_block_split_biplane():
    d = symmetric_block_split(get_bibd(11, 5, 2), 0)
    report = check_multipart(d)
    assert report.valid
    assert (d.b, d.v, report.k) == (10, (6, 5), (3, 2))
    assert report.r == (5, 4)
    assert report.within_lambda == (2, 1)
    assert report.cross_lambda[0][1] == 2


def test_symmetric_block_split_7_4_2():
    d = symmetric_block_split(get_bibd(7, 4, 2), 0)
    report = check_multipart(d)
    assert report.valid
    assert (d.b, d.v, report.k) == (6, (3, 4), (2, 2))
    assert are_isomorphic(d, load_design("fig3"))


def test_symmetric_block_split_meets_basic_bound_exactly():
    for v, k, lam in ((11, 5, 2), (7, 4, 2), (16, 6, 2)):
        d = symmetric_block_split(get_bibd(v, k, lam), 0)
        assert d.b == d.v[0] + d.v[1] - 1


def test_symmetric_block_split_fano_lambda_too_small():
    with pytest.raises(LambdaTooSmallError):
        symmetric_block_split(get_bibd(7, 3, 1), 0)


def test_symmetric_block_split_needs_symmetric():
    with pytest.raises(NotSymmetricDesignError):
        symmetric_block_split(get_bibd(6, 3, 2), 0)


# ---------------------------------------------------------------- augment


def test_augment_fig1_gives_fig4a():
    d = augment(load_design("fig1"), 1)
    assert d.b == 20 and d.v == (6, 6)
    assert d == load_design("fig4a")  # exact block order as listed


def test_augment_size_mismatch():
    with pytest.raises(SizeMismatchError):
        augment(load_design("fig5a"), 0)  # v=4, k=2 is not 2k+1


def test_augment_output_is_valid():
    d = augment(load_design("fig1"), 1)
    report = check_multipart(d)
    assert report.valid
    # recount: doubled blocks, lambda values by direct count
    assert oracle_lambda(d.blocks, d.v, 1, 1) == 4
    assert oracle_lambda(d.blocks, d.v, 0, 1) == 5


# ---------------------------------------------------------------- orbit and filter


def test_orbit_design_s3_times_s3():
    gens = [
        (1, 2, 0, 3, 4, 5),
        (1, 0, 2, 3, 4, 5),
        (0, 1, 2, 4, 5, 3),
        (0, 1, 2, 4, 3, 5),
    ]
    d = orbit_design((3, 3), gens, ((0, 1), (0, 1)))
    product = cartesian_product([get_bibd(3, 2, 1), get_bibd(3, 2, 1)])
    assert d == product  # all 9 pair-pairs


def test_orbit_design_no_generators():
    d = orbit_design((3, 3), [], ((0, 1), (0, 1)))
    assert d.b == 1
    assert not check_multipart(d).valid


def test_orbit_design_cyclic_shift_unbalanced():
    shift = (1, 2, 0, 4, 5, 3)
    d = orbit_design((3, 3), [shift], ((0, 1), (0, 1)))
    assert d.b == 3
    # enumerate the 3 images: C parts equal D parts, so (x, x) pairs occur
    # twice while (x, x+1) pairs occur once: cross balance fails
    assert oracle_lambda(d.blocks, d.v, 0, 1) is None
    report = check_multipart(d)
    assert not report.valid
    assert not report.cross_balance[0][1]


def test_orbit_design_factor_not_preserved():
    with pytest.raises(FactorNotPreservedError):
        orbit_design((3, 3), [(3, 4, 5, 0, 1, 2)], ((0, 1), (0, 1)))


@pytest.mark.parametrize("seed", [
    ((0, 4), (0, 1)),     # level 4 would land in the second factor
    ((0, 1), (0, 5)),     # level 5 is past the second factor
    ((0, 0, 1), (0, 1)),  # a repeated level
    ((0, -1), (0, 1)),    # a negative level
    ((0, 1.5), (0, 1)),   # a level that is no integer
])
def test_orbit_design_rejects_seed_levels_outside_their_factor(seed):
    with pytest.raises(InvalidInputError):
        orbit_design((3, 3), [], seed)


def test_meet_filter_steiner_22():
    host = steiner_3_22_6()
    d = meet_filter(host, host.blocks[0], 2)
    report = check_multipart(d)
    assert report.valid
    assert (d.b, d.v, report.k) == (60, (6, 16), (2, 4))
    assert report.within_lambda == (4, 3)
    assert report.cross_lambda[0][1] == 5


def test_meet_filter_from_23_point_block():
    host = steiner_3_22_6()
    theta = steiner_4_23_7()
    special = next(b for b in theta.blocks if EXTENSION_POINT_23 not in b)
    d = meet_filter(host, special, 3)
    report = check_multipart(d)
    assert report.valid
    assert (d.b, d.v, report.k) == (35, (7, 15), (3, 3))
    assert report.within_lambda == (5, 1)
    assert report.cross_lambda[0][1] == 3


def test_meet_filter_fano_boundary():
    fano = get_bibd(7, 3, 1)
    with pytest.raises(NoBlocksSelectedError):
        meet_filter(fano, fano.blocks[0], 3)


# ---------------------------------------------------------------- oa compose / products


def test_oa_compose_fig8a():
    pair3 = get_bibd(3, 2, 1)
    single = find_partition(as_multipart(pair3), 1)
    oa = orthogonal_array((3, 3, 3), 2)
    d = oa_compose([pair3] * 3, [single] * 3, oa)
    assert d.b == 9
    assert are_isomorphic(d, load_design("fig8a"))


def test_oa_compose_fig8b():
    r421 = get_bibd(4, 2, 1)
    classes = resolvable_classes(r421)
    oa = orthogonal_array((2, 2, 2), 2)
    d = oa_compose([r421] * 3, [classes] * 3, oa)
    assert d.b == 12
    assert are_isomorphic(d, load_design("fig8b"))
    assert check_strength(d, 2) is not None
    assert check_strength(d, 3) is None


def test_oa_compose_full_factorial_equals_cartesian():
    a = get_bibd(3, 2, 1)
    b = get_bibd(4, 3, 2)
    oa = full_factorial_oa((a.b, b.b))
    single_a = find_partition(as_multipart(a), 1)
    single_b = find_partition(as_multipart(b), 1)
    composed = oa_compose([a, b], [single_a, single_b], oa)
    assert sorted(composed.blocks) == sorted(cartesian_product([a, b]).blocks)


def test_oa_compose_symbol_mismatch():
    from mpart.errors import SymbolCountMismatchError

    r421 = get_bibd(4, 2, 1)
    classes = resolvable_classes(r421)
    oa = orthogonal_array((3, 3, 3), 2)  # classes have 2 blocks, not 3
    with pytest.raises(SymbolCountMismatchError):
        oa_compose([r421] * 3, [classes] * 3, oa)


def test_multipart_product_strength_3():
    d = multipart_product(load_design("fig1"), as_multipart(get_bibd(3, 2, 1)))
    assert d.b == 30 and d.m == 3
    assert check_strength(d, 3) is not None


def test_multipart_product_constant_factor_rejected():
    single = MultipartDesign(v=(3,), blocks=(((0, 1, 2),),))
    d = multipart_product(load_design("fig1"), single)
    assert d.b == 10 and d.m == 3
    assert not check_multipart(d).valid  # appended factor has k = v


def test_multipart_product_fig8a_times_pairs():
    d = multipart_product(load_design("fig8a"), as_multipart(get_bibd(3, 2, 1)))
    assert d.b == 27 and d.m == 4
    assert check_strength(d, 2) is not None


def test_oa_compose_four_columns_gives_fig9():
    pair3 = get_bibd(3, 2, 1)
    single = find_partition(as_multipart(pair3), 1)
    oa = orthogonal_array((3, 3, 3, 3), 2)
    d = oa_compose([pair3] * 4, [single] * 4, oa)
    assert d.b == 9 and d.m == 4
    assert are_isomorphic(d, load_design("fig9"))


def test_class_matched_product_builds_fig4b():
    h = hadamard_2part(hadamard_matrix(12), 1)
    d = class_matched_product(h, row_pair_partition(h), get_bibd(5, 2, 1))
    assert d.m == 3 and d.b == 20
    assert d == load_design("fig4b")  # exact match, block for block


def test_class_matched_product_single_class():
    theta = load_design("fig1")
    single = find_partition(theta, 1)
    delta = BlockDesign(v=3, blocks=((0, 1),))
    d = class_matched_product(theta, single, delta)
    assert d.m == 3
    assert all(block[2] == (0, 1) for block in d.blocks)


def test_class_matched_product_count_mismatch():
    h = hadamard_2part(hadamard_matrix(12), 1)
    with pytest.raises(ClassCountMismatchError):
        class_matched_product(h, row_pair_partition(h), get_bibd(4, 2, 1))


# ---------------------------------------------------------------- part swap


def test_part_swap_fig1_parameters():
    d = part_swap(load_design("fig1"), 0)
    report = check_multipart(d)
    assert report.valid
    assert report.k == (3, 2)
    # formulas: b - 2 r1 + lam11 and r2 - lam12, confirmed by recount
    assert report.within_lambda[0] == 10 - 2 * 5 + 2 == 2
    assert report.cross_lambda[0][1] == 4 - 2 == 2
    assert oracle_lambda(d.blocks, d.v, 0, 0) == 2
    assert oracle_lambda(d.blocks, d.v, 0, 1) == 2


def test_part_swap_complement_too_small():
    with pytest.raises(ComplementTooSmallError):
        part_swap(load_design("fig3"), 0)  # v=3, k=2


def test_part_swap_double_swap_is_zipped_complement():
    d = load_design("fig5a")
    swapped = part_swap(part_swap(d, 0), 1)
    assert check_multipart(swapped).valid
    z = zip_design(d)
    zs = zip_design(swapped)
    full = set(range(z.v))
    assert zs.blocks == tuple(tuple(sorted(full - set(b))) for b in z.blocks)


def test_part_swap_involution():
    rng = random.Random(5)
    from helpers import random_design

    for _ in range(25):
        # sizes in [2, v-2] so both swaps satisfy the complement bound
        d = random_design(rng, max_v=7, min_part=2, max_part_slack=2)
        f = rng.randrange(d.m)
        assert part_swap(part_swap(d, f), f).blocks == d.blocks


# ---------------------------------------------------------------- refusals

_K3, _K4, _FANO = get_bibd(3, 2, 1), get_bibd(4, 2, 1), get_bibd(7, 3, 1)
_PAIRS = BlockPartition(((0, 1), (2, 3), (4, 5)))
_FOUR = BlockPartition(((0, 1), (2, 3)))

REFUSALS = {
    "oa-columns": (lambda: oa_compose([_K4] * 3, [_PAIRS] * 3, orthogonal_array([2, 2], 2)),
                   ClassCountMismatchError, "2 columns for 3 ingredients"),
    "oa-partitions": (lambda: oa_compose([_K4] * 2, [_PAIRS], orthogonal_array([2, 2], 2)),
                      ClassCountMismatchError, "1 partitions for 2 ingredients"),
    "oa-classes": (lambda: oa_compose([_K4] * 2, [_PAIRS, BlockPartition((tuple(range(6)),))],
                                      orthogonal_array([2, 2], 2)),
                   ClassCountMismatchError, r"class counts differ: \[1, 3\]"),
    "orbit-non-permutation": (lambda: orbit_design((3,), [(0, 0, 1)], ((0, 1),)),
                              InvalidInputError, "not a permutation of 3 points"),
    "orbit-moved-factor": (lambda: orbit_design((2, 2), [(0, 2, 1, 3)], ((0, 1), (0, 1))),
                           FactorNotPreservedError, "does not preserve factor 0"),
    "orbit-short-seed": (lambda: orbit_design((3, 3), [], ((0, 1),)),
                         InvalidInputError, "seed has 1 parts, expected 2"),
    "orbit-one-level-seed-part": (lambda: orbit_design((3, 3), [], ((0,), (0, 1))),
                                  InvalidInputError, "at least two levels"),
    "partition-size": (lambda: subcartesian_product(_K3, _K4, _FOUR),
                       ClassCountMismatchError, "partition covers 4 blocks, design has 6"),
    "arrange-size": (lambda: arrange_by_classes(_K4, _FOUR),
                     ClassCountMismatchError, "partition covers 4 blocks, design has 6"),
    "augment-non-uniform": (
        lambda: augment(MultipartDesign(v=(3,), blocks=(((0,),), ((0, 1),))), 0),
        SizeMismatchError, "uniform part size"),
    "augment-factor": (lambda: augment(load_design("fig1"), 2),
                       InvalidInputError, "factor 2 out of range"),
    "part-swap-factor": (lambda: part_swap(load_design("fig1"), -1),
                         InvalidInputError, "factor -1 out of range"),
    "symmetric-gamma": (lambda: symmetric_block_split(get_bibd(7, 4, 2), 7),
                        InvalidInputError, "block index 7 out of range"),
    "row-pairs-odd-b": (lambda: row_pair_partition(as_multipart(_FANO)),
                        InvalidInputError, "even number of blocks"),
    "cartesian-empty": (lambda: cartesian_product([]),
                        InvalidInputError, "at least one ingredient"),
    "meet-outside": (lambda: meet_filter(_FANO, [0, 7], 1),
                     InvalidInputError, "subset of the points"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_constructions_refuse_mismatched_inputs(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------- pinned split outputs

# SHA-256 over every block split below and over three catalog listings,
# recorded before the Hadamard, symmetric and meet-filter splits were
# folded into one helper: the blocks and their order must not move.
SPLIT_DIGEST = "e841627778cc7a5ddf93b2cb2d47e2623e190ec0f2507b2e3510d3a8acbdf0ee"
CATALOG_DIGEST = "bd6a392d6266e1ac2f083502f9414bf2b269d07b128750702f2b827daba9001c"


def _split_outputs():
    """Every second row of the Hadamard matrices of order 8-32, every
    gamma of the catalog's symmetric designs with lambda >= 2 (the
    all-(v-1)-subsets family aside), and the meet filter on 20 blocks of
    the 3-(22,6,1) system at t = 1, 2, 3 (an empty selection is kept as
    its error name)."""
    for order in range(8, 33, 4):
        try:
            H = hadamard_matrix(order)
        except NotConstructibleError:
            continue
        for row in range(1, order):
            yield ("hadamard", order, row), hadamard_2part(H, row)
    for entry in catalog_entries(64):
        if entry.symmetric and entry.lam >= 2 and entry.k != entry.v - 1:
            design = entry.build()
            for gamma in range(design.b):
                yield ("symmetric", entry.name, gamma), symmetric_block_split(design, gamma)
    host = steiner_3_22_6()
    for special in host.blocks[:20]:
        for t in (1, 2, 3):
            try:
                yield ("meet", special, t), meet_filter(host, special, t)
            except NoBlocksSelectedError as exc:
                yield ("meet", special, t), type(exc).__name__


def _digest(items) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for label, out in items:
        body = out if isinstance(out, str) else (out.v, out.blocks)
        h.update(repr((label, body)).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def test_split_outputs_match_the_recorded_digest():
    assert _digest(_split_outputs()) == (404, SPLIT_DIGEST)


def test_catalog_listings_match_the_recorded_digest():
    def listing():
        for max_blocks in (64, 80, 256):
            for e in catalog_entries(max_blocks):
                yield (max_blocks, e.name, e.v, e.k, e.lam, e.b, e.symmetric), e.build()

    assert _digest(listing()) == (539, CATALOG_DIGEST)


# SHA-256 over the outputs of the model rules that each have one owner
# (the zipped layout, pair balance, the catalog families, Hadamard
# validity, part complements and class checks), recorded before those
# rules were deduplicated: the blocks and their order must not move.
RULES_DIGEST = "a5770fdd3542597f298abb8e775a9e75f6faf5e6ff5afe39231998765c72abd4"


def _random_orbit(rng):
    """Level counts, factor-preserving generators and a valid seed."""
    v = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 3)))
    offsets = [sum(v[:i]) for i in range(len(v))]
    generators = []
    for _ in range(rng.randint(0, 2)):
        perm = []
        for off, size in zip(offsets, v):
            perm += [off + x for x in rng.sample(range(size), size)]
        generators.append(perm)
    seed = [rng.sample(range(size), rng.randint(2, size)) for size in v]
    return v, generators, seed


def _rule_outputs():
    """400 seeded random orbits; the pair designs v = 3..40 and the
    (v-1)-subset designs v = 4..300 from the catalog; augment and part
    swap on every fixture factor (a refusal kept as its error name); the
    class-matched product of every Hadamard 12/16 split with its row-pair
    classes and each catalog design of one block per class; and the
    complement of every catalog design of at most 256 blocks."""
    rng = random.Random(7)
    for n in range(400):
        yield ("orbit", n), orbit_design(*_random_orbit(rng))
    for v in range(3, 41):
        yield ("pairs", v), get_bibd(v, 2, 1)
    for v in range(4, 301):
        yield ("subsets", v), get_bibd(v, v - 1, v - 2)
    for name in DESIGN_FIXTURES:
        design = load_design(name)
        for rule in (augment, part_swap):
            for factor in range(design.m):
                try:
                    yield (rule.__name__, name, factor), rule(design, factor)
                except DesignError as exc:
                    yield (rule.__name__, name, factor), type(exc).__name__
    entries = catalog_entries(64)
    for order in (12, 16):
        H = hadamard_matrix(order)
        for row in range(1, order):
            theta = hadamard_2part(H, row)
            for e in entries:
                if e.b == theta.b // 2:
                    yield (("matched", order, row, e.name),
                           class_matched_product(theta, row_pair_partition(theta), e.build()))
    for e in catalog_entries(256):
        yield ("complement", e.name), complement_design(e.build())


def test_rule_outputs_match_the_recorded_digest():
    assert _digest(_rule_outputs()) == (1172, RULES_DIGEST)
