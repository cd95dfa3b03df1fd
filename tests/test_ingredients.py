import hashlib
import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from mpart.errors import (
    UNKNOWN,
    DesignError,
    InvalidInputError,
    NotConstructibleError,
    NotInCatalogError,
)
from mpart.fixtures import steiner_3_22_6
from mpart.ingredients import (
    HadamardMatrix,
    OrthogonalArray,
    brute_force_bibd,
    catalog_entries,
    check_t_design,
    full_factorial_oa,
    get_bibd,
    hadamard_halves,
    hadamard_matrix,
    kirkman_15,
    orthogonal_array,
    resolvable_classes,
)
from mpart.model import BlockDesign, BlockPartition, as_multipart
from mpart.verify import find_partition, verify_partition

from helpers import (
    oracle_constant,
    oracle_pair_counts,
    oracle_partition_exists,
    oracle_strength_counts,
    oracle_subset_counts,
)


def test_check_t_design_fano():
    fano = get_bibd(7, 3, 1)
    # oracle: enumerate all 21 pairs directly
    counts = oracle_pair_counts([(b,) for b in fano.blocks], 0)
    assert oracle_constant(counts, combinations(range(7), 2)) == 1
    assert check_t_design(fano, 2) == 1


def test_check_t_design_steiner_triple_coverage():
    assert check_t_design(steiner_3_22_6(), 3) == 1


def test_check_t_design_repeated_pair_unbalanced():
    d = BlockDesign(v=4, blocks=((0, 1), (0, 1), (2, 3)))
    assert check_t_design(d, 2) is None


def test_check_t_design_needs_uniform_sizes():
    d = BlockDesign(v=4, blocks=((0, 1), (0, 1, 2)))
    assert check_t_design(d, 2) is None


def test_get_bibd_fano():
    fano = get_bibd(7, 3, 1)
    assert fano.b == 7
    assert check_t_design(fano, 2) == 1


def test_get_bibd_biplane_symmetric():
    biplane = get_bibd(11, 5, 2)
    assert biplane.b == 11
    # symmetric: every two blocks meet in lambda points
    meets = {len(set(a) & set(b)) for a, b in combinations(biplane.blocks, 2)}
    assert meets == {2}


def test_get_bibd_6_3_2_from_oracle():
    d = get_bibd(6, 3, 2)
    assert d.b == 10
    assert check_t_design(d, 2) == 2


def test_get_bibd_complements_and_errors():
    comp = get_bibd(7, 4, 2)
    assert comp.b == 7 and check_t_design(comp, 2) == 2
    with pytest.raises(InvalidInputError):
        get_bibd(7, 7, 1)
    with pytest.raises(InvalidInputError):
        get_bibd(8, 3, 1)  # r = 8*3/... divisibility fails
    with pytest.raises(NotInCatalogError):
        get_bibd(22, 7, 14)  # admissible but not built in


def test_every_catalog_entry_validates():
    entries = catalog_entries(max_blocks=256)
    keys = [(e.v, e.k, e.lam) for e in entries]
    assert len(set(keys)) == len(keys)
    for entry in entries:
        design = entry.build()
        assert design.b == entry.b, entry.name
        assert entry.symmetric == (design.b == design.v), entry.name
        assert {len(b) for b in design.blocks} == {entry.k}, entry.name
        assert check_t_design(design, 2) == entry.lam, entry.name
        assert get_bibd(entry.v, entry.k, entry.lam).blocks == design.blocks, entry.name


def test_resolvable_classes_pair_design_4():
    classes = resolvable_classes(get_bibd(4, 2, 1))
    assert classes is not None and classes.c == 3
    assert classes.classes == ((0, 5), (1, 4), (2, 3))


def test_resolvable_classes_affine_plane_9():
    d = get_bibd(9, 3, 1)
    classes = resolvable_classes(d)
    assert classes is not None and classes.c == 4
    for cls in classes.classes:
        covered = sorted(x for t in cls for x in d.blocks[t])
        assert covered == list(range(9))


def test_resolvable_classes_fano_rejected_at_pre():
    assert resolvable_classes(get_bibd(7, 3, 1)) is None


def test_resolvable_classes_kirkman():
    d = kirkman_15()
    classes = resolvable_classes(d)
    assert classes is not None and classes.c == 7


def test_unique_6_3_2_not_resolvable():
    # no two blocks are disjoint, so no parallel class exists
    d = get_bibd(6, 3, 2)
    assert all(set(a) & set(b)
               for a, b in combinations(d.blocks, 2))
    assert resolvable_classes(d) is None


def _random_block_design(rng: random.Random) -> BlockDesign:
    """Random parallel classes, a few blocks replaced by copies of others, shuffled."""
    k = rng.randint(1, 3)
    v = k * rng.randint(1, 4)
    blocks = []
    for _ in range(rng.randint(1, 4)):
        points = rng.sample(range(v), v)
        blocks += [tuple(sorted(points[s:s + k])) for s in range(0, v, k)]
    for _ in range(rng.randint(0, 2)):
        blocks[rng.randrange(len(blocks))] = rng.choice(blocks)
    rng.shuffle(blocks)
    return BlockDesign(v=v, blocks=tuple(blocks))


# Indices, in the order test_resolvable_classes_agrees_with_the_oracle
# builds them, of the designs that the earlier least-uncovered-point search
# resolved: every one must still resolve.
RESOLVED_BY_THE_POINT_SEARCH = (
    3, 17, 23, 25, 42, 53, 57, 63, 77, 102, 121, 123, 131, 132, 134, 141, 142, 152, 158,
    161, 164, 169, 171, 174, 176, 184, 186, 190, 191, 192, 195, 196, 199, 200, 205, 214,
    215, 216, 219, 223, 225, 226, 227, 234, 235, 236, 240, 241, 247, 249, 251, 252, 255,
    266, 276, 278, 281, 282, 286, 287, 289, 304, 306, 309, 317, 320, 321, 324, 326, 333,
    339, 346, 349, 351, 354, 355, 361, 363, 370, 371, 372, 375, 381, 383, 385, 391, 399,
    400, 404, 407, 417, 419,
)


def test_resolvable_classes_agrees_with_the_oracle():
    designs = [entry.build() for entry in catalog_entries(max_blocks=80)]
    rng = random.Random(0x1507)
    designs += [_random_block_design(rng) for _ in range(300)]
    resolved = 0
    for i, design in enumerate(designs):
        got = resolvable_classes(design)
        assert got is not UNKNOWN, design
        if got is not None:
            for cls in got.classes:
                assert sorted(x for t in cls for x in design.blocks[t]) == list(range(design.v))
        r = check_t_design(design, 1)
        if design.b <= 12 and r is not None:
            blocks = [(block,) for block in design.blocks]
            assert (got is not None) == oracle_partition_exists(blocks, (design.v,), r), design
        if i in RESOLVED_BY_THE_POINT_SEARCH:
            assert got is not None, design
        resolved += got is not None
    assert resolved >= 80 and len(designs) - resolved >= 100


def test_resolvable_classes_finds_a_class_off_the_least_uncovered_point():
    # The class (0, 1, 5) meets points 0, 1 and 4 in blocks 1, 5 and 0: a
    # search that fills each class through the least uncovered point, in
    # increasing block order, never reaches it.
    design = BlockDesign(v=9, blocks=((4, 5, 8), (0, 3, 7), (3, 6, 7),
                                      (0, 1, 4), (2, 5, 8), (1, 2, 6)))
    assert resolvable_classes(design).classes == ((0, 1, 5), (2, 3, 4))


def test_resolvable_classes_needs_constant_replication():
    # Point 0 lies in every block: at c = 2 its quota would be 2, so the
    # 2-partition below exists but is no resolution.
    design = BlockDesign(v=4, blocks=((0, 1), (0, 1), (0, 2), (0, 2)))
    partition = find_partition(as_multipart(design), 2)
    assert isinstance(partition, BlockPartition)
    assert verify_partition(as_multipart(design), partition)
    assert resolvable_classes(design) is None


def test_resolvable_classes_runs_out_of_budget():
    assert resolvable_classes(kirkman_15(), budget=34) is UNKNOWN
    # At 35 nodes the answer is a resolution: 7 classes, each covering each
    # of the 15 points once.
    kirkman = kirkman_15()
    resolution = resolvable_classes(kirkman, budget=35)
    assert isinstance(resolution, BlockPartition) and resolution.c == 7
    for cls in resolution.classes:
        assert sorted(p for t in cls for p in kirkman.blocks[t]) == list(range(15))
    # undecided is not "no"
    assert resolvable_classes(get_bibd(6, 3, 2), budget=1) is UNKNOWN
    assert resolvable_classes(get_bibd(6, 3, 2), budget=2) is None


def test_resolvable_classes_of_a_long_design_never_raises():
    # 1200 blocks: the recursive search was over a thousand frames deep
    design = BlockDesign(v=4, blocks=((0, 1), (2, 3)) * 600)
    classes = resolvable_classes(design)
    assert classes.classes == tuple((t, t + 1) for t in range(0, 1200, 2))


def test_hadamard_matrix_builtin_order_12():
    H = hadamard_matrix(12)
    arr = H.as_array()
    assert arr.shape == (12, 12)
    assert (arr[0] == 1).all()
    assert arr[1].tolist() == [1] * 6 + [-1] * 6
    assert np.array_equal(arr @ arr.T, 12 * np.eye(12, dtype=np.int64))


def test_hadamard_matrix_sylvester_8():
    H = hadamard_matrix(8)
    arr = H.as_array()
    # Sylvester doubling: block structure [[H4, H4], [H4, -H4]]
    assert np.array_equal(arr[:4, :4], arr[:4, 4:])
    assert np.array_equal(arr[:4, :4], arr[4:, :4])
    assert np.array_equal(arr[:4, :4], -arr[4:, 4:])


def test_hadamard_matrix_paley_20():
    arr = hadamard_matrix(20).as_array()
    assert np.array_equal(arr @ arr.T, 20 * np.eye(20, dtype=np.int64))


def test_hadamard_matrix_error_paths():
    with pytest.raises(InvalidInputError):
        hadamard_matrix(6)
    with pytest.raises(NotConstructibleError):
        hadamard_matrix(28)  # 27 is not prime; no built-in route


def test_hadamard_halves_is_resolvable_design():
    d = hadamard_halves(8)
    assert d.b == 14
    assert check_t_design(d, 2) == 3
    classes = resolvable_classes(d)
    assert classes is not None and classes.c == 7


def test_orthogonal_array_2_2_2():
    oa = orthogonal_array((2, 2, 2), 2)
    assert oa.s == 4
    assert oa.strength == 2


def test_orthogonal_array_9_rows():
    oa = orthogonal_array((3, 3, 3, 3), 2)
    assert oa.s == 9
    assert oa.columns == 4


def test_orthogonal_array_full_factorial():
    oa = orthogonal_array((3, 3), 2)
    assert oa.s == 9
    assert len(set(oa.rows)) == 9


@pytest.mark.parametrize("m, rows", [(24, 32), (27, 32), (28, 32), (32, 40), (35, 40)])
def test_two_symbol_arrays_skip_a_missing_hadamard_order(m, rows):
    # No built-in Hadamard matrix has order 28 or 36; the next order that
    # has one gives the rows.
    oa = orthogonal_array((2,) * m, 2)
    assert (oa.s, oa.columns) == (rows, m)
    assert OrthogonalArray(oa.rows, oa.symbols, 2).rows == oa.rows


def test_orthogonal_array_not_constructible():
    with pytest.raises(NotConstructibleError):
        orthogonal_array((6, 6, 6), 2)  # 6 is not prime


def test_orthogonal_array_check_agrees_with_the_oracle():
    rng = random.Random(15)
    verdicts = Counter()
    for trial in range(400):
        if trial % 4:
            symbols = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            rows = list(product(*map(range, symbols))) * rng.randint(1, 2)
        else:
            symbols = (3,) * 4
            rows = list(orthogonal_array(symbols, 2).rows)
        # Change a few rows: some arrays stay balanced, most do not.
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows[rng.randrange(len(rows))] = tuple(rng.randrange(s) for s in symbols)
        rng.shuffle(rows)
        t = rng.randint(1, len(symbols))
        blocks = [tuple((x,) for x in row) for row in rows]
        balanced = all(
            oracle_constant(oracle_strength_counts(blocks, cols),
                            product(*(range(symbols[c]) for c in cols))) is not None
            for cols in combinations(range(len(symbols)), t))
        verdicts[balanced] += 1
        if balanced:
            assert OrthogonalArray(rows=tuple(rows), symbols=symbols, strength=t).s == len(rows)
        else:
            with pytest.raises(InvalidInputError, match="not balanced"):
                OrthogonalArray(rows=tuple(rows), symbols=symbols, strength=t)
    assert min(verdicts.values()) >= 50


def test_brute_force_bibd_fano():
    from mpart.isomorphism import are_isomorphic
    from mpart.model import as_multipart

    found = brute_force_bibd(7, 3, 1, 7)
    assert isinstance(found, BlockDesign)
    assert check_t_design(found, 2) == 1
    assert are_isomorphic(as_multipart(found), as_multipart(get_bibd(7, 3, 1)))


def test_brute_force_bibd_all_pairs_forced():
    found = brute_force_bibd(4, 2, 1, 6)
    assert found.blocks == tuple(combinations(range(4), 2))


def test_brute_force_bibd_budget_unknown():
    assert brute_force_bibd(6, 3, 2, 10, budget=5) is UNKNOWN


def test_brute_force_bibd_inadmissible():
    with pytest.raises(InvalidInputError):
        brute_force_bibd(7, 3, 1, 8)


def _recursive_brute_force_bibd(v, k, lam, b, budget=10_000_000):
    """The search as it was when it recursed once per block, kept verbatim
    as the reference for the stack-based one."""
    r = b * k // v

    candidates = list(combinations(range(v), k))
    pair = Counter()
    rep = [0] * v
    chosen: list[tuple[int, ...]] = []
    nodes = 0

    def fits(block) -> bool:
        if any(rep[x] >= r for x in block):
            return False
        return all(pair[p] < lam for p in combinations(block, 2))

    def place(block, sign):
        for p in combinations(block, 2):
            pair[p] += sign
        for x in block:
            rep[x] += sign

    def extend(start: int):
        nonlocal nodes
        if len(chosen) == b:
            return list(chosen)
        for i in range(start, len(candidates)):
            nodes += 1
            if nodes > budget:
                return UNKNOWN
            block = candidates[i]
            if not fits(block):
                continue
            place(block, +1)
            chosen.append(block)
            got = extend(i)
            if got is UNKNOWN or got is not None:
                return got
            chosen.pop()
            place(block, -1)
        return None

    result = extend(0)
    if result is UNKNOWN:
        return UNKNOWN
    if result is None:
        return None
    return BlockDesign(v=v, blocks=tuple(result))


BRUTE_FORCE_PARAMS = [(4, 2, 1, 6), (4, 3, 2, 4), (5, 2, 1, 10), (6, 3, 2, 10),
                      (7, 3, 1, 7), (7, 4, 2, 7), (5, 3, 3, 10), (3, 2, 3, 9)]


@pytest.mark.parametrize("params", BRUTE_FORCE_PARAMS)
def test_brute_force_bibd_matches_the_recursive_search(params):
    assert brute_force_bibd(*params) == _recursive_brute_force_bibd(*params)
    # The least budget that decides the reference decides the stack-based
    # search too, and one node less leaves both undecided.
    low, high = 0, 1
    while _recursive_brute_force_bibd(*params, budget=high) is UNKNOWN:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if _recursive_brute_force_bibd(*params, budget=mid) is UNKNOWN:
            low = mid
        else:
            high = mid
    assert brute_force_bibd(*params, budget=low) is UNKNOWN
    assert brute_force_bibd(*params, budget=high) == _recursive_brute_force_bibd(
        *params, budget=high)


@pytest.mark.parametrize("params", BRUTE_FORCE_PARAMS)
def test_brute_force_bibd_finds_a_design_that_exists(params):
    # Each of these 2-(v,k,lam) designs exists (Colbourn & Dinitz, Handbook
    # of Combinatorial Designs, 2nd ed., 2007): recount the one found.
    v, k, lam, b = params
    found = brute_force_bibd(*params)
    assert isinstance(found, BlockDesign) and found.b == b
    assert {len(set(block)) for block in found.blocks} == {k}
    r = lam * (v - 1) // (k - 1)
    for t, count in ((1, r), (2, lam)):
        subsets = combinations(range(v), t)
        assert oracle_constant(oracle_subset_counts(found.blocks, t), subsets) == count


def test_brute_force_bibd_does_not_recurse_per_block():
    # 1200 blocks: the recursive search overflowed Python's stack here.
    found = brute_force_bibd(3, 2, 400, 1200)
    assert isinstance(found, BlockDesign) and found.b == 1200
    assert check_t_design(found, 2) == 400


# SHA-256 over the Hadamard matrices of order 1-128, the orthogonal arrays
# of every built-in family, and the errors raised for arrays that are
# refused, recorded before the Sylvester and orthogonal-array balance
# rules were folded into the general ones: no entry or row may move.
INGREDIENTS_DIGEST = "8419630bd427eb411f792bef0548693bbc5dc8dc45bc9d3f6fa75746a06a144a"


def _refused(build):
    try:
        return build()
    except DesignError as exc:
        return type(exc).__name__, str(exc)


def _ingredient_outputs():
    """Each Hadamard order 1..128 (or its error); every strength of the
    arrays with up to four columns over one alphabet of 2..7 symbols, of
    up to fifteen two-symbol columns and of a few mixed alphabets; full
    factorials; and one refused array per strength and per check."""
    for n in range(1, 129):
        H = _refused(lambda: hadamard_matrix(n))
        yield ("hadamard", n), H.entries if isinstance(H, HadamardMatrix) else H
    alphabets = ([(s,) * m for s in range(2, 8) for m in range(1, 5)]
                 + [(2,) * m for m in range(5, 16)] + [(2, 3), (3, 2), (2, 3, 4), (6, 6, 6)])
    for symbols in alphabets:
        for strength in range(1, len(symbols) + 1):
            oa = _refused(lambda: orthogonal_array(symbols, strength))
            yield ("oa", symbols, strength), (
                (oa.rows, oa.symbols, oa.strength) if isinstance(oa, OrthogonalArray) else oa)
    for symbols in ((3, 4), (6, 10), (2, 2, 3)):
        yield ("full", symbols), full_factorial_oa(symbols).rows
    cube = list(product(range(2), repeat=3))
    refused = [
        (((0,), (0,), (1,)), (2,), 1),
        (((0,), (0,)), (2,), 1),
        (((0, 0), (0, 1), (1, 0), (1, 0)), (2, 2), 2),
        (((0, 0), (0, 0), (1, 1), (1, 1)), (2, 2), 2),
        (((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)), (2, 2, 2), 2),
        (tuple(cube[:-1]) + ((0, 0, 0),), (2, 2, 2), 3),
        (tuple(row + (row[0],) for row in cube), (2, 2, 2, 2), 3),
        (((0, 2),), (2, 3), 1),
        (((0, 3),), (2, 3), 1),
        (((0, 1), (1,)), (2, 2), 1),
        ((), (2,), 1),
        (((0, 1),), (2, 2), 0),
        (((0, 1),), (2, 2), 3),
        (((0, 1), (1, 0), (0, 0), (1, 1)), (2, 2), 1),
    ]
    for rows, symbols, strength in refused:
        oa = _refused(lambda: OrthogonalArray(rows, symbols, strength))
        yield ("array", rows, symbols, strength), (
            oa.rows if isinstance(oa, OrthogonalArray) else oa)


def test_ingredient_outputs_match_the_recorded_digest():
    h = hashlib.sha256()
    count = 0
    for label, out in _ingredient_outputs():
        h.update(repr((label, out)).encode() + b"\n")
        count += 1
    assert (count, h.hexdigest()) == (325, INGREDIENTS_DIGEST)
