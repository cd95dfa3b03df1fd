import pytest

from mpart.constructions import (
    augment,
    hadamard_2part,
    meet_filter,
    multipart_product,
    oa_compose,
    orbit_design,
    part_swap,
    subcartesian_product,
    symmetric_block_split,
)
from mpart.errors import InvalidInputError
from mpart.files import parse_concise, serialize_concise
from mpart.fixtures import load_design
from mpart.ingredients import (
    HadamardMatrix,
    OrthogonalArray,
    affine_plane,
    brute_force_bibd,
    catalog_entries,
    cyclic_development,
    full_factorial_oa,
    get_bibd,
    hadamard_matrix,
    orthogonal_array,
    resolvable_classes,
)
from mpart.isomorphism import are_isomorphic, are_weakly_isomorphic, canonical_form
from mpart.model import (
    BlockPartition,
    MultipartDesign,
    as_multipart,
    permute_factors,
    reorder_blocks,
    select_factors,
)
from mpart.tables import enumerate_reachable
from mpart.verify import check_admissible, check_multipart, check_strength, find_partition


def _reordered(partition: BlockPartition, order) -> BlockPartition:
    return BlockPartition(tuple(partition.classes[j] for j in order))


@pytest.mark.parametrize("call", [
    lambda: check_admissible(7, [7.9], [3.2]),
    lambda: check_admissible(7.5, [7], [3]),
    lambda: check_admissible(7, [7], [3], c=1.0),
    lambda: meet_filter(get_bibd(7, 3, 1), [0.5, 1.9, 2, 3, 4, 5], 2),
    lambda: orbit_design([3.0], [(1, 2, 0)], [(0, 1)]),
    lambda: orbit_design([3], [(1, 2, 0.0)], [(0, 1)]),
    lambda: OrthogonalArray(rows=((0,), (1.5,)), symbols=(2,), strength=1),
    lambda: OrthogonalArray(rows=((0,), (1,)), symbols=(2.5,), strength=1),
    lambda: OrthogonalArray(rows=((0,), (1,)), symbols=(2,), strength=1.0),
    lambda: full_factorial_oa([2.5]),
    lambda: orthogonal_array([2.0, 2], 2),
    lambda: BlockPartition(((0.9, 1), (2, 3))),
    lambda: HadamardMatrix(((1.9, 1), (1, -1.5))),
    lambda: HadamardMatrix(((1, 1), (1.0, -1))),
    lambda: HadamardMatrix((("1", "1"), ("1", "-1"))),
    lambda: get_bibd(7.0, 3, 1),
    lambda: brute_force_bibd(6, 3, 2, 10.0),
    lambda: brute_force_bibd(6, 3, 2, 10, budget=2.5),
    lambda: find_partition(load_design("fig1"), 5, budget=2.5),
    lambda: find_partition(load_design("fig1"), 3.0),
    lambda: canonical_form(load_design("fig1"), budget=2.5),
    lambda: are_isomorphic(load_design("fig1"), load_design("fig1"), budget=2.5),
    lambda: are_weakly_isomorphic(load_design("fig1"), load_design("fig1"), budget=2.5),
    lambda: resolvable_classes(get_bibd(9, 3, 1), budget=2.5),
    lambda: enumerate_reachable(12, partition_budget=2.5),
    lambda: enumerate_reachable(12.5),
    lambda: hadamard_matrix(8.0),
    lambda: check_strength(load_design("fig1"), 2.0),
    lambda: augment(load_design("fig1"), 0.0),
    lambda: part_swap(load_design("fig1"), 0.0),
    lambda: symmetric_block_split(get_bibd(11, 5, 2), 0.0),
    lambda: hadamard_2part(hadamard_matrix(8), 1.0),
    lambda: reorder_blocks(load_design("fig1"), [0.0, *range(1, 10)]),
    lambda: catalog_entries(64.5),
    lambda: meet_filter(get_bibd(7, 3, 1), [0, 1, 2], t=2.0),
    lambda: enumerate_reachable(12, constructions=[1.0]),
    lambda: enumerate_reachable(12, exclude=[4.0]),
    lambda: select_factors(load_design("fig1"), [0.0]),
    lambda: permute_factors(load_design("fig1"), [1.0, 0]),
    lambda: affine_plane(3.0),
    lambda: cyclic_development(7.0, [(0, 1, 3)]),
], ids=["admissible-v-k", "admissible-b", "admissible-c", "meet-filter-special",
        "orbit-size", "orbit-generator", "oa-entry", "oa-symbols", "oa-strength",
        "full-factorial-symbols", "orthogonal-array-symbols", "partition-member",
        "hadamard-entry", "hadamard-float-entry", "hadamard-string-entry",
        "get-bibd", "brute-force-b", "brute-force-budget", "partition-budget",
        "partition-classes", "canon-budget", "iso-budget", "weak-iso-budget",
        "resolvable-budget", "tables-budget", "tables-max-b", "hadamard-order",
        "strength-t", "augment-factor", "part-swap-factor", "symmetric-split-block",
        "hadamard-split-row", "reorder-order", "catalog-max-blocks", "meet-filter-t",
        "tables-construction", "tables-exclude", "select-factors", "permute-factors",
        "affine-plane", "cyclic-development"])
def test_public_entry_points_refuse_non_integral_numbers(call):
    # A float is refused, not truncated: 7.9 is not read as 7, nor 0.9 as 0.
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


def test_hadamard_matrix_refuses_ragged_rows_with_its_own_error():
    # The shape is read off an object array, so rows of two lengths are the
    # package's input error, not numpy's.
    with pytest.raises(InvalidInputError, match="square"):
        HadamardMatrix(((1, 1), (1,)))


def test_subcartesian_nonidentity_matching_still_valid():
    r421 = get_bibd(4, 2, 1)
    shifted = _reordered(resolvable_classes(r421), (1, 2, 0))
    d = subcartesian_product(get_bibd(3, 2, 1), r421, shifted)
    assert d.b == 6
    assert check_multipart(d).valid
    assert are_isomorphic(d, load_design("fig3"))


def test_oa_compose_nonidentity_matchings_still_valid():
    r421 = get_bibd(4, 2, 1)
    classes = resolvable_classes(r421)
    oa = orthogonal_array((2, 2, 2), 2)
    partitions = [_reordered(classes, order) for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    d = oa_compose([r421] * 3, partitions, oa)
    report = check_multipart(d)
    assert report.valid
    assert report.strength == 2


def test_five_factor_default_names_round_trip():
    pair3 = as_multipart(get_bibd(3, 2, 1))
    d = pair3
    for _ in range(4):
        d = multipart_product(d, pair3)
    assert d.m == 5
    assert d.factor_names == ("C", "D", "B", "A", "F5")
    text = serialize_concise(d)
    assert "F5{" in text
    assert parse_concise(text) == d


def test_canonical_form_with_repeated_blocks():
    d = MultipartDesign(v=(3, 3), blocks=(((0, 1), (1, 2)),) * 2 + (((0, 2), (0, 1)),))
    form = canonical_form(d)
    relabeled = MultipartDesign(
        v=(3, 3), blocks=(((1, 2), (0, 1)),) * 2 + (((0, 1), (1, 2)),))
    assert canonical_form(relabeled).certificate == form.certificate
    assert len(form.design.blocks) == 3


def _degenerate_singleton_design() -> MultipartDesign:
    # one factor confounded with blocks: every block uses a single C level
    pairs = ((0, 1), (0, 2), (1, 2))
    blocks = tuple(((x,), p) for x in range(3) for p in pairs)
    return MultipartDesign(v=(3, 3), blocks=blocks)


def test_verify_allow_degenerate_cli(tmp_path):
    from mpart.cli import cli_main

    path = tmp_path / "degenerate.design"
    path.write_text(serialize_concise(_degenerate_singleton_design()))
    assert cli_main(["verify", str(path)]) == 2
    assert cli_main(["verify", str(path), "--allow-degenerate"]) == 0


def test_degenerate_design_detail():
    d = _degenerate_singleton_design()
    assert not check_multipart(d).valid
    report = check_multipart(d, allow_degenerate=True)
    assert report.valid
    assert report.k == (1, 2)
    assert report.within_lambda == (0, 3)
    assert report.cross_lambda[0][1] == 2
    assert report.strength == 2
