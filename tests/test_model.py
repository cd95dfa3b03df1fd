import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from mpart.errors import UNKNOWN, InvalidInputError, NonUniformIntersectionError
from mpart.fixtures import load_design
from mpart.ingredients import get_bibd
from mpart.model import (
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    as_multipart,
    complement_design,
    derive_parameters,
    incidence_matrix,
    select_factors,
    unzip_design,
    zip_design,
)

from helpers import oracle_lambda, oracle_replications, random_design

import random


def test_structural_validation():
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(3,), blocks=(((0, 3),),))  # out of range
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(3,), blocks=(((0, 0),),))  # duplicate level
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(3, 3), blocks=((((0,), ())),))  # empty part
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(3,), blocks=())  # no blocks


def test_levels_must_be_integers():
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(3,), blocks=(((0, 1.5),), ((1, 2),)))
    with pytest.raises(InvalidInputError):
        BlockDesign(v=3, blocks=((0, 1.5),))
    # an equal integer part earlier in the design does not let 1.0 through
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(3,), blocks=(((0, 1),), ((0, 1.0),)))
    d = MultipartDesign(v=(3,), blocks=(((np.int64(2), 0),),))
    assert d.blocks == (((0, 2),),) and type(d.blocks[0][0][0]) is int


@pytest.mark.parametrize("size", [3.5, Fraction(3), 3.0])
def test_sizes_must_be_integers(size):
    # a size is refused, not truncated, as a level is
    with pytest.raises(InvalidInputError, match="must be an integer"):
        MultipartDesign(v=(size,), blocks=(((0, 1),),))
    with pytest.raises(InvalidInputError, match="must be an integer"):
        MultipartDesign(v=(3, size), blocks=(((0,), (0, 1)),))
    with pytest.raises(InvalidInputError, match="must be an integer"):
        BlockDesign(v=size, blocks=((0, 1),))
    with pytest.raises(InvalidInputError, match="must be an integer"):
        unzip_design(BlockDesign(v=6, blocks=((0, 3),)), (3, size))
    d = MultipartDesign(v=(np.int64(3),), blocks=(((0, 1),),))
    assert d.v == (3,) and type(d.v[0]) is int


def test_shared_part_objects_are_checked_per_factor():
    part = (2, 0)
    d = MultipartDesign(v=(3, 4), blocks=((part, part), (part, (1, 3))))
    assert d.blocks == (((0, 2), (0, 2)), ((0, 2), (1, 3)))
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(4, 3), blocks=(((0, 3), (0, 1)), ((0, 3), (0, 3))))
    with pytest.raises(InvalidInputError):
        MultipartDesign(v=(4, 3), blocks=((part, part), ((0, 3), (0, 3))))


def test_parts_stored_sorted():
    d = MultipartDesign(v=(4, 4), blocks=(((2, 0), (3, 1)),))
    assert d.blocks == (((0, 2), (1, 3)),)


def test_design_equality_is_multiset():
    d1 = MultipartDesign(v=(3, 3), blocks=(((0, 1), (0, 1)), ((1, 2), (0, 2))))
    d2 = MultipartDesign(v=(3, 3), blocks=(((1, 2), (0, 2)), ((0, 1), (0, 1))))
    assert d1 == d2
    assert hash(d1) == hash(d2)


def test_both_design_types_share_repr_equality_and_hash():
    fano = get_bibd(7, 3, 1)
    view = as_multipart(fano)
    assert repr(fano) == "BlockDesign(v=7, b=7)"
    assert repr(view) == "MultipartDesign(v=(7,), b=7)"
    assert fano != view and view != fano
    reordered = BlockDesign(v=7, blocks=fano.blocks[::-1])
    assert reordered == fano and hash(reordered) == hash(fano)
    view_reordered = MultipartDesign(v=(7,), blocks=view.blocks[::-1])
    assert view_reordered == view and hash(view_reordered) == hash(view)


def test_unknown_is_one_object_without_a_truth_value():
    assert repr(UNKNOWN) == "UNKNOWN"
    with pytest.raises(TypeError):
        bool(UNKNOWN)
    assert copy.copy(UNKNOWN) is UNKNOWN
    assert copy.deepcopy(UNKNOWN) is UNKNOWN
    assert copy.deepcopy([UNKNOWN])[0] is UNKNOWN
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNKNOWN, protocol)) is UNKNOWN


def test_default_factor_names():
    d = MultipartDesign(v=(2, 2, 2, 2, 2),
                        blocks=((((0,), (0,), (0,), (0,), (0,))),))
    assert d.factor_names == ("C", "D", "B", "A", "F5")


def test_derive_parameters_fig2b():
    params = derive_parameters(load_design("fig1"))
    assert params.b == 10
    assert params.v == (6, 5)
    assert params.k == (3, 2)
    assert params.r == (5, 4)
    assert params.lam[0][0] == 2
    assert params.lam[1][1] == 1
    assert params.lam[0][1] == params.lam[1][0] == 2
    assert params.uniform


def test_derive_parameters_duplicate_block_flags_nonuniform():
    d = MultipartDesign(v=(3, 3), blocks=(((1, 2), (1, 2)), ((1, 2), (1, 2))))
    params = derive_parameters(d)
    assert params.lam[0][0] is None  # pair {1,2} twice, others zero
    assert not params.uniform


def test_derive_parameters_product_of_pair_designs():
    pair3 = get_bibd(3, 2, 1)
    blocks = tuple((b1, b2) for b1 in pair3.blocks for b2 in pair3.blocks)
    d = MultipartDesign(v=(3, 3), blocks=blocks)
    # oracle: direct enumeration over all 9 blocks
    assert oracle_lambda(d.blocks, d.v, 0, 0) == 3
    assert oracle_lambda(d.blocks, d.v, 1, 1) == 3
    assert oracle_lambda(d.blocks, d.v, 0, 1) == 4
    assert set(oracle_replications(d.blocks, 0).values()) == {6}
    params = derive_parameters(d)
    assert params.b == 9 and params.r == (6, 6)
    assert params.lam[0][0] == params.lam[1][1] == 3
    assert params.lam[0][1] == 4


def test_derive_parameters_reads_within_factor_pairs_without_a_square_temporary():
    """Three factors of 400 levels split into halves, the 4 blocks the rows
    of an OA(4,3,2,2): pairs within a half lie in 2 blocks and pairs across
    halves in none, so no lambda_ii is constant.  With Z and its Gram matrix
    cached, reading them takes no v_i x v_i temporary (1.3 MB here)."""
    import tracemalloc

    halves = (tuple(range(200)), tuple(range(200, 400)))
    rows = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    d = MultipartDesign(v=(400,) * 3,
                        blocks=tuple(tuple(halves[x] for x in row) for row in rows))
    d.gram
    tracemalloc.start()
    try:
        params = derive_parameters(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.lam == ((None, 1, 1), (1, None, 1), (1, 1, None))
    assert peak < 0.1 * 2 ** 20


def test_zip_fig2b_block1():
    zipped = zip_design(load_design("fig1"))
    assert zipped.v == 11
    assert zipped.blocks[0] == (0, 1, 2, 6, 10)
    assert {len(b) for b in zipped.blocks} == {5}


def test_zip_single_factor_is_identity():
    d = as_multipart(get_bibd(7, 3, 1))
    zipped = zip_design(d)
    assert zipped.v == 7
    assert zipped.blocks == tuple(b[0] for b in d.blocks)


def test_zip_fig5a_is_group_divisible():
    zipped = zip_design(load_design("fig5a"))
    assert zipped.v == 8
    assert {len(b) for b in zipped.blocks} == {4}


def test_unzip_round_trip_fig5a():
    d = load_design("fig5a")
    back = unzip_design(zip_design(d), d.v)
    assert back.blocks == d.blocks  # exact order and content


def test_unzip_fano_nonuniform_groups():
    fano = get_bibd(7, 3, 1)
    # oracle: checking all 7 blocks, meets with {0,1,2} vary
    meets = {len(set(b) & {0, 1, 2}) for b in fano.blocks}
    assert meets == {0, 1, 2}
    with pytest.raises(NonUniformIntersectionError):
        unzip_design(fano, (3, 4))


def test_unzip_rejects_bad_group_sizes():
    d = zip_design(load_design("fig1"))
    with pytest.raises(InvalidInputError):
        unzip_design(d, (6, 6))


def test_incidence_matrix_fig2b():
    d = load_design("fig1")
    N = incidence_matrix(d, 0)
    assert N.shape == (6, 10)
    assert set(np.unique(N)) <= {0, 1}
    assert (N.sum(axis=1) == 5).all()
    assert (N.sum(axis=0) == 3).all()


def test_incidence_matrix_single_block():
    d = MultipartDesign(v=(5,), blocks=(((1, 2, 4),),))
    N = incidence_matrix(d, 0)
    assert N.shape == (5, 1)
    assert N[:, 0].tolist() == [0, 1, 1, 0, 1]


def test_incidence_product_identity_fig2b():
    d = load_design("fig1")
    N = incidence_matrix(d, 0)
    # oracle: matrix product equals (r - lam) I + lam J
    expected = 3 * np.eye(6, dtype=np.int64) + 2 * np.ones((6, 6), dtype=np.int64)
    assert np.array_equal(N @ N.T, expected)


def test_zip_unzip_round_trip_random():
    rng = random.Random(20240)
    for _ in range(100):
        d = random_design(rng, uniform_k=True)
        assert unzip_design(zip_design(d), d.v).blocks == d.blocks


def test_block_partition_validation():
    BlockPartition(((0, 1), (2, 3)))
    with pytest.raises(InvalidInputError):
        BlockPartition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(InvalidInputError):
        BlockPartition(((0, 1), (2,)))  # unequal sizes
    with pytest.raises(InvalidInputError):
        BlockPartition(((0, 1), (3, 4)))  # gap


def test_select_factors_and_complement():
    d = load_design("fig4b")
    cd = select_factors(d, (0, 1))
    assert cd.v == (6, 6) and cd.m == 2 and cd.b == 20
    bd = BlockDesign(v=4, blocks=((0, 1), (2, 3)))
    assert complement_design(bd).blocks == ((2, 3), (0, 1))


def test_cached_counts_cannot_be_written():
    from mpart.verify import check_multipart, concurrence_matrix

    d = load_design("fig1")
    before = check_multipart(d)
    for view in (incidence_matrix(d, 0), concurrence_matrix(d, 0), d.incidence, d.gram):
        assert view.dtype == np.int64
        with pytest.raises(ValueError):
            view[0, 0] = 7
    with pytest.raises(ValueError):
        incidence_matrix(d, 0).flags.writeable = True
    assert check_multipart(d) == before
    assert incidence_matrix(d, 0)[0].tolist() == [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
