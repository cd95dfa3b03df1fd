"""``MultipartDesign`` checks its parts factor by factor, each distinct
part object once, and stores each distinct value once; this suite holds
it to the row-wise definition.

The reference walks the blocks in order and, within a block, the part
count and then each factor's part, reading each distinct object of a
factor once, and stops at the first fault.  On generated inputs (parts
shared by many blocks, equal but distinct objects, lists, generators,
numpy integers, and faults in several blocks at once) the model must
store the same blocks, with the incidence matrix counted directly from
them, or raise the reference's first error: same type, same message.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpart import model  # noqa: E402
from mpart.constructions import augment, cartesian_product, meet_filter, part_swap  # noqa: E402
from mpart.errors import ComplementTooSmallError, InvalidInputError  # noqa: E402
from mpart.files import parse_concise, serialize_concise  # noqa: E402
from mpart.fixtures import load_design, steiner_3_22_6  # noqa: E402
from mpart.ingredients import get_bibd  # noqa: E402
from mpart.isomorphism import _Canonicalizer, canonical_form  # noqa: E402
from mpart.model import BlockDesign, MultipartDesign, _normalize_part, relabel_levels  # noqa: E402

from helpers import oracle_replications  # noqa: E402

_SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True)


def reference_blocks(v, blocks):
    """The stored blocks, checked row by row; raises the first fault."""
    m = len(v)
    checked = [{} for _ in v]
    inputs = []  # keeps every checked object alive, so no id is reused
    out = []
    for t, block in enumerate(blocks):
        parts = tuple(block)
        if len(parts) != m:
            raise InvalidInputError(f"block {t} has {len(parts)} parts, expected {m}")
        row = []
        for i, part in enumerate(parts):
            if id(part) not in checked[i]:
                checked[i][id(part)] = _normalize_part(part, v[i], "block {}, factor {}", t, i)
                inputs.append(part)
            row.append(tuple(checked[i][id(part)]))
        out.append(tuple(row))
    if not out:
        raise InvalidInputError("a design needs at least one block")
    return tuple(out)


def oracle_incidence(v, blocks) -> np.ndarray:
    """Z[offset of factor i + x, t] = 1 exactly when level x is in part i of block t."""
    offsets = np.cumsum((0,) + tuple(v))
    Z = np.zeros((sum(v), len(blocks)), dtype=np.int64)
    for t, block in enumerate(blocks):
        for i, part in enumerate(block):
            for x in part:
                Z[offsets[i] + x, t] = 1
    return Z


def _make(kind: str, levels: tuple):
    """A fresh part object of ``kind`` holding ``levels``."""
    if kind == "tuple":
        return tuple(levels)
    if kind == "list":
        return list(levels)
    if kind == "generator":
        return (x for x in levels)
    if kind == "numpy":
        return tuple(np.int64(x) if type(x) is int else x for x in levels)
    return tuple(sorted(levels, key=float))  # "sorted": possibly already in stored form


@st.composite
def _levels(draw, size: int, faults: bool):
    """Levels of one part of a factor with ``size`` levels; with ``faults``,
    maybe empty, repeated, out of range or not integers."""
    levels = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    if faults and draw(st.integers(0, 5)) == 0:
        fault = draw(st.sampled_from(("empty", "repeat", "range", "float", "bool")))
        if fault == "empty":
            levels = []
        elif fault == "repeat":
            levels.append(levels[0])
        elif fault == "range":
            levels.append(draw(st.sampled_from((-1, size, size + 3))))
        elif fault == "float":
            levels.append(float(levels.pop()))  # (0, 1.0) equals (0, 1) but is no part
        else:
            levels[0] = bool(levels[0]) if levels[0] < 2 else levels[0]
    return tuple(levels)


@st.composite
def recipes(draw, faults: bool = True):
    """A recipe for the arguments of ``MultipartDesign``: factor sizes and,
    per block, an index into a per-factor pool of part objects, so that one
    object may serve many blocks; ``build`` makes fresh objects each time."""
    m = draw(st.integers(1, 3))
    v = tuple(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m)))
    pools = [draw(st.lists(st.tuples(st.sampled_from(("tuple", "list", "generator", "numpy",
                                                        "sorted")),
                                      _levels(size, faults)), min_size=1, max_size=6))
             for size in v]
    b = draw(st.integers(0 if faults else 1, 10))
    rows = []
    for _ in range(b):
        row = [draw(st.integers(0, len(pool) - 1)) for pool in pools]
        if faults and draw(st.integers(0, 9)) == 0:
            # a block with a part too many or too few
            row = row[:-1] if draw(st.booleans()) else row + [0]
        rows.append(row)
    return v, pools, rows


def build(recipe):
    v, pools, rows = recipe
    objects = [[_make(kind, levels) for kind, levels in pool] for pool in pools]
    # a row's extra part reuses the last factor's pool
    return v, tuple(tuple(objects[min(i, len(v) - 1)][j] for i, j in enumerate(row))
                    for row in rows)


def _outcome(make):
    try:
        return make(), None
    except Exception as exc:  # the first fault, whatever its type
        return None, exc


@_SETTINGS
@hypothesis.given(recipes())
def test_the_column_wise_model_is_the_row_wise_definition(recipe):
    expected, error = _outcome(lambda: reference_blocks(*build(recipe)))
    design, got = _outcome(lambda: MultipartDesign(*build(recipe)))
    if error is not None:
        assert got is not None, "the model accepted a faulty design"
        assert (type(got), str(got)) == (type(error), str(error))
        return
    assert got is None, got
    assert design.blocks == expected
    assert all(type(x) is int for block in design.blocks for part in block for x in part)
    Z = design.incidence
    assert np.array_equal(Z, oracle_incidence(design.v, expected))
    assert not Z.flags.writeable and Z.dtype == np.int64
    offsets = np.cumsum((0,) + design.v)
    for i, size in enumerate(design.v):
        replications = oracle_replications(expected, i)
        assert [replications.get(x, 0) for x in range(size)] == \
            Z[offsets[i]:offsets[i + 1]].sum(axis=1).tolist()
        column = [block[i] for block in expected]
        assert_stored_by_value(design._parts[i], design._part_index[i], column)
        assert design._part_sizes[i].tolist() == list(map(len, column))
    assert not design._part_sizes.flags.writeable
    # A block design stores its distinct blocks by the same rule.
    v, blocks = build(recipe)
    single = BlockDesign(v[0], tuple(block[0] for block in blocks))
    assert single.blocks == tuple(block[0] for block in expected)
    assert_stored_by_value(single._parts, single._part_index, single.blocks)


def assert_stored_by_value(parts, index, column):
    """``parts`` holds each value of ``column`` once, in order of first
    appearance, and ``index`` points each entry of ``column`` at its value."""
    assert list(parts) == list(dict.fromkeys(column))
    assert [parts[p] for p in index] == list(column)


@pytest.mark.parametrize("make", [
    lambda: canonical_form(load_design("fig8b")).design,
    lambda: meet_filter(steiner_3_22_6(), steiner_3_22_6().blocks[0], 2),
], ids=["canonical fig8b", "meet filter"])
def test_a_design_stores_the_parts_of_its_reparse(make):
    # Built from fresh tuples, a design stores each part value once, as
    # the parser's shared objects do.
    design = make()
    assert design._parts == parse_concise(serialize_concise(design))._parts


@_SETTINGS
@hypothesis.given(recipes(faults=False), st.data())
def test_shared_and_equal_parts_give_the_same_design(recipe, data):
    # The same blocks built from fresh objects everywhere store and count alike.
    v, blocks = build(recipe)
    design = MultipartDesign(v, blocks)
    fresh = MultipartDesign(v, tuple(tuple(list(part) for part in block)
                                     for block in design.blocks))
    assert fresh.blocks == design.blocks
    assert np.array_equal(fresh.incidence, design.incidence)
    order = data.draw(st.permutations(range(design.b)))
    shuffled = MultipartDesign(v, tuple(design.blocks[t] for t in order))
    assert np.array_equal(shuffled.incidence, design.incidence[:, order])


def test_the_first_fault_in_block_order_is_raised():
    good, bad = (0, 1), (0, 1.0)
    # block 0 fails in factor 1 and block 1 in factor 0: block 0's fault is raised
    with pytest.raises(InvalidInputError, match=r"block 0, factor 1: \(0, 1.0\)"):
        MultipartDesign((2, 2), ((good, bad), (bad, good)))
    # within a block, the part count comes before the parts
    with pytest.raises(InvalidInputError, match="block 1 has 1 parts"):
        MultipartDesign((2, 2), ((good, good), (bad,), (good, (5,))))
    # an unreadable block raises its own error, after the earlier blocks' faults
    with pytest.raises(TypeError):
        MultipartDesign((2,), ((good,), 7))
    with pytest.raises(InvalidInputError, match="block 0, factor 0"):
        MultipartDesign((2,), (((3,),), 7))


def test_one_generator_serves_every_block_of_its_factor():
    shared = (x for x in (2, 0))
    design = MultipartDesign((3, 2), ((shared, (0,)), (shared, (1,)), (shared, [1, 0])))
    assert design.blocks == (((0, 2), (0,)), ((0, 2), (1,)), ((0, 2), (0, 1)))
    assert design.incidence[:, 0].tolist() == [1, 0, 1, 1, 0]


@_SETTINGS
@hypothesis.given(st.integers(1, 6), st.lists(st.integers(-2, 8), max_size=7), st.booleans())
def test_a_part_in_stored_form_is_kept_and_any_other_is_checked(size, levels, ordered):
    part = tuple(sorted(levels) if ordered else levels)
    stored = tuple(sorted(set(levels)))
    if not levels or len(stored) != len(levels) or stored[0] < 0 or stored[-1] >= size:
        with pytest.raises(InvalidInputError):
            _normalize_part(part, size, "part")
        return
    got = _normalize_part(part, size, "part")
    assert got == stored
    assert (got is part) == (part == stored)
    # equal levels of another type are stored as new exact ints; floats are refused
    with pytest.raises(InvalidInputError, match="non-integer level"):
        _normalize_part(tuple(map(float, part)), size, "part")
    others = [tuple(map(np.int64, part))]
    if stored[0] < 2:
        others.append(tuple(x == 1 if x < 2 else x for x in part))
    for other in others:
        got = _normalize_part(other, size, "part")
        assert got == stored and got is not other and set(map(type, got)) == {int}


# The transforms map each factor's distinct parts once and index them as
# the design does.  Each is held to its row-wise definition: the design
# built from fresh tuples, one per block and factor, as it was written
# block by block.


def _fresh(blocks):
    """``blocks`` with every part a new tuple object."""
    return tuple(tuple(tuple([*part]) for part in block) for block in blocks)


def assert_same_design(got, expected):
    assert got.v == expected.v and got.factor_names == expected.factor_names
    assert got.blocks == expected.blocks
    assert got._parts == expected._parts
    assert got._part_index.tolist() == expected._part_index.tolist()


@_SETTINGS
@hypothesis.given(recipes(faults=False), st.data())
def test_relabel_levels_is_its_row_wise_definition(recipe, data):
    design = MultipartDesign(*build(recipe))
    perms = [data.draw(st.permutations(range(size))) for size in design.v]
    blocks = tuple(tuple(tuple(sorted(perms[i][x] for x in part)) for i, part in enumerate(block))
                   for block in design.blocks)
    assert_same_design(relabel_levels(design, perms),
                       MultipartDesign(design.v, _fresh(blocks), design.factor_names))


def reference_part_swap(design, factor):
    blocks = []
    for t, block in enumerate(design.blocks):
        comp = tuple(x for x in range(design.v[factor]) if x not in block[factor])
        if len(comp) < 2:
            raise ComplementTooSmallError(
                f"block {t} leaves only {len(comp)} levels after complementing")
        blocks.append(tuple(comp if i == factor else p for i, p in enumerate(block)))
    return MultipartDesign(design.v, _fresh(blocks), design.factor_names)


@_SETTINGS
@hypothesis.given(recipes(faults=False), st.data())
def test_part_swap_is_its_row_wise_definition(recipe, data):
    design = MultipartDesign(*build(recipe))
    factor = data.draw(st.integers(0, design.m - 1))
    expected, error = _outcome(lambda: reference_part_swap(design, factor))
    got, got_error = _outcome(lambda: part_swap(design, factor))
    if error is not None:
        assert (type(got_error), str(got_error)) == (type(error), str(error))
        return
    assert got_error is None, got_error
    assert_same_design(got, expected)


def test_part_swap_names_the_first_block_whose_complement_is_too_small():
    # Blocks 2 to 4 leave too few levels; so do blocks 2 and 3 of the
    # second design, whose block 3 leaves fewer.
    d = MultipartDesign((2, 4), (((0,), (0, 1)), ((1,), (0, 1)), ((0,), (0, 1, 2, 3)),
                                 ((1,), (1, 2, 3)), ((0,), (0, 1, 2, 3))))
    with pytest.raises(ComplementTooSmallError,
                       match=r"^block 2 leaves only 0 levels after complementing$"):
        part_swap(d, 1)
    d = MultipartDesign((2, 4), (((0,), (0, 1)), ((1,), (0, 2)), ((0,), (1, 2, 3)),
                                 ((1,), (0, 1, 2, 3))))
    with pytest.raises(ComplementTooSmallError,
                       match=r"^block 2 leaves only 1 levels after complementing$"):
        part_swap(d, 1)


def reference_augment(design, factor):
    v = design.v[factor]
    blocks = []
    for block in design.blocks:
        comp = tuple(x for x in range(v) if x not in block[factor])
        for new_part in (block[factor] + (v,), comp):
            blocks.append(tuple(new_part if i == factor else p for i, p in enumerate(block)))
    new_v = tuple(x + 1 if i == factor else x for i, x in enumerate(design.v))
    return MultipartDesign(new_v, _fresh(blocks), design.factor_names)


@_SETTINGS
@hypothesis.given(recipes(faults=False), st.data())
def test_augment_is_its_row_wise_definition(recipe, data):
    # One factor's pool is redrawn as k-subsets of 2k + 1 levels, so that
    # augment applies; the other factors keep the recipe's parts.
    v, pools, rows = recipe
    factor = data.draw(st.integers(0, len(v) - 1))
    k = data.draw(st.integers(1, 3))
    subsets = st.lists(st.integers(0, 2 * k), min_size=k, max_size=k, unique=True)
    pools = list(pools)
    pools[factor] = [(kind, tuple(data.draw(subsets))) for kind, _ in pools[factor]]
    v = v[:factor] + (2 * k + 1,) + v[factor + 1:]
    design = MultipartDesign(*build((v, pools, rows)))
    assert_same_design(augment(design, factor), reference_augment(design, factor))


@_SETTINGS
@hypothesis.given(recipes(faults=False))
def test_the_canonical_candidates_are_their_row_wise_definition(recipe):
    design = MultipartDesign(*build(recipe))
    search = _Canonicalizer(design, 10 ** 6)
    search.run()
    offsets = design.offsets

    def row_wise(leaf):
        # A leaf's coloring is each point's canonical position.
        level = [position - offsets[i] for i, size in enumerate(design.v)
                 for position in leaf.colors[offsets[i]:offsets[i] + size]]
        return sorted(tuple(tuple(sorted(level[offsets[i] + x] for x in part))
                            for i, part in enumerate(block)) for block in design.blocks)

    assert search.first.candidate == row_wise(search.first)
    assert search.best.candidate == row_wise(search.best)
    assert_same_design(canonical_form(design).design,
                       MultipartDesign(design.v, _fresh(row_wise(search.best)),
                                       design.factor_names))


def test_transforms_check_each_distinct_part_once(monkeypatch):
    # Work scales with the distinct parts, 7 per factor of a (7,3,1) power,
    # and not with the 343 or 2401 blocks.
    fano = get_bibd(7, 3, 1)
    d2, d3, d4 = (cartesian_product([fano] * m) for m in (2, 3, 4))
    reverse = [list(range(6, -1, -1))] * 4
    calls = []

    def counted(*args):
        calls.append(args)
        return _normalize_part(*args)

    monkeypatch.setattr(model, "_normalize_part", counted)
    for transform, parts in [(lambda: relabel_levels(d4, reverse), 28),
                             (lambda: part_swap(d4, 1), 28),
                             (lambda: augment(d3, 0), 14 + 7 + 7),
                             (lambda: canonical_form(d2).design, 14)]:
        calls.clear()
        design = transform()
        assert len(calls) == parts == sum(map(len, design._parts))
