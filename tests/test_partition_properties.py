"""Property tests of the partition search on designs with dense factors.

A class replicates every level of a factor equally if and only if it
replicates every complemented level equally, so complementing the parts
of a factor leaves the valid partitions, and the lexicographically least
one that ``find_partition``'s phase 1 returns, unchanged.  Phase 2 alone
must give the same yes/no.  Small designs are also checked against an
exhaustive split.

Every witness that a structural kind returns (digit sums, diagonal
cosets, complement pairs) must recount as a partition from the blocks
alone, and no kind may return one where the exhaustive split finds none.
"""

from __future__ import annotations

from itertools import product
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpart.constructions import cartesian_product, hadamard_2part  # noqa: E402
from mpart.errors import UNKNOWN  # noqa: E402
from mpart.ingredients import catalog_entries, hadamard_matrix  # noqa: E402
from mpart.model import MultipartDesign  # noqa: E402
from mpart.verify import (  # noqa: E402
    _WITNESS_KINDS,
    _complement_pairs,
    _diagonal_cosets,
    find_partition,
    verify_partition,
)

from helpers import (  # noqa: E402
    oracle_partition_exists,
    oracle_replications,
    random_relabeled,
    second_phase,
)


@st.composite
def _part(draw, size: int) -> tuple[int, ...]:
    """A ragged part: a random subset, or all levels but a few (dense)."""
    levels = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size))
    if size > 1 and draw(st.booleans()):
        missing = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=2))
        levels = set(range(size)) - missing or levels
    return tuple(sorted(levels))


@st.composite
def designs(draw) -> MultipartDesign:
    v = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    blocks = draw(st.lists(st.tuples(*(_part(size) for size in v)),
                           min_size=1, max_size=4))
    # copies of the block list, in some order, are partitionable into
    # as many classes, which keeps the positive answers common
    blocks = draw(st.permutations(blocks * draw(st.integers(1, 3))))
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks))


def _complemented(design: MultipartDesign, factors) -> MultipartDesign:
    blocks = tuple(tuple(tuple(x for x in range(size) if x not in part) if i in factors
                         else part
                         for i, (part, size) in enumerate(zip(block, design.v)))
                   for block in design.blocks)
    return MultipartDesign(v=design.v, blocks=blocks)


_SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True)


@_SETTINGS
@hypothesis.given(designs(), st.integers(2, 4), st.data())
def test_complementing_a_factor_keeps_the_answer(design, c, data):
    proper = [i for i, size in enumerate(design.v)
              if all(len(block[i]) < size for block in design.blocks)]
    factors = data.draw(st.sets(st.sampled_from(proper)) if proper else st.just(set()))
    result = find_partition(design, c)
    assert result is not UNKNOWN
    assert find_partition(_complemented(design, factors), c) == result
    if result is not None:
        assert verify_partition(design, result)
    if design.b <= 9:
        assert (result is not None) == oracle_partition_exists(design.blocks, design.v, c)


@st.composite
def products(draw) -> MultipartDesign:
    """The full product of a few distinct parts per factor, in some order."""
    v = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    parts = [draw(st.lists(_part(size), min_size=1, max_size=4, unique=True)) for size in v]
    blocks = draw(st.permutations(list(product(*parts))))
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks))


@_SETTINGS
@hypothesis.given(st.one_of(designs(), products()), st.integers(2, 4), st.data())
def test_second_phase_and_the_product_witness_are_exact(design, c, data):
    proper = [i for i, size in enumerate(design.v)
              if all(len(block[i]) < size for block in design.blocks)]
    factors = data.draw(st.sets(st.sampled_from(proper)) if proper else st.just(set()))
    complemented = _complemented(design, factors)
    result = second_phase(design, c, budget=100_000)
    other = second_phase(complemented, c, budget=100_000)
    assert result is not UNKNOWN and other is not UNKNOWN
    assert (result is None) == (other is None)
    if result is not None:
        assert verify_partition(design, result) and verify_partition(complemented, other)
    if design.b <= 9:
        assert (result is not None) == oracle_partition_exists(design.blocks, design.v, c)
    for kind in _WITNESS_KINDS:
        witness = kind(design, c)
        if witness is not None:
            assert result is not None and verify_partition(design, witness)


def _recounts(design: MultipartDesign, partition, c: int) -> bool:
    """Whether ``partition`` is c equal classes of all the blocks that each
    replicate every level equally, recounted from the block lists."""
    classes = partition.classes
    if len(classes) != c or sorted(t for cls in classes for t in cls) != list(range(design.b)):
        return False
    counts = {tuple(oracle_replications([design.blocks[t] for t in cls], i).get(x, 0)
                    for i, size in enumerate(design.v) for x in range(size))
              for cls in classes}
    return len({len(cls) for cls in classes}) == len(counts) == 1


@st.composite
def hadamard_splits(draw) -> MultipartDesign:
    """A Hadamard split of order 8-24, its levels relabeled and blocks shuffled."""
    order = draw(st.sampled_from((8, 12, 16, 20, 24)))
    design = hadamard_2part(hadamard_matrix(order), draw(st.integers(1, order - 1)))
    return random_relabeled(draw(st.randoms(use_true_random=False)), design)


_INGREDIENTS = catalog_entries(max_blocks=15)


@st.composite
def catalog_products(draw) -> MultipartDesign:
    """The full product of two or three catalog designs (a power of one, or
    a mix) of at most 400 blocks, its levels relabeled and blocks shuffled."""
    entry = draw(st.sampled_from(_INGREDIENTS))
    entries = draw(st.one_of(
        st.integers(2, 3).map(lambda power: [entry] * power),
        st.lists(st.sampled_from(_INGREDIENTS), min_size=2, max_size=3)))
    while prod(e.b for e in entries) > 400:
        entries.pop()
    design = cartesian_product([e.build() for e in entries])
    return random_relabeled(draw(st.randoms(use_true_random=False)), design)


def _divisors(b: int) -> list[int]:
    return [c for c in range(2, b + 1) if b % c == 0]


@_SETTINGS
@hypothesis.given(hadamard_splits(), st.data())
def test_every_witness_of_a_hadamard_split_recounts(design, data):
    c = data.draw(st.sampled_from(_divisors(design.b)))
    for kind in _WITNESS_KINDS:
        witness = kind(design, c)
        if witness is not None:
            assert _recounts(design, witness, c), kind.__name__
    # Its blocks pair up as the rows' two halves, complements in both factors.
    if (design.b // 2) % c == 0:
        assert _complement_pairs(design, c) is not None


@_SETTINGS
@hypothesis.given(catalog_products(), st.data())
def test_every_witness_of_a_catalog_product_recounts(design, data):
    c = data.draw(st.sampled_from(_divisors(design.b)))
    for kind in _WITNESS_KINDS:
        witness = kind(design, c)
        if witness is not None:
            assert _recounts(design, witness, c), kind.__name__
    # A full product of factors with n distinct parts each: the diagonal
    # cosets give n classes.
    counts = [len(parts) for parts in design._parts]
    if design.b == prod(counts) and counts.count(counts[0]) == len(counts):
        assert _diagonal_cosets(design, counts[0]) is not None


@st.composite
def near_structures(draw) -> MultipartDesign:
    """At most 9 blocks that are, or were before one block was redrawn, the
    full product of a few parts per factor or pairs of complements."""
    v = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    proper = [st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1).map(
        lambda levels: tuple(sorted(levels))) for size in v]
    if draw(st.booleans()):
        parts = [draw(st.lists(part, min_size=1, max_size=3, unique=True)) for part in proper]
        while prod(map(len, parts)) > 9:
            max(parts, key=len).pop()
        blocks = list(product(*parts))
    else:
        halves = draw(st.lists(st.tuples(*proper), min_size=1, max_size=4))
        blocks = halves + [tuple(tuple(x for x in range(size) if x not in part)
                                 for part, size in zip(block, v)) for block in halves]
    if draw(st.booleans()):
        blocks[draw(st.integers(0, len(blocks) - 1))] = draw(st.tuples(*proper))
    return MultipartDesign(v=tuple(v), blocks=tuple(draw(st.permutations(blocks))))


@_SETTINGS
@hypothesis.given(near_structures(), st.integers(2, 4))
def test_no_kind_returns_a_partition_that_does_not_exist(design, c):
    exists = oracle_partition_exists(design.blocks, design.v, c)
    for kind in _WITNESS_KINDS:
        witness = kind(design, c)
        assert witness is None or (exists and _recounts(design, witness, c)), kind.__name__
