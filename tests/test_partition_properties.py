"""Property tests of the partition search on designs with dense factors.

A class replicates every level of a factor equally if and only if it
replicates every complemented level equally, so complementing the parts
of a factor leaves the valid partitions, and the lexicographically least
one that ``find_partition``'s phase 1 returns, unchanged.  Phase 2 alone
must give the same yes/no.  Small designs are also checked against an
exhaustive split.
"""

from __future__ import annotations

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpart.errors import UNKNOWN  # noqa: E402
from mpart.model import MultipartDesign  # noqa: E402
from mpart.verify import _product_witness, find_partition, verify_partition  # noqa: E402

from helpers import oracle_partition_exists, second_phase  # noqa: E402


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
    witness = _product_witness(design, c)
    if witness is not None:
        assert result is not None and verify_partition(design, witness)
