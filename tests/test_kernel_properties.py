"""Property tests: every count read from the cached incidence matrix agrees
with the independent oracles of ``helpers`` on random designs.

The designs have ragged parts, repeated blocks and factors with a single
level.  A share of them are full products of per-factor part lists, which
makes strengths 3 and 4 reachable, and a share are built on the Latin
square (x, y, x + y mod q), which has strength 2 but not 3.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpart.ingredients import check_t_design  # noqa: E402
from mpart.model import (  # noqa: E402
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    derive_parameters,
)
from mpart.verify import (  # noqa: E402
    check_multipart,
    check_strength,
    design_strength,
    verify_partition,
)

from helpers import (  # noqa: E402
    oracle_constant,
    oracle_lambda,
    oracle_replications,
    oracle_strength,
    oracle_subset_counts,
)


@st.composite
def _part(draw, size: int) -> tuple[int, ...]:
    return tuple(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)))


def _parts(size: int):
    """A short list of parts, or the cyclic shifts of one part, which
    replicate every level equally."""
    shifts = _part(size).map(lambda part: [tuple(sorted((x + s) % size for x in part))
                                           for s in range(size)])
    return st.one_of(st.lists(_part(size), min_size=1, max_size=3), shifts)


@st.composite
def designs(draw) -> MultipartDesign:
    v = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    kind = draw(st.sampled_from(("product", "latin", "random")))
    if kind == "product":
        # every combination of one part per factor
        lists = [draw(_parts(size)) for size in v]
        blocks = list(product(*lists))
    elif kind == "latin":
        q = draw(st.integers(2, 3))
        extra = draw(st.lists(_part(v[0]), max_size=2))
        v = [q, q, q] + [v[0]] * bool(extra)
        blocks = [((x,), (y,), ((x + y) % q,)) + tail
                  for x, y in product(range(q), repeat=2)
                  for tail in ([(part,) for part in extra] or [()])]
    else:
        blocks = draw(st.lists(st.tuples(*(_part(size) for size in v)),
                               min_size=1, max_size=10))
    if draw(st.booleans()):
        blocks *= 2  # repeats every block, which keeps every count constant
    else:
        blocks += [blocks[t] for t in draw(st.lists(st.integers(0, len(blocks) - 1),
                                                    max_size=2))]
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks))


def _oracle_k(design: MultipartDesign, i: int) -> int | None:
    sizes = {len(block[i]) for block in design.blocks}
    return sizes.pop() if len(sizes) == 1 else None


def _oracle_r(design: MultipartDesign, i: int) -> int | None:
    return oracle_constant(oracle_replications(design.blocks, i), range(design.v[i]))


_SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True)


@_SETTINGS
@hypothesis.given(designs())
def test_parameters_and_report_match_the_oracle(design):
    m, v = design.m, design.v
    params = derive_parameters(design)
    report = check_multipart(design)
    assert params.k == report.k == tuple(_oracle_k(design, i) for i in range(m))
    assert params.r == report.r == tuple(_oracle_r(design, i) for i in range(m))
    for i in range(m):
        assert params.lam[i][i] == report.within_lambda[i] == oracle_lambda(
            design.blocks, v, i, i)
        for j in range(m):
            if i != j:
                assert params.lam[i][j] == report.cross_lambda[i][j] == oracle_lambda(
                    design.blocks, v, i, j)
    values = params.k + params.r + tuple(x for row in params.lam for x in row)
    assert all(x is None or type(x) is int for x in values)


@_SETTINGS
@hypothesis.given(designs())
def test_strength_matches_the_oracle(design):
    strength = 1
    for t in range(2, design.m + 1):
        expected = oracle_strength(design.blocks, design.v, t)
        assert check_strength(design, t) == expected
        if expected is not None:
            strength = t
    assert design_strength(design) == check_multipart(design).strength == strength


@st.composite
def complete_products(draw) -> MultipartDesign:
    """The product of complete designs, every k_i-subset of v_i levels
    per factor: valid for any 1 <= k_i < v_i, degenerate where k_i = 1."""
    v = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    parts = [list(combinations(range(size), draw(st.integers(1, size - 1)))) for size in v]
    return MultipartDesign(v=tuple(v), blocks=tuple(product(*parts)))


def test_valid_matches_the_definition():
    """``valid`` against the definition recounted by the oracles: each
    factor has one part size k_i < v_i and a constant lambda_ii, with
    k_i >= 2 and lambda_ii > 0, or with ``allow_degenerate`` k_i = 1 and
    lambda_ii = 0; for m >= 2 every pair of factors has a constant cross
    count."""
    seen = set()

    @_SETTINGS
    @hypothesis.given(st.one_of(designs(), complete_products()), st.booleans())
    def check(design, allow_degenerate):
        m, v, blocks = design.m, design.v, design.blocks

        def factor_holds(i: int) -> bool:
            k, lam = _oracle_k(design, i), oracle_lambda(blocks, v, i, i)
            if k is None or k >= v[i] or lam is None:
                return False
            return (k >= 2 and lam > 0) or (allow_degenerate and k == 1 and lam == 0)

        factors = all(factor_holds(i) for i in range(m))
        pairs = all(oracle_lambda(blocks, v, i, j) is not None
                    for i, j in combinations(range(m), 2))
        degenerate = any(_oracle_k(design, i) == 1 for i in range(m))
        assert check_multipart(design, allow_degenerate).valid == (factors and pairs)
        seen.add((factors, pairs, allow_degenerate and degenerate))

    check()
    # valid with and without a degenerate factor, and factors that hold
    # while some pair of them is unbalanced
    assert {(True, True, False), (True, True, True), (True, False, True)} <= seen


@_SETTINGS
@hypothesis.given(designs(), st.integers(2, 4), st.data())
def test_verify_partition_matches_the_oracle(design, c, data):
    # c copies of the block list, one per class, then a few blocks swapped
    # between classes
    d = MultipartDesign(v=design.v, blocks=design.blocks * c)
    order = list(range(d.b))
    for _ in range(data.draw(st.integers(0, 2))):
        s, t = data.draw(st.integers(0, d.b - 1)), data.draw(st.integers(0, d.b - 1))
        order[s], order[t] = order[t], order[s]
    size = d.b // c
    partition = BlockPartition(tuple(tuple(order[j * size:(j + 1) * size])
                                     for j in range(c)))
    expected = all(
        len({tuple(oracle_replications([d.blocks[t] for t in cls], i).get(x, 0)
                   for x in range(d.v[i]))
             for cls in partition.classes}) == 1
        for i in range(d.m))
    assert verify_partition(d, partition) == expected


@_SETTINGS
@hypothesis.given(st.integers(1, 6).flatmap(
    lambda size: st.lists(_part(size), min_size=1, max_size=10).map(
        lambda blocks: BlockDesign(v=size, blocks=tuple(blocks)))),
    st.integers(1, 4))
def test_t_design_count_matches_the_oracle(bd, t):
    sizes = {len(block) for block in bd.blocks}
    expected = (oracle_constant(oracle_subset_counts(bd.blocks, t),
                                combinations(range(bd.v), t))
                if len(sizes) == 1 else None)
    assert check_t_design(bd, t) == expected
