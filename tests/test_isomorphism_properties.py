"""Property tests of ``iso`` and ``weak-iso`` on generated designs.

A design, balanced (a fixture or a small product) or not, is isomorphic
to a relabeled copy and weakly isomorphic to a relabeled factor exchange.
Against a copy with one block changed, each answer is certificate
equality, which compares two full canonical forms instead of looking for
one design's first leaf in the other's pruned and trace-cut search.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpart.isomorphism import _pairs_fixed, are_isomorphic, are_weakly_isomorphic  # noqa: E402
from mpart.model import MultipartDesign, permute_factors  # noqa: E402

from helpers import random_relabeled  # noqa: E402
from test_isomorphism_oracle import _certificate_verdicts, _design  # noqa: E402

_BALANCED = ("fig1", "fig3", "fig4a", "fig4b", "fig4b|CD", "fig5a", "fig5b", "fig8a", "fig8b",
             "fig9", "had12", "3,2,1x3,2,1", "4,2,1x3,2,1", "7,3,1x3,2,1")
_SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True)


def _parts(v: tuple[int, ...]):
    return st.tuples(*(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)
                       .map(sorted).map(tuple) for size in v))


@st.composite
def _designs(draw) -> MultipartDesign:
    """A balanced design by name, or up to three factors with ragged parts."""
    if draw(st.booleans()):
        return _design(draw(st.sampled_from(_BALANCED)))
    v = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    blocks = draw(st.lists(_parts(v), min_size=1, max_size=8))
    return MultipartDesign(v=v, blocks=tuple(blocks))


@_SETTINGS
@hypothesis.given(_designs(), st.randoms(use_true_random=False), st.data())
def test_copies_are_isomorphic_and_a_changed_block_decides_by_certificates(design, rng, data):
    assert are_isomorphic(design, random_relabeled(rng, design))
    sigma = rng.sample(range(design.m), design.m)
    assert are_weakly_isomorphic(design, random_relabeled(rng, permute_factors(design, sigma)))

    t = data.draw(st.integers(0, design.b - 1), label="block")
    blocks = list(design.blocks)
    blocks[t] = data.draw(_parts(design.v), label="new block")
    changed = random_relabeled(rng, MultipartDesign(v=design.v, blocks=tuple(blocks)))
    iso, weak, _ = _certificate_verdicts(design, changed)
    assert are_isomorphic(design, changed) == iso
    assert are_weakly_isomorphic(design, changed) == weak
    hypothesis.event(f"pairs fixed: {_pairs_fixed(design)}, iso: {iso}, weak: {weak}")
