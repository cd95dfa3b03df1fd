import random

import pytest

from mpart.constructions import cartesian_product, meet_filter
from mpart.errors import BudgetExceededError
from mpart.fixtures import (
    EXTENSION_POINT_23,
    load_block_design,
    load_design,
    steiner_3_22_6,
    steiner_4_23_7,
)
from mpart.ingredients import get_bibd
from mpart.isomorphism import (
    are_isomorphic,
    are_weakly_isomorphic,
    canonical_form,
)
from mpart.model import permute_factors, select_factors

from helpers import random_relabeled


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(11)
    d = load_design("fig5a")
    reference = canonical_form(d).certificate
    for _ in range(20):
        assert canonical_form(random_relabeled(rng, d)).certificate == reference


def test_canonical_form_separates_fig5a_fig5b():
    c5a = canonical_form(load_design("fig5a"))
    c5b = canonical_form(load_design("fig5b"))
    assert c5a.certificate != c5b.certificate


def test_canonical_form_separates_fig4a_from_fig4b_cd():
    c4a = canonical_form(load_design("fig4a"))
    c4b = canonical_form(select_factors(load_design("fig4b"), (0, 1)))
    assert c4a.certificate != c4b.certificate


def test_canonical_form_idempotent():
    for name in ("fig1", "fig5a", "fig8b"):
        form = canonical_form(load_design(name))
        again = canonical_form(form.design)
        assert again.certificate == form.certificate
        assert again.design.blocks == form.design.blocks


def test_canonical_form_budget():
    with pytest.raises(BudgetExceededError):
        canonical_form(load_design("fig4a"), budget=2)


def test_are_isomorphic_biplane_split_vs_fig1():
    from mpart.constructions import symmetric_block_split

    fig1 = load_design("fig1")
    split = symmetric_block_split(get_bibd(11, 5, 2), 3)
    assert are_isomorphic(split, fig1)


def test_are_isomorphic_self():
    d = load_design("fig9")
    assert are_isomorphic(d, d)


def test_are_isomorphic_140_block_designs_differ():
    xi = steiner_3_22_6()
    theta = steiner_4_23_7()
    special = next(b for b in theta.blocks if EXTENSION_POINT_23 not in b)
    from_steiner = meet_filter(theta, special, 3)
    product = cartesian_product([get_bibd(7, 3, 1),
                                 load_block_design("design_2_16_4_1")])
    assert from_steiner.b == product.b == 140
    assert from_steiner.v == product.v == (7, 16)
    assert not are_isomorphic(from_steiner, product)


def test_weak_iso_fig3_factor_swap():
    d = load_design("fig3")
    swapped = permute_factors(d, (1, 0))
    # (4,3) against (3,4) is incompatible position-wise ...
    assert not are_isomorphic(d, swapped)
    # ... but weak isomorphism maps the factors back
    assert are_weakly_isomorphic(d, swapped)


def test_weak_iso_fig4a_vs_fig4b_cd():
    assert not are_weakly_isomorphic(load_design("fig4a"),
                                     select_factors(load_design("fig4b"), (0, 1)))


def test_weak_iso_fig5a_vs_fig5b():
    assert not are_weakly_isomorphic(load_design("fig5a"), load_design("fig5b"))


def test_isomorphism_is_equivalence_on_fixture_triples():
    rng = random.Random(3)
    base = load_design("fig8b")
    a = random_relabeled(rng, base)
    b = random_relabeled(rng, base)
    c = random_relabeled(rng, base)
    assert are_isomorphic(a, a)
    assert are_isomorphic(a, b) and are_isomorphic(b, a)
    assert are_isomorphic(b, c) and are_isomorphic(a, c)


def test_isomorphic_implies_weakly_isomorphic():
    rng = random.Random(4)
    d = load_design("fig8a")
    other = random_relabeled(rng, d)
    assert are_isomorphic(d, other)
    assert are_weakly_isomorphic(d, other)


def test_weak_iso_canonicalizes_the_first_design_once(monkeypatch):
    import mpart.isomorphism as iso
    from mpart.model import MultipartDesign

    # two factor exchanges pass the fingerprint check, neither matches
    d1 = MultipartDesign(v=(4, 4, 4), blocks=(
        ((0, 1), (1, 2), (2, 3)), ((1, 3), (0, 2), (1, 3)),
        ((0, 2), (0, 3), (0, 1)), ((1, 2), (2, 3), (0, 3))))
    d2 = MultipartDesign(v=(4, 4, 4), blocks=(
        ((0, 1), (0, 3), (1, 2)), ((1, 3), (1, 3), (1, 3)),
        ((2, 3), (2, 3), (0, 3)), ((0, 3), (1, 2), (0, 1))))
    searches = []

    class Counting(iso._Canonicalizer):
        def __init__(self, design, budget):
            super().__init__(design, budget)
            searches.append(self)

    monkeypatch.setattr(iso, "_Canonicalizer", Counting)
    assert not are_weakly_isomorphic(d1, d2)
    monkeypatch.undo()
    *paths, search = searches
    # the first design is searched in full, once ...
    assert search.design is d1
    whole = iso._Canonicalizer(d1, iso.DEFAULT_BUDGET)
    whole.run()
    assert search.nodes == whole.nodes
    # ... and each exchange costs its first root-to-leaf path: the root
    # and one node per point individualized on the way to the first leaf
    assert len(paths) == 2 and all(path.design is not d1 for path in paths)
    for path in paths:
        whole = iso._Canonicalizer(path.design, iso.DEFAULT_BUDGET)
        whole.run()
        assert path.nodes == len(whole.first.path) + 1


def test_iso_fingerprints_each_design_once(monkeypatch):
    import mpart.isomorphism as iso

    fingerprinted = []
    fingerprint = iso._fingerprint

    def counting(design):
        fingerprinted.append(design)
        return fingerprint(design)

    monkeypatch.setattr(iso, "_fingerprint", counting)
    d = load_design("fig8b")
    assert are_isomorphic(d, random_relabeled(random.Random(5), d))
    assert len(fingerprinted) == 2
