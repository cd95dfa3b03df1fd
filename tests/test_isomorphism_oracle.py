"""Isomorphism decisions cross-checked against a brute-force oracle.

The oracle tries every combination of per-factor level permutations and
compares block multisets, which is exact (if slow) for small designs.
This pins down the search-based implementation: equal certificates must
mean a permutation exists, different certificates must mean none does,
and automorphism pruning must not change any certificate.  Designs too
big for brute force are checked against networkx's graph isomorphism on
their point-block incidence graphs.
"""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest

from mpart.constructions import cartesian_product, hadamard_2part
from mpart.errors import DEFAULT_BUDGET
from mpart.fixtures import DESIGN_FIXTURES, load_design
from mpart.ingredients import get_bibd, hadamard_matrix
from mpart.isomorphism import (
    _Canonicalizer,
    _fingerprint,
    _pairs_fixed,
    are_isomorphic,
    are_weakly_isomorphic,
    canonical_form,
)
from mpart.model import MultipartDesign, permute_factors, select_factors

from helpers import random_design, random_relabeled


def brute_force_isomorphic(d1: MultipartDesign, d2: MultipartDesign) -> bool:
    if d1.m != d2.m or d1.v != d2.v or d1.b != d2.b:
        return False
    target = sorted(d1.blocks)
    for perms in _all_perm_tuples(d2.v):
        relabeled = sorted(
            tuple(tuple(sorted(perms[i][x] for x in part))
                  for i, part in enumerate(block))
            for block in d2.blocks
        )
        if relabeled == target:
            return True
    return False


def _all_perm_tuples(v):
    spaces = [list(permutations(range(size))) for size in v]
    return product(*spaces)


def test_random_pairs_agree_with_brute_force():
    rng = random.Random(0x1501)
    isomorphic_seen = 0
    distinct_seen = 0
    for trial in range(150):
        d1 = random_design(rng, max_m=2, max_v=4, max_b=5)
        if trial % 2 == 0:
            d2 = random_relabeled(rng, d1)
        else:
            d2 = random_design(rng, max_m=2, max_v=4, max_b=5)
        expected = brute_force_isomorphic(d1, d2)
        assert are_isomorphic(d1, d2) == expected, (d1, d2)
        isomorphic_seen += expected
        distinct_seen += not expected
    assert isomorphic_seen >= 50
    assert distinct_seen >= 25


def test_three_factor_pairs_agree_with_brute_force():
    rng = random.Random(0x1502)
    for trial in range(40):
        d1 = random_design(rng, max_m=3, max_v=3, max_b=4)
        d2 = (random_relabeled(rng, d1) if trial % 2
              else random_design(rng, max_m=3, max_v=3, max_b=4))
        assert are_isomorphic(d1, d2) == brute_force_isomorphic(d1, d2)


class _NoPruning(_Canonicalizer):
    """The whole search tree: no automorphism is stored, so no orbit is
    skipped, and no leaf ends a branch early."""

    def _automorphism(self, colors, path, leaf):
        return None


class _ReferenceRefinement(_Canonicalizer):
    """Checks every refinement that runs to the end, and every leaf
    candidate, against a verbatim copy of the versions that signed every
    point in every round by the full key, its pair profile included."""

    def __init__(self, design: MultipartDesign, budget: int):
        super().__init__(design, budget)
        offsets = design.offsets
        self.parts = [
            tuple(tuple(offsets[i] + x for x in block[i]) for i in range(self.m))
            for block in design.blocks
        ]
        self.block_points = design.zipped_blocks
        self.size_profiles = [tuple(len(part) for part in parts)
                              for parts in self.parts]
        self.point_blocks = [tuple(np.flatnonzero(row).tolist())
                             for row in design.incidence]
        self.full_pair = design.gram.tolist()
        self.refined = self.candidates = 0

    def _refine(self, colors, *trace_and_paths):
        got = super()._refine(colors, *trace_and_paths)
        if got is not None:
            assert got == self._reference_refine(colors), colors
            self.refined += 1
        return got

    def _candidate(self, position):
        got = super()._candidate(position)
        assert got == self._reference_candidate(position), position
        self.candidates += 1
        return got

    def _reference_refine(self, colors: tuple[int, ...]) -> tuple[int, ...]:
        n_colors = len(set(colors))
        while True:
            block_sigs = [
                (self.size_profiles[t], tuple(sorted(colors[p] for p in self.block_points[t])))
                for t in range(self.b)
            ]
            block_rank = {sig: i for i, sig in enumerate(sorted(set(block_sigs)))}
            block_colors = [block_rank[sig] for sig in block_sigs]
            sigs = []
            for p in range(self.total):
                sigs.append((
                    colors[p],
                    tuple(sorted(zip(colors, self.full_pair[p]))),
                    tuple(sorted(block_colors[t] for t in self.point_blocks[p])),
                ))
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            colors = tuple(rank[sig] for sig in sigs)
            if len(rank) == n_colors:
                return colors
            n_colors = len(rank)

    def _reference_candidate(self, position: tuple[int, ...]) -> list:
        offsets = self.design.offsets
        return sorted(
            tuple(tuple(sorted(position[p] - offsets[i] for p in part))
                  for i, part in enumerate(parts))
            for parts in self.parts
        )


def _awkward_design(rng: random.Random) -> MultipartDesign:
    """A random design with a single-level factor, a level in no block and a
    repeated block; being sparse, most have levels in one block only."""
    v = [1] + [rng.randint(2, 6) for _ in range(rng.randint(1, 2))]
    rng.shuffle(v)
    blocks = []
    for _ in range(rng.randint(2, 9)):
        # the last level of each factor of two or more levels is never used
        used = [max(1, size - 1) for size in v]
        blocks.append(tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                            for n in used))
    blocks.append(rng.choice(blocks))
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks))


def _design(name: str) -> MultipartDesign:
    if name.startswith("had"):
        return hadamard_2part(hadamard_matrix(int(name[3:])), 1)
    if name == "fig4b|CD":
        return select_factors(load_design("fig4b"), (0, 1))
    if "x" in name:
        return cartesian_product([get_bibd(*map(int, part.split(",")))
                                  for part in name.split("x")])
    return load_design(name)


def test_orbit_pruning_never_changes_the_certificate():
    # the whole tree of (7,3,1)^2 has 36674 nodes, most of this test's time
    for name in DESIGN_FIXTURES + ("had12", "had16", "7,3,1x7,3,1"):
        design = _design(name)
        pruned = _Canonicalizer(design, DEFAULT_BUDGET)
        plain = _NoPruning(design, DEFAULT_BUDGET)
        assert pruned.run() == plain.run(), name
        assert pruned.nodes <= plain.nodes, name


# Two designs whose cells a pair profile key c * base + w mis-orders when base
# is one more than the largest pair count off the Gram diagonal, below the
# replications on it.  A base equal to the largest entry is still exact: every
# profile of a cell holds each color the same number of times, at the same
# positions, and only (c, base) and (c + 1, 0) collide.
BASE_WITNESSES = (
    MultipartDesign(v=(2, 6), blocks=(
        ((0, 1), (2,)), ((0,), (0, 3)), ((1,), (3,)), ((1,), (1, 5)), ((0, 1), (3,)),
        ((0,), (3,)), ((0, 1), (2, 4)), ((0,), (0,)), ((0, 1), (3,)))),
    MultipartDesign(v=(2, 6), blocks=(
        ((1,), (1,)), ((0, 1), (3,)), ((1,), (3,)), ((1,), (1, 4)), ((0,), (4, 5)),
        ((0, 1), (1, 3)), ((0, 1), (1, 5)), ((0, 1), (3,)), ((0,), (4,)))),
)


def test_refinement_matches_the_reference():
    rng = random.Random(0x1506)
    designs = [_design(name) for name in
               DESIGN_FIXTURES + ("had12", "had16", "had20", "7,3,1x7,3,1")]
    designs += BASE_WITNESSES
    designs += [_awkward_design(rng) for _ in range(100)]
    designs += [random_design(rng, max_m=3, max_v=5, max_b=9) for _ in range(100)]
    seen = Counter()
    for design in designs:
        search = _ReferenceRefinement(design, DEFAULT_BUDGET)
        search.run()
        assert search.refined == search.nodes and search.candidates > 0
        replication = np.diagonal(design.gram)
        seen.update(unused=0 in replication, r1=1 in replication,
                    single=1 in design.v, repeated=len(set(design.blocks)) < design.b)
    assert min(seen[key] for key in ("unused", "r1", "single", "repeated")) >= 50


def _iso_pairs(rng: random.Random) -> list[tuple[MultipartDesign, MultipartDesign]]:
    """Each named design against each of its ``_variants``, random and
    awkward designs against a variant or another design, and degree twins."""
    names = DESIGN_FIXTURES + ("fig4b|CD", "had12")
    pairs = [(design, variant) for design in map(_design, names)
             for variant in _variants(rng, design)]
    for _ in range(40):
        for design in (random_design(rng, max_m=3, max_v=5, max_b=8), _awkward_design(rng)):
            pairs.append((design, rng.choice(_variants(rng, design) + [
                random_design(rng, max_m=3, max_v=5, max_b=8), _awkward_design(rng)])))
    return pairs + [_degree_twins(rng) for _ in range(40)]


def test_iso_searches_refine_as_the_reference(monkeypatch):
    import mpart.isomorphism as iso

    searches = []

    class Checked(_ReferenceRefinement):
        def __init__(self, design, budget):
            super().__init__(design, budget)
            searches.append(self)

    monkeypatch.setattr(iso, "_Canonicalizer", Checked)
    for d1, d2 in _iso_pairs(random.Random(0x1602)):
        are_isomorphic(d1, d2)
        are_weakly_isomorphic(d1, d2)
    # every refinement that ran to the end was checked; the others were cut
    # by the trace, each still counted as a node
    assert len(searches) >= 400
    assert sum(search.refined for search in searches) >= 1500
    assert sum(search.nodes - search.refined for search in searches) >= 50


# Refinement splits fig4b's root cells [6, 6, 5] only to [1, 5, 6, 5].  A
# search that refined every node to the end met 22 to 26 of its leaves before
# the copy's first leaf at these seeds, at these node counts; the trace cut
# stops every other branch's refinement short of a leaf.
@pytest.mark.parametrize("kind, seed, nodes", [
    ("iso", 3, 33), ("iso", 5, 31), ("iso", 7, 28), ("weak-iso", 2, 29)])
def test_fig4b_copies_are_met_at_their_second_leaf(monkeypatch, kind, seed, nodes):
    import mpart.isomorphism as iso

    searches = []

    class Counting(_Canonicalizer):
        def __init__(self, design, budget):
            super().__init__(design, budget)
            self.leaves = 0
            searches.append(self)

        def _leaf(self, colors, path):
            self.leaves += 1
            return super()._leaf(colors, path)

    monkeypatch.setattr(iso, "_Canonicalizer", Counting)
    fig4b = load_design("fig4b")
    if kind == "iso":
        assert are_isomorphic(fig4b, random_relabeled(random.Random(seed), fig4b))
    else:
        swapped = permute_factors(fig4b, (1, 0, 2))
        assert are_weakly_isomorphic(fig4b, random_relabeled(random.Random(seed), swapped))
    search = searches[-1]
    assert search.design is fig4b
    assert search.leaves <= 2 and search.nodes <= nodes


def test_pairs_fixed_by_factors_agrees_with_every_pair():
    rng = random.Random(0x1603)
    designs = [_design(name) for name in DESIGN_FIXTURES + ("had12", "7,3,1x7,3,1")]
    designs += [_awkward_design(rng) for _ in range(50)]
    designs += [random_design(rng, max_m=3, max_v=4, max_b=6) for _ in range(50)]
    designs += [MultipartDesign(v=(1, 3), blocks=(((0,), (x, (x + 1) % 3)),))
                for x in range(3)]
    designs += [MultipartDesign(v=(1, 3), blocks=tuple(((0,), (x, (x + 1) % 3)) for x in range(3)))]
    fixed = Counter()
    for design in designs:
        gram, factor = design.gram.tolist(), [i for i, n in enumerate(design.v) for _ in range(n)]
        counts = {}
        for p, q in product(range(len(factor)), repeat=2):
            counts.setdefault((factor[p], factor[q], p == q), set()).add(gram[p][q])
        expected = all(len(values) == 1 for values in counts.values())
        assert _pairs_fixed(design) == expected, design
        fixed[expected] += 1
    assert min(fixed[True], fixed[False]) >= 10, fixed


# SHA-256 of canonical_form(design).certificate, recorded with the search
# that preceded automorphism pruning, which pruned by orbits alone
# (Hadamard 32 took 96 s there on a 2-vCPU Xeon virtual machine).
GOLDEN = {
    "fig1": "848e21533315b7b4de6717487683463e0fa1ba4d48b3aed2ddc65828d51d2fa1",
    "fig3": "108bc2522b31561dcd4193e93469074664e13c677627bcd561811444449705d1",
    "fig4a": "124f86d9b7b39f6d23c3eebbeecd78d5796d582af6817bfbd02bd54dccd16434",
    "fig4b": "d469fbe6a688a5ec7eb7e13bd23bbe1146cfa8bdaf3f26875668daa232748deb",
    "fig5a": "39e889941d2d3dd88e6d75aa92cd4b359ffdad7f8a75698cb336e90268bf63f5",
    "fig5b": "7c0c3144c1cfc28b3fabf354d100c7e94beb1b8664772496bead6651af5a890c",
    "fig8a": "223946adff8bb22c2d77a24a89a9d0516d52b236f8fbb380b3db42811a03dde1",
    "fig8b": "3c72d1d96a0667a591e7d891e035363f38e1683a49fe0403f71193d6743ca01e",
    "fig9": "8abcea4ee71195c9d3e112f4e10302ee24a29ff4da4903fcfd8f84b687f4c514",
    "had12": "1604a04a07c070b8f7287a6e4078a2a7d4f6cdeaab14d51f94e8ff1e925ed0d9",
    "had16": "cd9f86d4e79a3c7c6c8718f9a172b83d2fdd5a07ef4955498a7e5ebbe8507c89",
    "had20": "9bfc49957b81f45a33545f371f801a99031edb122514d215ed4dde71e56834f5",
    "had24": "4071f665befed0e324dfaa588ce1e8102e9f498be16dead3690b4e7f895c6cb7",
    "had32": "cd9afda720af89a390646c124f9cc1323d3fdd2306966ad0a561c627c5502c32",
    "7,3,1x7,3,1": "e15a5589325a19e21266dd1b1cdf82d1504d22f4c0a34e96564da6987cdec6a9",
    "13,4,1x7,3,1": "fbc4bb71a0b531c114972f5fd44ff1976bebb1e9e10923b9881d70bd47723c13",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_matches_the_recorded_digest(name):
    certificate = canonical_form(_design(name)).certificate
    assert hashlib.sha256(certificate).hexdigest() == GOLDEN[name]


# Node counts are deterministic, unlike wall time.  With orbit pruning
# alone, Hadamard 20 and 24 and 13,4,1x7,3,1 took 821, 1465 and 5545 nodes.
@pytest.mark.parametrize("name, ceiling", [
    ("had20", 200), ("had24", 250), ("had32", 100), ("13,4,1x7,3,1", 100)])
def test_pruned_search_stays_small(name, ceiling):
    search = _Canonicalizer(_design(name), DEFAULT_BUDGET)
    search.run()
    assert search.nodes <= ceiling


def test_orbit_pruning_never_changes_random_certificates():
    rng = random.Random(0x1503)
    for _ in range(40):
        design = random_design(rng, max_m=2, max_v=5, max_b=8)
        pruned = _Canonicalizer(design, DEFAULT_BUDGET)
        plain = _NoPruning(design, DEFAULT_BUDGET)
        assert pruned.run() == plain.run()


def test_certificates_equal_iff_brute_force_isomorphic():
    rng = random.Random(0x1504)
    designs = [random_design(rng, max_m=2, max_v=4, max_b=4) for _ in range(12)]
    forms = [canonical_form(d).certificate for d in designs]
    for i in range(len(designs)):
        for j in range(i + 1, len(designs)):
            expected = brute_force_isomorphic(designs[i], designs[j])
            assert (forms[i] == forms[j]) == expected, (i, j)


def _incidence_graph(design: MultipartDesign):
    """Points colored by factor, blocks by one more color, edges for incidence."""
    import networkx as nx

    graph = nx.Graph()
    for i, size in enumerate(design.v):
        graph.add_nodes_from(((i, x) for x in range(size)), color=i)
    for t, block in enumerate(design.blocks):
        graph.add_node(("block", t), color=-1)
        graph.add_edges_from((("block", t), (i, x))
                             for i, part in enumerate(block) for x in part)
    return graph


def _moved(rng: random.Random, design: MultipartDesign) -> MultipartDesign:
    """The design with one level of one block's part replaced by another."""
    blocks = list(design.blocks)
    t = rng.randrange(len(blocks))
    i = next(i for i in rng.sample(range(design.m), design.m)
             if len(blocks[t][i]) < design.v[i])
    part = blocks[t][i]
    old = rng.choice(part)
    new = rng.choice([x for x in range(design.v[i]) if x not in part])
    block = list(blocks[t])
    block[i] = tuple(sorted(set(part) - {old} | {new}))
    blocks[t] = tuple(block)
    return MultipartDesign(v=design.v, blocks=tuple(blocks))


def test_large_designs_agree_with_networkx():
    nx = pytest.importorskip("networkx")

    def same_color(a, b):
        return a["color"] == b["color"]

    rng = random.Random(0x1505)
    names = ("had16", "7,3,1x7,3,1", "fig4a", "fig4b|CD")
    pairs = [(_design("fig4a"), _design("fig4b|CD")),
             (_design("had12"), random_relabeled(rng, _design("fig4b|CD")))]
    for name in names:
        design = _design(name)
        pairs.append((design, random_relabeled(rng, design)))
        for _ in range(2):
            pairs.append((design, random_relabeled(rng, _moved(rng, design))))
    verdicts = []
    for d1, d2 in pairs:
        expected = nx.is_isomorphic(_incidence_graph(d1), _incidence_graph(d2),
                                    node_match=same_color)
        assert are_isomorphic(d1, d2) == expected
        verdicts.append(expected)
    assert verdicts.count(True) == len(names) + 1


def _certificate_verdicts(d1: MultipartDesign, d2: MultipartDesign) -> tuple[bool, bool, bool]:
    """Isomorphism and weak isomorphism as certificate equality: of ``d2``
    itself, and of any factor exchange of ``d2`` (the identity first).  A
    certificate starts with the fingerprint, so only exchanges that pass
    the fingerprint check are canonicalized; the third verdict says
    whether any did."""
    fingerprint, certificate = _fingerprint(d1), canonical_form(d1).certificate
    exchanges = [permute_factors(d2, sigma) for sigma in permutations(range(d2.m))]
    passing = [_fingerprint(exchanged) == fingerprint for exchanged in exchanges]
    equal = [passes and canonical_form(exchanged).certificate == certificate
             for passes, exchanged in zip(passing, exchanges)]
    return equal[0], any(equal), any(passing)


def _variants(rng: random.Random, design: MultipartDesign) -> list[MultipartDesign]:
    """A relabeled copy, a relabeled factor exchange and, when every block
    has a part with a level to spare, a relabeled ``_moved`` copy."""
    sigma = rng.sample(range(design.m), design.m)
    variants = [random_relabeled(rng, design),
                random_relabeled(rng, permute_factors(design, sigma))]
    if all(any(len(part) < size for part, size in zip(block, design.v))
           for block in design.blocks):
        variants.append(random_relabeled(rng, _moved(rng, design)))
    return variants


def _degree_twins(rng: random.Random) -> tuple[MultipartDesign, MultipartDesign]:
    """A random simple graph as a design, its edges the C parts of the
    blocks and every D level in every block, and the graph after one swap
    of edges ab, cd for ad, cb that keeps it simple.  Both have the same
    degrees, so the same replications and block meets: one fingerprint,
    whether or not the graphs are isomorphic."""
    n = rng.randint(5, 7)
    pairs = list(combinations(range(n), 2))
    while True:
        edges = set(rng.sample(pairs, rng.randint(n - 1, 2 * n)))
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        swapped = edges - {(a, b), (c, d)} | {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and len(swapped) == len(edges):
            break
    full = tuple(range(rng.randint(1, 3)))
    return tuple(MultipartDesign(v=(n, len(full)), blocks=tuple((e, full) for e in sorted(es)))
                 for es in (edges, swapped))


def test_iso_and_weak_iso_agree_with_certificate_equality():
    rng = random.Random(0x1601)
    names = DESIGN_FIXTURES + ("fig4b|CD", "had12", "had16", "had20", "7,3,1x7,3,1")
    named = [_design(name) for name in names]
    pairs = [(design, variant) for design in named for variant in _variants(rng, design)]
    pairs += list(zip(named, named[1:]))
    pairs += [(named[names.index("fig4a")], named[names.index("fig4b|CD")])]
    for _ in range(100):
        for design in (random_design(rng, max_m=3, max_v=5, max_b=8), _awkward_design(rng)):
            pairs.append((design, rng.choice(_variants(rng, design) + [
                random_design(rng, max_m=3, max_v=5, max_b=8), _awkward_design(rng)])))
    pairs += [_degree_twins(rng) for _ in range(100)]
    seen = Counter()
    for d1, d2 in pairs:
        iso, weak, searched = _certificate_verdicts(d1, d2)
        assert are_isomorphic(d1, d2) == iso, (d1, d2)
        assert are_weakly_isomorphic(d1, d2) == weak, (d1, d2)
        seen.update(iso=iso, weak_only=weak and not iso, neither=not weak,
                    searched_in_vain=searched and not weak)
    assert len(pairs) >= 300 + 2 * len(names)
    assert min(seen.values()) >= 20, seen
