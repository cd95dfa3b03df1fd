"""Canonical labeling, isomorphism and weak isomorphism of designs.

Isomorphism allows independent relabeling of every factor's levels and
of the blocks; weak isomorphism additionally lets factors of compatible
shape trade places.  The canonical form is the lexicographically least
sorted block list over all per-factor relabelings, found by iterative
refinement on level invariants (replication, concurrence fingerprints,
cross fingerprints) with backtracking over the residual permutations,
pruned by the automorphisms the search finds.
Two designs are isomorphic iff their certificates are equal; the
isomorphism tests decide that without computing either certificate, by
looking for the second design's first leaf among the first design's leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import add, itemgetter, sub

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .model import MultipartDesign, _blocks, _count_product, permute_factors


class CanonicalForm:
    """Canonical representative plus the byte certificate compared for
    equality.  Unless given, the certificate is computed from the canonical
    design on first read."""

    def __init__(self, design: MultipartDesign, certificate: bytes | None = None):
        self.design = design
        if certificate is not None:
            self.certificate = certificate

    @cached_property
    def certificate(self) -> bytes:
        # The fingerprint does not depend on labels or block order, so the
        # canonical design's is the input design's.
        return repr((_fingerprint(self.design), list(self.design.blocks))).encode()


def _fingerprint(design: MultipartDesign) -> tuple:
    """Cheap relabeling-invariant summary, used as a certificate prefix.

    Covers the per-block size profiles and the multiset of pairwise
    block-meet profiles, which already separates many non-isomorphic
    designs without any search.
    """
    # The meets of blocks s < t, one column per factor: entry (s, t) of Z_i^T Z_i.
    upper = np.triu_indices(design.b, 1)
    transposed = [design.incidence[span].T for span in design.spans]
    meets = np.column_stack([_count_product(A, A)[upper] for A in transposed])
    meets = meets[np.lexsort(meets.T[::-1])]
    replication = np.diagonal(design.gram).tolist()
    reps = tuple(tuple(sorted(replication[span])) for span in design.spans)
    return (design.v, tuple(sorted(zip(*design._part_sizes.tolist()))), reps,
            tuple(map(tuple, meets.tolist())))


@dataclass(frozen=True)
class _Leaf:
    """A leaf of the search tree: its path, its discrete coloring and candidate."""

    path: tuple[int, ...]
    colors: tuple[int, ...]
    candidate: list


class _Canonicalizer:
    """Individualization-refinement search for the least sorted block list.

    Refinement colors points by replication, colored concurrence/cross
    profiles and the multiset of their block colors; blocks by their
    size profile and point colors.  Branching individualizes one point
    of the first non-singleton class in canonical color order.

    Automorphisms prune the tree as in McKay & Piperno, "Practical graph
    isomorphism, II" (2014).  A leaf whose candidate equals the first
    leaf's or the best leaf's gives an automorphism mapping it onto that
    leaf.  The search then jumps back to the node where the two paths
    part: the rest of that node's branch is the image of a sibling
    branch already explored.  Within a node, a point in the orbit of an
    earlier sibling, under the automorphisms found so far that fix the
    individualized points, is not branched on.  Pruning skips only
    images of explored subtrees, whose leaves have the same candidates,
    so the least candidate found is that of the whole tree.
    """

    def __init__(self, design: MultipartDesign, budget: int):
        self.design = design
        self.budget = budget
        self.nodes = 0
        self.m = design.m
        offsets = design.offsets
        self.total = sum(design.v)
        self.b = design.b
        self.factor_of = [i for i in range(self.m) for _ in range(design.v[i])]
        # Refinement reads the colors of each block's points and of each
        # point's blocks through one getter per block and per point.
        size_profiles = list(zip(*design._part_sizes.tolist()))
        size_rank = {size: i for i, size in enumerate(sorted(set(size_profiles)))}
        self.block_size = [size_rank[size] for size in size_profiles]
        self.block_getters = [_getter(points) for points in design.zipped_blocks]
        self.point_getters = [_getter(np.flatnonzero(row).tolist())
                              for row in design.incidence]
        self.pair = design.gram.tolist()
        # The pair profile key of color c and pair count w is c * base + w.
        self.base = int(design.gram.max()) + 1
        self.part_getters = [[_getter([offset + x for x in part]) for part in parts]
                             for offset, parts in zip(offsets, design._parts)]
        self.part_index = design._part_index.tolist()
        self.offset_of = [offsets[i] for i in self.factor_of]
        self.first: _Leaf | None = None
        self.best: _Leaf | None = None
        self.autos: list[tuple[int, ...]] = []
        self.targets: set[tuple] = set()

    def _refine(self, colors: tuple[int, ...]) -> tuple[int, ...]:
        """Split the cells of ``colors`` until no cell splits.

        The colors are the dense ranks 0, 1, ... of the cells.  A round
        ranks every point by (color, pair profile, block colors), where the
        pair profile is the sorted (color, pair count) over all points and
        the block colors are the sorted colors of the point's blocks; a
        block's color ranks (size profile, sorted colors of its points).
        Since the old color leads that key, each cell keeps its place and
        splits by the rest of the key, in order: a singleton keeps its
        rank unsigned, and a round signs only the points of tied cells.
        """
        cells = _cells(colors)
        pair, base = self.pair, self.base
        while True:
            if len(cells) == self.total:
                return colors
            block_sigs = [(size, sorted(getter(colors)))
                          for size, getter in zip(self.block_size, self.block_getters)]
            order = sorted(range(self.b), key=block_sigs.__getitem__)
            block_colors = [0] * self.b
            rank = 0
            for previous, t in zip(order, order[1:]):
                if block_sigs[t] != block_sigs[previous]:
                    rank += 1
                block_colors[t] = rank
            keys = [color * base for color in colors]
            split = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                sigs = {p: (sorted(map(add, keys, pair[p])),
                            sorted(self.point_getters[p](block_colors)))
                        for p in cell}
                cell.sort(key=sigs.__getitem__)
                piece = [cell[0]]
                for previous, p in zip(cell, cell[1:]):
                    if sigs[p] != sigs[previous]:
                        split.append(piece)
                        piece = []
                    piece.append(p)
                split.append(piece)
            if len(split) == len(cells):
                return colors
            cells = split
            refined = [0] * self.total
            for color, cell in enumerate(cells):
                for p in cell:
                    refined[p] = color
            colors = tuple(refined)

    def _candidate(self, position: tuple[int, ...]) -> list:
        level = list(map(sub, position, self.offset_of))
        parts = [[tuple(sorted(getter(level))) for getter in getters]
                 for getters in self.part_getters]
        return sorted(_blocks(parts, self.part_index))

    def _leaf(self, colors: tuple[int, ...], path: tuple[int, ...]) -> int | None:
        """Record a leaf; return the depth to jump back to, if any.

        Refinement and branching keep the order of the colors, which start
        as the factor index, so a discrete coloring is already every
        point's canonical position.
        """
        candidate = self._candidate(colors)
        if self.targets and tuple(candidate) in self.targets:
            return _MATCH
        if self.first is None:
            self.first = self.best = _Leaf(path, colors, candidate)
            return None
        for leaf in (self.first, self.best):
            if candidate == leaf.candidate:
                return self._automorphism(colors, path, leaf)
        if candidate < self.best.candidate:
            self.best = _Leaf(path, colors, candidate)
        return None

    def _automorphism(self, colors: tuple[int, ...], path: tuple[int, ...],
                      leaf: _Leaf) -> int | None:
        """Store the automorphism taking this leaf onto ``leaf``; return the
        depth at which their paths part.

        The automorphism maps this leaf's path onto ``leaf``'s, so it fixes
        the shared prefix and carries the branch below the parting node
        onto the sibling branch that holds ``leaf``, explored earlier.
        """
        inverse = [0] * self.total
        for p, position in enumerate(leaf.colors):
            inverse[position] = p
        self.autos.append(tuple(inverse[colors[p]] for p in range(self.total)))
        depth = 0
        while path[depth] == leaf.path[depth]:
            depth += 1
        return depth

    def _search(self, colors: tuple[int, ...], fixed: tuple[int, ...]) -> int | None:
        """Explore the subtree below ``fixed``; return the depth to jump back
        to when an automorphism leaf ends it early, or ``_MATCH``."""
        colors, target = self._node(colors)
        if target is None:
            return self._leaf(colors, fixed)
        depth = len(fixed)
        # Generators that fix the individualized points, and the orbits of
        # the siblings explored so far under them; both grow as the
        # siblings' subtrees find automorphisms.
        fixing: list[tuple[int, ...]] = []
        seen_autos = 0
        covered: set[int] = set()
        for p in target:
            if len(self.autos) > seen_autos:
                fixing += [g for g in self.autos[seen_autos:]
                           if all(g[x] == x for x in fixed)]
                seen_autos = len(self.autos)
                _close(covered, list(covered), fixing)
            if p in covered:
                continue
            covered.add(p)
            _close(covered, [p], fixing)
            jump = self._search(_individualize(colors, p), fixed + (p,))
            if jump is not None and jump < depth:
                return jump
        return None

    def _node(self, colors: tuple[int, ...]) -> tuple[tuple[int, ...], list[int] | None]:
        """Count a node against the budget and refine its coloring; return
        the refined colors and the first tied cell, None at a leaf."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(f"canonical labeling exceeded {self.budget} nodes")
        colors = self._refine(colors)
        return colors, next((cell for cell in _cells(colors) if len(cell) > 1), None)

    def run(self) -> list:
        self._search(tuple(self.factor_of), ())
        assert self.best is not None
        return self.best.candidate

    def first_leaf(self) -> tuple:
        """The candidate at the end of the search's first path, which
        individualizes the first point of the first tied cell at every node."""
        colors, target = self._node(tuple(self.factor_of))
        while target is not None:
            colors, target = self._node(_individualize(colors, target[0]))
        return tuple(self._candidate(colors))

    def meets(self, targets: set[tuple]) -> bool:
        """Search until a leaf whose candidate is in ``targets``; False
        when the search ends without one."""
        self.targets = targets
        return self._search(tuple(self.factor_of), ()) == _MATCH


# A jump back above the root: a leaf met a target and ends the whole search.
_MATCH = -1


def _individualize(colors: tuple[int, ...], p: int) -> tuple[int, ...]:
    """``colors`` with ``p`` split off just ahead of the rest of its cell."""
    branched = [2 * c + 1 for c in colors]
    branched[p] -= 1
    rank = {c: i for i, c in enumerate(sorted(set(branched)))}
    return tuple(rank[c] for c in branched)


def _cells(colors: tuple[int, ...]) -> list[list[int]]:
    """The points of each color, in increasing order, for colors that are
    the dense ranks 0, 1, ... of the cells."""
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for p, color in enumerate(colors):
        cells[color].append(p)
    return cells


def _getter(indices: list[int]) -> itemgetter:
    """``itemgetter(*indices)``, but returning a sequence for one index or none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _close(orbit: set[int], start: list[int], generators: list[tuple[int, ...]]):
    """Add to ``orbit`` every image of ``start``'s points under ``generators``."""
    stack = start
    while stack:
        q = stack.pop()
        for g in generators:
            r = g[q]
            if r not in orbit:
                orbit.add(r)
                stack.append(r)


def canonical_form(design: MultipartDesign, budget: int = DEFAULT_BUDGET) -> CanonicalForm:
    """Deterministic canonical representative of a design.

    Invariant under any per-factor level permutation and any block
    permutation.  Raises BudgetExceededError if the search does not
    finish within ``budget`` nodes.
    """
    blocks = _Canonicalizer(design, budget).run()
    return CanonicalForm(MultipartDesign(v=design.v, blocks=tuple(blocks),
                                         factor_names=design.factor_names))


def _matches(d1: MultipartDesign, designs, budget: int) -> bool:
    """True when some design of ``designs`` is isomorphic to ``d1``.

    A design whose fingerprint differs from ``d1``'s is never searched.
    Each other design follows only its first root-to-leaf path, and
    ``d1``'s pruned search stops at the first leaf whose candidate is
    one of those paths' leaf candidates.  Equal candidates are equal
    relabeled block lists, so a match is an isomorphism.  Under an
    isomorphism the other design's tree is the image of ``d1``'s, and
    pruning skips only automorphic images, which have the same
    candidates, so a search that ends without a match proves there is
    none.  ``budget`` bounds each path and the search.
    """
    fingerprint1 = None
    targets = set()
    for d2 in designs:
        if fingerprint1 is None:
            fingerprint1 = _fingerprint(d1)
        if _fingerprint(d2) == fingerprint1:
            targets.add(_Canonicalizer(d2, budget).first_leaf())
    return bool(targets) and _Canonicalizer(d1, budget).meets(targets)


def are_isomorphic(d1: MultipartDesign, d2: MultipartDesign,
                   budget: int = DEFAULT_BUDGET) -> bool:
    """Certificate equality: same per-factor relabeling class.

    Shape mismatches and fingerprint mismatches decide quickly; only
    designs that agree on every cheap invariant reach the search.
    """
    return d1.v == d2.v and _matches(d1, [d2], budget)


def are_weakly_isomorphic(d1: MultipartDesign, d2: MultipartDesign,
                          budget: int = DEFAULT_BUDGET) -> bool:
    """Isomorphism up to exchanging the roles of compatible factors.

    Only the exchanges that keep every factor's level count and multiset
    of part sizes are tried.
    """
    shape1, shape2 = ([(v, sorted(sizes)) for v, sizes in zip(d.v, d._part_sizes.tolist())]
                      for d in (d1, d2))
    exchanged = (permute_factors(d2, sigma) for sigma in permutations(range(d2.m))
                 if [shape2[i] for i in sigma] == shape1)
    return d1.m == d2.m and _matches(d1, exchanged, budget)
