"""Canonical labeling, isomorphism and weak isomorphism of designs.

Isomorphism allows independent relabeling of every factor's levels and
of the blocks; weak isomorphism additionally lets factors of compatible
shape trade places.  The canonical form is the lexicographically least
sorted block list over all per-factor relabelings, found by iterative
refinement on level invariants (replication, concurrence fingerprints,
cross fingerprints) with backtracking over the residual permutations,
pruned by the automorphisms the search finds.
Two designs are isomorphic iff their certificates are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import BudgetExceededError
from .model import MultipartDesign, permute_factors


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical representative plus the byte certificate compared for equality."""

    design: MultipartDesign
    certificate: bytes


def _fingerprint(design: MultipartDesign) -> tuple:
    """Cheap relabeling-invariant summary, used as a certificate prefix.

    Covers the per-block size profiles and the multiset of pairwise
    block-meet profiles, which already separates many non-isomorphic
    designs without any search.
    """
    m = design.m
    size_profiles = tuple(sorted(tuple(len(p) for p in block) for block in design.blocks))
    masks = [tuple(sum(1 << x for x in block[i]) for i in range(m))
             for block in design.blocks]
    meets = sorted(
        tuple((a[i] & b[i]).bit_count() for i in range(m))
        for a, b in combinations(masks, 2)
    )
    replication = np.diagonal(design.gram).tolist()
    reps = tuple(tuple(sorted(replication[span])) for span in design.spans)
    return (design.v, size_profiles, reps, tuple(meets))


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
        self.parts = [
            tuple(tuple(offsets[i] + x for x in block[i]) for i in range(self.m))
            for block in design.blocks
        ]
        self.block_points = design.zipped_blocks
        self.size_profiles = [tuple(len(part) for part in parts)
                              for parts in self.parts]
        self.point_blocks = [tuple(np.flatnonzero(row).tolist())
                             for row in design.incidence]
        self.pair = [tuple(row) for row in design.gram.tolist()]
        self.first: _Leaf | None = None
        self.best: _Leaf | None = None
        self.autos: list[tuple[int, ...]] = []

    def _refine(self, colors: tuple[int, ...]) -> tuple[int, ...]:
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
                    tuple(sorted(zip(colors, self.pair[p]))),
                    tuple(sorted(block_colors[t] for t in self.point_blocks[p])),
                ))
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            colors = tuple(rank[sig] for sig in sigs)
            if len(rank) == n_colors:
                return colors
            n_colors = len(rank)

    def _candidate(self, position: tuple[int, ...]) -> list:
        offsets = self.design.offsets
        return sorted(
            tuple(tuple(sorted(position[p] - offsets[i] for p in part))
                  for i, part in enumerate(parts))
            for parts in self.parts
        )

    def _leaf(self, colors: tuple[int, ...], path: tuple[int, ...]) -> int | None:
        """Record a leaf; return the depth to jump back to, if any.

        Refinement and branching keep the order of the colors, which start
        as the factor index, so a discrete coloring is already every
        point's canonical position.
        """
        candidate = self._candidate(colors)
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
        to when an automorphism leaf ends it early."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"canonical labeling exceeded {self.budget} nodes",
                partial=self.best.candidate if self.best else None)
        colors = self._refine(colors)
        cells: dict[int, list[int]] = {}
        for p, color in enumerate(colors):
            cells.setdefault(color, []).append(p)
        target = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
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
            branched = [2 * c + 1 for c in colors]
            branched[p] -= 1
            rank = {c: i for i, c in enumerate(sorted(set(branched)))}
            jump = self._search(tuple(rank[c] for c in branched), fixed + (p,))
            if jump is not None and jump < depth:
                return jump
        return None

    def run(self) -> list:
        self._search(tuple(self.factor_of), ())
        assert self.best is not None
        return self.best.candidate


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


def canonical_form(design: MultipartDesign, budget: int = 10_000_000,
                   fingerprint: tuple | None = None) -> CanonicalForm:
    """Deterministic canonical representative of a design.

    Invariant under any per-factor level permutation and any block
    permutation.  Raises BudgetExceededError (carrying the best partial
    certificate) if the search does not finish within ``budget`` nodes.
    ``fingerprint``, when given, must be ``_fingerprint(design)``.
    """
    blocks = _Canonicalizer(design, budget).run()
    canonical = MultipartDesign(v=design.v, blocks=tuple(blocks),
                                factor_names=design.factor_names)
    if fingerprint is None:
        fingerprint = _fingerprint(design)
    certificate = repr((fingerprint, blocks)).encode()
    return CanonicalForm(design=canonical, certificate=certificate)


def are_isomorphic(d1: MultipartDesign, d2: MultipartDesign,
                   budget: int = 10_000_000) -> bool:
    """Certificate equality: same per-factor relabeling class.

    Shape mismatches and fingerprint mismatches decide quickly; only
    designs that agree on every cheap invariant reach the search.
    """
    if d1.m != d2.m or d1.v != d2.v:
        return False
    fingerprint1 = _fingerprint(d1)
    fingerprint2 = _fingerprint(d2)
    if fingerprint1 != fingerprint2:
        return False
    c1 = canonical_form(d1, budget=budget, fingerprint=fingerprint1)
    c2 = canonical_form(d2, budget=budget, fingerprint=fingerprint2)
    return c1.certificate == c2.certificate


def are_weakly_isomorphic(d1: MultipartDesign, d2: MultipartDesign,
                          budget: int = 10_000_000) -> bool:
    """Isomorphism up to exchanging the roles of compatible factors.

    ``d1``'s fingerprint and certificate are computed at most once, on
    first use, however many factor exchanges are tried.
    """
    if d1.m != d2.m:
        return False
    profile1 = [tuple(sorted(len(b[i]) for b in d1.blocks)) for i in range(d1.m)]
    profile2 = [tuple(sorted(len(b[i]) for b in d2.blocks)) for i in range(d2.m)]
    fingerprint1 = certificate1 = None
    for sigma in permutations(range(d2.m)):
        if any(d1.v[j] != d2.v[sigma[j]] or profile1[j] != profile2[sigma[j]]
               for j in range(d1.m)):
            continue
        exchanged = permute_factors(d2, sigma)
        if fingerprint1 is None:
            fingerprint1 = _fingerprint(d1)
        fingerprint2 = _fingerprint(exchanged)
        if fingerprint1 != fingerprint2:
            continue
        if certificate1 is None:
            certificate1 = canonical_form(d1, budget=budget,
                                          fingerprint=fingerprint1).certificate
        form2 = canonical_form(exchanged, budget=budget, fingerprint=fingerprint2)
        if form2.certificate == certificate1:
            return True
    return False
