"""Balance verification, parameter admissibility, and block partitions.

All arithmetic is exact; a derived parameter that is not an integer is a
hard admissibility failure, never rounded.  Verification never raises on
an unbalanced design: the report carries the failures.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, islice
from math import prod
from typing import Generator, Iterator, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, UNKNOWN, InvalidInputError
from .model import (
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    MultipartParams,
    _complement,
    _constant_count,
    _index,
    derive_parameters,
    factor_rows,
)

# The nodes each phase of find_partition spends before the other runs;
# every later slice is twice the one before.
FIRST_SLICE = 1024


def concurrence_matrix(design: MultipartDesign, factor: int) -> np.ndarray:
    """Read-only v_i x v_i matrix: off-diagonal pair concurrences, diagonal
    replications."""
    rows = factor_rows(design, factor)
    return design.gram[rows, rows]


def cross_matrix(design: MultipartDesign, i: int, j: int) -> np.ndarray:
    """Read-only v_i x v_j matrix counting blocks containing each cross-factor
    level pair."""
    if i == j:
        raise InvalidInputError("cross_matrix needs two distinct factors")
    return design.gram[factor_rows(design, i), factor_rows(design, j)]


def _level_tables(design: MultipartDesign,
                  params: MultipartParams) -> Iterator[dict[tuple[int, ...], int]]:
    """For t = 2, 3, ..., m, the constant count of every t-subset of factors,
    up to the first t at which some subset varies: pairs are the cross
    counts of ``params``, larger subsets are counted one level of each
    factor by :func:`mpart.model._constant_count`."""
    Z = design.incidence
    factors = [(Z[span], P, picks, 1)
               for span, P, picks in zip(design.spans, design._part_matrices, design._part_index)]
    for t in range(2, design.m + 1):
        table: dict[tuple[int, ...], int] = {}
        for chosen in combinations(range(design.m), t):
            value = (params.lam[chosen[0]][chosen[1]] if t == 2 else
                     _constant_count([factors[i] for i in chosen]))
            if value is None:
                return
            table[chosen] = value
        yield table


def check_strength(design: MultipartDesign, t: int) -> dict[tuple[int, ...], int] | None:
    """Per-t-subset constant incidence counts, or None when unbalanced.

    Strength t includes all lower strengths: the table for the t-subsets
    is only returned when every t'-subset with 2 <= t' <= t is balanced.
    """
    t = _index(t, "t")
    if not 2 <= t <= design.m:
        raise InvalidInputError(f"t must be in 2..{design.m}, got {t}")
    return next(islice(_level_tables(design, derive_parameters(design)), t - 2, None), None)


def design_strength(design: MultipartDesign) -> int:
    """Largest t with strength t; 1 when even pairs are unbalanced or m = 1."""
    return check_multipart(design).strength


@dataclass(frozen=True)
class VerificationReport:
    """Structured evidence for every balance condition of a design."""

    b: int
    v: tuple[int, ...]
    k: tuple[int | None, ...]
    r: tuple[int | None, ...]
    sizes_uniform: tuple[bool, ...]
    incomplete: tuple[bool, ...]
    within_lambda: tuple[int | None, ...]
    within_balance: tuple[bool, ...]
    within_nonzero: tuple[bool, ...]
    cross_lambda: tuple[tuple[int | None, ...], ...]
    cross_balance: tuple[tuple[bool, ...], ...]
    strength: int
    allow_degenerate: bool
    valid: bool

    @property
    def m(self) -> int:
        return len(self.v)

    def summary(self) -> str:
        lines = [f"{self.m}-part design: b={self.b} v={self.v}"]
        for i in range(self.m):
            bits = [
                f"k={self.k[i]}" if self.sizes_uniform[i] else "k varies",
                f"r={self.r[i]}" if self.r[i] is not None else "r varies",
                (f"lambda_{i}{i}={self.within_lambda[i]}"
                 if self.within_balance[i] else f"lambda_{i}{i} varies"),
                "incomplete" if self.incomplete[i] else "NOT incomplete",
            ]
            lines.append(f"  factor {i}: " + ", ".join(bits))
        for i in range(self.m):
            for j in range(i + 1, self.m):
                if self.cross_balance[i][j]:
                    lines.append(f"  lambda_{i}{j}={self.cross_lambda[i][j]}")
                else:
                    lines.append(f"  lambda_{i}{j} varies")
        lines.append(f"  strength: {self.strength}")
        lines.append(f"  verdict: {'valid' if self.valid else 'INVALID'}")
        return "\n".join(lines)


def check_multipart(design: MultipartDesign,
                    allow_degenerate: bool = False) -> VerificationReport:
    """Check uniform incomplete part sizes, within- and cross-factor balance.

    The verdict requires uniform k_i with 2 <= k_i < v_i, constant
    non-zero within-factor concurrence, and constant cross counts for
    every factor pair (strength 2 when m >= 2).  With
    ``allow_degenerate``, a factor with k_i = 1 (hence zero
    concurrence) is reported but not fatal.
    """
    m = design.m
    params = derive_parameters(design)
    k, lam = params.k, params.lam
    within_lambda = tuple(lam[i][i] for i in range(m))
    incomplete = tuple(k[i] is not None and k[i] < design.v[i] for i in range(m))
    strength = 1 + sum(1 for _ in _level_tables(design, params))
    # incomplete needs a uniform k_i; a constant lambda_ii > 0 forces k_i >= 2,
    # and k_i = 1 makes a constant lambda_ii zero.
    valid = all(inc and x is not None and (x > 0 or (allow_degenerate and ki == 1))
                for inc, x, ki in zip(incomplete, within_lambda, k))
    return VerificationReport(
        b=design.b, v=design.v, k=k, r=params.r, incomplete=incomplete,
        sizes_uniform=tuple(x is not None for x in k), within_lambda=within_lambda,
        within_balance=tuple(x is not None for x in within_lambda),
        within_nonzero=tuple(x is not None and x > 0 for x in within_lambda),
        cross_lambda=tuple(tuple(None if i == j else lam[i][j] for j in range(m))
                           for i in range(m)),
        cross_balance=tuple(tuple(i == j or lam[i][j] is not None for j in range(m))
                            for i in range(m)),
        strength=strength, allow_degenerate=allow_degenerate,
        valid=valid and (m < 2 or strength >= 2),
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Derived parameters with integrality flags and block-count bounds."""

    b: int
    v: tuple[int, ...]
    k: tuple[int, ...]
    c: int | None
    r: tuple[Fraction, ...]
    lam: tuple[tuple[Fraction, ...], ...]
    r_integral: tuple[bool, ...]
    lam_integral: tuple[tuple[bool, ...], ...]
    bound_basic: bool
    c_divides_b: bool | None
    bound_partitioned: bool | None
    ok: bool

    @property
    def m(self) -> int:
        return len(self.v)

    def summary(self) -> str:
        lines = [f"b={self.b} v={self.v} k={self.k}" + (f" c={self.c}" if self.c else "")]
        for i in range(self.m):
            mark = "" if self.r_integral[i] else "  <- not an integer"
            lines.append(f"  r_{i} = {self.r[i]}{mark}")
        for i in range(self.m):
            for j in range(i, self.m):
                mark = "" if self.lam_integral[i][j] else "  <- not an integer"
                lines.append(f"  lambda_{i}{j} = {self.lam[i][j]}{mark}")
        need = sum(self.v) - self.m + 1
        lines.append(f"  b >= {need}: {'pass' if self.bound_basic else 'FAIL'}")
        if self.c is not None:
            lines.append(f"  c | b: {'pass' if self.c_divides_b else 'FAIL'}")
            need_c = sum(self.v) + self.c - self.m
            lines.append(f"  b >= {need_c}: {'pass' if self.bound_partitioned else 'FAIL'}")
        lines.append(f"  verdict: {'admissible' if self.ok else 'NOT admissible'}")
        return "\n".join(lines)


def check_admissible(b: int, v: Sequence[int], k: Sequence[int],
                     c: int | None = None) -> AdmissibilityReport:
    """Exact admissibility of (b, v, k[, c]).

    Derives r_i = b k_i / v_i, lambda_ii = b k_i (k_i - 1) / (v_i (v_i - 1))
    and lambda_ij = b k_i k_j / (v_i v_j); flags non-integral values and
    checks b >= sum(v) - m + 1, plus c | b and b >= sum(v) + c - m when a
    class count is given.
    """
    b = _index(b, "b")
    v = tuple(_index(x, "v_i") for x in v)
    k = tuple(_index(x, "k_i") for x in k)
    c = None if c is None else _index(c, "c")
    if b < 1 or len(v) != len(k) or not v:
        raise InvalidInputError(f"bad shapes: b={b}, v={v}, k={k}")
    if any(x < 1 for x in v + k) or (c is not None and c < 1):
        raise InvalidInputError("all inputs must be positive")
    if any(ki >= vi for vi, ki in zip(v, k)):
        raise InvalidInputError(f"need k_i < v_i, got v={v}, k={k}")
    m = len(v)

    r = tuple(Fraction(b * k[i], v[i]) for i in range(m))
    # A pair within factor i draws its second level from the v_i - 1 others,
    # k_i - 1 of them in each block.
    lam = tuple(tuple(Fraction(b * k[i] * (k[j] - (i == j)), v[i] * (v[j] - (i == j)))
                      for j in range(m)) for i in range(m))

    r_integral = tuple(x.denominator == 1 for x in r)
    lam_integral = tuple(tuple(x.denominator == 1 for x in row) for row in lam)
    bound_basic = b >= sum(v) - m + 1
    c_divides_b = (b % c == 0) if c is not None else None
    bound_partitioned = (b >= sum(v) + c - m) if c is not None else None

    ok = all(r_integral) and all(all(row) for row in lam_integral) and bound_basic
    if c is not None:
        ok = ok and c_divides_b and bound_partitioned

    return AdmissibilityReport(
        b=b, v=v, k=k, c=c, r=r, lam=lam,
        r_integral=r_integral, lam_integral=lam_integral,
        bound_basic=bound_basic, c_divides_b=c_divides_b,
        bound_partitioned=bound_partitioned, ok=ok,
    )


def verify_partition(design: MultipartDesign | BlockDesign, partition: BlockPartition) -> bool:
    """True iff every level of every factor (every point of a
    :class:`BlockDesign`) is equally replicated per class."""
    if partition.b != design.b:
        raise InvalidInputError(
            f"partition covers {partition.b} blocks, design has {design.b}")
    Z = design.incidence
    first = Z[:, partition.classes[0]].sum(axis=1)
    return all(np.array_equal(Z[:, cls].sum(axis=1), first)
               for cls in partition.classes[1:])


def find_partition(design: MultipartDesign, c: int,
                   budget: int = DEFAULT_BUDGET):
    """A c-class partition witness, None (none exists), or UNKNOWN.

    Divisibility failures (c not dividing b or some level count) decide
    "none exists" immediately.  Otherwise three steps may run:

    1. Phase 1 backtracks over class assignments in block-index order
       (``_first_steps``).  Its witness is the lexicographically
       least canonical one.
    2. The witness step (``_structural_witness``) reads classes off the
       design's structure, trying three kinds in this order: digit sums
       and then diagonal cosets of a full product of its factors'
       distinct parts, then runs of complement pairs.  A kind's classes
       are returned only if ``verify_partition`` accepts them.
    3. Phase 2, a complete search that branches on the most constrained
       (class, level) pair (``_second_steps``).

    The phases alternate on doubling slices: phase 1 spends the first
    ``min(FIRST_SLICE, budget)`` nodes, the witness step runs once,
    phase 2 spends as many nodes, and each later slice is twice
    the one before, until each phase has spent ``budget`` nodes.  So
    the lexicographically least witness is promised only when phase 1
    decides within the first slice, and a search spends at most
    2 x ``budget`` nodes in all.  None always comes from divisibility
    or an exhausted search; UNKNOWN only when both phases run out.
    Both phases keep their own stacks, so a design of any size cannot
    overflow Python's.
    """
    c, budget = _index(c, "class count"), _index(budget, "budget")
    if c < 1:
        raise InvalidInputError(f"class count must be positive, got {c}")
    if c == 1:
        return BlockPartition((tuple(range(design.b)),))
    quotas = _quotas(design, c)
    if quotas is None:
        return None
    first, second = _Search(_first_steps(*quotas)), None
    limit, size = 0, min(FIRST_SLICE, budget)
    while True:
        limit += size
        result = first.run(limit)
        if result is UNKNOWN:
            if second is None:
                witness = _structural_witness(design, c)
                if witness is not None:
                    return witness
                second = _Search(_second_steps(*quotas))
            result = second.run(limit)
        if result is not UNKNOWN or limit == budget:
            return result
        size = min(2 * size, budget - limit)


def _structural_witness(design: MultipartDesign, c: int) -> BlockPartition | None:
    """The first witness read off the design's structure, trying
    ``_digit_sums``, ``_diagonal_cosets`` and ``_complement_pairs`` in
    that order; else None, which decides nothing.  Each kind reads the
    stored distinct parts and part index, and returns its classes only
    if ``verify_partition`` accepts them."""
    for kind in _WITNESS_KINDS:
        witness = kind(design, c)
        if witness is not None:
            return witness
    return None


def _verified(design: MultipartDesign, c: int, assigned) -> BlockPartition | None:
    """The partition that puts block t in class ``assigned[t]``, when its
    c classes are equal in size and ``verify_partition`` accepts it."""
    assigned = np.asarray(assigned)
    if (np.bincount(assigned, minlength=c) != design.b // c).any():
        return None
    partition = _partition(assigned.tolist(), c)
    return partition if verify_partition(design, partition) else None


def _digit_sums(design: MultipartDesign, c: int) -> BlockPartition | None:
    """Classes by the sum, mod c, of each block's part indices, when the
    blocks are the full product of their factors' distinct parts.

    A part's index is its position among its factor's distinct parts as
    the design stores them.  The classes verify when, for each factor,
    another factor has a multiple of c distinct parts, as (7,3,1)^3 at
    c = 7.
    """
    if design.b != prod(map(len, design._parts)):
        return None
    return _verified(design, c, design._part_index.sum(axis=0) % c)


def _diagonal_cosets(design: MultipartDesign, c: int) -> BlockPartition | None:
    """Classes by the cosets of the diagonal, when the blocks are the full
    product of their factors' distinct parts.

    The factors with equal numbers n of distinct parts form a group, led
    by its first factor.  A block's coset is the tuple, over the other
    factors of every group, of its part index minus its leader's, mod n;
    its class is that tuple read as a mixed-radix number, the first
    factor's digit least significant, mod c.  So c equal to the product
    of the first few radices keeps the first few digits: (7,3,1)^3 splits
    into 49 classes, and (7,3,1)^4 into 49 or 343.  Each coset holds
    every part of each factor equally often.
    """
    counts = list(map(len, design._parts))
    if design.b != prod(counts):
        return None
    index = design._part_index
    leaders: dict[int, int] = {}
    coset, radix = 0, 1
    for i, n in enumerate(counts):
        if n in leaders:
            coset = coset + radix * ((index[i] - index[leaders[n]]) % n)
            radix *= n
        else:
            leaders[n] = i
    if radix == 1:
        return None
    return _verified(design, c, coset % c)


def _complement_pairs(design: MultipartDesign, c: int) -> BlockPartition | None:
    """Classes of pairs of blocks whose parts are complements in every
    factor, when every block pairs and c divides b/2.

    Each block pairs with the first unpaired block before it that holds
    its complement, if any.  A pair holds every level of every factor
    once, so any c runs of b/(2c) pairs, taken here in order of their
    first block, are classes: a Hadamard split's pairs are its rows.
    """
    b = design.b
    if b % (2 * c):
        return None
    opposite = []
    for size, parts, picks in zip(design.v, design._parts, design._part_index):
        where = dict(zip(parts, range(len(parts))))
        across = [where.get(_complement(part, size)) for part in parts]
        if None in across:
            return None
        opposite.append(np.array(across)[picks].tolist())
    keys = zip(*design._part_index.tolist())
    waiting: dict[tuple, deque] = defaultdict(deque)
    pairs = []
    for t, (key, wanted) in enumerate(zip(keys, zip(*opposite))):
        if waiting[wanted]:
            pairs.append((waiting[wanted].popleft(), t))
        else:
            waiting[key].append(t)
    if 2 * len(pairs) != b:
        return None
    run = b // (2 * c)
    assigned = [0] * b
    for q, (s, t) in enumerate(sorted(pairs)):
        assigned[s] = assigned[t] = q // run
    return _verified(design, c, assigned)


_WITNESS_KINDS = (_digit_sums, _diagonal_cosets, _complement_pairs)


def _quotas(design: MultipartDesign, c: int) -> tuple[int, list[int], list[list[int]]] | None:
    """The setup both phases of ``find_partition`` share, for 2 <= c:
    ``(c, quota, points)``, where every class holds point p ``quota[p]``
    times and ``points`` lists each block's searched points, the last of
    them in every block for the class size.  None when c does not divide
    b or some level's replication.

    A class replicates every level equally if and only if it replicates
    every complemented level equally.  So a dense factor, whose parts
    fill more than half its levels (2 sum(r) > b v_i), is searched on
    the complement of each part, with quota (b - r)/c per level: quotas
    there fill up, and prune, long before they do on the parts.  The
    valid partitions and the order of phase 1's walk are unchanged, so
    its witness is too.
    """
    b = design.b
    if b % c:
        return None
    replication = np.diagonal(design.gram)
    if (replication % c).any():
        return None
    Z = design.incidence
    counts = replication.tolist()
    dense = [2 * sum(counts[span]) > b * size for span, size in zip(design.spans, design.v)]
    if any(dense):
        rows = np.repeat(dense, design.v)
        Z = np.where(rows[:, None], 1 - Z, Z)
        counts = np.where(rows, b - replication, replication).tolist()
    # Each block's searched points: the rows of its column of Z, then one
    # more point, in every block, whose quota b/c is the class size.
    size = len(counts)
    levels = np.nonzero(Z.T)[1].tolist()
    ends = list(accumulate(Z.sum(axis=0).tolist()))
    points = [levels[start:end] + [size] for start, end in zip([0] + ends, ends)]
    return c, [r // c for r in counts] + [b // c], points


def _partition(assigned: Sequence[int], c: int) -> BlockPartition:
    """The partition that puts block t in class ``assigned[t]``."""
    classes: list[list[int]] = [[] for _ in range(c)]
    for t, j in enumerate(assigned):
        classes[j].append(t)
    return BlockPartition(tuple(map(tuple, classes)))


class _Search:
    """A phase of ``find_partition`` run in slices.

    ``steps`` is the phase's generator.  Sent a node limit, it searches
    until it decides and returns (answer, nodes spent), or until it has
    spent the limit and yields the nodes spent; it keeps its whole state
    in between, so no node is searched twice.
    """

    def __init__(self, steps: Generator[int, int, tuple]):
        self.steps = steps
        self.nodes = next(steps)

    def run(self, limit: int):
        """Resume until the phase decides or has spent ``limit`` nodes in
        all: its answer, else UNKNOWN."""
        try:
            self.nodes = self.steps.send(limit)
        except StopIteration as stop:
            answer, self.nodes = stop.value
            return answer
        return UNKNOWN


def _first_steps(c: int, quota: list[int], points: list[list[int]]) -> Generator[int, int, tuple]:
    """Phase 1: backtracking over class assignments in block-index order.

    Block 0 is pinned to class 0 and a block may only open class j
    once classes below j are open, so the witness is the
    lexicographically least canonical one.  Every class tried for a
    block counts as one node.  A block fits a class that holds none
    of its points to quota (a full class holds the last one to
    quota): one AND of the block's bitmask with the class's.
    """
    b = len(points)
    bit = [1 << p for p in range(len(quota))]
    masks = [sum(map(bit.__getitem__, block)) for block in points]
    usage = [[0] * len(quota) for _ in range(c)]
    # The points class j holds to quota; a block fits iff it has none of them.
    saturated = [sum(bit[p] for p, q in enumerate(quota) if not q)] * c
    # A placed block t is in class tried[t] - 1; blocks before t open opened[t] classes.
    tried = [0] * b
    opened = [0] * (b + 1)
    nodes = t = 0
    limit = yield nodes
    while t < b:
        j = tried[t]
        if j == min(c, opened[t] + 1):
            if t == 0:
                return None, nodes
            tried[t] = 0
            t -= 1
            j = tried[t] - 1
            saturated[j] &= ~masks[t]
            use = usage[j]
            for p in points[t]:
                use[p] -= 1
            continue
        while nodes >= limit:
            limit = yield nodes
        nodes += 1
        tried[t] = j + 1
        if not masks[t] & saturated[j]:
            use = usage[j]
            for p in points[t]:
                use[p] += 1
                if use[p] == quota[p]:
                    saturated[j] |= bit[p]
            opened[t + 1] = max(opened[t], j + 1)
            t += 1
    return _partition([j - 1 for j in tried], c), nodes


def _second_steps(c: int, quota: list[int], points: list[list[int]]) -> Generator[int, int, tuple]:
    """Phase 2: a complete search on the most constrained (class, point).

    Each class j and point p is a constraint: j still needs
    ``need = quota[p] - use`` blocks through p, and ``fit`` unplaced
    blocks through p may still go into j.  The search branches on the
    constraint with the least slack ``fit - need``, and on its first
    fitting block: the block goes into j, or it is excluded from j.
    A class that holds a point to quota excludes every unplaced
    block through it.  A branch fails as soon as some constraint
    has fewer fitting blocks than it needs, or an unplaced block is
    excluded from every class.

    Empty classes are interchangeable, so only the lowest one may be
    opened, and a block kept out of it is kept out of every empty
    class.  The search is complete: None means no partition exists.
    Every branch taken counts one node.
    """
    b, n = len(points), len(quota)
    through: list[list[int]] = [[] for _ in range(n)]
    for t, block in enumerate(points):
        for p in block:
            through[p].append(t)
    # Constraint (j, p) is entry j * n + p.
    need = quota * c
    fit = [len(blocks) for blocks in through] * c
    allowed = [(1 << c) - 1] * b
    placed = [0] * b  # read only once every block is placed
    # Undo records (t, j, placing): block t counted toward class j's
    # needs when placing, else kept out of class j.
    trail: list[tuple[int, int, bool]] = []

    def exclude(t: int, j: int) -> bool:
        """Keep unplaced block t out of class j; False when it fits no class."""
        allowed[t] &= ~(1 << j)
        trail.append((t, j, False))
        base = j * n
        for p in points[t]:
            fit[base + p] -= 1
        return allowed[t] != 0

    def place(t: int, j: int) -> bool:
        """Put block t in class j, so out of every class it may still
        enter, and exclude from j every unplaced block through a
        point j now holds to quota."""
        for i in range(c):
            if allowed[t] >> i & 1:
                exclude(t, i)
        placed[t] = j
        trail.append((t, j, True))
        base = j * n
        full = []
        for p in points[t]:
            need[base + p] -= 1
            if not need[base + p]:
                full.append(p)
        return all(exclude(s, j) for p in full for s in through[p] if allowed[s] >> j & 1)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            t, j, placing = trail.pop()
            base = j * n
            if placing:
                for p in points[t]:
                    need[base + p] += 1
            else:
                allowed[t] |= 1 << j
                for p in points[t]:
                    fit[base + p] += 1

    def empty(j: int) -> bool:
        return need[j * n + n - 1] == quota[-1]

    def constraint() -> tuple[int, int, int] | None:
        """(slack, class, point) of the open constraint with the least
        slack, over the open classes and the lowest empty one (the
        other empty classes are the same); None when every block is
        placed."""
        best = None
        for j in range(c):
            base = j * n
            for p in range(n):
                if need[base + p]:
                    slack = fit[base + p] - need[base + p]
                    if best is None or slack < best[0]:
                        best = (slack, j, p)
            if empty(j):
                break
        return best

    choices: list[tuple[int, int, int]] = []  # (trail length, block, class)
    nodes = 0
    limit = yield nodes
    ok = True
    while True:
        if ok:
            best = constraint()
            if best is None:
                return _partition(placed, c), nodes
            slack, j, p = best
            ok = slack >= 0
        if not (ok or choices):
            return None, nodes
        while nodes >= limit:
            limit = yield nodes
        nodes += 1
        if ok:
            t = next(s for s in through[p] if allowed[s] >> j & 1)
            choices.append((len(trail), t, j))
            ok = place(t, j)
        else:
            mark, t, j = choices.pop()
            undo(mark)
            ok = all(exclude(t, i) for i in (range(j, c) if empty(j) else (j,)))
