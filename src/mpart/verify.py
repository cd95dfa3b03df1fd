"""Balance verification, parameter admissibility, and block partitions.

All arithmetic is exact; a derived parameter that is not an integer is a
hard admissibility failure, never rounded.  Verification never raises on
an unbalanced design: the report carries the failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, islice
from typing import Iterator, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, UNKNOWN, InvalidInputError
from .model import (
    BlockPartition,
    MultipartDesign,
    MultipartParams,
    constant_count,
    derive_parameters,
    factor_rows,
    replicates_equally,
)


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
    counts of ``params``, larger subsets are counted once here."""
    for t in range(2, design.m + 1):
        table: dict[tuple[int, ...], int] = {}
        for factors in combinations(range(design.m), t):
            value = (params.lam[factors[0]][factors[1]] if t == 2 else
                     constant_count(design.incidence, [design.spans[i] for i in factors]))
            if value is None:
                return
            table[factors] = value
        yield table


def check_strength(design: MultipartDesign, t: int) -> dict[tuple[int, ...], int] | None:
    """Per-t-subset constant incidence counts, or None when unbalanced.

    Strength t includes all lower strengths: the table for the t-subsets
    is only returned when every t'-subset with 2 <= t' <= t is balanced.
    """
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
    sizes_uniform = [x is not None for x in k]
    within_lambda = [lam[i][i] for i in range(m)]
    within_balance = [x is not None for x in within_lambda]
    within_nonzero = [x is not None and x > 0 for x in within_lambda]
    cross_lambda = [[None if i == j else lam[i][j] for j in range(m)] for i in range(m)]
    cross_balance = [[i == j or lam[i][j] is not None for j in range(m)] for i in range(m)]
    incomplete = [k[i] is not None and k[i] < design.v[i] for i in range(m)]
    strength = 1 + sum(1 for _ in _level_tables(design, params))

    valid = True
    for i in range(m):
        if not (sizes_uniform[i] and incomplete[i] and within_balance[i]):
            valid = False
        elif within_nonzero[i] and k[i] >= 2:
            pass
        elif allow_degenerate and k[i] == 1 and within_lambda[i] == 0:
            pass
        else:
            valid = False
    if m >= 2:
        valid = valid and strength >= 2

    return VerificationReport(
        b=design.b, v=design.v, k=k, r=params.r,
        sizes_uniform=tuple(sizes_uniform), incomplete=tuple(incomplete),
        within_lambda=tuple(within_lambda), within_balance=tuple(within_balance),
        within_nonzero=tuple(within_nonzero),
        cross_lambda=tuple(tuple(row) for row in cross_lambda),
        cross_balance=tuple(tuple(row) for row in cross_balance),
        strength=strength, allow_degenerate=allow_degenerate, valid=valid,
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
    v = tuple(int(x) for x in v)
    k = tuple(int(x) for x in k)
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


def verify_partition(design: MultipartDesign, partition: BlockPartition) -> bool:
    """True iff every level of every factor is equally replicated per class."""
    if partition.b != design.b:
        raise InvalidInputError(
            f"partition covers {partition.b} blocks, design has {design.b}")
    return replicates_equally(design.incidence, partition)


def find_partition(design: MultipartDesign, c: int,
                   budget: int = DEFAULT_BUDGET):
    """A c-class partition witness, None (none exists), or UNKNOWN.

    Exact backtracking over class assignments in block-index order with
    per-level occurrence quotas; block 0 is pinned to class 0 and a
    block may only open class j once classes below j are open, so the
    witness returned is the lexicographically least canonical one.
    Every class tried for a block counts as one node against ``budget``.
    Divisibility failures (c not dividing b or some level count) decide
    "none exists" immediately.  The search keeps its own stack, so a
    design of any size cannot overflow Python's.

    A class replicates every level equally if and only if it replicates
    every complemented level equally.  So a dense factor, whose parts
    fill more than half its levels (2 sum(r) > b v_i), is searched on
    the complement of each part, with quota (b - r)/c per level: quotas
    there fill up, and prune, long before they do on the parts.  The
    valid partitions and the order of the walk are unchanged, so the
    witness is too; ``budget`` counts the nodes of this search.
    """
    if c < 1:
        raise InvalidInputError(f"class count must be positive, got {c}")
    b = design.b
    if c == 1:
        return BlockPartition((tuple(range(b)),))
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
    quota = [r // c for r in counts]
    # Each block's searched points (the rows of its column of Z) and their bitmask.
    levels = np.nonzero(Z.T)[1].tolist()
    ends = list(accumulate(Z.sum(axis=0).tolist()))
    points = [levels[start:end] for start, end in zip([0] + ends, ends)]
    bit = [1 << p for p in range(len(quota))]
    masks = [sum(map(bit.__getitem__, block)) for block in points]
    class_size = b // c
    fill = [0] * c
    usage = [[0] * len(quota) for _ in range(c)]
    # The points class j holds to quota; a block fits iff it has none of them.
    saturated = [sum(bit[p] for p, q in enumerate(quota) if not q)] * c
    # A placed block t is in class tried[t] - 1; blocks before t open opened[t] classes.
    tried = [0] * b
    opened = [0] * (b + 1)
    nodes = t = 0
    while t < b:
        j = tried[t]
        if j == min(c, opened[t] + 1):
            if t == 0:
                return None
            tried[t] = 0
            t -= 1
            j = tried[t] - 1
            fill[j] -= 1
            saturated[j] &= ~masks[t]
            use = usage[j]
            for p in points[t]:
                use[p] -= 1
            continue
        nodes += 1
        if nodes > budget:
            return UNKNOWN
        tried[t] = j + 1
        if fill[j] < class_size and not masks[t] & saturated[j]:
            fill[j] += 1
            use = usage[j]
            for p in points[t]:
                use[p] += 1
                if use[p] == quota[p]:
                    saturated[j] |= bit[p]
            opened[t + 1] = max(opened[t], j + 1)
            t += 1

    classes = [[] for _ in range(c)]
    for t, j in enumerate(tried):
        classes[j - 1].append(t)
    return BlockPartition(tuple(tuple(cls) for cls in classes))
