"""Independent reading, writing and recounting of designs.

The benchmark judges mpart's answers with this module, so it imports
nothing from mpart: files are parsed with its own grammar, balance and
class replication are recounted directly from the block lists, and the
admissibility formulas are written out again from their definitions.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)=(\d+)")
_PART = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\{([0-9,]*)\}")


@dataclass(frozen=True)
class Design:
    """Factor names, level counts and blocks of 0-based sorted parts."""

    names: tuple[str, ...]
    v: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def m(self) -> int:
        return len(self.v)

    @property
    def b(self) -> int:
        return len(self.blocks)


def parse_concise(text: str) -> Design:
    """Read the concise ``mpart v1`` format; raises ValueError when malformed."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if len(lines) < 3 or lines[0] != "mpart v1" or not lines[1].startswith("factors:"):
        raise ValueError("not a concise design")
    declared = _FACTOR.findall(lines[1])
    names = tuple(name for name, _ in declared)
    v = tuple(int(size) for _, size in declared)
    blocks = []
    for line in lines[2:]:
        if not line.startswith("block:"):
            raise ValueError(f"bad block line {line!r}")
        parts = _PART.findall(line)
        if tuple(name for name, _ in parts) != names:
            raise ValueError(f"block does not list the factors {names}: {line!r}")
        blocks.append(tuple(tuple(sorted(int(x) - 1 for x in levels.split(",")))
                            for _, levels in parts))
    return Design(names, v, tuple(blocks))


def from_json(doc: dict) -> Design:
    """Read mpart's JSON mirror (1-based levels)."""
    if doc.get("format") != "mpart":
        raise ValueError("not an mpart JSON design")
    return Design(tuple(f["name"] for f in doc["factors"]),
                  tuple(f["levels"] for f in doc["factors"]),
                  tuple(tuple(tuple(sorted(x - 1 for x in part)) for part in block)
                        for block in doc["blocks"]))


def to_concise(design: Design) -> str:
    lines = ["mpart v1", "factors: " + " ".join(
        f"{name}={size}" for name, size in zip(design.names, design.v))]
    for block in design.blocks:
        lines.append("block: " + " ".join(
            f"{name}{{{','.join(str(x + 1) for x in part)}}}"
            for name, part in zip(design.names, block)))
    return "\n".join(lines) + "\n"


def to_block_list(blocks) -> str:
    """Plain block-list format: one line of 1-based points per block."""
    return "".join(" ".join(str(x + 1) for x in block) + "\n" for block in blocks)


def digest(design: Design) -> str:
    """Label-sensitive digest of the level counts and the block multiset."""
    return hashlib.sha256(repr((design.v, sorted(design.blocks))).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# recounts


def _constant(counter: Counter, keys):
    values = {counter.get(key, 0) for key in keys}
    return values.pop() if len(values) == 1 else None


@dataclass(frozen=True)
class Balance:
    """Recounted parameters; a varying count is None."""

    b: int
    v: tuple[int, ...]
    k: tuple[int | None, ...]
    r: tuple[int | None, ...]
    lam: tuple[tuple[int | None, ...], ...]

    @property
    def valid(self) -> bool:
        """Uniform incomplete parts, constant non-zero within-factor pair
        counts and constant cross-factor counts (strength 2)."""
        m = len(self.v)
        for i in range(m):
            k = self.k[i]
            if k is None or not 2 <= k < self.v[i] or not self.lam[i][i]:
                return False
        return all(self.lam[i][j] is not None
                   for i in range(m) for j in range(i + 1, m))


def balance(design: Design) -> Balance:
    m, v, blocks = design.m, design.v, design.blocks
    k = []
    r = []
    for i in range(m):
        sizes = {len(block[i]) for block in blocks}
        k.append(sizes.pop() if len(sizes) == 1 else None)
        r.append(_constant(Counter(x for block in blocks for x in block[i]), range(v[i])))
    lam = [[None] * m for _ in range(m)]
    for i in range(m):
        pairs = Counter(p for block in blocks for p in combinations(block[i], 2))
        lam[i][i] = _constant(pairs, combinations(range(v[i]), 2)) if v[i] > 1 else 0
        for j in range(i + 1, m):
            cross = Counter(p for block in blocks for p in product(block[i], block[j]))
            lam[i][j] = lam[j][i] = _constant(cross, product(range(v[i]), range(v[j])))
    return Balance(design.b, v, tuple(k), tuple(r), tuple(tuple(row) for row in lam))


def classes_replicate(design: Design, classes) -> bool:
    """True iff ``classes`` (0-based block indices) split the blocks into
    equal-size classes that each replicate every level of every factor
    equally often."""
    flat = sorted(t for cls in classes for t in cls)
    if flat != list(range(design.b)) or len({len(cls) for cls in classes}) != 1:
        return False
    for i in range(design.m):
        per_class = {tuple(Counter(x for t in cls for x in design.blocks[t][i]).get(x, 0)
                           for x in range(design.v[i]))
                     for cls in classes}
        if len(per_class) != 1:
            return False
    return True


def admissible(b: int, v, k) -> bool:
    """Integral r and lambda, and the block-count bound b >= sum(v) - m + 1."""
    m = len(v)
    values = [Fraction(b * k[i], v[i]) for i in range(m)]
    values += [Fraction(b * k[i] * (k[i] - 1), v[i] * (v[i] - 1)) for i in range(m) if v[i] > 1]
    values += [Fraction(b * k[i] * k[j], v[i] * v[j])
               for i in range(m) for j in range(i + 1, m)]
    return all(x.denominator == 1 for x in values) and b >= sum(v) - m + 1
