"""Parameter-space enumeration over the ingredient catalog.

Reproduces the least-block-count tables for two-factor designs: full
products (construction 1), class-matched subproducts (2), Hadamard
splits (3) and symmetric-design splits (4).  A row of constructions
2-4 comes from a design that is constructed and passes
``check_multipart`` here; a row of construction 1 is computed from its
two ingredients' parameters, which their full product always has (the
test suite builds and verifies each).  Rows are deduplicated to the
least block count per (v, k) signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .constructions import (
    hadamard_2part,
    subcartesian_product,
    symmetric_block_split,
)
from .errors import (
    DEFAULT_BUDGET,
    UNKNOWN,
    BudgetExceededError,
    InvalidInputError,
    NotConstructibleError,
)
from .ingredients import CatalogEntry, catalog_entries, get_bibd, hadamard_matrix
from .model import BlockPartition, MultipartDesign, as_multipart
from .verify import check_admissible, check_multipart, find_partition

# Catalog designs of at most this many blocks are the tables' ingredients.
INGREDIENT_BLOCKS = 64


@dataclass(frozen=True)
class ParameterRow:
    """One table row: least b for a (v, k) signature plus construction data.

    ``r`` is the class count used by the subproduct route (for rows also
    reachable from a Hadamard matrix of order 4n it equals 2n - 1, the
    replication of the half-size ingredient the subproduct would use);
    ``sym`` is the (v, k, lambda) of the symmetric ingredient.  Each
    construction yields candidate rows that carry its one tag in
    ``constructions``; the candidates of one signature at least b merge
    into the table's row.
    """

    b: int
    v: tuple[int, ...]
    k: tuple[int, ...]
    constructions: tuple[int, ...]
    r: int | None = None
    sym: tuple[int, int, int] | None = None

    @property
    def sort_key(self):
        return (self.b,) + self.v + self.k


def _normalize_signature(v: Sequence[int], k: Sequence[int]):
    pairs = sorted(zip(v, k), reverse=True)
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _satisfies_swap_convention(v: Sequence[int], k: Sequence[int]) -> bool:
    return all(2 * ki <= vi or ki == vi - 1 for vi, ki in zip(v, k))


def _verified_signature(design: MultipartDesign):
    """The (v, k) signature of a constructed design; one that fails
    ``check_multipart`` stops the table instead of losing its row."""
    report = check_multipart(design)
    if not report.valid:
        raise AssertionError(f"constructed {design!r} failed verification:\n"
                             + report.summary())
    return _normalize_signature(design.v, report.k)


class _Enumerator:
    def __init__(self, max_b: int, partition_budget: int):
        self.max_b = max_b
        self.partition_budget = partition_budget
        self.entries = catalog_entries(max_blocks=INGREDIENT_BLOCKS)
        self.primaries = catalog_entries(max_blocks=INGREDIENT_BLOCKS,
                                         include_complements=False)
        self._partitions: dict[tuple[CatalogEntry, int], BlockPartition | None] = {}

    def partitions_of(self, entry: CatalogEntry, c: int) -> BlockPartition | None:
        """The c-class partition of a catalog design, or None when none
        exists; an undecided search raises instead of dropping rows."""
        if (entry, c) not in self._partitions:
            result = find_partition(as_multipart(get_bibd(entry.v, entry.k, entry.lam)), c,
                                    budget=self.partition_budget)
            if result is UNKNOWN:
                raise BudgetExceededError(
                    f"partition search on {entry.name} with {c} classes is undecided "
                    f"after {self.partition_budget} nodes")
            self._partitions[entry, c] = result
        return self._partitions[entry, c]

    # ---- construction 1: full products

    def cartesian(self) -> Iterable[ParameterRow]:
        for i, e1 in enumerate(self.entries):
            for e2 in self.entries[i:]:
                b = e1.b * e2.b
                if b > self.max_b:
                    continue
                v, k = _normalize_signature((e1.v, e2.v), (e1.k, e2.k))
                yield ParameterRow(b=b, v=v, k=k, constructions=(1,))

    # ---- construction 2: subcartesian products

    def subcartesian(self) -> Iterable[ParameterRow]:
        for e2 in self.entries:
            for c in range(2, e2.b + 1):
                if e2.b % c:
                    continue
                firsts = [e1 for e1 in self.entries
                          if e1.b % c == 0 and e1.b * e2.b // c <= self.max_b]
                if not firsts:
                    continue
                partition = self.partitions_of(e2, c)
                if partition is None:
                    continue
                d2 = get_bibd(e2.v, e2.k, e2.lam)
                for e1 in firsts:
                    b = e1.b * e2.b // c
                    design = subcartesian_product(get_bibd(e1.v, e1.k, e1.lam), d2, partition)
                    sig = _verified_signature(design)
                    yield ParameterRow(b=b, v=sig[0], k=sig[1], constructions=(2,), r=c)

    # ---- construction 3: Hadamard splits

    def hadamard(self) -> Iterable[ParameterRow]:
        order = 8
        while 2 * order - 4 <= self.max_b:
            try:
                H = hadamard_matrix(order)
            except NotConstructibleError:
                order += 4
                continue
            design = hadamard_2part(H, second_row=1)
            sig = _verified_signature(design)
            yield ParameterRow(b=design.b, v=sig[0], k=sig[1], constructions=(3,),
                               r=order // 2 - 1)
            order += 4

    # ---- construction 4: symmetric splits

    def symmetric(self) -> Iterable[ParameterRow]:
        for entry in self.primaries:
            if not entry.symmetric or entry.b - 1 > self.max_b:
                continue
            if entry.lam < 2:
                entry = entry.complement()
            # k - lam < 2 would give the split's first factor k = 1.
            if entry is None or entry.lam < 2 or entry.k - entry.lam < 2:
                continue
            split = symmetric_block_split(get_bibd(entry.v, entry.k, entry.lam), 0)
            sig = _verified_signature(split)
            yield ParameterRow(b=split.b, v=sig[0], k=sig[1], constructions=(4,),
                               sym=(entry.v, entry.k, entry.lam))


def _collect(enum: _Enumerator, constructions: frozenset[int],
             swap_convention: bool) -> dict[tuple, list[ParameterRow]]:
    generators = {1: enum.cartesian, 2: enum.subcartesian,
                  3: enum.hadamard, 4: enum.symmetric}
    unknown = constructions - set(generators)
    if unknown:
        raise InvalidInputError(
            f"tables cover constructions 1-4, got {sorted(unknown)}")
    best: dict[tuple, list[ParameterRow]] = {}
    for tag in sorted(constructions):
        for cand in generators[tag]():
            if swap_convention and not _satisfies_swap_convention(cand.v, cand.k):
                continue
            key = (cand.v, cand.k)
            kept = best.get(key)
            if kept is None or cand.b < kept[0].b:
                best[key] = [cand]
            elif cand.b == kept[0].b:
                kept.append(cand)
    return best


def enumerate_reachable(max_b: int,
                        constructions: Iterable[int] = (1, 2, 3, 4),
                        exclude: Iterable[int] = (),
                        swap_convention: bool = True,
                        partition_budget: int = DEFAULT_BUDGET) -> tuple[ParameterRow, ...]:
    """Least-b parameter rows reachable by the chosen constructions.

    ``exclude`` drops any signature the excluded construction reaches at
    the same or a smaller block count.  ``swap_convention`` keeps only
    rows with k_i <= v_i/2 or k_i = v_i - 1 for every factor (the tables
    for constructions 1-3 follow it; the symmetric-split table does not).
    A partition search still undecided after ``partition_budget`` nodes
    raises :class:`BudgetExceededError`, and a constructed design that
    fails ``check_multipart`` raises AssertionError: no row is dropped.
    """
    constructions = frozenset(constructions)
    exclude = frozenset(exclude)
    if constructions & exclude:
        raise InvalidInputError("a construction cannot be both included and excluded")
    enum = _Enumerator(max_b, partition_budget)
    best = _collect(enum, constructions, swap_convention)
    if exclude:
        shadow = _collect(enum, exclude, False)
        best = {key: cands for key, cands in best.items()
                if key not in shadow or shadow[key][0].b > cands[0].b}

    rows = []
    for (v, k), cands in best.items():
        b = cands[0].b
        tags = tuple(sorted({tag for c in cands for tag in c.constructions}))
        r_values = [c.r for c in cands if c.r is not None]
        r = max(r_values) if r_values else None
        sym_values = [c.sym for c in cands if c.sym is not None]
        sym = sym_values[0] if sym_values else None
        assert check_admissible(b, v, k).ok
        rows.append(ParameterRow(b=b, v=v, k=k, constructions=tags, r=r, sym=sym))
    return tuple(sorted(rows, key=lambda row: row.sort_key))


def render_rows(rows: Sequence[ParameterRow]) -> str:
    """Aligned text table; rows reachable from a Hadamard split get a star."""
    header = ["b"]
    m = max((len(r.v) for r in rows), default=2)
    header += [f"v{i+1}" for i in range(m)] + [f"k{i+1}" for i in range(m)]
    header += ["r", "sym", "via"]
    lines = [[str(r.b)]
             + [str(x) for x in r.v] + [""] * (m - len(r.v))
             + [str(x) for x in r.k] + [""] * (m - len(r.k))
             + [str(r.r) if r.r is not None else "-",
                f"({r.sym[0]},{r.sym[1]},{r.sym[2]})" if r.sym else "-",
                ",".join(str(t) for t in r.constructions)
                + (" *" if 3 in r.constructions else "")]
             for r in rows]
    widths = [max(len(header[i]), *(len(line[i]) for line in lines)) if lines else len(header[i])
              for i in range(len(header))]
    out = ["  ".join(header[i].rjust(widths[i]) for i in range(len(header)))]
    for line in lines:
        out.append("  ".join(line[i].rjust(widths[i]) for i in range(len(header))))
    return "\n".join(out) + "\n"
