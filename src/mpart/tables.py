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

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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
from .ingredients import catalog_entries, get_bibd, hadamard_matrix
from .model import MultipartDesign, as_multipart
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


# ---- construction 1: full products

def _cartesian(max_b: int, partition_budget: int) -> Iterator[ParameterRow]:
    entries = catalog_entries(max_blocks=INGREDIENT_BLOCKS)
    for i, e1 in enumerate(entries):
        for e2 in entries[i:]:
            b = e1.b * e2.b
            if b > max_b:
                continue
            v, k = _normalize_signature((e1.v, e2.v), (e1.k, e2.k))
            yield ParameterRow(b=b, v=v, k=k, constructions=(1,))


# ---- construction 2: subcartesian products

def _subcartesian(max_b: int, partition_budget: int) -> Iterator[ParameterRow]:
    entries = catalog_entries(max_blocks=INGREDIENT_BLOCKS)
    for e2 in entries:
        # each class count of e2 with the first ingredients it fits within max_b
        splits = [(c, firsts) for c in range(2, e2.b + 1) if e2.b % c == 0
                  if (firsts := [e1 for e1 in entries
                                 if e1.b % c == 0 and e1.b * e2.b // c <= max_b])]
        if not splits:
            continue
        d2 = get_bibd(e2.v, e2.k, e2.lam)
        view = as_multipart(d2)
        for c, firsts in splits:
            partition = find_partition(view, c, budget=partition_budget)
            if partition is UNKNOWN:
                raise BudgetExceededError(
                    f"partition search on {e2.name} with {c} classes is undecided "
                    f"after {partition_budget} nodes")
            if partition is None:
                continue
            for e1 in firsts:
                design = subcartesian_product(get_bibd(e1.v, e1.k, e1.lam), d2, partition)
                v, k = _verified_signature(design)
                yield ParameterRow(b=e1.b * e2.b // c, v=v, k=k, constructions=(2,), r=c)


# ---- construction 3: Hadamard splits

def _hadamard(max_b: int, partition_budget: int) -> Iterator[ParameterRow]:
    for order in range(8, (max_b + 4) // 2 + 1, 4):
        try:
            H = hadamard_matrix(order)
        except NotConstructibleError:
            continue
        design = hadamard_2part(H, second_row=1)
        v, k = _verified_signature(design)
        yield ParameterRow(b=design.b, v=v, k=k, constructions=(3,), r=order // 2 - 1)


# ---- construction 4: symmetric splits

def _symmetric(max_b: int, partition_budget: int) -> Iterator[ParameterRow]:
    for entry in catalog_entries(max_blocks=INGREDIENT_BLOCKS, include_complements=False):
        if not entry.symmetric or entry.b - 1 > max_b:
            continue
        if entry.lam < 2:
            entry = entry.complement()
        # k - lam < 2 would give the split's first factor k = 1.
        if entry is None or entry.lam < 2 or entry.k - entry.lam < 2:
            continue
        split = symmetric_block_split(get_bibd(entry.v, entry.k, entry.lam), 0)
        v, k = _verified_signature(split)
        yield ParameterRow(b=split.b, v=v, k=k, constructions=(4,),
                           sym=(entry.v, entry.k, entry.lam))


# Each construction's candidate rows, by its tag.
_GENERATORS: dict[int, Callable[[int, int], Iterator[ParameterRow]]] = {
    1: _cartesian, 2: _subcartesian, 3: _hadamard, 4: _symmetric}


def _collect(constructions: frozenset[int], max_b: int, partition_budget: int,
             swap_convention: bool) -> dict[tuple, ParameterRow]:
    """The least-b row of each signature the constructions reach.  The
    candidates of one signature at that b merge into one row: the union
    of their tags, the largest r and the first sym."""
    best: dict[tuple, ParameterRow] = {}
    for tag in sorted(constructions):
        for cand in _GENERATORS[tag](max_b, partition_budget):
            if swap_convention and not _satisfies_swap_convention(cand.v, cand.k):
                continue
            key = (cand.v, cand.k)
            kept = best.get(key)
            if kept is None or cand.b < kept.b:
                best[key] = cand
            elif cand.b == kept.b:
                r_values = [r for r in (kept.r, cand.r) if r is not None]
                best[key] = replace(
                    kept, constructions=tuple(sorted({*kept.constructions, *cand.constructions})),
                    r=max(r_values, default=None), sym=kept.sym or cand.sym)
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
    A construction number outside 1-4 raises :class:`InvalidInputError`
    before any search.  A partition search still undecided after
    ``partition_budget`` nodes raises :class:`BudgetExceededError`, and
    a constructed design that fails ``check_multipart`` raises
    AssertionError: no row is dropped.
    """
    constructions = frozenset(constructions)
    exclude = frozenset(exclude)
    if constructions & exclude:
        raise InvalidInputError("a construction cannot be both included and excluded")
    unknown = (constructions | exclude) - _GENERATORS.keys()
    if unknown:
        raise InvalidInputError(f"tables cover constructions 1-4, got {sorted(unknown)}")
    best = _collect(constructions, max_b, partition_budget, swap_convention)
    # The swap convention depends only on the signature, so the excluded
    # rows it drops are never looked up.
    shadow = _collect(exclude, max_b, partition_budget, swap_convention)
    rows = [row for key, row in best.items() if key not in shadow or shadow[key].b > row.b]
    assert all(check_admissible(row.b, row.v, row.k).ok for row in rows)
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
    widths = [max(map(len, column)) for column in zip(header, *lines)]
    return "".join("  ".join(cell.rjust(width) for cell, width in zip(line, widths)) + "\n"
                   for line in [header, *lines])
