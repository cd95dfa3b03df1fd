import dataclasses
import gc
import hashlib

import pytest

import mpart.tables
from mpart.cli import cli_main
from mpart.constructions import cartesian_product
from mpart.errors import UNKNOWN, BudgetExceededError, InvalidInputError
from mpart.ingredients import catalog_entries, get_bibd
from mpart.model import BlockPartition, as_multipart
from mpart.tables import INGREDIENT_BLOCKS, enumerate_reachable, render_rows
from mpart.verify import check_multipart

from helpers import first_phase

# SHA-256 of the output of `mpart tables` with these arguments, recorded
# before the partition search moved to complemented parts.
TABLE_DIGESTS = {
    ("--max-b", "60"): "ab9730bd59dede57faa4965c2ffd23fd9d1cb1249d02ba832483b03884a0bf36",
    ("--max-b", "60", "--format", "json"):
        "14789a022f4a00faa5d1027545198baa0e06c1dc1f69d4f4d4cbb80ab7c0493b",
    ("--max-b", "120"): "3ef93d21eab06c5cdbfcd61b774e46ed3d8a10b102561a8c1d3aa8043a3f7ce2",
}

# Known least-block rows for the full-product table, b <= 21.
CARTESIAN_ROWS_21 = {
    (9, (3, 3), (2, 2)),
    (12, (4, 3), (3, 2)),
    (15, (5, 3), (4, 2)),
    (16, (4, 4), (3, 3)),
    (18, (4, 3), (2, 2)),
    (18, (6, 3), (5, 2)),
    (20, (5, 4), (4, 3)),
    (21, (7, 3), (3, 2)),
    (21, (7, 3), (6, 2)),
}

# The eight symmetric-split rows with their ingredient parameters.
SYMMETRIC_ROWS = [
    (6, (4, 3), (2, 2), (7, 4, 2)),
    (10, (6, 5), (3, 2), (11, 5, 2)),
    (12, (9, 4), (6, 3), (13, 9, 6)),
    (14, (8, 7), (4, 3), (15, 7, 3)),
    (15, (10, 6), (4, 2), (16, 6, 2)),
    (18, (10, 9), (5, 4), (19, 9, 4)),
    (22, (12, 11), (6, 5), (23, 11, 5)),
    (24, (16, 9), (6, 3), (25, 9, 3)),
]

# Rows marked as reachable from a Hadamard matrix, with their r values.
STARRED_ROWS = [
    (12, (4, 4), (2, 2), 3),
    (20, (6, 6), (3, 3), 5),
    (28, (8, 8), (4, 4), 7),
    (36, (10, 10), (5, 5), 9),
    (44, (12, 12), (6, 6), 11),
    (60, (16, 16), (8, 8), 15),
]


def test_cartesian_table_contains_known_rows():
    rows = enumerate_reachable(max_b=20, constructions=(1,))
    got = {(r.b, r.v, r.k) for r in rows}
    assert (9, (3, 3), (2, 2)) in got
    assert (12, (4, 3), (3, 2)) in got
    assert (16, (4, 4), (3, 3)) in got


def test_every_full_product_row_builds_and_verifies():
    # Construction 1's rows are computed from their ingredients'
    # parameters; a full product of catalog designs with those parameters
    # must verify with the row's b, v and k.
    entries = catalog_entries(max_blocks=INGREDIENT_BLOCKS)
    rows = enumerate_reachable(max_b=60, constructions=(1,))
    assert rows
    for row in rows:
        e1, e2 = next((e1, e2) for e1 in entries for e2 in entries
                      if (e1.v, e1.k, e2.v, e2.k) == (row.v[0], row.k[0], row.v[1], row.k[1])
                      and e1.b * e2.b == row.b)
        design = cartesian_product([get_bibd(e.v, e.k, e.lam) for e in (e1, e2)])
        report = check_multipart(design)
        assert report.valid, row
        assert (report.b, report.v, report.k) == (row.b, row.v, row.k), row


def test_cartesian_table_b21_least_b_agreement():
    rows = enumerate_reachable(max_b=21, constructions=(1,))
    got = {(r.b, r.v, r.k) for r in rows}
    assert CARTESIAN_ROWS_21 <= got
    by_signature = {(r.v, r.k): r.b for r in rows}
    for b, v, k in CARTESIAN_ROWS_21:
        assert by_signature[(v, k)] == b


def test_symmetric_table_exact():
    rows = enumerate_reachable(max_b=24, constructions=(4,), swap_convention=False)
    assert [(r.b, r.v, r.k, r.sym) for r in rows] == SYMMETRIC_ROWS


def test_symmetric_table_examples():
    rows = enumerate_reachable(max_b=15, constructions=(4,), swap_convention=False)
    got = {(r.b, r.v, r.k, r.sym) for r in rows}
    assert (6, (4, 3), (2, 2), (7, 4, 2)) in got
    assert (10, (6, 5), (3, 2), (11, 5, 2)) in got


def test_subcartesian_hadamard_minus_cartesian():
    rows = enumerate_reachable(max_b=60, constructions=(2, 3), exclude=(1,))
    by_signature = {(r.v, r.k): r for r in rows}
    row = by_signature[((4, 3), (2, 2))]
    assert row.b == 6 and row.r == 3
    starred = by_signature[((4, 4), (2, 2))]
    assert starred.b == 12 and starred.r == 3 and 3 in starred.constructions
    for b, v, k, r in STARRED_ROWS:
        row = by_signature[(v, k)]
        assert row.b == b, (v, k)
        assert 3 in row.constructions, (v, k)
        assert row.r == r, (v, k)


def test_hadamard_rows_carry_the_class_count_of_a_quarter_of_b():
    for kwargs in ({}, {"constructions": (2, 3), "exclude": (1,)}):
        rows = [r for r in enumerate_reachable(max_b=250, **kwargs) if 3 in r.constructions]
        assert rows, kwargs
        assert all(r.r == r.b // 4 for r in rows), kwargs


def test_excluded_rows_are_dropped():
    rows = enumerate_reachable(max_b=60, constructions=(2, 3), exclude=(1,))
    signatures = {(r.v, r.k): r.b for r in rows}
    # the full product reaches (3,3),(2,2) at 9 already: must not appear
    assert ((3, 3), (2, 2)) not in signatures


def test_rows_are_sorted_and_admissible():
    rows = enumerate_reachable(max_b=24, constructions=(1, 4), swap_convention=False)
    keys = [row.sort_key for row in rows]
    assert keys == sorted(keys)


def test_enumerate_is_deterministic():
    a = enumerate_reachable(max_b=30, constructions=(2, 3), exclude=(1,))
    b = enumerate_reachable(max_b=30, constructions=(2, 3), exclude=(1,))
    assert a == b


def test_render_rows_marks_hadamard_reachable():
    rows = enumerate_reachable(max_b=20, constructions=(2, 3), exclude=(1,))
    text = render_rows(rows)
    starred = [line for line in text.splitlines() if line.endswith("*")]
    assert any(line.split()[0] == "12" for line in starred)


def test_bad_construction_numbers():
    with pytest.raises(InvalidInputError):
        enumerate_reachable(max_b=10, constructions=(9,))
    with pytest.raises(InvalidInputError):
        enumerate_reachable(max_b=10, constructions=(1,), exclude=(1,))


def test_least_b_tables_match_the_recorded_digests(capsys):
    for args, digest in TABLE_DIGESTS.items():
        assert cli_main(["tables", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_undecided_partition_search_fails_the_table(capsys):
    # The table to b = 60 splits all pairs of 11 into 5 classes, a search
    # whose phase 1 decides at 39025 nodes (LEAST_DECIDING_BUDGET in
    # test_verify).
    pairs = as_multipart(get_bibd(11, 2, 1))
    assert first_phase(pairs, 5, 39024) is UNKNOWN
    assert first_phase(pairs, 5, 39025) is not UNKNOWN
    # With phase 2 the table's last search to decide is 2-(16,6,2) into 2
    # classes (none exists), which phase 2 decides at 116 nodes.
    assert cli_main(["tables", "--max-b", "60", "--budget", "115"]) == 4
    assert ("2-(16,6,2) from a difference set in (Z2)^4 with 2 classes is undecided"
            in capsys.readouterr().err)
    with pytest.raises(BudgetExceededError):
        enumerate_reachable(max_b=60, partition_budget=115)
    assert cli_main(["tables", "--max-b", "60", "--budget", "116"]) == 0


def test_a_design_that_fails_verification_stops_the_table(monkeypatch):
    # Rows come only from verified designs; a failed check is a fault to
    # report, never a row to leave out.
    def failing(design):
        return dataclasses.replace(check_multipart(design), valid=False)

    monkeypatch.setattr(mpart.tables, "check_multipart", failing)
    with pytest.raises(AssertionError, match="failed verification"):
        enumerate_reachable(max_b=40, constructions=(2, 3), exclude=(1,))


def test_enumeration_keeps_no_partition_alive():
    # Each partition search of an enumeration serves it alone; none is
    # cached past it.
    gc.collect()
    before = [obj for obj in gc.get_objects() if isinstance(obj, BlockPartition)]
    known = {id(obj) for obj in before}
    rows = enumerate_reachable(max_b=60, constructions=(2,), exclude=(1,))
    assert any(2 in row.constructions for row in rows)
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, BlockPartition) and id(obj) not in known]


def test_unknown_construction_numbers_are_refused_before_any_search(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("searched before refusing the construction number")

    monkeypatch.setattr(mpart.tables, "catalog_entries", unreachable)
    monkeypatch.setattr(mpart.tables, "find_partition", unreachable)
    for kwargs in ({"exclude": (9,)}, {"constructions": (2, 9)},
                   {"constructions": (2,), "exclude": (0,)}):
        with pytest.raises(InvalidInputError, match="tables cover constructions 1-4"):
            enumerate_reachable(max_b=250, **kwargs)
