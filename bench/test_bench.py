"""Self-tests of the benchmark: seeded op lists and the answer checker.

Run with ``python3 -m pytest bench/test_bench.py``.  Wrong answers are
injected by monkeypatching mpart's names, never by editing mpart.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpart.cli  # noqa: E402
import ops  # noqa: E402
from hostspeed import REFERENCE_NOMINAL_S  # noqa: E402
from worker import Runner, op_times  # noqa: E402

KNOWN = json.loads((HERE / "known.json").read_text())


@pytest.fixture(scope="module")
def bases():
    return ops.Bases(HERE.parent / "src")


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_op_list(workload, bases, tmp_path):
    first = ops.make_round(workload, 7, tmp_path / "a", bases, KNOWN)
    second = ops.make_round(workload, 7, tmp_path / "b", bases, KNOWN)
    assert first.digest() == second.digest()


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_other_seed_changes_inputs_not_mix(workload, bases, tmp_path):
    one = ops.make_round(workload, 7, tmp_path / "a", bases, KNOWN)
    other = ops.make_round(workload, 8, tmp_path / "b", bases, KNOWN)
    assert one.digest() != other.digest()
    assert [(op.key, op.kind, op.search) for op in one.ops] == \
        [(op.key, op.kind, op.search) for op in other.ops]


def _run(workload, bases, tmp_path, select):
    runner = Runner(workload, mpart.cli.cli_main, KNOWN)
    for index, op in enumerate(ops.make_round(workload, 3, tmp_path, bases, KNOWN).ops):
        if select(op):
            runner.execute(index, op, traced=False)
    return runner.records


def test_seed_answers_pass(bases, tmp_path):
    records = _run("verify-stream", bases, tmp_path, lambda op: "fig" in op.key)
    assert records and all(r["status"] == "ok" for r in records)


def test_flags_valid_verdict_on_moved_level(bases, tmp_path, monkeypatch):
    original = mpart.cli.check_multipart
    monkeypatch.setattr(mpart.cli, "check_multipart",
                        lambda design, **kw: replace(original(design, **kw), valid=True))
    records = _run("verify-stream", bases, tmp_path, lambda op: "fig1-moved" in op.key)
    assert records and all(r["status"] == "failed" for r in records)


def test_flags_a_lying_partition_search(bases, tmp_path, monkeypatch):
    monkeypatch.setattr(mpart.cli, "find_partition", lambda *args, **kw: None)
    records = _run("partition-tables", bases, tmp_path,
                   lambda op: op.expect.get("answer") == "yes" and "pairs of 4" in op.key)
    assert records and all(r["status"] == "failed" for r in records)


def test_flags_a_wrong_isomorphism_verdict(bases, tmp_path, monkeypatch):
    monkeypatch.setattr(mpart.cli, "are_isomorphic", lambda d1, d2, budget: False)
    records = _run("canon-iso", bases, tmp_path, lambda op: op.key == "iso/fig1")
    assert records and all(r["status"] == "failed" for r in records)


def test_flags_a_canonical_form_that_depends_on_labels(bases, tmp_path, monkeypatch):
    monkeypatch.setattr(mpart.cli, "canonical_form",
                        lambda design, budget: mpart.isomorphism.CanonicalForm(design, b""))
    records = _run("canon-iso", bases, tmp_path, lambda op: op.key.startswith("canon/fig4b"))
    assert [r["status"] for r in records] == ["ok"] + ["failed"] * (len(records) - 1)
    assert len(records) > 1 and all(r["cert_changed"] for r in records)


def test_host_speed_correction_keeps_the_ratio_of_op_times():
    # Two ops, 10 ms and 30 ms, on a host where the reference recount takes
    # twice its nominal time in the first second and its nominal time after.
    records = []
    for at, slow in ((0.0, 2), (0.5, 2), (3.0, 1), (3.5, 1)):
        for index, seconds in enumerate((0.010, 0.030)):
            records.append({"index": index, "at": at + index / 10, "seconds": seconds * slow,
                            "ref_s": 10 * slow * REFERENCE_NOMINAL_S, "ref_n": 10})
    assert op_times(records, corrected=True) == pytest.approx([0.010, 0.030])
    assert op_times(records, corrected=False) == pytest.approx([0.015, 0.045])
