"""Judging one op's exit code and output against its known answer.

Documented exit codes: 0 success / valid / isomorphic, 2 invalid or a
definite "no", 3 not isomorphic, 4 search budget exhausted.  A search
op that ends with exit 4 is *undecided*: an honest answer, but not a
decision.  Anything else that disagrees with the known answer, and any
exception escaping ``cli_main``, is a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import oracle
from ops import MATCHED_ROWS, PRODUCT_ROWS, SYMMETRIC_ROWS_24, Op


@dataclass(frozen=True)
class Verdict:
    status: str  # "ok", "undecided" or "failed"
    reason: str = ""
    digest: str | None = None  # canonical-form digest of a canon op


OK = Verdict("ok")
UNDECIDED = Verdict("undecided")


def fail(reason: str) -> Verdict:
    return Verdict("failed", reason)


def check(op: Op, code, out: str, exc: BaseException | None) -> Verdict:
    if exc is not None:
        return fail(f"exception:{type(exc).__name__}")
    try:
        return CHECKS[op.kind](op, code, out)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as err:
        return fail(f"unreadable output (exit {code}): {type(err).__name__}: {err}")


def _check_verify(op, code, out):
    expect = op.expect
    want = 0 if expect["valid"] else 2
    if code != want:
        return fail(f"exit:{code}")
    if expect["fmt"] == "json":
        doc = json.loads(out)
        if doc["valid"] is not expect["valid"] or doc["b"] != expect["b"]:
            return fail("json report disagrees")
        if expect["valid"] and doc["k"] != expect["k"]:
            return fail(f"k={doc['k']}, expected {expect['k']}")
    elif f"verdict: {'valid' if expect['valid'] else 'INVALID'}" not in out:
        return fail("verdict line disagrees")
    return OK


def _check_params(op, code, out):
    ok = op.expect["ok"]
    if code != (0 if ok else 2):
        return fail(f"exit:{code}")
    if f"verdict: {'admissible' if ok else 'NOT admissible'}" not in out:
        return fail("verdict line disagrees")
    return OK


def _read_output(path: str, fmt: str) -> oracle.Design:
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    if fmt == "json":
        doc = json.loads(text)
        design = oracle.from_json(doc)
        bal = oracle.balance(design)
        params = doc["params"]
        if (params["b"], params["k"], params["r"], params["lambda"]) != (
                bal.b, list(bal.k), list(bal.r), [list(row) for row in bal.lam]):
            raise ValueError("JSON params disagree with a recount of its blocks")
        return design
    return oracle.parse_concise(text)


def _check_build(op, code, out):
    if code == 4 and op.search:
        return UNDECIDED
    expect = op.expect
    want = expect.get("exit", 0)
    if code == 0 and want == 0:
        design = _read_output(expect["out"], expect["fmt"])
        if design.b != expect["b"] or list(design.v) != expect["v"]:
            return fail(f"built b={design.b} v={design.v}, expected {expect['b']} {expect['v']}")
        if not oracle.balance(design).valid:
            return fail("built design is not balanced")
        return OK
    return OK if code == want else fail(f"exit:{code}")


def _check_canon(op, code, out):
    if code == 4:
        return UNDECIDED
    if code != 0:
        return fail(f"exit:{code}")
    design = (oracle.from_json(json.loads(out)) if op.expect["fmt"] == "json"
              else oracle.parse_concise(out))
    if oracle.balance(design) != op.expect["balance"]:
        return fail("canonical form does not recount like its input")
    return Verdict("ok", digest=oracle.digest(design))


def _check_iso(op, code, out):
    same = op.expect["same"]
    if code == 4:
        return UNDECIDED
    if code != (0 if same else 3):
        return fail(f"exit:{code}")
    if out.strip().endswith("not isomorphic") == same:
        return fail("verdict line disagrees")
    return OK


def _parse_witness(out: str, fmt: str):
    if fmt == "json":
        return [[t - 1 for t in cls] for cls in json.loads(out)]
    classes = []
    for line in out.splitlines():
        head, _, blocks = line.partition(": blocks ")
        if not head.startswith("class "):
            raise ValueError(f"unexpected line {line!r}")
        classes.append([int(t) - 1 for t in blocks.split()])
    return classes


def _check_partition(op, code, out):
    expect = op.expect
    if code == 4:
        return UNDECIDED
    if code == 0:
        if not oracle.classes_replicate(expect["design"], _parse_witness(out, expect["fmt"])):
            return fail("witness fails the replication recount")
        return OK
    if code == 2:
        return OK if expect["answer"] == "no" else fail("exit:2 on a partitionable design")
    return fail(f"exit:{code}")


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def table_rows_hold(table: str, rows, max_b: int) -> bool:
    """The rows acceptance criterion 9 states for this table, up to ``max_b``
    blocks, are present."""
    if table == "symmetric":
        return [[r["b"], r["v"], r["k"], r["sym"]] for r in rows if r["b"] <= 24] == SYMMETRIC_ROWS_24
    by_signature = {(tuple(r["v"]), tuple(r["k"])): r for r in rows}
    if table == "products":
        return all(by_signature.get((v, k), {}).get("b") == b for b, v, k in PRODUCT_ROWS)
    return all((row := by_signature.get((v, k))) is not None and (row["b"], row["r"]) == (b, r)
               and 3 in row["constructions"] for b, v, k, r in MATCHED_ROWS if b <= max_b)


def _check_tables(op, code, out):
    if code != 0:
        return fail(f"exit:{code}")
    rows = json.loads(out)
    if not table_rows_hold(op.expect["table"], rows, op.expect["max_b"]):
        return fail("criterion-9 rows missing")
    if rows_digest(rows) != op.expect["digest"]:
        return fail("rows differ from those recorded at the seed")
    return OK


CHECKS = {
    "verify": _check_verify,
    "params": _check_params,
    "build": _check_build,
    "canon": _check_canon,
    "iso": _check_iso,
    "weak-iso": _check_iso,
    "partition": _check_partition,
    "tables": _check_tables,
}
