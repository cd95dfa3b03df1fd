"""Records the known answers in ``known.json``.

Run once, at the commit the benchmark was defined on, from the root of
the repository:

    python3 bench/record.py

Re-recording on a later commit would turn that commit's wrong answers
into "known" ones, so later commits leave ``known.json`` alone.

What is recorded:
- ``canon``: digest of ``mpart canon``'s output for each base design;
  later runs count a different digest as ``isomorphism.cert_changed``.
- ``partition``: "yes"/"no" per catalog design and class count, and for
  (7,3,1)^3 and (7,3,1)^4 at c=7.  Every "yes" has a witness that passes
  oracle's replication recount; a search left undecided takes the answer
  of its complement (a class replicates every point equally in a design
  iff it does so in the complement); complement pairs must agree.
- ``tables``: a digest of each table's rows; the rows of acceptance
  criterion 9 must be among them.
- ``known_failures``: the failing ops of one round of every workload.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import ops  # noqa: E402
from checks import rows_digest, table_rows_hold  # noqa: E402


def canon_digests(bases: ops.Bases, workdir: Path) -> dict[str, str]:
    from mpart.cli import cli_main

    out = {}
    for name in ops.FIXTURES + ops.CANON_BASES:
        path = workdir / "canon.design"
        path.write_text(oracle.to_concise(bases[name]))
        text = io.StringIO()
        with redirect_stdout(text):
            assert cli_main(["canon", str(path)]) == 0
        out[name] = oracle.digest(oracle.parse_concise(text.getvalue()))
    return out


def _product_witness(design: oracle.Design, ingredient_b: int, c: int):
    """Classes of a full product by the sum of its block indices mod c."""
    classes = [[] for _ in range(c)]
    for t in range(design.b):
        digits, rest = 0, t
        while rest:
            digits += rest % ingredient_b
            rest //= ingredient_b
        classes[digits % c].append(t)
    return classes


def partition_answers(bases: ops.Bases) -> dict[str, str]:
    from mpart.errors import UNKNOWN
    from mpart.model import MultipartDesign
    from mpart.verify import find_partition

    answers: dict[str, str] = {}
    undecided = []
    for name, design in bases.catalog():
        md = MultipartDesign(v=design.v, blocks=design.blocks)
        for c in range(2, design.b + 1):
            if design.b % c:
                continue
            found = find_partition(md, c, budget=int(ops.PARTITION_BUDGET))
            if found is UNKNOWN:
                undecided.append((name, c))
            elif found is None:
                answers[f"{name}|{c}"] = "no"
            else:
                assert oracle.classes_replicate(design, found.classes), (name, c)
                answers[f"{name}|{c}"] = "yes"
    for name, c in undecided:
        partner = name[len("complement of "):] if name.startswith("complement of ") \
            else f"complement of {name}"
        answers[f"{name}|{c}"] = answers[f"{partner}|{c}"]
    for key, answer in answers.items():
        name, c = key.rsplit("|", 1)
        partner = f"complement of {name}|{c}"
        assert answers.get(partner, answer) == answer, key
    for name in ("731x731x731", "731x731x731x731"):
        design = bases[name]
        assert oracle.classes_replicate(design, _product_witness(design, 7, 7)), name
        answers[f"{name}|7"] = "yes"
    return answers


def table_digests() -> dict[str, str]:
    from mpart.cli import cli_main

    out = {}
    for table, args in ops.TABLES.items():
        text = io.StringIO()
        with redirect_stdout(text):
            assert cli_main(["tables", *args, "--format", "json"]) == 0
        rows = json.loads(text.getvalue())
        assert table_rows_hold(table, rows, ops.table_max_b(table)), table
        out[table] = rows_digest(rows)
    return out


def seed_failures(known: dict, workdir: Path) -> dict[str, str]:
    from mpart.cli import cli_main
    from worker import Runner

    bases = ops.Bases(ROOT / "src")
    failures = {}
    for workload in ops.WORKLOADS:
        runner = Runner(workload, cli_main, known)
        rnd = ops.make_round(workload, 0, workdir / workload, bases, known)
        for index, op in enumerate(rnd.ops):
            runner.execute(index, op, traced=False)
        for record in runner.records:
            if record["status"] == "failed":
                failures[record["key"]] = record["reason"]
    return failures


def main() -> int:
    workdir = HERE / "_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bases = ops.Bases(ROOT / "src")
    known = {
        "canon": canon_digests(bases, workdir),
        "partition": partition_answers(bases),
        "tables": table_digests(),
        "known_failures": {},
    }
    known["known_failures"] = seed_failures(known, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "known.json").write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    print(json.dumps(known["known_failures"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
