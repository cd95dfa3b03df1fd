"""Seeded op lists for the four workloads, each op with its known answer.

An op is one ``mpart`` command line.  A workload's op list (its mix never
depends on the seed) draws its relabelings, block orders, mutated blocks
and construction choices from ``random.Random(f"{workload}/{seed}")``; a
run repeats that list, on the same input files, round after round, so
that every op is timed several times on identical work.  Where an
input's labels or block order decide how long a search runs, the
costliest inputs take them from a stream that does not depend on the
seed (see ``STEADY`` and ``partition_round``), so that the seed does not
move a run's time.

Known answers come from how each input was generated (a construction
is valid, a moved level is not, a relabeled copy is isomorphic) or from
``known.json``, recorded at the seed commit by ``record.py``.  Base
designs are built with mpart's constructions; relabeling, shuffling,
mutation and every check use ``oracle``, which shares no code with mpart.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from oracle import Design

WORKLOADS = ("verify-stream", "build-stream", "canon-iso", "partition-tables")
FIXTURES = ("fig1", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig8a", "fig8b", "fig9")
# At 50000 nodes as many catalog searches (eight) end undecided as at
# 200000, with the block order of partition_round, in a fifth of the time.
PARTITION_BUDGET = "50000"

# Rows of the paper's tables, as acceptance criterion 9 states them.
SYMMETRIC_ROWS_24 = [
    [6, [4, 3], [2, 2], [7, 4, 2]], [10, [6, 5], [3, 2], [11, 5, 2]],
    [12, [9, 4], [6, 3], [13, 9, 6]], [14, [8, 7], [4, 3], [15, 7, 3]],
    [15, [10, 6], [4, 2], [16, 6, 2]], [18, [10, 9], [5, 4], [19, 9, 4]],
    [22, [12, 11], [6, 5], [23, 11, 5]], [24, [16, 9], [6, 3], [25, 9, 3]],
]
PRODUCT_ROWS = [
    (9, (3, 3), (2, 2)), (12, (4, 3), (3, 2)), (15, (5, 3), (4, 2)),
    (16, (4, 4), (3, 3)), (18, (4, 3), (2, 2)), (18, (6, 3), (5, 2)),
    (20, (5, 4), (4, 3)), (21, (7, 3), (3, 2)), (21, (7, 3), (6, 2)),
]
MATCHED_ROWS = [  # b, v, k, r; each also reachable from a Hadamard matrix
    (12, (4, 4), (2, 2), 3), (20, (6, 6), (3, 3), 5), (28, (8, 8), (4, 4), 7),
    (36, (10, 10), (5, 5), 9), (44, (12, 12), (6, 6), 11), (60, (16, 16), (8, 8), 15),
]
# Table name -> arguments.  The matched table stops at b=40 (1.7 s; 3.7 s
# at b=60), so that a round stays short enough to repeat in a run.
TABLES = {
    "products": ["--max-b", "60", "--constructions", "1"],
    "matched": ["--max-b", "40", "--constructions", "2", "3", "--exclude", "1"],
    "symmetric": ["--max-b", "60", "--constructions", "4", "--no-swap-convention"],
}


@dataclass
class Op:
    """One command and its known answer.

    ``key`` names the op within its round and is the same for every
    seed; ``expect`` holds what the check needs; ``search`` marks ops
    whose answer comes from a budgeted search.
    """

    key: str
    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    search: bool = False


# --------------------------------------------------------------------------
# base designs (built once per process)


def _as_design(md) -> Design:
    return Design(tuple(md.factor_names), tuple(md.v), tuple(md.blocks))


def _as_mpart(design: Design):
    from mpart.model import MultipartDesign

    return MultipartDesign(v=design.v, blocks=design.blocks, factor_names=design.names)


class Bases:
    """Named base designs and catalog entries, built on first use."""

    def __init__(self, src: Path):
        self.src = src
        self._designs: dict[str, Design] = {}
        self._balance: dict[str, oracle.Balance] = {}
        self._catalog = None

    def fixture(self, name: str) -> Design:
        return oracle.parse_concise((self.src / "mpart" / "fixtures" / f"{name}.design").read_text())

    def steiner_22(self):
        text = (self.src / "mpart" / "fixtures" / "design_3_22_6_1.blocks").read_text()
        return [tuple(int(x) - 1 for x in line.split())
                for line in text.splitlines() if line.strip() and not line.startswith("#")]

    def __getitem__(self, name: str) -> Design:
        if name not in self._designs:
            self._designs[name] = self._build(name)
        return self._designs[name]

    def balance(self, name: str) -> oracle.Balance:
        if name not in self._balance:
            self._balance[name] = oracle.balance(self[name])
        return self._balance[name]

    def _build(self, name: str) -> Design:
        from mpart import constructions as cons
        from mpart import ingredients as ing
        from mpart.model import as_multipart

        if name in FIXTURES:
            return self.fixture(name)
        if name.startswith("had"):
            return _as_design(cons.hadamard_2part(ing.hadamard_matrix(int(name[3:])), 1))
        if name == "fig4b|CD":
            return select(self["fig4b"], (0, 1))
        if name.startswith("fig"):  # fixture x fixture or fixture x catalog design
            left, right = name.split("x")
            other = (self[right] if right.startswith("fig")
                     else _as_design(as_multipart(ing.get_bibd(*triple(right)))))
            return _as_design(cons.multipart_product(_as_mpart(self[left]), _as_mpart(other)))
        parts = [ing.get_bibd(*triple(t)) for t in name.split("x")]
        return _as_design(cons.cartesian_product(parts))

    def catalog(self):
        """(name, Design) for every catalog design with at most 64 blocks."""
        if self._catalog is None:
            from mpart.ingredients import catalog_entries

            self._catalog = [
                (e.name, Design(("C",), (e.v,), tuple((block,) for block in e.build().blocks)))
                for e in catalog_entries(max_blocks=64)]
        return self._catalog


def triple(text: str) -> tuple[int, int, int]:
    """'731' -> (7, 3, 1); '1341' -> (13, 4, 1); digits are v, k, lambda."""
    known = {"321": (3, 2, 1), "421": (4, 2, 1), "432": (4, 3, 2), "521": (5, 2, 1),
             "543": (5, 4, 3), "731": (7, 3, 1), "742": (7, 4, 2), "843": (8, 4, 3),
             "931": (9, 3, 1), "1152": (11, 5, 2), "1341": (13, 4, 1),
             "1573": (15, 7, 3), "1662": (16, 6, 2)}
    return known[text]


def cli_triple(text: str) -> str:
    return ",".join(str(x) for x in triple(text))


# --------------------------------------------------------------------------
# input transformations (independent of mpart)


def relabel(design: Design, rng: random.Random, shuffle: bool = True) -> Design:
    """Random per-factor level permutation and, optionally, block order."""
    perms = [rng.sample(range(size), size) for size in design.v]
    blocks = [tuple(tuple(sorted(perms[i][x] for x in part)) for i, part in enumerate(block))
              for block in design.blocks]
    if shuffle:
        rng.shuffle(blocks)
    return Design(design.names, design.v, tuple(blocks))


def shuffle_blocks(design: Design, rng: random.Random) -> Design:
    return Design(design.names, design.v, tuple(rng.sample(design.blocks, design.b)))


def mutate(design: Design, rng: random.Random) -> Design:
    """Move one level of one block part to a level outside the part.

    With parts of at least two levels this breaks within-factor balance:
    the moved level loses a pair count that an untouched pair keeps.
    """
    blocks = list(design.blocks)
    t = rng.randrange(len(blocks))
    i = rng.choice([f for f in range(design.m) if 2 <= len(blocks[t][f]) < design.v[f]])
    part = blocks[t][i]
    out = rng.choice(part)
    into = rng.choice([x for x in range(design.v[i]) if x not in part])
    new_part = tuple(sorted([x for x in part if x != out] + [into]))
    blocks[t] = blocks[t][:i] + (new_part,) + blocks[t][i + 1:]
    return Design(design.names, design.v, tuple(blocks))


def select(design: Design, factors) -> Design:
    return Design(tuple(design.names[i] for i in factors), tuple(design.v[i] for i in factors),
                  tuple(tuple(block[i] for i in factors) for block in design.blocks))


def permute_factors(design: Design, rng: random.Random) -> Design:
    """Reverse or rotate the factors, so no factor keeps its position."""
    order = list(range(design.m))[::-1] if rng.random() < 0.5 else list(range(1, design.m)) + [0]
    return select(design, order)


# --------------------------------------------------------------------------
# rounds


class Round:
    """Writes one round's input files and collects its ops."""

    def __init__(self, workdir: Path, workload: str, seed: int):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(f"{workload}/{seed}")
        self.ops: list[Op] = []
        self.files: dict[str, str] = {}

    def file(self, label: str, text: str) -> str:
        path = self.dir / f"{len(self.files):03d}-{label}"
        path.write_text(text)
        self.files[path.name] = text
        return str(path)

    def design(self, label: str, design: Design) -> str:
        return self.file(label.replace("|", "_") + ".design", oracle.to_concise(design))

    def out(self, label: str) -> str:
        return str(self.dir / f"out-{len(self.ops):03d}-{label}")

    def add(self, key: str, kind: str, argv: list[str], search: bool = False, **expect):
        self.ops.append(Op(key, kind, argv, expect, search))

    def digest(self) -> str:
        """Hash of the op list and of every input file, paths made relative."""
        prefix = str(self.dir) + os.sep
        h = hashlib.sha256()
        for op in self.ops:
            h.update(json.dumps([op.key, [a.replace(prefix, "") for a in op.argv]]).encode())
        for name in sorted(self.files):
            h.update(name.encode() + self.files[name].encode())
        return h.hexdigest()[:16]


VERIFY_BASES = FIXTURES + ("had8", "had12", "had16", "had20", "had24", "731x731",
                           "731x731x731", "731x731x731x731", "432x321", "1341x731",
                           "1341x1341x731", "931x421", "fig1x321", "fig3xfig1")


def verify_round(rnd: Round, bases: Bases):
    for n, name in enumerate(VERIFY_BASES):
        base = bases[name]
        bal = bases.balance(name)
        for fmt in ("text", "json", "text"):
            path = rnd.design(name, relabel(base, rnd.rng))
            rnd.add(f"verify/{name}/{fmt}", "verify", ["verify", path, "--format", fmt],
                    valid=True, b=base.b, k=list(bal.k), fmt=fmt)
        fmt = ("text", "json")[n % 2]
        path = rnd.design(name + "-moved", mutate(relabel(base, rnd.rng), rnd.rng))
        rnd.add(f"verify/{name}-moved/{fmt}", "verify", ["verify", path, "--format", fmt],
                valid=False, b=base.b, fmt=fmt)
        rnd.add(f"params/{name}", "params",
                ["params", str(base.b), *map(str, base.v), *map(str, bal.k)],
                ok=oracle.admissible(base.b, base.v, bal.k))
        bad = base.b + 1
        while oracle.admissible(bad, base.v, bal.k):
            bad += 1
        rnd.add(f"params/{name}-off", "params",
                ["params", str(bad), *map(str, base.v), *map(str, bal.k)], ok=False)


# Each build op appears this many times in the op list, each time with its
# own seeded choices, so that the list has ten ops beyond its 90th percentile.
BUILD_VARIANTS = 4


def build_round(rnd: Round, bases: Bases):
    rng = rnd.rng

    def build(label, argv, b, v, fmt="text", search=False, **expect):
        out = rnd.out(label + (".json" if fmt == "json" else ".design"))
        rnd.add(f"build/{label}", "build",
                ["build", *argv, "--format", fmt, "-o", out],
                search=search, b=b, v=list(v), fmt=fmt, out=out, **expect)

    def ingredients(*names):
        return [a for t in names for a in ("--ingredient", cli_triple(t))]

    build("cartesian-731x432", ["cartesian", *ingredients("731", "432")], 28, (7, 4))
    build("cartesian-731x731x731", ["cartesian", *ingredients("731", "731", "731")],
          343, (7, 7, 7), "json")
    build("cartesian-1341x731", ["cartesian", *ingredients("1341", "731")], 91, (13, 7))
    build("cartesian-321x432x543", ["cartesian", *ingredients("321", "432", "543")],
          60, (3, 4, 5), "json")
    build("subcartesian-931-421-c3", ["subcartesian", *ingredients("931", "421"),
                                      "--classes", "3"], 24, (9, 4), search=True)
    build("subcartesian-731-843-c7", ["subcartesian", *ingredients("731", "843"),
                                      "--classes", "7"], 14, (7, 8), "json", search=True)
    # A class of one block cannot replicate all 7 points: a definite "no".
    build("subcartesian-731-731-c7", ["subcartesian", *ingredients("731", "731"),
                                      "--classes", "7"], 49, (7, 7), search=True, exit=2)
    for n, order in enumerate((12, 16, 20, 24)):
        build(f"hadamard-{order}", ["hadamard", "--order", str(order),
                                    "--second-row", str(rng.randrange(1, order))],
              2 * order - 4, (order // 2, order // 2), ("text", "json")[n % 2])
    for n, (t, v, k) in enumerate((("1152", 11, 5), ("742", 7, 4), ("1662", 16, 6),
                                   ("1573", 15, 7))):
        build(f"symmetric-split-{t}", ["symmetric-split", *ingredients(t),
                                       "--gamma", str(rng.randrange(v))],
              v - 1, (v - k, k), ("text", "json")[n % 2])
    for fmt in ("text", "json"):
        fig1 = rnd.design("fig1", relabel(bases["fig1"], rng))
        build(f"augment-fig1-{fmt}", ["augment", "--design", fig1, "--factor", "1"],
              20, (6, 6), fmt)
    fig1 = rnd.design("fig1", relabel(bases["fig1"], rng))
    build("part-swap-fig1", ["part-swap", "--design", fig1, "--factor", "0"], 10, (6, 5))
    fig4a = rnd.design("fig4a", relabel(bases["fig4a"], rng))
    build("part-swap-fig4a", ["part-swap", "--design", fig4a, "--factor", "1"],
          20, (6, 6), "json")
    fig1, fig3 = (rnd.design(n, relabel(bases[n], rng)) for n in ("fig1", "fig3"))
    build("product-fig1xfig3", ["product", "--design", fig1, "--design", fig3],
          60, bases["fig1"].v + bases["fig3"].v)
    fig8b, fig5a = (rnd.design(n, relabel(bases[n], rng)) for n in ("fig8b", "fig5a"))
    build("product-fig8bxfig5a", ["product", "--design", fig8b, "--design", fig5a],
          144, bases["fig8b"].v + bases["fig5a"].v, "json")
    build("oa-421x3", ["oa", *ingredients("421", "421", "421"), "--classes", "3",
                       "--strength", "2"], 12, (4, 4, 4), search=True)
    build("oa-931x3", ["oa", *ingredients("931", "931", "931"), "--classes", "4",
                       "--strength", "2"], 36, (9, 9, 9), "json", search=True)
    perm = rng.sample(range(22), 22)
    host = [tuple(sorted(perm[x] for x in block)) for block in bases.steiner_22()]
    rng.shuffle(host)
    special = " ".join(str(x + 1) for x in rng.choice(host))
    path = rnd.file("steiner22.blocks", oracle.to_block_list(host))
    build("meet-filter-steiner22", ["meet-filter", "--host", path, "--special", special,
                                    "--t", "2"], 60, (6, 16))
    # Level relabeling leaves the partition search tree unchanged; block
    # order is kept so the search cost is the same for every seed.
    had12 = rnd.design("had12", relabel(bases["had12"], rng, shuffle=False))
    build("class-matched-had12-c10", ["class-matched", "--design", had12, "--classes", "10",
                                      *ingredients("521")], 20, (6, 6, 5), "json", search=True)
    # had16 is 7-partitionable, but not within 20 nodes: the documented
    # answer is exit 4 (or a valid design, should a search decide).
    had16 = rnd.design("had16", relabel(bases["had16"], rng, shuffle=False))
    build("class-matched-had16-c7-budget20",
          ["class-matched", "--design", had16, "--classes", "7", *ingredients("731"),
           "--budget", "20"], 28, (8, 8, 7), search=True)


# Canon of (13,4,1)x(7,3,1) (4.2-8.3 s, by labeling) and of Hadamard order
# 24 (2 s) are left out: an op list that long would run only two or three
# times in a run, too few for a steady median of each op's repeats.
CANON_BASES = ("had12", "had16", "had20", "731x731")
# Canon time on these depends on the labeling, and they are the op list's
# heaviest ops, which set its time and its tail.  So that the seed does
# not move them, the first copy is the design as built and a second copy
# (for iso) has one fixed relabeling, the same for every seed.
STEADY = ("had16", "had20", "731x731")
ISO_BASES = FIXTURES + ("had12", "had16", "731x731")
NON_ISO = (("fig5a", "fig5b"), ("fig4a", "fig4b|CD"))
WEAK_BASES = ("fig1", "fig8b", "fig9", "fig4b", "fig5a", "had12")


def canon_round(rnd: Round, bases: Bases):
    rng = rnd.rng

    def copy(name, n=0):
        if name not in STEADY:
            return relabel(bases[name], rng)
        return relabel(bases[name], random.Random(f"steady/{name}")) if n else bases[name]

    def canon(name, fmt="text"):
        path = rnd.design(name, copy(name))
        rnd.add(f"canon/{name}/{fmt}", "canon", ["canon", path, "--format", fmt],
                search=True, base=name, fmt=fmt, balance=bases.balance(name))

    def pair(kind, key, d1, d2, same):
        p1, p2 = rnd.design(key + "-1", d1), rnd.design(key + "-2", d2)
        rnd.add(f"{kind}/{key}", kind, [kind, p1, p2], search=True, same=same)

    for name in FIXTURES:
        for fmt in ("text", "json", "text", "json", "text"):
            canon(name, fmt)
    for name in CANON_BASES:
        canon(name)
    for name in ISO_BASES:
        pair("iso", name, copy(name), copy(name, 1), True)
    for name in FIXTURES + FIXTURES:
        pair("iso", name, copy(name), copy(name), True)
    for a, b in NON_ISO:
        pair("iso", f"{a}-{b}", relabel(bases[a], rng), relabel(bases[b], rng), False)
    for name in ("had12", "fig1", "fig8b"):
        moved = mutate(bases[name], rng)
        pair("iso", f"{name}-moved", relabel(bases[name], rng), relabel(moved, rng), False)
    for name in WEAK_BASES:
        pair("weak-iso", name, relabel(bases[name], rng),
             relabel(permute_factors(bases[name], rng), rng), True)
    for a, b in NON_ISO:
        pair("weak-iso", f"{a}-{b}", relabel(bases[a], rng), relabel(bases[b], rng), False)


def partition_round(rnd: Round, bases: Bases, known: dict):
    rng = rnd.rng
    # The seed relabels the points, which leaves the search tree alone.  The
    # block order, which decides how long a search runs and whether it ends
    # undecided, comes from a stream that does not depend on the seed: with
    # seeded orders the undecided searches ranged over 7-10 per op list,
    # and the workload's tail moved by 21% between seeds.
    order = random.Random("partition-tables/order")
    n = 0
    for name, design in bases.catalog():
        for c in range(2, design.b + 1):
            if design.b % c:
                continue
            copy = shuffle_blocks(relabel(design, rng, shuffle=False), order)
            path = rnd.design("catalog", copy)
            fmt = ("text", "text", "json")[n % 3]
            n += 1
            rnd.add(f"partition/{name}/c{c}", "partition",
                    ["partition", path, "--c", str(c), "--budget", PARTITION_BUDGET,
                     "--format", fmt],
                    search=True, answer=known["partition"][f"{name}|{c}"], fmt=fmt, design=copy)
    for name in ("731x731x731", "731x731x731x731"):
        copy = relabel(bases[name], rng, shuffle=False)
        path = rnd.design(name, copy)
        rnd.add(f"partition/{name}/c7", "partition",
                ["partition", path, "--c", "7", "--budget", PARTITION_BUDGET],
                search=True, answer=known["partition"][f"{name}|7"], fmt="text", design=copy)
    for table, args in TABLES.items():
        rnd.add(f"tables/{table}", "tables",
                ["tables", *args, "--format", "json"],
                table=table, max_b=table_max_b(table), digest=known["tables"][table])


def table_max_b(table: str) -> int:
    args = TABLES[table]
    return int(args[args.index("--max-b") + 1])


def make_round(workload: str, seed: int, workdir: Path, bases: Bases, known: dict) -> Round:
    """The op list a run of ``workload`` repeats, its inputs written to ``workdir``."""
    rnd = Round(workdir, workload, seed)
    if workload == "verify-stream":
        verify_round(rnd, bases)
    elif workload == "build-stream":
        for _ in range(BUILD_VARIANTS):
            build_round(rnd, bases)
    elif workload == "canon-iso":
        canon_round(rnd, bases)
    elif workload == "partition-tables":
        partition_round(rnd, bases, known)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    return rnd
