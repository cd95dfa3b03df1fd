"""``parse_concise`` cross-checked against a copy of the line-by-line
parser it replaced.

The reference parses and range-checks every part of every block line,
while the library converts each distinct level token once per factor,
leaves sorting a part and refusing a repeat to the model, and looks for
stray text only between part matches.  On random valid files
and on single-character mutations of them, both must return the same
design or raise the same error: type, message, line and column.

The copy is verbatim but for one mended fault it shared with the
library: it took a bad factor declaration's column from the first match
of the token anywhere in the line, so ``factors: C=3 :`` gave the colon
of ``factors:``.  Both now take it from the scan that splits the line.
"""

from __future__ import annotations

import random
import re

import pytest

from mpart.errors import (
    DuplicateLevelInPartError,
    ParseError,
    UnknownFactorError,
)
from mpart.files import parse_concise
from mpart.fixtures import DESIGN_FIXTURES, fixture_text
from mpart.model import MultipartDesign

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_HEADER = "mpart v1"


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def reference_parse_concise(text: str) -> MultipartDesign:
    """Parse the concise format; raises ParseError with line and column."""
    lines = text.splitlines()
    meaningful = [(n + 1, _strip_comment(raw)) for n, raw in enumerate(lines)]
    meaningful = [(n, line) for n, line in meaningful if line.strip()]
    if not meaningful:
        raise ParseError("empty input", 1, 1)

    n, header = meaningful[0]
    if header.strip() != _HEADER:
        raise ParseError(f"expected header {_HEADER!r}", n, 1)
    if len(meaningful) < 2:
        raise ParseError("missing factors line", n, 1)

    n, factors_line = meaningful[1]
    stripped = factors_line.strip()
    if not stripped.startswith("factors:"):
        raise ParseError("expected 'factors:' line", n, 1)
    names: list[str] = []
    sizes: list[int] = []
    start = factors_line.index("factors:") + len("factors:")
    for match in re.finditer(r"\S+", factors_line[start:]):
        token = match.group(0)
        m = re.fullmatch(rf"({_NAME_RE.pattern})=(\d+)", token)
        if not m:
            raise ParseError(f"bad factor declaration {token!r}", n,
                             start + match.start() + 1)
        names.append(m.group(1))
        sizes.append(int(m.group(2)))
    if not names:
        raise ParseError("no factors declared", n, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate factor names", n, 1)

    part_re = re.compile(rf"({_NAME_RE.pattern})\{{\s*([0-9,\s]*)\}}")
    size_of = dict(zip(names, sizes))
    blocks = []
    for n, line in meaningful[2:]:
        stripped = line.strip()
        indent = line.find(stripped[0])
        if not stripped.startswith("block:"):
            raise ParseError("expected 'block:' line", n, indent + 1)
        body = stripped[len("block:"):]
        # 1-based column of the body's first character
        start = indent + len("block:") + 1
        if part_re.sub("", body).strip():
            # blank each part in place, so that the stray text keeps its column
            blanked = part_re.sub(lambda m: " " * len(m.group(0)), body)
            bad = re.search(r"\S+", blanked)
            raise ParseError(f"unrecognized text {bad.group(0)!r}", n, start + bad.start())
        parts: dict[str, tuple[int, ...]] = {}
        order: list[str] = []
        for m in part_re.finditer(body):
            name = m.group(1)
            col = start + m.start()
            if name not in size_of:
                raise UnknownFactorError(f"unknown factor {name!r}", n, col)
            if name in parts:
                raise ParseError(f"factor {name!r} repeated in block", n, col)
            items = [tok for tok in m.group(2).replace(",", " ").split()]
            if not items:
                raise ParseError(f"empty part for factor {name!r}", n, col)
            size = size_of[name]
            levels = []
            for tok in items:
                x = int(tok)
                if not 1 <= x <= size:
                    raise ParseError(f"level {x} out of range 1..{size}", n, col)
                levels.append(x - 1)
            if len(set(levels)) != len(levels):
                raise DuplicateLevelInPartError(
                    f"duplicate level in factor {name!r}", n, col)
            parts[name] = tuple(sorted(levels))
            order.append(name)
        if order != names:
            missing = [nm for nm in names if nm not in parts]
            if missing:
                raise ParseError(f"block is missing factor {missing[0]!r}", n, 1)
            raise ParseError(f"factors out of order: {order}", n, 1)
        blocks.append(tuple(parts[name] for name in names))
    if not blocks:
        raise ParseError("no blocks", meaningful[-1][0], 1)
    return MultipartDesign(v=tuple(sizes), blocks=tuple(blocks),
                           factor_names=tuple(names))


# "C" and "D" are prefixes of "CD", so a lost brace can merge names
_NAMES = ("C", "D", "B", "A", "CD", "F5", "x_1")
_MUTATION_CHARS = "{}:,#= \t\r\n0123456789CDXb"


def random_file(rng: random.Random) -> str:
    """A concise file of up to 4 factors, written with free whitespace,
    tabs, comments, unsorted and zero-padded levels and either line end.

    Each factor draws its parts from a pool of at most three, so parts
    repeat; about one block line in twenty has its parts shuffled, one
    dropped or one doubled.
    """
    m = rng.randint(1, 4)
    names = rng.sample(_NAMES, m)
    sizes = [rng.randint(1, 7) for _ in names]
    pools = [[rng.sample(range(1, size + 1), rng.randint(1, size))
              for _ in range(rng.randint(1, 3))] for size in sizes]

    def space() -> str:
        return rng.choice(("", "", " ", "  ", "\t", " \t "))

    def comment() -> str:
        return rng.choice(("", "", "", " # note", "#C{9}", "\t# block: x"))

    def part(name: str, levels: list[int]) -> str:
        items = [("0" if rng.random() < 0.1 else "") + str(x)
                 for x in rng.sample(levels, len(levels))]
        seps = [rng.choice((",", ",", ", ", " ,", " ", ",\t", ",,")) for _ in items[1:]]
        body = items[0] + "".join(s + item for s, item in zip(seps, items[1:]))
        return f"{name}{{{space()}{body}{space()}}}"

    lines = [space() + _HEADER + comment(),
             "factors:" + rng.choice((" ", "  ", "\t", "")) +
             " ".join(f"{name}={size}" for name, size in zip(names, sizes)) + comment()]
    for _ in range(rng.randint(1, 12)):
        parts = [part(name, rng.choice(pool)) for name, pool in zip(names, pools)]
        if rng.random() < 0.05:
            fault = rng.choice(("shuffle", "drop", "double"))
            if fault == "shuffle":
                rng.shuffle(parts)
            elif fault == "drop":
                parts.pop(rng.randrange(len(parts)))
            else:
                parts.insert(rng.randrange(len(parts) + 1), rng.choice(parts))
        joined = "".join(rng.choice((" ", " ", "  ", "\t", "")) + p for p in parts)
        lines.append(space() + "block:" + joined + space() + comment())
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "   ", "\t", "# a comment")))
    end = rng.choice(("\n", "\r\n"))
    return end.join(lines) + rng.choice((end, ""))


def dense_file(rng: random.Random) -> str:
    """A concise file of 30 to 64 blocks whose parts each miss one or two
    of their factor's levels, as complements and near-complete designs
    do: no two brace bodies need be equal, but they share nearly every
    token.  Levels are shuffled, some zero-padded, and the separators
    mix commas and spaces; in about one file in four, one part repeats a
    level.
    """
    m = rng.randint(1, 3)
    names = rng.sample(_NAMES, m)
    sizes = [rng.randint(3, 40) for _ in names]

    def part(name: str, size: int, repeat: bool) -> str:
        missing = set(rng.sample(range(1, size + 1), rng.randint(1, 2)))
        levels = [x for x in range(1, size + 1) if x not in missing]
        rng.shuffle(levels)
        if repeat:
            levels.insert(rng.randrange(len(levels) + 1), rng.choice(levels))
        items = [rng.choice(("", "", "", "0", "00")) + str(x) for x in levels]
        seps = [rng.choice((",", ",", " ", ", ", "\t", " , ")) for _ in items[1:]]
        return f"{name}{{{items[0]}{''.join(s + item for s, item in zip(seps, items[1:]))}}}"

    lines = [_HEADER, "factors: " + " ".join(f"{name}={size}" for name, size in zip(names, sizes))]
    b = rng.randint(30, 64)
    repeat = rng.randrange(b * m) if rng.random() < 0.25 else None
    lines += ["block: " + " ".join(part(name, size, t * m + i == repeat)
                                   for i, (name, size) in enumerate(zip(names, sizes)))
              for t in range(b)]
    return "\n".join(lines) + "\n"


def mutate(rng: random.Random, text: str) -> str:
    """Delete, replace or insert one character."""
    pos = rng.randrange(len(text) + 1)
    kind = rng.choice(("delete", "replace", "insert"))
    char = rng.choice(_MUTATION_CHARS)
    if kind == "delete":
        return text[:pos] + text[pos + 1:]
    if kind == "replace":
        return text[:pos] + char + text[pos + 1:]
    return text[:pos] + char + text[pos:]


def outcome(parse, text: str) -> tuple:
    try:
        d = parse(text)
    except Exception as exc:
        return ("error", type(exc), str(exc),
                getattr(exc, "line", None), getattr(exc, "col", None))
    return ("design", d.v, d.factor_names, d.blocks)


def check_against_reference(text: str) -> tuple:
    got = outcome(parse_concise, text)
    assert got == outcome(reference_parse_concise, text), text
    return got


def check_file_and_mutations(rng: random.Random, text: str, mutations: int) -> list[tuple]:
    return [check_against_reference(text)] + [
        check_against_reference(mutate(rng, text)) for _ in range(mutations)]


def test_parse_matches_the_reference_on_random_files():
    rng = random.Random(0x9A45E)
    results = []
    for _ in range(400):
        results += check_file_and_mutations(rng, random_file(rng), 8)
    designs = sum(r[0] == "design" for r in results)
    errors = {r[1] for r in results if r[0] == "error"}
    messages = {r[2].split(": ", 1)[-1].split(" ", 1)[0] for r in results if r[0] == "error"}
    # the inputs reach every kind of outcome, not only the easy ones
    assert designs >= len(results) // 4
    assert {ParseError, UnknownFactorError, DuplicateLevelInPartError} <= errors
    assert {"unrecognized", "expected", "level", "block", "factor", "factors", "unknown",
            "bad", "duplicate", "empty"} <= messages


def test_parse_matches_the_reference_on_dense_files():
    # Each distinct token of a column is converted once and the model sorts
    # each part and refuses a repeat: a repeated level, and a token mutated
    # out of range or into a level its part already holds, must each be
    # told at its line.
    rng = random.Random(0x9A460)
    results = []
    for _ in range(40):
        results += check_file_and_mutations(rng, dense_file(rng), 8)
    designs = [r for r in results if r[0] == "design"]
    errors = {r[1] for r in results if r[0] == "error"}
    messages = {r[2].split(": ", 1)[-1].split(" ", 1)[0] for r in results if r[0] == "error"}
    # most mutations of a dense line hit a level, so fewer stay designs
    assert len(designs) >= len(results) // 8
    assert min(len(d[3]) for d in designs) >= 30
    assert {ParseError, DuplicateLevelInPartError} <= errors
    assert {"duplicate", "level"} <= messages


def test_parse_matches_the_reference_on_mutated_fixtures():
    rng = random.Random(0x9A45F)
    for name in DESIGN_FIXTURES:
        text = fixture_text(name + ".design")
        for variant in (text, text.replace("\n", "\r\n")):
            check_file_and_mutations(rng, variant, 20)


def test_parse_matches_the_reference_on_hypothesis_files():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.randoms(use_true_random=False), st.integers(0, 3))
    def check(rng, mutations):
        check_file_and_mutations(rng, random_file(rng), mutations)

    check()
