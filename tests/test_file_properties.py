"""Property tests of the concise, JSON and block-list formats on
generated designs.

Round trip: the concise format and block lists give back the design
itself, with its block order and factor names; the JSON document, which
is output only, holds its factors, its 1-based blocks and its parameters.
Error positions: one fault injected at a known line and column of a
serialized design is reported there, whether in a block line, the header
or the factors line, or as a block line whose factors are out of order;
a block list with one character changed either reads or is refused at
the changed line.  The tests compute each position from the text they
build, not from a parser.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpart.errors import (  # noqa: E402
    DuplicateLevelInPartError,
    ParseError,
    UnknownFactorError,
)
from mpart.files import (  # noqa: E402
    parse_blocks,
    parse_concise,
    serialize_blocks,
    serialize_concise,
    serialize_json,
)
from mpart.model import BlockDesign, MultipartDesign, derive_parameters  # noqa: E402

_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True)


@st.composite
def designs(draw) -> MultipartDesign:
    """Up to four factors with custom names, ragged parts and repeated blocks."""
    m = draw(st.integers(1, 4))
    names = draw(st.lists(_NAMES, min_size=m, max_size=m, unique=True))
    v = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    part = [st.sets(st.integers(0, size - 1), min_size=1, max_size=size).map(sorted)
            .map(tuple) for size in v]
    blocks = draw(st.lists(st.tuples(*part), min_size=1, max_size=8))
    blocks += [blocks[t] for t in draw(st.lists(st.integers(0, len(blocks) - 1), max_size=3))]
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks), factor_names=tuple(names))


def _same(got: MultipartDesign, design: MultipartDesign) -> None:
    # design equality is multiset equality; the formats keep the order too
    assert got.v == design.v
    assert got.blocks == design.blocks
    assert got.factor_names == design.factor_names


def _check_document(text: str, design: MultipartDesign) -> None:
    document = json.loads(text)
    assert document["factors"] == [{"name": name, "levels": size}
                                   for name, size in zip(design.factor_names, design.v)]
    assert document["blocks"] == [[[x + 1 for x in part] for part in block]
                                  for block in design.blocks]
    params = derive_parameters(design)
    assert document["params"] == {"b": design.b, "k": list(params.k), "r": list(params.r),
                                  "lambda": [list(row) for row in params.lam],
                                  "uniform": params.uniform}


@hypothesis.given(designs())
def test_concise_and_json_round_trip_keep_order_and_names(design):
    _same(parse_concise(serialize_concise(design)), design)
    _check_document(serialize_json(design), design)


@st.composite
def block_designs(draw) -> BlockDesign:
    """Up to 12 points, blocks of any size, some repeated."""
    v = draw(st.integers(1, 12))
    block = st.sets(st.integers(0, v - 1), min_size=1, max_size=v).map(sorted).map(tuple)
    blocks = draw(st.lists(block, min_size=1, max_size=8))
    return BlockDesign(v=v, blocks=tuple(draw(st.permutations(blocks))))


@hypothesis.given(block_designs())
def test_a_block_list_round_trip_keeps_the_blocks_and_their_order(bd):
    got = parse_blocks(serialize_blocks(bd))
    assert got.blocks == bd.blocks
    assert got.v == max(map(max, bd.blocks)) + 1


# one character that no line break is: a digit, a separator, a comment or
# any other character
_CHANGES = st.one_of(st.sampled_from("0123456789 \t#,_+-x\u0663"), st.characters()).filter(
    lambda c: len(f"a{c}b".splitlines()) == 1)


@hypothesis.given(block_designs(), st.data())
def test_a_changed_character_reads_or_is_refused_at_its_line(bd, data):
    text = serialize_blocks(bd)
    pos = data.draw(st.integers(0, len(text) - 1), label="position")
    changed = text[:pos] + data.draw(_CHANGES, label="character") + text[pos + 1:]
    # any other exception, InvalidInputError or ValueError among them, fails
    try:
        parse_blocks(changed)
    except ParseError as exc:
        assert exc.line == text.count("\n", 0, pos) + 1


def _part_text(name: str, levels) -> str:
    return f"{name}{{{','.join(str(x) for x in levels)}}}"


@hypothesis.given(designs(), st.data())
def test_a_fault_is_reported_at_its_line_and_column(design, data):
    lines = serialize_concise(design).splitlines()
    t = data.draw(st.integers(0, design.b - 1), label="block")
    i = data.draw(st.integers(0, design.m - 1), label="factor")
    parts = [_part_text(name, [x + 1 for x in levels])
             for name, levels in zip(design.factor_names, design.blocks[t])]
    assert lines[2 + t] == "block: " + " ".join(parts)

    name, size, levels = design.factor_names[i], design.v[i], design.blocks[t][i]
    kind = data.draw(st.sampled_from(("range", "repeat", "unknown", "stray")), label="kind")
    if kind == "range":
        bad = data.draw(st.one_of(st.just(0), st.integers(size + 1, size + 1000)))
        parts[i] = _part_text(name, [x + 1 for x in levels[:-1]] + [bad])
        error, message = ParseError, f"level {bad} out of range 1..{size}"
    elif kind == "repeat":
        parts[i] = _part_text(name, [x + 1 for x in levels] + [levels[0] + 1])
        error, message = DuplicateLevelInPartError, f"duplicate level in factor {name!r}"
    elif kind == "unknown":
        other = data.draw(_NAMES.filter(lambda n: n not in design.factor_names))
        parts[i] = _part_text(other, [x + 1 for x in levels])
        error, message = UnknownFactorError, f"unknown factor {other!r}"
    else:
        # a token between parts, or after the last one
        stray = data.draw(st.sampled_from(("~", "9", "x", "{", "}", "1,2", name)))
        i += data.draw(st.integers(0, 1))
        parts.insert(i, stray)
        error, message = ParseError, f"unrecognized text {stray!r}"
    indent = " " * data.draw(st.integers(0, 3))
    lines[2 + t] = indent + "block: " + " ".join(parts)
    col = len(indent + "block: " + " ".join(parts[:i])) + bool(i) + 1

    with pytest.raises(error) as caught:
        parse_concise("\n".join(lines) + "\n")
    assert type(caught.value) is error
    assert (caught.value.line, caught.value.col) == (3 + t, col)
    assert message in str(caught.value)


@hypothesis.given(designs(), st.data())
def test_a_header_or_factors_line_fault_is_reported_at_its_line_and_column(design, data):
    lines = serialize_concise(design).splitlines()
    declarations = [f"{name}={size}" for name, size in zip(design.factor_names, design.v)]
    assert lines[:2] == ["mpart v1", "factors: " + " ".join(declarations)]
    # Blank and comment lines before the header and the factors line shift
    # every line number; the test counts them in the text it builds.
    before = data.draw(st.lists(st.sampled_from(("", "  ", "# note", " # x")), max_size=2))
    between = data.draw(st.lists(st.sampled_from(("", "# note")), max_size=2))
    header_line = len(before) + 1
    factors_line = header_line + len(between) + 1

    kind = data.draw(st.sampled_from(("header", "no factors", "declaration", "duplicate",
                                      "order")), label="kind")
    col = 1
    if kind == "header":
        lines[0] = data.draw(st.sampled_from(("mpart v2", "mpart", "v1 mpart", "mpartv1")))
        line, message = header_line, "expected header 'mpart v1'"
    elif kind == "no factors":
        lines[1] = data.draw(st.sampled_from(("factor: C=3", "block: C{1}", "C=3")))
        line, message = factors_line, "expected 'factors:' line"
    elif kind == "declaration":
        j = data.draw(st.integers(0, design.m - 1))
        name = design.factor_names[j]
        declarations[j] = data.draw(st.sampled_from((f"{name}=", f"={design.v[j]}", name,
                                                     f"{name}={design.v[j]}x", f"1{name}=2",
                                                     f"{name}:{design.v[j]}")))
        lines[1] = "factors: " + " ".join(declarations)
        col = len("factors: " + " ".join(declarations[:j])) + bool(j) + 1
        line, message = factors_line, f"bad factor declaration {declarations[j]!r}"
    elif kind == "duplicate":
        hypothesis.assume(design.m >= 2)
        j = data.draw(st.integers(1, design.m - 1))
        k = data.draw(st.integers(0, j - 1))
        declarations[j] = f"{design.factor_names[k]}={design.v[j]}"
        lines[1] = "factors: " + " ".join(declarations)
        line, message = factors_line, "duplicate factor names"
    else:
        hypothesis.assume(design.m >= 2)
        t = data.draw(st.integers(0, design.b - 1))
        order = data.draw(st.permutations(range(design.m)).filter(
            lambda order: list(order) != sorted(order)))
        parts = [_part_text(design.factor_names[i], [x + 1 for x in design.blocks[t][i]])
                 for i in order]
        lines[2 + t] = "block: " + " ".join(parts)
        line = factors_line + 1 + t
        message = f"factors out of order: {[design.factor_names[i] for i in order]}"
    text = "\n".join(before + lines[:1] + between + lines[1:]) + "\n"

    with pytest.raises(ParseError) as caught:
        parse_concise(text)
    assert type(caught.value) is ParseError
    assert (caught.value.line, caught.value.col) == (line, col)
    assert message in str(caught.value)
