"""The JSON writer against its byte contract.

``serialize_json(d)`` writes the blocks itself, each factor's distinct
parts once; it must give exactly ``json.dumps(to_json_dict(d), indent=2)``
and a newline.  The designs here vary what the writer reads: the number
of factors, repeated blocks, parts shared between blocks or given as
fresh objects (or as lists and unsorted, which the design stores anew),
parameters that vary across the design, and factor names that ``json``
must escape.
"""

from __future__ import annotations

import json

import pytest

from mpart.cli import cli_main
from mpart.errors import InvalidInputError
from mpart.files import parse_concise, serialize_concise, serialize_json, to_json_dict
from mpart.fixtures import DESIGN_FIXTURES, load_design
from mpart.model import MultipartDesign

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _reference(design: MultipartDesign) -> str:
    return json.dumps(to_json_dict(design), indent=2) + "\n"


# quotes, backslashes, control characters and non-ASCII, which json escapes
_ESCAPED = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\r aZ_9éß€\u2028😀'), max_size=6)
_NAMES = st.one_of(_ESCAPED, st.text(max_size=6),
                   st.from_regex(r"[A-Za-z]\w{0,3}", fullmatch=True))

# How a block holds one of its factor's distinct parts.
_FORMS = {
    "shared": lambda part: part,
    "fresh": lambda part: tuple(list(part)),
    "list": list,
    "reversed": lambda part: tuple(reversed(part)),
}


@st.composite
def designs(draw) -> MultipartDesign:
    """m = 1-4 factors, each with a few distinct parts that blocks share or
    copy, and some blocks repeated as the same object."""
    m = draw(st.integers(1, 4))
    names = draw(st.lists(_NAMES, min_size=m, max_size=m, unique=True))
    v = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    pools = [draw(st.lists(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)
                           .map(sorted).map(tuple), min_size=1, max_size=5))
             for size in v]
    b = draw(st.integers(1, 10))
    blocks = [tuple(_FORMS[draw(st.sampled_from(sorted(_FORMS)))](draw(st.sampled_from(pool)))
                    for pool in pools) for _ in range(b)]
    blocks += [blocks[t] for t in draw(st.lists(st.integers(0, b - 1), max_size=3))]
    return MultipartDesign(v=tuple(v), blocks=tuple(blocks), factor_names=tuple(names))


@hypothesis.given(designs())
def test_the_writer_gives_json_dumps_bytes(design):
    hypothesis.event("uniform" if to_json_dict(design)["params"]["uniform"] else "null params")
    assert serialize_json(design) == _reference(design)


def test_escaped_names_and_null_parameters():
    names = ('a"b', "back\\slash", "tab\there\x00", "ünï€😀")
    design = MultipartDesign(v=(3, 2, 4, 1), factor_names=names, blocks=(
        ((0, 1), (0,), (1, 2, 3), (0,)),
        ((2,), (0, 1), (0,), (0,)),
        ((0, 1), (0,), (1, 2, 3), (0,)),
    ))
    with pytest.raises(InvalidInputError, match="not serializable"):
        serialize_concise(design)
    text = serialize_json(design)
    assert text == _reference(design)
    assert "null" in text and text.isascii()
    assert json.loads(text)["factors"][0]["name"] == 'a"b'


@pytest.mark.parametrize("name", DESIGN_FIXTURES)
def test_every_fixture(name):
    design = load_design(name)
    assert serialize_json(design) == _reference(design)


BUILDS = {
    "cartesian": ["--ingredient", "7,3,1", "--ingredient", "7,3,1", "--ingredient", "7,3,1"],
    "subcartesian": ["--ingredient", "3,2,1", "--ingredient", "4,2,1", "--classes", "3"],
    "hadamard": ["--order", "24"],
    "symmetric-split": ["--ingredient", "11,5,2"],
    "augment": ["--design", "fixture:fig1", "--factor", "1"],
    "part-swap": ["--design", "fixture:fig1", "--factor", "1"],
    "product": ["--design", "fixture:fig8b", "--design", "fixture:fig5a"],
    "oa": ["--ingredient", "4,2,1", "--ingredient", "4,2,1", "--ingredient", "4,2,1",
           "--classes", "3"],
    "meet-filter": ["--host", "fixture:design_3_22_6_1", "--special", "1 2 3 9 12 21"],
    "class-matched": ["--design", "fixture:fig8b", "--classes", "3", "--ingredient", "3,2,1"],
}


@pytest.mark.parametrize("construction", BUILDS)
def test_every_build_construction(construction, capsys):
    """The JSON a build writes from the construction's own design is the
    reference text of the design its concise output reads back as."""
    argv = ["build", construction, *BUILDS[construction], "--format"]
    assert cli_main([*argv, "text"]) == 0
    design = parse_concise(capsys.readouterr().out)
    assert cli_main([*argv, "json"]) == 0
    assert capsys.readouterr().out == _reference(design)
