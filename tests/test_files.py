import json
from time import perf_counter

import pytest

from mpart.errors import (
    DualRequiresTwoFactorsError,
    DuplicateLevelInPartError,
    InvalidInputError,
    ParseError,
    UnknownFactorError,
)
from mpart.files import (
    _block_error,
    _strip_comment,
    parse_blocks,
    parse_concise,
    render,
    serialize_blocks,
    serialize_concise,
    serialize_json,
    to_json_dict,
)
from mpart.fixtures import BLOCK_FIXTURES, DESIGN_FIXTURES, fixture_text, load_design
from mpart.model import derive_parameters


def test_parse_fig2b_table():
    text = fixture_text("fig1.design")
    d = parse_concise(text)
    assert d.b == 10
    assert d.factor_names == ("C", "D")
    assert d.blocks[0] == ((0, 1, 2), (0, 4))


def test_round_trip_every_fixture_is_byte_exact():
    for name in DESIGN_FIXTURES:
        text = fixture_text(name + ".design")
        assert serialize_concise(parse_concise(text)) == text, name


def test_parse_round_trips_whitespace_freely():
    text = "mpart v1\nfactors: C=3 D=3\nblock: C{ 1 ,2} D{2,3}\n"
    d = parse_concise(text)
    assert d.blocks == (((0, 1), (1, 2)),)
    assert serialize_concise(d) == "mpart v1\nfactors: C=3 D=3\nblock: C{1,2} D{2,3}\n"


def test_parse_empty_block_line():
    with pytest.raises(ParseError):
        parse_concise("mpart v1\nfactors: C=3 D=3\nblock:\n")


def test_parse_unknown_factor():
    with pytest.raises(UnknownFactorError) as err:
        parse_concise("mpart v1\nfactors: C=3 D=3\nblock: C{1,2} X{1}\n")
    assert err.value.line == 3


def test_parse_duplicate_level():
    with pytest.raises(DuplicateLevelInPartError):
        parse_concise("mpart v1\nfactors: C=3 D=3\nblock: C{1,1} D{1,2}\n")


def test_parse_level_out_of_range():
    with pytest.raises(ParseError):
        parse_concise("mpart v1\nfactors: C=3 D=3\nblock: C{1,4} D{1,2}\n")


def test_parse_refuses_over_long_numbers_with_a_position():
    # 5000 digits: more than int() reads from a string by default
    digits = "1" * 5000
    with pytest.raises(ParseError) as err:
        parse_concise(f"mpart v1\nfactors: C=3 D=3\nblock: C{{1,2}} D{{1}}\n"
                      f"block: C{{1, {digits}}} D{{1}}\n")
    assert (err.value.line, err.value.col) == (4, 8)
    # a level longer than sys.maxsize is named by its digit count
    assert str(err.value) == "line 4, col 8: level of 5000 digits out of range 1..3"
    with pytest.raises(ParseError) as err:
        parse_concise(f"mpart v1\nfactors: C=3 D={digits}\nblock: C{{1}} D{{1}}\n")
    assert (err.value.line, err.value.col) == (2, 14)
    assert "size of factor 'D' is too long: 5000 digits" in str(err.value)
    # leading zeros are no digits of the value
    d = parse_concise(f"mpart v1\nfactors: C={'0' * 5000}3\nblock: C{{{'0' * 5000}2}}\n")
    assert d.v == (3,) and d.blocks == (((1,),),)
    # the first level out of range is named, long or not
    for body, level in ((f"4, {digits}", "4"), (f"{'0' * 700}4, {digits}", "4"),
                        (f"{'0' * 700}1, {digits}, 4", "of 5000 digits"),
                        (f"1, {'0' * 700}{'1' * 19}", "1" * 19),
                        (f"1, {'0' * 700}{'1' * 20}", "of 20 digits")):
        with pytest.raises(ParseError, match=f"^line 3, col 8: level {level} out of range"):
            parse_concise(f"mpart v1\nfactors: C=3\nblock: C{{{body}}}\n")


@pytest.mark.parametrize("good, bad, after", [
    ("", "C{" + " " * 100_000 + "x}", ""),
    ("", "a" * 100_000, ""),
    ("", "a1" * 50_000, ""),
    ("C{1}", "_" * 100_000, "D{1}"),
])
def test_a_long_bad_block_line_is_reported_in_linear_time(good, bad, after):
    # Stray text of 100,000 characters between good parts: each piece of
    # the part pattern matches one way, so the report takes milliseconds,
    # where backtracking over every split of the run would take minutes.
    line = f"block: {good}{bad}{after}"
    start = perf_counter()
    with pytest.raises(ParseError) as err:
        parse_concise(f"mpart v1\nfactors: C=3 D=3\n{line}\n")
    assert perf_counter() - start < 1
    col = len(f"block: {good}") + 1
    assert (err.value.line, err.value.col) == (3, col)
    assert str(err.value) == f"line 3, col {col}: unrecognized text {bad.split()[0]!r}"


@pytest.mark.parametrize("line, col", [
    # the repeated part, not the first part with the same text
    ("block: C{1} C{1} D{1}", 13),
    ("block: D{1} C{1} D{1}", 18),
    ("  block: C{1} C{1} D{1}", 15),
    ("block: C{1} D{1} X{1}", 18),
    # the stray token, not an equal digit inside an earlier part
    ("block: C{1} 1 D{1}", 13),
    ("\tblock: C{1} D{1} }", 19),
])
def test_parse_error_columns(line, col):
    # A good line before the faulty one is passed over.
    good = "  block:C{3,1}   D{ 2 } # no fault"
    assert _block_error(_strip_comment(good), 3, ["C", "D"], [3, 3]) is None
    with pytest.raises(ParseError) as err:
        parse_concise(f"mpart v1\nfactors: C=3 D=3\n{good}\n{line}\n")
    assert (err.value.line, err.value.col) == (4, col)
    assert line[col - 1] in "CDX1}"


@pytest.mark.parametrize("line, col", [
    # the bad token itself, not an equal text earlier in the line
    ("factors: C=3 :", 14),
    ("factors: CD=2 D 3", 15),
    ("factors: CC=3 C=", 15),
    ("  factors:C=3 C", 15),
])
def test_factor_declaration_error_columns(line, col):
    with pytest.raises(ParseError) as err:
        parse_concise(f"mpart v1\n{line}\nblock: C{{1}}\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert str(err.value).startswith(f"line 2, col {col}: bad factor declaration")
    assert line[col - 1:].split()[0] in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("", "line 1, col 1: empty input"),
    ("mpart v1\n", "line 1, col 1: missing factors line"),
    ("mpart v1\nblock: C{1}\n", "line 2, col 1: expected 'factors:' line"),
    ("mpart v1\nfactors: C=3 C=3\nblock: C{1} C{1}\n", "line 2, col 1: duplicate factor names"),
])
def test_parse_header_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_concise(text)
    assert str(err.value) == message


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_concise("mpart v2\nfactors: C=3\nblock: C{1,2}\n")


@pytest.mark.parametrize("name", DESIGN_FIXTURES)
def test_render_concise_is_the_serialized_text(name):
    d = load_design(name)
    assert render(d) == render(d, "concise") == serialize_concise(d)


def test_render_dual_fig2b():
    d = load_design("fig1")
    dual = render(d, "dual")
    lines = dual.splitlines()
    assert lines[0].split("|")[1].strip() == "D1"
    # cell (C1, D1) holds blocks 1 and 2
    c1 = next(line for line in lines if line.startswith("C1"))
    assert c1.split("|")[1].strip() == "1,2"
    # every cell holds exactly lambda_12 = 2 names: b k1 k2 names in total
    names = sum(cell.count(",") + 1
                for line in lines[2:] for cell in line.split("|")[1:])
    assert names == 10 * 3 * 2


def test_render_full_fig2b():
    d = load_design("fig1")
    full = render(d, "full")
    first = full.splitlines()[0]
    assert first == "Block 1: (C1,D1) (C1,D5) (C2,D1) (C2,D5) (C3,D1) (C3,D5)"


def test_render_refuses_an_unknown_mode():
    with pytest.raises(InvalidInputError, match="unknown rendering mode 'grid'"):
        render(load_design("fig1"), mode="grid")


def test_render_dual_needs_two_factors():
    with pytest.raises(DualRequiresTwoFactorsError):
        render(load_design("fig8a"), "dual")


def test_json_round_trip():
    # JSON is output only: the written document is checked member by member
    d = load_design("fig4b")
    data = json.loads(serialize_json(d))
    assert (data["format"], data["version"]) == ("mpart", 1)
    assert data["factors"] == [{"name": name, "levels": size}
                               for name, size in zip(d.factor_names, d.v)]
    assert data["blocks"] == [[[x + 1 for x in part] for part in block] for block in d.blocks]
    assert data["params"]["b"] == 20


def test_json_carries_derived_parameters():
    d = load_design("fig1")
    data = to_json_dict(d)
    params = derive_parameters(d)
    assert data["params"]["r"] == list(params.r)
    assert data["params"]["lambda"][0][1] == params.lam[0][1]


def test_parse_blocks_format():
    text = "# comment\n1 2 3\n2 3 4\n"
    bd = parse_blocks(text)
    assert bd.v == 4
    assert bd.blocks == ((0, 1, 2), (1, 2, 3))
    assert serialize_blocks(bd) == "1 2 3\n2 3 4\n"


def test_parse_blocks_rejects_zero():
    with pytest.raises(ParseError):
        parse_blocks("0 1 2\n")


def test_parse_blocks_reads_labels_by_the_level_rule():
    # as in a concise part: leading zeros are read, any whitespace separates
    bd = parse_blocks("# c\n\n 3\t002 1 # three\n0004  5\n")
    assert bd.v == 5
    assert bd.blocks == ((0, 1, 2), (3, 4))


@pytest.mark.parametrize("label, message", [
    ("1_0", "point label '1_0' is not ASCII digits"),
    ("+3", "point label '+3' is not ASCII digits"),
    ("\u0663", "point label '\u0663' is not ASCII digits"),
    ("x", "point label 'x' is not ASCII digits"),
    ("3,4", "point label '3,4' is not ASCII digits"),
    ("0", "level 0 out of range"),
    ("000", "level 0 out of range"),
    ("9" * 5000, "level of 5000 digits out of range 1..9223372036854775807"),
    ("9223372036854775808", "level 9223372036854775808 out of range 1..9223372036854775807"),
], ids=["underscore", "sign", "arabic-indic", "letter", "comma", "zero", "zeros", "over-long",
        "past-maxsize"])
def test_parse_blocks_reports_a_bad_label_at_its_line_and_column(label, message):
    # int() reads the first three as 10, 3 and 3, and the over-long one not at all
    with pytest.raises(ParseError) as caught:
        parse_blocks(f"# header\n1 2 3\n4  {label} 6 # note\n7 x\n")
    assert type(caught.value) is ParseError
    assert (caught.value.line, caught.value.col) == (3, 4)
    assert message in str(caught.value)
    # a label of any length gives a short message
    assert len(str(caught.value)) < 100


def test_parse_blocks_reports_a_repeated_point_at_its_label():
    with pytest.raises(DuplicateLevelInPartError, match="repeated point 2") as caught:
        parse_blocks("1 2 3\n2 4 02 x\n")
    assert (caught.value.line, caught.value.col) == (2, 5)


def test_every_block_fixture_reads_as_its_labels():
    # the labels as int() reads the shipped files, which hold only plain numbers
    for name in BLOCK_FIXTURES:
        text = fixture_text(name + ".blocks")
        rows = [tuple(int(x) - 1 for x in line.split())
                for line in text.splitlines() if line.strip() and not line.startswith("#")]
        bd = parse_blocks(text)
        assert bd.blocks == tuple(tuple(sorted(row)) for row in rows)
        assert bd.v == max(map(max, rows)) + 1


def test_parse_blocks_needs_a_block():
    with pytest.raises(ParseError, match="no blocks"):
        parse_blocks("# comment only\n\n")
