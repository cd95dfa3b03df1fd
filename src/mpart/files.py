"""Text formats and renderings.

The concise format mirrors the tabular layout used for hand-checked
designs: a header naming the factors and their level counts, then one
line per block listing each factor's levels in braces.  Labels in files
are 1-based with factor-name prefixes; the in-memory model is 0-based.

    mpart v1
    factors: C=6 D=5
    block: C{1,2,3} D{1,5}

Serialization is canonical (single spaces, no padding), so
parse(serialize(d)) round-trips exactly and serialize(parse(text))
reproduces canonical files byte for byte.
"""

from __future__ import annotations

import json
import re
from itertools import chain, product
from typing import Any, Iterable, Iterator

from .errors import (
    DualRequiresTwoFactorsError,
    DuplicateLevelInPartError,
    InvalidInputError,
    ParseError,
    UnknownFactorError,
)
from .model import BlockDesign, MultipartDesign, _blocks, _normalize_part, derive_parameters

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_HEADER = "mpart v1"
# One factor's part in a block line.  Each piece matches one way, so that
# reporting a bad line takes time linear in its length: a match starts only
# where a run of name characters starts, and the digits or underscores that
# lead the run are not part of the name (group 1), which starts at a letter.
_PART_RE = re.compile(r"(?<![A-Za-z0-9_])[0-9_]*([A-Za-z][A-Za-z0-9_]*)\{([0-9,\s]*)\}")


def serialize_concise(design: MultipartDesign) -> str:
    names = design.factor_names
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise InvalidInputError(f"factor name {name!r} is not serializable")
    lines = [_HEADER, "factors: " + " ".join(
        f"{name}={size}" for name, size in zip(names, design.v))]
    rows = _rows(design, lambda i, part: f"{names[i]}{{{','.join(str(x + 1) for x in part)}}}")
    lines.extend("block: " + " ".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _rows(design: MultipartDesign, part_text) -> Iterator[tuple[str, ...]]:
    """Each block as the tuple of its parts' texts, ``part_text(i, part)``
    of factor i's part; each distinct part of a factor is rendered once."""
    texts = [[part_text(i, part) for part in parts] for i, parts in enumerate(design._parts)]
    return _blocks(texts, design._part_index.tolist())


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_concise(text: str) -> MultipartDesign:
    """Parse the concise format; raises ParseError with line and column."""
    lines = text.splitlines()
    meaningful = ((n, line) for n, line in enumerate(map(_strip_comment, lines), 1)
                  if line.strip())
    n, header = next(meaningful, (0, None))
    if header is None:
        raise ParseError("empty input", 1, 1)
    if header.strip() != _HEADER:
        raise ParseError(f"expected header {_HEADER!r}", n, 1)
    n, factors_line = next(meaningful, (n, None))
    if factors_line is None:
        raise ParseError("missing factors line", n, 1)

    stripped = factors_line.strip()
    if not stripped.startswith("factors:"):
        raise ParseError("expected 'factors:' line", n, 1)
    names: list[str] = []
    sizes: list[int] = []
    start = factors_line.index("factors:") + len("factors:")
    for match in re.finditer(r"\S+", factors_line[start:]):
        token, col = match[0], start + match.start() + 1
        m = re.fullmatch(rf"({_NAME_RE.pattern})=(\d+)", token)
        if not m:
            raise ParseError(f"bad factor declaration {token!r}", n, col)
        digits = m.group(2).lstrip("0") or "0"
        try:
            sizes.append(int(digits))
        except ValueError:  # more digits than int() reads
            raise ParseError(f"size of factor {m.group(1)!r} is too long: {len(digits)} digits",
                             n, col) from None
        names.append(m.group(1))
    if not names:
        raise ParseError("no factors declared", n, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate factor names", n, 1)

    # One pattern reads a whole block line: "block:", then each declared
    # factor's part in order, with only whitespace around them, then maybe
    # a comment.  Each of its pieces can match a line in one way only, so a
    # line that fails fails in time linear in its length.
    pattern = re.compile(r"\s*block:" + "".join(
        rf"\s*{re.escape(name)}\{{([0-9,\s]*)\}}" for name in names) + r"\s*(?:#.*)?")
    # Every line after the factors line is a block line, blank or a comment.
    # The lines are matched in one pass, and each factor's brace bodies are
    # read as a column: each distinct body is split once and each distinct
    # token converted once.  The model then sorts each part and refuses an
    # empty one or a repeated level.  Only a file with a fault is read again
    # line by line, to find the first.
    rest = lines[n:]
    matches = list(map(pattern.fullmatch, rest))
    rows = list(filter(None, matches))
    columns = tuple(zip(*map(re.Match.groups, rows)))
    try:
        known = list(map(_column_levels, columns, sizes))
    except ParseError:
        raise _first_fault(rest, n, names, sizes) from None
    if len(rows) != len(rest) and any(
            _strip_comment(line).strip() for line, match in zip(rest, matches) if not match):
        raise _first_fault(rest, n, names, sizes)
    if not rows:
        raise ParseError("no blocks", n, 1)
    try:
        return MultipartDesign(v=tuple(sizes), blocks=tuple(_blocks(known, columns)),
                               factor_names=tuple(names))
    except InvalidInputError:
        raise _first_fault(rest, n, names, sizes) from None


def _first_fault(lines: list[str], n: int, names: list[str], sizes: list[int]) -> ParseError:
    """The error of the first faulty block line of ``lines``, which follow
    line ``n``."""
    for n, line in enumerate(map(_strip_comment, lines), n + 1):
        error = _block_error(line, n, names, sizes) if line.strip() else None
        if error is not None:
            return error
    raise AssertionError("no faulty block line")


def _column_levels(bodies: Iterable[str], size: int) -> dict[str, tuple[int, ...]]:
    """Each distinct brace body of ``bodies`` -> its 0-based levels in the
    order written, each distinct token converted once; the ParseError for
    a level out of range carries no position."""
    split = {body: body.replace(",", " ").split() for body in dict.fromkeys(bodies)}
    width = len(str(size))
    level = {}
    for token in dict.fromkeys(chain.from_iterable(split.values())):
        # Past its leading zeros, a level with more digits than the size is
        # out of range; it is refused without int(), which may not read
        # that many digits.
        digits = token if len(token) <= width else token.lstrip("0") or "0"
        if len(digits) > width:
            raise ParseError(f"level {digits} out of range 1..{size}")
        x = int(digits)
        if not 1 <= x <= size:
            raise ParseError(f"level {x} out of range 1..{size}")
        level[token] = x - 1
    return {body: tuple(map(level.__getitem__, items)) for body, items in split.items()}


def _check_part(body: str, name: str, size: int) -> None:
    """Raise the ParseError, with no position, of a bad brace body of one
    part; the model's check of a part tells a repeated level."""
    levels = _column_levels((body,), size)[body]
    if not levels:
        raise ParseError(f"empty part for factor {name!r}")
    try:
        _normalize_part(levels, size, "")
    except InvalidInputError:
        raise DuplicateLevelInPartError(f"duplicate level in factor {name!r}") from None


def _block_error(line: str, n: int, names: list[str], sizes: list[int]) -> ParseError | None:
    """The error, with line ``n`` and its column, of a block line: the
    first of stray text, an unknown or repeated factor, a bad part, and a
    missing or misplaced factor; None for a good line."""
    stripped = line.strip()
    indent = line.find(stripped[0])
    if not stripped.startswith("block:"):
        return ParseError("expected 'block:' line", n, indent + 1)
    body = stripped[len("block:"):]
    # 1-based column of the body's first character
    start = indent + len("block:") + 1
    # blank each part from its name on, so that the stray text keeps its column
    bad = re.search(r"\S+", _PART_RE.sub(
        lambda m: m[0][:m.start(1) - m.start()].ljust(len(m[0])), body))
    if bad:
        return ParseError(f"unrecognized text {bad.group(0)!r}", n, start + bad.start())
    size_of = dict(zip(names, sizes))
    order: list[str] = []
    for m in _PART_RE.finditer(body):
        name = m.group(1)
        col = start + m.start(1)
        if name not in size_of:
            return UnknownFactorError(f"unknown factor {name!r}", n, col)
        if name in order:
            return ParseError(f"factor {name!r} repeated in block", n, col)
        try:
            _check_part(m.group(2), name, size_of[name])
        except ParseError as exc:
            return type(exc)(str(exc), n, col)
        order.append(name)
    missing = [nm for nm in names if nm not in order]
    if missing:
        return ParseError(f"block is missing factor {missing[0]!r}", n, 1)
    return None if order == names else ParseError(f"factors out of order: {order}", n, 1)


# --------------------------------------------------------------------------
# plain block lists (ingredient fixtures): 1-based points, one block per line


def parse_blocks(text: str) -> BlockDesign:
    """Fixture format: space-separated 1-based point labels, '#' comments;
    the points are 1 to the largest label."""
    blocks = []
    top = 0
    for n, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        try:
            points = [int(token) for token in line.split()]
        except ValueError as exc:
            raise ParseError(str(exc), n, 1) from None
        if any(p < 1 for p in points):
            raise ParseError("points are 1-based", n, 1)
        top = max(top, max(points))
        blocks.append(tuple(x - 1 for x in points))
    if not blocks:
        raise ParseError("no blocks", 1, 1)
    return BlockDesign(v=top, blocks=tuple(blocks))


def serialize_blocks(bd: BlockDesign) -> str:
    return "\n".join(" ".join(str(x + 1) for x in block) for block in bd.blocks) + "\n"


# --------------------------------------------------------------------------
# JSON mirror


def to_json_dict(design: MultipartDesign) -> dict[str, Any]:
    """Same data as the concise format plus derived parameters."""
    return _json_document(design, [[[x + 1 for x in part] for part in block]
                                   for block in design.blocks])


def _json_document(design: MultipartDesign, blocks: Any) -> dict[str, Any]:
    """The JSON mirror of ``design`` with ``blocks`` as its blocks."""
    params = derive_parameters(design)
    return {
        "format": "mpart",
        "version": 1,
        "factors": [{"name": name, "levels": size}
                    for name, size in zip(design.factor_names, design.v)],
        "blocks": blocks,
        "params": {
            "b": params.b,
            "k": list(params.k),
            "r": list(params.r),
            "lambda": [list(row) for row in params.lam],
            "uniform": params.uniform,
        },
    }


_BLOCKS = object()  # stands for the blocks in the document serialize_json writes


def serialize_json(design: MultipartDesign) -> str:
    """``json.dumps(to_json_dict(design), indent=2)`` and a newline, byte for
    byte.  ``json`` encodes in Python, not C, when it indents, so the blocks,
    nearly all of the text, are written here: each factor's distinct parts
    once, then each block as a join of its parts' texts.  Every other member
    is encoded by ``json`` and indented one level deeper."""
    members = ",\n".join(
        f"  {json.dumps(key)}: " + (_json_blocks(design) if value is _BLOCKS else
                                    json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in _json_document(design, _BLOCKS).items())
    return "{\n" + members + "\n}\n"


def _json_blocks(design: MultipartDesign) -> str:
    """The blocks as ``json.dumps`` indents them at depth 1: an array of
    blocks, each an array of parts, each an array of 1-based levels."""
    rows = _rows(design, lambda i, part: ",\n        ".join(str(x + 1) for x in part))
    return ("[\n    [\n      [\n        "
            + "\n      ]\n    ],\n    [\n      [\n        ".join(
                map("\n      ],\n      [\n        ".join, rows))
            + "\n      ]\n    ]\n  ]")


def _json(value: Any, kind: type, what: str, *args) -> Any:
    """``value`` when JSON read it as ``kind`` (true is no int here), else
    a ParseError naming it as ``what.format(*args)``."""
    if type(value) is not kind:
        raise ParseError(f"{what.format(*args)} must be a JSON {kind.__name__}, got {value!r}")
    return value


def from_json_dict(data: dict[str, Any]) -> MultipartDesign:
    """The design of a version-1 document in :func:`to_json_dict`'s shape;
    any other shape is a ParseError, any other fault the model's error."""
    # The version, like every number in the document, is a JSON integer:
    # true and 1.0 equal 1 in Python but are no version.
    if (type(data) is not dict or data.get("format") != "mpart"
            or type(data.get("version")) is not int or data["version"] != 1):
        raise ParseError("not a version-1 design document")
    # A missing member reads as None, which is of no kind asked for.
    factors = [_json(f, dict, "factor {}", i)
               for i, f in enumerate(_json(data.get("factors"), list, "'factors'"))]
    return MultipartDesign(
        v=tuple(_json(f.get("levels"), int, "'levels' of factor {}", i) for i, f in enumerate(factors)),
        blocks=tuple(tuple(tuple(_json(x, int, "a level of block {}, part {}", t, i) - 1
                                 for x in _json(part, list, "part {} of block {}", i, t))
                           for i, part in enumerate(_json(block, list, "block {}", t)))
                     for t, block in enumerate(_json(data.get("blocks"), list, "'blocks'"))),
        factor_names=tuple(_json(f.get("name"), str, "'name' of factor {}", i)
                           for i, f in enumerate(factors)),
    )


# --------------------------------------------------------------------------
# renderings


def _label(design: MultipartDesign, factor: int, level: int) -> str:
    return f"{design.factor_names[factor]}{level + 1}"


def render_full(design: MultipartDesign) -> str:
    """Every block expanded into its level combinations."""
    lines = []
    for t, block in enumerate(design.blocks, start=1):
        combos = product(*(range(len(part)) for part in block))
        cells = ["(" + ",".join(_label(design, i, block[i][x]) for i, x in enumerate(combo)) + ")"
                 for combo in combos]
        lines.append(f"Block {t}: " + " ".join(cells))
    return "\n".join(lines) + "\n"


def render_dual(design: MultipartDesign) -> str:
    """Two-factor grid: cell (i, j) lists the blocks pairing level i with j."""
    if design.m != 2:
        raise DualRequiresTwoFactorsError(
            f"dual rendering needs exactly 2 factors, design has {design.m}")
    v1, v2 = design.v
    cells = [[[] for _ in range(v2)] for _ in range(v1)]
    for t, (part1, part2) in enumerate(design.blocks, start=1):
        for x in part1:
            for y in part2:
                cells[x][y].append(t)
    texts = [[",".join(str(t) for t in cell) for cell in row] for row in cells]
    row_labels = [_label(design, 0, x) for x in range(v1)]
    col_labels = [_label(design, 1, y) for y in range(v2)]
    widths = [max(len(col_labels[y]), max(len(texts[x][y]) for x in range(v1)))
              for y in range(v2)]
    label_width = max(len(lab) for lab in row_labels)
    header = " " * label_width + " | " + " | ".join(
        col_labels[y].ljust(widths[y]) for y in range(v2))
    rule = "-" * len(header)
    lines = [header, rule]
    for x in range(v1):
        lines.append(row_labels[x].ljust(label_width) + " | " + " | ".join(
            texts[x][y].ljust(widths[y]) for y in range(v2)))
    return "\n".join(lines) + "\n"


def render(design: MultipartDesign, mode: str = "concise") -> str:
    """Render as ``concise`` block lines, the ``dual`` grid, or the ``full`` expansion."""
    if mode == "concise":
        return serialize_concise(design)
    if mode == "dual":
        return render_dual(design)
    if mode == "full":
        return render_full(design)
    raise InvalidInputError(f"unknown rendering mode {mode!r}")
