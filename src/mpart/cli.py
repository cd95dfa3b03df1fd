"""Command-line surface.

Exit codes: 0 success / valid / isomorphic; 1 usage or I/O error;
2 invalid design (or definitive negative answer); 3 non-isomorphic;
4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .errors import DEFAULT_BUDGET, UNKNOWN, BudgetExceededError, DesignError
from .files import (
    parse_blocks,
    parse_concise,
    render,
    serialize_concise,
    serialize_json,
)
from .isomorphism import are_isomorphic, are_weakly_isomorphic, canonical_form
from .model import (
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    as_multipart,
    relabel_levels,
    reorder_blocks,
)
from .tables import enumerate_reachable, render_rows
from .verify import FIRST_SLICE, check_admissible, check_multipart, find_partition
from . import constructions as cons
from . import ingredients as ing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NONISO = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """Ends a command with a message on stderr and an exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_design(path: str) -> MultipartDesign:
    if path.startswith("fixture:"):
        return fixtures.load_design(path.split(":", 1)[1])
    return parse_concise(Path(path).read_text())


def _load_blocks(path: str) -> BlockDesign:
    if path.startswith("fixture:"):
        return fixtures.load_block_design(path.split(":", 1)[1])
    return parse_blocks(Path(path).read_text())


def _write_design(design: MultipartDesign, out: str | None, fmt: str):
    text = serialize_json(design) if fmt == "json" else serialize_concise(design)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fraction(value):
    """``json.dumps``'s hook for the one type it cannot write: an integral
    Fraction as an int, any other as "p/q"."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"expected integers, got {text!r}") from None


def _count(text: str) -> int:
    """An option value that counts something and so cannot be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _triple(text: str) -> tuple[int, int, int]:
    parts = _ints(text)
    if len(parts) != 3:
        raise _UsageError(f"expected v,k,lambda, got {text!r}")
    return parts[0], parts[1], parts[2]


def _partition_for(design: MultipartDesign, c: int, budget: int,
                   what: str) -> BlockPartition:
    """The partition a construction needs; exit 4 when the search runs out
    of budget, 2 when no partition exists."""
    partition = find_partition(design, c, budget=budget)
    if partition is UNKNOWN:
        raise _Exit(EXIT_BUDGET, "partition search budget exhausted")
    if partition is None:
        raise _Exit(EXIT_INVALID, f"{what} is not {c}-partitionable")
    return partition


def _subcartesian(args):
    d1 = ing.get_bibd(*_triple(args.ingredient[0]))
    d2 = ing.get_bibd(*_triple(args.ingredient[1]))
    partition = _partition_for(as_multipart(d2), args.classes, args.budget,
                               "second ingredient")
    return cons.subcartesian_product(d1, d2, partition)


def _oa(args):
    c = args.classes
    ingredients = [ing.get_bibd(*_triple(t)) for t in args.ingredient]
    partitions = [_partition_for(as_multipart(bd), c, args.budget, "ingredient")
                  for bd in ingredients]
    oa = ing.orthogonal_array([bd.b // c for bd in ingredients], args.strength)
    return cons.oa_compose(ingredients, partitions, oa)


def _class_matched(args):
    theta = _load_design(args.design[0])
    partition = _partition_for(theta, args.classes, args.budget, "design")
    delta = ing.get_bibd(*_triple(args.ingredient[0]))
    return cons.class_matched_product(theta, partition, delta)


# The build flags, in --help order.  Each keeps argparse's default None, so
# that _build can tell a flag that was given from one that was not.
_BUILD_FLAGS = {
    "--ingredient": dict(action="append", metavar="v,k,lambda",
                         help="catalog design (repeatable)"),
    "--design": dict(action="append", metavar="FILE", help="design file input (repeatable)"),
    "--host": dict(metavar="FILE", help="block-design file for meet-filter"),
    "--special": dict(metavar="PTS", help="1-based points for meet-filter"),
    "--t": dict(type=int, help="meet size for meet-filter"),
    "--order": dict(type=int, help="Hadamard order"),
    "--second-row": dict(type=int),
    "--gamma": dict(type=int, help="block removed by symmetric-split"),
    "--factor": dict(type=int),
    "--classes": dict(type=int),
    "--strength": dict(type=int),
}

# What each construction reads, in the order its inputs are checked, and
# its builder.  A repeatable input holds how many copies it needs ("+" for
# one or more); a value holds "required" or the default it takes when
# absent.  A builder looks up its library functions when it runs.
_CONSTRUCTIONS = {
    "cartesian": ({"--ingredient": "+"}, lambda args: cons.cartesian_product(
        [ing.get_bibd(*_triple(t)) for t in args.ingredient])),
    "subcartesian": ({"--ingredient": 2, "--classes": 1}, _subcartesian),
    "hadamard": ({"--order": 12, "--second-row": 1}, lambda args: cons.hadamard_2part(
        ing.hadamard_matrix(args.order), second_row=args.second_row)),
    "symmetric-split": ({"--ingredient": 1, "--gamma": 0},
                        lambda args: cons.symmetric_block_split(
                            ing.get_bibd(*_triple(args.ingredient[0])), args.gamma)),
    "augment": ({"--design": 1, "--factor": 0}, lambda args: cons.augment(
        _load_design(args.design[0]), args.factor)),
    "part-swap": ({"--design": 1, "--factor": 0}, lambda args: cons.part_swap(
        _load_design(args.design[0]), args.factor)),
    "product": ({"--design": 2}, lambda args: cons.multipart_product(
        *map(_load_design, args.design))),
    "oa": ({"--ingredient": "+", "--classes": 1, "--strength": 2}, _oa),
    "meet-filter": ({"--host": "required", "--special": "required", "--t": 2},
                    lambda args: cons.meet_filter(
                        _load_blocks(args.host), [x - 1 for x in _ints(args.special)], args.t)),
    "class-matched": ({"--design": 1, "--classes": "required", "--ingredient": 1},
                      _class_matched),
}
_HOW_MANY = {"+": "", 1: "one ", 2: "exactly two "}


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


def _build(args) -> int:
    """Refuse each build flag the construction does not read, check the
    counts of those it does in its order, fill in defaults and build."""
    name = args.construction
    reads, builder = _CONSTRUCTIONS[name]
    for flag in _BUILD_FLAGS:
        if flag not in reads and getattr(args, _dest(flag)) is not None:
            raise _UsageError(f"{name} does not read {flag}")
    for flag, rule in reads.items():
        value = getattr(args, _dest(flag))
        if _BUILD_FLAGS[flag].get("action") == "append":
            if not value or rule != "+" and len(value) != rule:
                raise _UsageError(f"{name} needs {_HOW_MANY[rule]}{flag}")
        elif value is None:
            if rule == "required":
                raise _UsageError(f"{name} needs {flag}")
            setattr(args, _dest(flag), rule)
    _write_design(builder(args), args.output, args.format)
    return EXIT_OK


def _report(report, fmt: str, passed: bool) -> int:
    """Print ``report`` as text or JSON; exit 0 when it passed, else 2."""
    if fmt == "json":
        print(json.dumps(asdict(report), indent=2, default=_fraction))
    else:
        print(report.summary())
    return EXIT_OK if passed else EXIT_INVALID


def _verify(args) -> int:
    design = _load_design(args.file)
    report = check_multipart(design, allow_degenerate=args.allow_degenerate)
    return _report(report, args.format, report.valid)


def _params(args) -> int:
    values = args.numbers
    if len(values) < 3 or len(values) % 2 == 0:
        raise _UsageError("params needs: b v1..vm k1..km")
    m = (len(values) - 1) // 2
    b, v, k = values[0], values[1:1 + m], values[1 + m:]
    report = check_admissible(b, v, k, c=args.c)
    return _report(report, args.format, report.ok)


def _canon(args) -> int:
    design = _load_design(args.file)
    form = canonical_form(design, budget=args.budget)
    if args.selfcheck:
        rng = random.Random(args.seed)
        for _ in range(args.selfcheck):
            perms = [rng.sample(range(size), size) for size in design.v]
            order = rng.sample(range(design.b), design.b)
            shuffled = reorder_blocks(relabel_levels(design, perms), order)
            if canonical_form(shuffled, budget=args.budget).certificate != form.certificate:
                print("certificate changed under relabeling", file=sys.stderr)
                return EXIT_INVALID
        print(f"selfcheck: {args.selfcheck} relabelings, certificate stable", file=sys.stderr)
    _write_design(form.design, args.output, args.format)
    return EXIT_OK


def _iso(args) -> int:
    weak = args.command == "weak-iso"
    d1 = _load_design(args.file1)
    d2 = _load_design(args.file2)
    same = (are_weakly_isomorphic if weak else are_isomorphic)(d1, d2, budget=args.budget)
    print(("weakly " if weak else "") + ("isomorphic" if same else "not isomorphic"))
    return EXIT_OK if same else EXIT_NONISO


def _partition(args) -> int:
    design = _load_design(args.file)
    result = find_partition(design, args.c, budget=args.budget)
    if result is UNKNOWN:
        print("budget exhausted: undecided", file=sys.stderr)
        return EXIT_BUDGET
    if args.format == "json":
        print(json.dumps(None if result is None
                         else [[t + 1 for t in cls] for cls in result.classes]))
    elif result is None:
        print(f"no {args.c}-class partition exists")
    else:
        for j, cls in enumerate(result.classes):
            print(f"class {j + 1}: blocks " + " ".join(str(t + 1) for t in cls))
    return EXIT_INVALID if result is None else EXIT_OK


def _render(args) -> int:
    design = _load_design(args.file)
    sys.stdout.write(render(design, mode=args.mode))
    return EXIT_OK


def _tables(args) -> int:
    rows = enumerate_reachable(
        max_b=args.max_b,
        constructions=args.constructions,
        exclude=args.exclude,
        swap_convention=not args.no_swap_convention,
        partition_budget=args.budget,
    )
    if args.format == "json":
        print(json.dumps([asdict(row) for row in rows], indent=2, default=_fraction))
    else:
        sys.stdout.write(render_rows(rows))
    return EXIT_OK


# Arguments that several commands read, each declared only where it is read.
_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))
_BUDGET = ("--budget", dict(
    type=_count, default=DEFAULT_BUDGET,
    help="search-tree node limit; exit 4 when it runs out.  A "
         "partition search's two phases alternate on doubling slices "
         f"from {FIRST_SLICE} nodes until each has spent it (up to "
         "twice it in all); its witness is the least one only when "
         "phase 1 decides within the first slice.  For iso and "
         "weak-iso it bounds the first design's search and each first "
         "path of the second; that search stops at its first match, "
         "so a yes may come within a budget canon would exhaust"))
_SEED = ("--seed", dict(type=int, default=0, help="seed of the --selfcheck relabelings"))
_FILE = ("file", {})
_OUTPUT = ("-o", "--output", {})
_ISO = (("file1", {}), ("file2", {}), _BUDGET)

# Each command's help line, handler and arguments, in --help order; an
# argument is its names followed by its argparse spec.
_COMMANDS = {
    "build": ("run a construction and write the design", _build, (
        ("construction", dict(choices=tuple(_CONSTRUCTIONS))),
        *_BUILD_FLAGS.items(), _OUTPUT, _FORMAT, _BUDGET)),
    "verify": ("check the balance conditions", _verify, (
        _FILE, ("--allow-degenerate", dict(action="store_true")), _FORMAT)),
    "params": ("admissibility of b v1..vm k1..km", _params, (
        ("numbers", dict(type=int, nargs="+")), ("--c", dict(type=int, default=None)),
        _FORMAT)),
    "canon": ("canonical form of a design", _canon, (
        _FILE, ("--selfcheck", dict(type=_count, default=0,
                                    help="also verify the certificate on N random relabelings")),
        _OUTPUT, _FORMAT, _BUDGET, _SEED)),
    "iso": ("exit 0 if isomorphic, 3 if not", _iso, _ISO),
    "weak-iso": ("isomorphism up to factor exchange", _iso, _ISO),
    "partition": ("find c equally replicated block classes", _partition, (
        _FILE, ("--c", dict(type=int, required=True)), _FORMAT, _BUDGET)),
    "render": ("concise, dual or full rendering", _render, (
        _FILE, ("--mode", dict(choices=("concise", "dual", "full"), default="concise")))),
    "tables": ("least-b parameter rows per construction", _tables, (
        ("--max-b", dict(type=_count, default=60)),
        ("--constructions", dict(type=int, nargs="+", default=(1, 2, 3, 4))),
        ("--exclude", dict(type=int, nargs="+", default=())),
        ("--no-swap-convention", dict(action="store_true")), _FORMAT, _BUDGET)),
}


def _make_parser(argv: list) -> _Parser:
    """The parser for ``argv``.  Every command gets its subparser, because
    the top-level help and an invalid-choice error list them all; only a
    command named by a token of ``argv``, as the dispatched one always is,
    gets its arguments declared."""
    parser = _Parser(prog="mpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name in argv:
            for *names, spec in arguments:
                p.add_argument(*names, **spec)
    return parser


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # "--" ends the options, and none come before a command: drop it, and
        # name an operand after it that reads as an option as the unknown command.
        if len(argv) > 1 and argv[0] == "--":
            del argv[0]
            if argv[0].startswith("-"):
                choices = ", ".join(map(repr, _COMMANDS))
                raise _UsageError(
                    f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
        args = _make_parser(argv).parse_args(argv)
        return _COMMANDS[args.command][1](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, DesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
