"""Spans around mpart's layer functions, recorded from outside the package.

``traced(tracer)`` rebinds each layer's public functions at the names
their callers look up (``mpart.cli.check_multipart``,
``mpart.tables.find_partition``, ``mpart.files.derive_parameters``, ...)
and restores them on exit, so no file of mpart changes.  Spans are kept
in memory; a span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from dataclasses import dataclass, field
from time import perf_counter

# (module, name, layer, what to count)
TARGETS = [
    ("mpart.cli", "parse_concise", "files.parse", "text_kb"),
    ("mpart.cli", "parse_blocks", "files.parse", "text_kb"),
    ("mpart.cli", "serialize_concise", "files.serialize", "out_kb"),
    ("mpart.cli", "serialize_json", "files.serialize", "out_kb"),
    ("mpart.cli", "render", "files.serialize", "out_kb"),
    ("mpart.files", "derive_parameters", "model.derive", None),
    ("mpart.cli", "check_multipart", "verify.count", "blocks"),
    ("mpart.cli", "check_admissible", "verify.count", None),
    ("mpart.tables", "check_multipart", "verify.count", "blocks"),
    ("mpart.tables", "check_admissible", "verify.count", None),
    ("mpart.verify", "check_strength", "verify.count", None),
    ("mpart.cli", "find_partition", "verify.partition", "outcome"),
    ("mpart.tables", "find_partition", "verify.partition", "outcome"),
    ("mpart.cli", "canonical_form", "isomorphism.canon", "blocks"),
    ("mpart.isomorphism", "canonical_form", "isomorphism.canon", "blocks"),
    ("mpart.cli", "are_isomorphic", "isomorphism.iso", None),
    ("mpart.isomorphism", "are_isomorphic", "isomorphism.iso", None),
    ("mpart.cli", "are_weakly_isomorphic", "isomorphism.weak", None),
    *[("mpart.constructions", name, "constructions", "blocks_out") for name in (
        "cartesian_product", "subcartesian_product", "hadamard_2part", "symmetric_block_split",
        "augment", "part_swap", "multipart_product", "oa_compose", "meet_filter",
        "class_matched_product")],
    *[("mpart.tables", name, "constructions", "blocks_out") for name in (
        "hadamard_2part", "subcartesian_product", "symmetric_block_split")],
    *[("mpart.ingredients", name, "ingredients", None) for name in (
        "get_bibd", "hadamard_matrix", "orthogonal_array", "catalog_entries")],
    ("mpart.tables", "catalog_entries", "ingredients", None),
    ("mpart.tables", "hadamard_matrix", "ingredients", None),
    ("mpart.cli", "enumerate_reachable", "tables", "rows"),
]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    above: frozenset  # layers of every enclosing span
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0

    def begin(self, layer: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), parent.id if parent else None, self.op, layer,
                    parent.above | {parent.layer} if parent else frozenset(), perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span):
        span.end = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op,
                                     "layer": s.layer, "start": s.start, "end": s.end,
                                     "self": s.self_s, **s.counts}) + "\n")


def _count(what, args, result) -> dict:
    if what == "text_kb":
        return {"kb": len(args[0]) / 1024}
    if what == "out_kb":
        return {"kb": len(result) / 1024}
    if what == "blocks":
        return {"blocks": args[0].b}
    if what == "blocks_out":
        return {"blocks": result.b}
    if what == "rows":
        return {"rows": len(result)}
    if what == "outcome":
        from mpart.errors import UNKNOWN

        return {"outcome": "undecided" if result is UNKNOWN
                else "none" if result is None else "found"}
    return {}


def _wrap(tracer: Tracer, fn, layer: str, what):
    def wrapper(*args, **kwargs):
        span = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.counts["error"] = type(exc).__name__
            raise
        finally:
            tracer.end(span)
        span.counts.update(_count(what, args, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    saved = []
    try:
        for module_name, name, layer, what in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, _wrap(tracer, original, layer, what))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# --------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("cli", "files.parse", "files.serialize", "model.derive", "verify.count",
          "verify.partition", "isomorphism.canon", "isomorphism.iso", "isomorphism.weak",
          "constructions", "ingredients", "tables")


def _ratio(part: float, whole: float, empty: float) -> float:
    return part / whole if whole else empty


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer totals divided by the number of traced rounds.

    A ratio whose base is empty reads 1.0 for decided fractions (nothing
    was left undecided) and 0.0 otherwise.
    """
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        by_layer[s.layer].append(s)
    out: dict[str, float] = {}
    for layer, group in by_layer.items():
        out[f"{layer}.calls"] = len(group) / rounds
        out[f"{layer}.self_ms"] = 1000 * sum(s.self_s for s in group) / rounds

    def total(layer, key):
        return sum(s.counts.get(key, 0) for s in by_layer[layer]) / rounds

    out["files.parse.kb"] = total("files.parse", "kb")
    out["files.serialize.kb"] = total("files.serialize", "kb")
    out["verify.count.blocks"] = total("verify.count", "blocks")
    out["isomorphism.canon.blocks"] = total("isomorphism.canon", "blocks")
    out["constructions.blocks_out"] = total("constructions", "blocks")
    out["tables.rows"] = total("tables", "rows")

    part = by_layer["verify.partition"]
    outcome = [s.counts.get("outcome") for s in part]
    out["verify.partition.found"] = outcome.count("found") / rounds
    out["verify.partition.undecided"] = outcome.count("undecided") / rounds
    out["verify.partition.crashed"] = sum("error" in s.counts for s in part) / rounds
    decided = outcome.count("found") + outcome.count("none")
    out["verify.partition.decided_frac"] = _ratio(decided, len(part), 1.0)

    in_tables = [s for s in part if "tables" in s.above]
    decided_in_tables = sum(s.counts.get("outcome") in ("found", "none") for s in in_tables)
    out["tables.partition_calls"] = len(in_tables) / rounds
    out["tables.partition_decided_frac"] = _ratio(decided_in_tables, len(in_tables), 1.0)
    out["tables.candidates_verified"] = sum(
        "tables" in s.above for s in spans
        if s.layer == "verify.count" and "blocks" in s.counts) / rounds

    iso_ids = {s.id for s in by_layer["isomorphism.iso"]}
    with_canon = {s.parent for s in by_layer["isomorphism.canon"] if s.parent in iso_ids}
    out["isomorphism.iso.fast_reject_frac"] = _ratio(
        len(iso_ids - with_canon), len(iso_ids), 0.0)
    under_weak = sum("isomorphism.weak" in s.above for s in by_layer["isomorphism.canon"])
    out["isomorphism.weak.canon_per_call"] = _ratio(
        under_weak, len(by_layer["isomorphism.weak"]), 0.0)
    return out
