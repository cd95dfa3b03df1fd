"""Multi-part balanced incomplete block designs.

Construction, verification, canonicalization and cataloging of designs
that allocate, per block, one level subset for each of several factors,
with every factor pair-balanced and every cross-factor level pair
equally replicated.

Each submodule is imported on first use of one of its names (PEP 562),
so ``import mpart`` and a first ``get_bibd`` load only what they call.
"""

from importlib import import_module as _import_module

# Each submodule's public names, as ``mpart`` re-exports them.
_EXPORTS = {
    "errors": (
        "DEFAULT_BUDGET", "UNKNOWN", "BudgetExceededError", "DesignError",
        "InvalidInputError", "ParseError",
    ),
    "model": (
        "BlockDesign", "BlockPartition", "MultipartDesign", "MultipartParams",
        "as_multipart", "complement_design", "derive_parameters", "incidence_matrix",
        "permute_factors", "relabel_levels", "reorder_blocks", "select_factors",
        "unzip_design", "zip_design",
    ),
    "verify": (
        "AdmissibilityReport", "VerificationReport", "check_admissible",
        "check_multipart", "check_strength", "concurrence_matrix", "cross_matrix",
        "design_strength", "find_partition", "verify_partition",
    ),
    "constructions": (
        "arrange_by_classes", "augment", "cartesian_product", "class_matched_product",
        "hadamard_2part", "meet_filter", "multipart_product", "oa_compose",
        "orbit_design", "part_swap", "row_pair_partition", "subcartesian_product",
        "symmetric_block_split",
    ),
    "ingredients": (
        "HadamardMatrix", "OrthogonalArray", "brute_force_bibd", "check_t_design",
        "full_factorial_oa", "get_bibd", "hadamard_matrix", "orthogonal_array",
        "resolvable_classes",
    ),
    "isomorphism": (
        "CanonicalForm", "are_isomorphic", "are_weakly_isomorphic", "canonical_form",
    ),
    "files": (
        "parse_blocks", "parse_concise", "render", "serialize_blocks",
        "serialize_concise", "serialize_json",
    ),
    "tables": ("ParameterRow", "enumerate_reachable"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it in this module's globals.
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
