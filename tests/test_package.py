"""The package's import contract: ``import mpart`` loads a submodule only
when one of its names is first read, and still offers the same 72 public
names, each the very object its submodule defines."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpart

# Today's public names, by the submodule that defines them.
PUBLIC = {
    "errors": ["DEFAULT_BUDGET", "UNKNOWN", "BudgetExceededError", "DesignError",
               "InvalidInputError", "ParseError"],
    "model": ["BlockDesign", "BlockPartition", "MultipartDesign", "MultipartParams",
              "as_multipart", "complement_design", "derive_parameters", "incidence_matrix",
              "permute_factors", "relabel_levels", "reorder_blocks", "select_factors",
              "unzip_design", "zip_design"],
    "verify": ["AdmissibilityReport", "VerificationReport", "check_admissible",
               "check_multipart", "check_strength", "concurrence_matrix", "cross_matrix",
               "design_strength", "find_partition", "verify_partition"],
    "constructions": ["arrange_by_classes", "augment", "cartesian_product",
                      "class_matched_product", "hadamard_2part", "meet_filter",
                      "multipart_product", "oa_compose", "orbit_design", "part_swap",
                      "row_pair_partition", "subcartesian_product", "symmetric_block_split"],
    "ingredients": ["HadamardMatrix", "OrthogonalArray", "brute_force_bibd", "check_t_design",
                    "full_factorial_oa", "get_bibd", "hadamard_matrix", "orthogonal_array",
                    "resolvable_classes"],
    "isomorphism": ["CanonicalForm", "are_isomorphic", "are_weakly_isomorphic",
                    "canonical_form"],
    "files": ["parse_blocks", "parse_concise", "render", "serialize_blocks",
              "serialize_concise", "serialize_json"],
    "tables": ["ParameterRow", "enumerate_reachable"],
}
ALL = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])


def _fresh(code: str):
    """What ``code`` prints as JSON, run in a new interpreter that imports
    mpart from the same place as this one."""
    env = dict(os.environ)
    src = str(Path(mpart.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'mpart')))"


def test_the_first_catalog_design_loads_only_the_modules_it_calls():
    assert _fresh(f"import json, sys, mpart; mpart.get_bibd(7, 3, 1); {LOADED}") == [
        "mpart", "mpart.errors", "mpart.ingredients", "mpart.model"]


def test_a_bare_import_loads_no_submodule():
    assert _fresh(f"import json, sys, mpart; {LOADED}") == ["mpart"]


def test_every_public_name_resolves_after_a_bare_import():
    names = _fresh("import json, mpart; "
                   "print(json.dumps([n for n in mpart.__all__ if hasattr(mpart, n)]))")
    assert names == ALL
    assert set(ALL) <= set(_fresh("import json, mpart; print(json.dumps(dir(mpart)))"))


def test_the_public_names_are_unchanged():
    assert len(ALL) == 72
    assert sorted(mpart.__all__) == ALL


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    owner = importlib.import_module(f"mpart.{module}")
    assert getattr(mpart, module) is owner
    for name in PUBLIC[module]:
        assert getattr(mpart, name) is getattr(owner, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mpart import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
    assert all(namespace[name] is getattr(mpart, name) for name in ALL)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mpart.no_such_name
    assert not hasattr(mpart, "_normalize_part")
