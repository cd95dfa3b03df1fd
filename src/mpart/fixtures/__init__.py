"""Shipped reference designs.

``*.design`` files hold multi-part designs in the concise format;
``*.blocks`` files hold plain block designs (one line per block,
1-based points, ``#`` comments).  The two large Steiner systems are
validated with :func:`mpart.ingredients.check_t_design` on first load,
by every caller (the CLI's ``fixture:`` names included), and cached; a
corrupted file raises instead of propagating bad data.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files as _resource_files

from ..errors import InvalidInputError
from ..files import parse_blocks, parse_concise
from ..ingredients import check_t_design
from ..model import BlockDesign, MultipartDesign

DESIGN_FIXTURES = ("fig1", "fig3", "fig4a", "fig4b", "fig5a", "fig5b",
                   "fig8a", "fig8b", "fig9")

BLOCK_FIXTURES = ("design_3_22_6_1", "design_4_23_7_1", "design_2_16_4_1",
                  "gdd_18_9", "gdd_24_12", "gdd_24_9")

# The 23-point system extends the 22-point one at this (0-based) point:
# removing it from the blocks through it reproduces design_3_22_6_1.
EXTENSION_POINT_23 = 22

# Steiner systems S(t, k, v) that loading checks: fixture -> (t, v, b).
_STEINER = {"design_3_22_6_1": (3, 22, 77), "design_4_23_7_1": (4, 23, 253)}


def fixture_text(filename: str) -> str:
    return (_resource_files(__package__) / filename).read_text()


@lru_cache(maxsize=None)
def load_design(name: str) -> MultipartDesign:
    """A shipped multi-part design by fixture name (e.g. ``fig1``)."""
    if name not in DESIGN_FIXTURES:
        raise InvalidInputError(f"unknown design fixture {name!r}; have {DESIGN_FIXTURES}")
    return parse_concise(fixture_text(name + ".design"))


@lru_cache(maxsize=None)
def load_block_design(name: str) -> BlockDesign:
    """A shipped plain block design by fixture name."""
    if name not in BLOCK_FIXTURES:
        raise InvalidInputError(f"unknown block fixture {name!r}; have {BLOCK_FIXTURES}")
    design = parse_blocks(fixture_text(name + ".blocks"))
    if name in _STEINER:
        t, v, b = _STEINER[name]
        if design.v != v or design.b != b or check_t_design(design, t) != 1:
            raise InvalidInputError(f"{name} fixture failed validation")
    return design


def steiner_3_22_6() -> BlockDesign:
    """The 77-block system on 22 points where every 3-set lies in one block."""
    return load_block_design("design_3_22_6_1")


def steiner_4_23_7() -> BlockDesign:
    """The 253-block system on 23 points where every 4-set lies in one block."""
    return load_block_design("design_4_23_7_1")
