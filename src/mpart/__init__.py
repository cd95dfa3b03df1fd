"""Multi-part balanced incomplete block designs.

Construction, verification, canonicalization and cataloging of designs
that allocate, per block, one level subset for each of several factors,
with every factor pair-balanced and every cross-factor level pair
equally replicated.
"""

from .errors import (
    DEFAULT_BUDGET,
    UNKNOWN,
    BudgetExceededError,
    DesignError,
    InvalidInputError,
    ParseError,
)
from .model import (
    BlockDesign,
    BlockPartition,
    MultipartDesign,
    MultipartParams,
    as_multipart,
    complement_design,
    derive_parameters,
    incidence_matrix,
    permute_factors,
    relabel_levels,
    reorder_blocks,
    select_factors,
    unzip_design,
    zip_design,
)
from .verify import (
    AdmissibilityReport,
    VerificationReport,
    check_admissible,
    check_multipart,
    check_strength,
    concurrence_matrix,
    cross_matrix,
    design_strength,
    find_partition,
    verify_partition,
)
from .constructions import (
    arrange_by_classes,
    augment,
    cartesian_product,
    class_matched_product,
    hadamard_2part,
    meet_filter,
    multipart_product,
    oa_compose,
    orbit_design,
    part_swap,
    row_pair_partition,
    subcartesian_product,
    symmetric_block_split,
)
from .ingredients import (
    HadamardMatrix,
    OrthogonalArray,
    brute_force_bibd,
    check_t_design,
    full_factorial_oa,
    get_bibd,
    hadamard_matrix,
    orthogonal_array,
    resolvable_classes,
)
from .isomorphism import (
    CanonicalForm,
    are_isomorphic,
    are_weakly_isomorphic,
    canonical_form,
)
from .files import (
    parse_blocks,
    parse_concise,
    render,
    serialize_blocks,
    serialize_concise,
    serialize_json,
)
from .tables import ParameterRow, enumerate_reachable

__all__ = [name for name in dir() if not name.startswith("_")]
