"""Nerves, covers and Euler characteristics of finite categories.

The central objects: explicitly tabulated finite categories, covers by
subcategories, the level pieces of the cover's nerve in three variants,
the total category of the reduced nerve, exact rational weightings and
Euler characteristics, and rational homology of nerves for comparing a
category with the total category of one of its covers.
"""

from .fincat import (
    FinCategory,
    FunctorMap,
    Mor,
    ValidationReport,
    Violation,
    identity_functor,
    validate_category,
    validate_functor,
)
from .covers import (
    Classification,
    Cover,
    Subcategory,
    classify_subcategory,
    complement,
    empty_subcategory,
    filter_closure,
    full_subcategory,
    ideal_closure,
    intersect,
    is_cover,
    membership_counts,
    opposite_subcategory,
    to_two_point_poset,
    two_point_poset,
    union_closure,
    whole_subcategory,
)
from .cech import (
    IndexTuple,
    NerveLevelPiece,
    check_simplicial_identities,
    delta_face,
    delta_degeneracy,
    face_functor,
    degeneracy_functor,
    induced_functor,
    level,
    level_piece,
)
from .grothendieck import (
    GrMorphism,
    GrObject,
    OrderedGrObjectDescriptor,
    ReducedGrothendieck,
    adjunction_check_R,
    adjunction_check_pi,
    ordered_gr_hom,
    reduce_object,
    reorder_iso,
)
from .euler import (
    EulerResult,
    euler_characteristic,
    format_rational,
    inclusion_exclusion_sum,
    inclusion_exclusion_terms,
    mobius_oracle,
    solve_weighting,
    two_set_formula,
    zeta_matrix,
)
from .homotopy import (
    HomologyComparison,
    HomologyReport,
    SimplexChain,
    betti_numbers,
    compare_homology,
    euler_consistency,
    nerve_chains,
)
from .io import (
    InvalidStructureError,
    ParseError,
    emit_category,
    emit_cover,
    parse_category,
    parse_cover,
)

__version__ = "0.1.0"
