"""Nerves, covers and Euler characteristics of finite categories.

The central objects: explicitly tabulated finite categories, covers by
subcategories, the level pieces of the cover's nerve in three variants,
the total category of the reduced nerve, exact rational weightings and
Euler characteristics, and rational homology of nerves for comparing a
category with the total category of one of its covers.

Importing the package loads none of its modules: each exported name is
resolved from its module on first access (PEP 562), so a CLI command
pays only for the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "fincat": (
        "FinCategory", "FunctorMap", "Mor", "ValidationReport", "Violation",
        "identity_functor", "validate_category", "validate_functor",
    ),
    "covers": (
        "Cover", "Subcategory", "classify_subcategory", "filter_closure", "full_subcategory",
        "ideal_closure", "intersect", "is_cover", "opposite_subcategory", "union_closure",
    ),
    "cech": (
        "check_simplicial_identities", "delta_face", "delta_degeneracy", "induced_functor",
        "level",
    ),
    "grothendieck": (
        "GrMorphism", "GrObject", "ReducedGrothendieck",
        "adjunction_check_R", "adjunction_check_pi", "ordered_gr_hom", "reduce_object",
        "reorder_iso",
    ),
    "euler": (
        "EulerResult", "euler_characteristic", "format_rational", "inclusion_exclusion_sum",
        "inclusion_exclusion_terms", "mobius_oracle", "solve_weighting", "zeta_matrix",
    ),
    "homotopy": (
        "HomologyComparison", "HomologyReport", "betti_numbers",
        "compare_homology", "euler_consistency", "nerve_chains",
    ),
    "io": (
        "InvalidStructureError", "ParseError", "emit_category", "emit_cover",
        "parse_category", "parse_cover",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is not None:
        value = getattr(import_module(f".{mod}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
