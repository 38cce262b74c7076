"""Finite racks and quandles: polynomial invariants and link colorings.

Importing the package loads no submodule.  Each public name, and each
submodule, is imported the first time it is looked up (PEP 562), so a
process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the one declaration of the public names: each submodule's __all__ is
# its entry, and __getattr__, __all__ and dir() read it without
# importing any submodule
_EXPORTS = {
    "core": (
        "AxiomViolation", "CONVENTIONS", "CongruenceError", "NotARackError",
        "Permutation", "PropertyReport", "RackError", "RackTable",
        "TableFormatError", "column_order_lcm", "diagonal_perm", "dual",
        "format_rack_table", "operator_equivalence_quotient",
        "parse_rack_table", "properties_report", "quotient_by",
        "rack_op_iter", "rack_rank", "validate_rack",
    ),
    "generators": ("alexander", "constant_action", "ts_rack"),
    "iso": (
        "ClassificationReport", "DistinctTypeCheck", "IsoResult",
        "PolyDifference", "RpFamilyScan", "SameTypeCheck", "isomorphic",
        "partitions", "permutation_of_type", "rp_family_scan",
        "verify_constant_action_classification",
    ),
    "links": (
        "Crossing", "DiagramError", "DiagramFormatError", "EnhancedInvariant",
        "LinkDiagram", "add_kinks", "components_and_writhe",
        "counting_polynomial_string", "enhanced_invariant",
        "enumerate_colorings", "image_subrack", "parse_diagram",
        "rack_counting",
    ),
    "poly": (
        "ExponentProfile", "TwoVarPoly", "closure", "enumerate_subracks",
        "exponent_profile", "format_monomial", "is_subrack",
        "rack_polynomial", "subrack_polynomial",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
