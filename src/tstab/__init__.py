"""Stability data, HN filtrations and t-structures on derived categories of curves.

The package imports no module of its own until a name is read: each
export below is looked up in its module on first access (PEP 562), so a
`tstab` command compiles only the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {  # each module and the names the package exports from it
    "slopes": "ExtendedRational INF K0Class Ordering PLUS_INFINITY PositiveSystem RANK_DEGREE "
              "check_positive compare_slopes gamma_slope mu_bar seesaw_check",
    "p1": "DEFAULT_POINTS DerivedObject FormalSum HomProfile Indec Line Point ShiftedIndec "
          "Torsion ZERO euler_form hom_dim hom_profile line normalize "
          "point_resolver point_universe torsion",
    "stability": "CheckItem CoarseSlope EllipticSlope ExceptionalSlope HNFiltration Report "
                 "StabilityFamily StandardSlope Window merge_towers validate_stability "
                 "verify_hn",
    "families": "CoarseZ CoarsenedFamily ExceptionalP1 FinerVerdict SlopePartition StandardP1 "
                "by_shift_partition coarsen column_partition exceptional_rewrite "
                "family_from_descriptor finest_check is_finer",
    "tstructures": "CatalogEntry Classification CoarseCut EllipticCut ExceptionalCut "
                   "HeartDescription SlopeCut StandardCut TorsionPair apply_twist_shift catalog "
                   "catalog_entries classify_bounded_cut diagram heart_contains heart_slopes "
                   "is_bounded torsion_pair_cut truncate validate_cut",
    "elliptic": "ELLIPTIC_ZERO EllipticObject EllipticStandard StableClass hom_dim_stable stable",
    "syntax": "filtration_from_json parse_object",
    "cli": "run",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "errors", "value")
__all__ = [*_MODULE_OF, *_SUBMODULES]  # so `from tstab import *` loads them all


def __getattr__(name: str):
    from importlib import import_module
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
