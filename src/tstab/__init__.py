"""Stability data, HN filtrations and t-structures on derived categories of curves."""

from .slopes import (ExtendedRational, K0Class, Nu, One, Ordering, PLUS_INFINITY,
                     PositiveSystem, RANK_DEGREE, SlopeValue, check_positive,
                     compare_slopes, gamma_slope, mu_bar, seesaw_check)
from .p1 import (DEFAULT_POINTS, DerivedObject, FormalSum, HomProfile, Indec, Line, Point,
                 ShiftedIndec, Torsion, ZERO, direct_sum, euler_form, hom_dim, hom_profile,
                 line, normalize, point_resolver, point_universe, torsion)
from .stability import (CheckItem, CoarseSlope, EllipticSlope, ExceptionalSlope,
                        HNFiltration, Report, StabilityFamily, StandardSlope, Window, glue,
                        is_semistable, merge_towers, shuffle_merge, split, validate_stability,
                        verify_hn)
from .families import (INF, CoarseZ, CoarsenedFamily, ExceptionalP1, FinerVerdict,
                       SlopePartition, StandardP1, by_shift_partition, coarsen,
                       column_partition, exceptional_rewrite,
                       family_from_descriptor, finest_check, is_finer)
from .tstructures import (CatalogEntry, Classification, CoarseCut, EllipticCut, ExceptionalCut,
                          HeartDescription, SlopeCut, StandardCut, TorsionPair,
                          apply_twist_shift, catalog, catalog_entries, classify_bounded_cut,
                          diagram, heart_contains, heart_slopes, is_bounded,
                          torsion_pair_cut, truncate, validate_cut)
from .elliptic import (ELLIPTIC_ZERO, EllipticObject, EllipticStandard, StableClass,
                       hom_dim_stable, stable)
from .cli import parse_object, run

__version__ = "0.1.0"
