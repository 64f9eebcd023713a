"""Differential tests: the fast engine, parser and checks against reference versions.

The references below are the straightforward implementations the library
used to run: a merge that rebuilds every filtration term as a fresh
direct sum of all sources, the Hom rule for stable classes decided by
comparing Fraction slopes, K0 summed one K0Class per summand, the
character-by-character object parser, the Hom-vanishing check of
`verify_hn` that builds one HomProfile per quotient pair, and the two
per-curve Hom loops that the one `hom_profile` replaced, the
hand-written slope comparators that each family's `slope_key` replaced,
the three label resolvers that `point_resolver` replaced, and the
per-summand data that `StabilityFamily.summand_tower` replaced: the
towers whose every object went through `from_pairs` or `line()`, the
exceptional rewrite with its stored mid-term, the `truncate` that read
it, `heart_contains` read off a whole `hn`, and the coarsened
`semistable_slope` read off the base family's `hn`, the elliptic tilt
split and heart test that `EllipticCut` replaced, the frozen
dataclasses that the hand-written value types replaced, and the standard
slopes whose levels were wrapped in `IntLevel`/`PointLevel`, and the
pairwise window checks that sorted sweeps replaced: the generator-pair
Hom check of `validate_stability`, the slope-pair up-closure check of
`validate_cut` and the `finest_check` loop that read Hom^0 off a whole
HomProfile, the cut dispatchers that branched on the cut's class where
each cut kind now owns its rules, the two per-curve atom classes that the one `ShiftedIndec`
replaced, the CLI readers with one `if` per config key or spec kind
that the settings, cut and family tables replaced, and the summand loop
of `semistable_slope` that one set of slopes replaced, and that set, which
a comparison of each summand's slope with the first replaced, and the
pairwise Hom sweep that per-shift summaries replaced, and the
Fraction-backed `ExtendedRational` and the `MuKey` sort key that the one
exact slope `ExtendedRational(d, r)` replaced, and the `verify_hn` that
compared slopes with `family.compare` and summed K0 as `K0Class` values,
where it now compares slope keys and (rank, degree) ints, and the `to_json`,
`filtration_from_json` and K0 sums that read every term in full, where a term
that ends with the next term is now read from its head, and the field `==` of atoms,
where equal atoms are now one object, and the `One` and `Nu` components of
`gamma_slope`, ordered through Fraction keys, that tuples of `ExtendedRational`
replaced.  They are kept here only, as
oracles, and every result must agree bit for bit.  The HN filtration is
also compared with the order that a heart and its slope function give
(Bridgeland, Prop. 5.3): by shift, then by the exact slope gamma.  The
JSON round trip of filtrations is tested here too, over the same families
and objects.
"""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
import re
import zlib
from collections import Counter, namedtuple
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tstab import cli, elliptic, p1, slopes, stability, syntax
from tstab.elliptic import (EllipticObject, EllipticStandard, StableClass, hom_dim_stable,
                            normalize_elliptic, stable)
from tstab.errors import (ArityMismatchError, FiltrationFormatError, InvalidCutError,
                          InvalidLengthError, NonCoprimeError, NotPositiveError,
                          NotSlopeDescribableError, ObjectParseError, TStabError, UnboundedError,
                          UnsupportedFamilyError, ZeroClassError)
from tstab.families import (INF, CoarsenedFamily, CoarseZ, ExceptionalP1, SlopePartition,
                            StandardP1, by_shift_partition, coarsen, column_partition,
                            exceptional_rewrite, family_from_descriptor, finest_check)
from tstab.p1 import (DerivedObject, HomProfile, Line, Point, ShiftedIndec, Torsion, ext_dim,
                      hom_profile, ZERO, line, normalize, point_resolver, point_universe,
                      torsion)
from tstab.slopes import (RANK_DEGREE, ExtendedRational, K0Class, Ordering, PLUS_INFINITY,
                          PositiveSystem, compare_slopes, gamma_slope, mu_bar, seesaw_check)
from tstab.stability import (CheckItem, CoarseSlope, EllipticSlope, ExceptionalSlope,
                             HNFiltration, Report, StandardSlope, Window, _first_hom_violation,
                             merge_towers, validate_stability, verify_hn)
from tstab.tstructures import (CatalogEntry, Classification, CoarseCut, EllipticCut,
                               ExceptionalCut, HeartDescription, StandardCut, _fmt_bound,
                               _point_set_reason, _render_line_gen, apply_twist_shift, catalog,
                               classify_bounded_cut, diagram, heart_contains, is_bounded,
                               truncate, validate_cut)
from tstab.value import Value, set_field

from test_acceptance import _mutations
from test_cli import mutated_documents
from test_stability import _ShiftsDescend, _TorsionBelowLines, merge_two


# --- oracles ------------------------------------------------------------------------

def oracle_merge_towers(family, sources):
    """Merge filtration towers by ascending slope, coalescing equal slopes.

    Each source is (quotients, terms) with strictly ascending slopes and
    len(terms) == len(quotients) + 1.  The merged term after each step
    is the direct sum of every source's current term, which realises
    the filtration of the direct sum of the source objects.
    """
    pointers = [0] * len(sources)

    def current_term():
        total = family.zero
        for (_, terms), p in zip(sources, pointers):
            total = total + terms[p]
        return total

    quotients: list[tuple[object, object]] = []
    merged_terms = [current_term()]
    while True:
        active = [(idx, sources[idx][0][pointers[idx]][0])
                  for idx in range(len(sources))
                  if pointers[idx] < len(sources[idx][0])]
        if not active:
            break
        best = active[0][1]
        for _, slope in active[1:]:
            if family.compare(slope, best) == Ordering.LESS:
                best = slope
        obj = family.zero
        for idx, slope in active:
            if family.compare(slope, best) == Ordering.EQUAL:
                obj = obj + sources[idx][0][pointers[idx]][1]
                pointers[idx] += 1
        quotients.append((best, obj))
        merged_terms.append(current_term())
    return HNFiltration(family, tuple(quotients), tuple(merged_terms))


def summand_towers(family, x):
    """The per-summand (quotients, terms) sources that `hn` merges."""
    return [family.summand_tower(term, mult) for term, mult in x.summands()]


def oracle_hn(family, x):
    if x.is_zero:
        return HNFiltration(family, (), (family.zero,))
    return oracle_merge_towers(family, summand_towers(family, x))


class OracleExtendedRational(Value):
    """`slopes.ExtendedRational` as it was: a Fraction, None for +infinity,
    ordered through the key (0, q), or (1, 0) for +infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        set_field(self, "value", value)

    @staticmethod
    def finite(q):
        return OracleExtendedRational(Fraction(q))

    @property
    def is_infinite(self):
        return self.value is None

    def key(self):
        return (1, Fraction(0)) if self.value is None else (0, self.value)

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()

    def __repr__(self):
        return "+inf" if self.value is None else str(self.value)


ORACLE_PLUS_INFINITY = OracleExtendedRational()


def oracle_extended(q):
    """The slope d/r of an ExtendedRational or a StableClass, as the Fraction-backed
    oracle; `StableClass.mu` as it was."""
    return ORACLE_PLUS_INFINITY if q.r == 0 else OracleExtendedRational.finite(Fraction(q.d, q.r))


class OracleMuKey(Value):
    """`elliptic.MuKey` as it was: the slope d/r of a class of rank r >= 1 as a
    sort key element, compared by cross-multiplication with MuKeys only."""

    __slots__ = ("d", "r")

    def __init__(self, d, r):
        set_field(self, "d", d)
        set_field(self, "r", r)

    def __eq__(self, other):
        if other.__class__ is OracleMuKey:
            return self.d * other.r == other.d * self.r
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is OracleMuKey:
            return self.d * other.r < other.d * self.r
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is OracleMuKey:
            return self.d * other.r <= other.d * self.r
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.r))


def oracle_mu_key_stable_key(cls):
    """`StableClass.key` as it was with MuKey: (0, MuKey(d, r)) for positive
    rank, (1, 0) for a skyscraper, then the point's key."""
    mu_key = (1, 0) if cls.r == 0 else (0, OracleMuKey(cls.d, cls.r))
    return (*mu_key, *cls.x.key())


def fraction_hom_dim_stable(e, f, ext_degree):
    """dim Ext^i(e, f) with the slope order decided on Fraction slopes."""
    if ext_degree not in (0, 1):
        return 0
    if e == f:
        return 1
    chi = e.r * f.d - e.d * f.r
    mu_e, mu_f = oracle_extended(e), oracle_extended(f)
    if mu_e < mu_f:
        return chi if ext_degree == 0 else 0
    if mu_f < mu_e:
        return 0 if ext_degree == 0 else -chi
    return 0


def equal_first_hom_dim_stable(e, f, ext_degree):
    """dim Ext^i(e, f) by the rule as it was before equal slopes were decided
    from the points: class equality first, then the sign of chi."""
    if ext_degree not in (0, 1):
        return 0
    if e == f:
        return 1
    chi = e.r * f.d - e.d * f.r
    if chi > 0:
        return chi if ext_degree == 0 else 0
    if chi < 0:
        return 0 if ext_degree == 0 else -chi
    return 0


def per_summand_k0(x):
    total = K0Class((0, 0))
    for t, m in x.summands():
        total = total + m * t.k0()
    return total


def oracle_p1_hom_loop(x, y):
    """Graded Hom between objects on the line, from the sheaf rule table."""
    acc: dict[int, int] = {}
    for t, m in x.summands():
        for s, k in y.summands():
            gap = t.shift - s.shift
            for q in (gap, gap + 1):
                n = ext_dim(t.base, s.base, q + s.shift - t.shift)
                if n:
                    acc[q] = acc.get(q, 0) + m * k * n
    return HomProfile.from_dict(acc)


def oracle_elliptic_hom_loop(x, y):
    """Graded Hom between elliptic objects, from the stable-class rule table."""
    acc: dict[int, int] = {}
    for t, m in x.summands():
        for s, k in y.summands():
            gap = t.shift - s.shift
            for q in (gap, gap + 1):
                n = hom_dim_stable(t.base, s.base, q + s.shift - t.shift)
                if n:
                    acc[q] = acc.get(q, 0) + m * k * n
    return HomProfile.from_dict(acc)


class OracleShiftedIndec:
    """The line's atom as it was: key, K0 and text branch on the sheaf type."""

    def __init__(self, base, shift):
        self.base, self.shift = base, shift

    def key(self):
        if isinstance(self.base, Line):
            return (self.shift, 0, (self.base.n,))
        return (self.shift, 1, (*self.base.x.key(), self.base.d))

    def rank_degree(self):
        sign = -1 if self.shift % 2 else 1
        if isinstance(self.base, Line):
            return sign, sign * self.base.n
        return 0, sign * self.base.d

    def k0(self):
        return K0Class(self.rank_degree())

    def ext_dim(self, other, i):
        return ext_dim(self.base, other.base, i)

    def render(self):
        if isinstance(self.base, Line):
            s = f"O({self.base.n})"
        else:
            s = f"T({self.base.x.label},{self.base.d})"
        if self.shift != 0:
            s += f"[{self.shift}]"
        return s


class OracleShiftedClass:
    """The elliptic atom `ShiftedClass` as it was: a stable class at a shift."""

    def __init__(self, cls, shift):
        self.cls, self.shift = cls, shift

    def key(self):
        return (self.shift, *self.cls.key())

    def rank_degree(self):
        sign = -1 if self.shift % 2 else 1
        return sign * self.cls.r, sign * self.cls.d

    def k0(self):
        return K0Class(self.rank_degree())

    def ext_dim(self, other, i):
        return hom_dim_stable(self.cls, other.cls, i)

    def render(self):
        s = self.cls.render()
        if self.shift != 0:
            s += f"[{self.shift}]"
        return s


def oracle_compare_coarse(a, b):
    if not isinstance(a, CoarseSlope) or not isinstance(b, CoarseSlope):
        raise TypeError("cross-family slope comparison")
    return Ordering.of(a.i, b.i)


def oracle_compare_standard(a, b):
    if not isinstance(a, StandardSlope) or not isinstance(b, StandardSlope):
        raise TypeError("cross-family slope comparison")
    return Ordering.of(a.key(), b.key())


def oracle_compare_exceptional(a, b, p):
    """Total order on the two-column slope set for interleaving parameter p."""
    if not isinstance(a, ExceptionalSlope) or not isinstance(b, ExceptionalSlope):
        raise TypeError("cross-family slope comparison")
    if a.col == b.col:
        return Ordering.of(a.i, b.i)
    if a.col == 0:
        if p == INF or a.i <= b.i + p + 1:
            return Ordering.LESS
        return Ordering.GREATER
    return Ordering(-oracle_compare_exceptional(b, a, p).value)


def oracle_compare_elliptic(a, b):
    if not isinstance(a, EllipticSlope) or not isinstance(b, EllipticSlope):
        raise TypeError("cross-family slope comparison")
    return Ordering.of((a.i, *oracle_stable_key(a.cls)), (b.i, *oracle_stable_key(b.cls)))


def oracle_compare_blocks(a, b):
    """The block order of both registered partitions: block ids are ints."""
    return Ordering.of(a, b)


def oracle_hom_vanishing(filt, family):
    """Check (c) of `verify_hn`: one HomProfile per pair of quotients."""
    ok, detail = True, ""
    for j in range(len(filt.quotients)):
        for i in range(j):
            profile = family.hom_profile(filt.quotients[j][1], filt.quotients[i][1])
            if not profile.vanishes_at_and_below(0):
                ok = False
                detail = (f"Hom^(<=0)(Q_{j}, Q_{i}) != 0: profile {profile!r}")
                break
        if not ok:
            break
    return CheckItem("hom_vanishing", ok, detail)


def oracle_verify_hn(x, filt, family):
    """`verify_hn` as it ran before its checks went to ints and slope keys:
    `family.compare` once per adjacent pair of slopes, and K0 additivity
    on one `K0Class` per term and quotient, summed with `K0Class.__add__`."""
    checks = []

    ok, detail = True, ""
    for j in range(len(filt.quotients) - 1):
        if family.compare(filt.quotients[j][0], filt.quotients[j + 1][0]) != Ordering.LESS:
            ok, detail = False, (f"slope {family.render_slope(filt.quotients[j][0])} !< "
                                 f"{family.render_slope(filt.quotients[j + 1][0])} at position {j}")
            break
    checks.append(CheckItem("ascending_slopes", ok, detail))

    ok, detail = True, ""
    for idx, (slope, obj) in enumerate(filt.quotients):
        actual = family.semistable_slope(obj)
        if actual is None or actual != slope:
            ok = False
            detail = (f"quotient {idx} ({obj.render()}) is not semistable of slope "
                      f"{family.render_slope(slope)}")
            break
    checks.append(CheckItem("semistable_quotients", ok, detail))

    checks.append(oracle_hom_vanishing(filt, family))

    ok, detail = True, ""
    term_k0 = [family.k0(t) for t in filt.terms]
    for i, (slope, obj) in enumerate(filt.quotients):
        lhs = term_k0[i]
        rhs = term_k0[i + 1] + family.k0(obj)
        if lhs != rhs:
            ok, detail = False, f"k0(terms[{i}]) = {lhs} != {rhs}"
            break
    checks.append(CheckItem("k0_additivity", ok, detail))

    ok, detail = True, ""
    if filt.terms[0] != x:
        ok, detail = False, f"terms[0] = {filt.terms[0].render()} != {x.render()}"
    elif not filt.terms[-1].is_zero:
        ok, detail = False, f"terms[-1] = {filt.terms[-1].render()} != 0"
    checks.append(CheckItem("endpoints", ok, detail))

    return Report(tuple(checks))


def oracle_to_json(filt):
    """`HNFiltration.to_json` as it ran before a term that ends with the next term
    was rendered from its head: the object and every term rendered in full."""
    fam = filt.family
    return {"object": filt.object.render(), "family": fam.descriptor(),
            "quotients": [{"slope": fam.slope_json(s), "object": o.render()}
                          for s, o in filt.quotients],
            "terms": [t.render() for t in filt.terms]}


def oracle_filtration_from_json(data):
    """`filtration_from_json` as it ran before a term's text could be read as a
    tail of the term before: every term parsed on its own."""
    try:
        family = family_from_descriptor(data["family"])
        category = syntax._category(family)
        resolver = point_resolver(family.point_labels)
        memo = syntax._memo(resolver)

        def parse(text):
            return _parse_through(text, category, resolver, memo)

        obj = parse(data["object"])
        quotients = tuple((family.slope_from_json(q["slope"]), parse(q["object"]))
                          for q in data["quotients"])
        terms = tuple(parse(t) for t in data["terms"])
    except KeyError as exc:
        raise FiltrationFormatError(f"filtration JSON lacks the field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise FiltrationFormatError(f"malformed filtration JSON: {exc}") from None
    return obj, HNFiltration(family, quotients, terms)


def oracle_hom_vanishes_at_and_below_zero(x, y) -> bool:
    """Whether Hom^q(x, y) = 0 for all q <= 0, one pair of summands at a time,
    straight from the rule tables `p1.ext_dim` and `elliptic.hom_dim_stable`.

    Hom^q(t, s) is Ext^i(t, s) at q = shift(t) - shift(s) + i, for i = 0, 1.
    Multiplicities and dimensions are nonnegative, so the sum vanishes
    exactly when every pair of summands does.
    """
    def ext(t, s, i):
        rule = hom_dim_stable if isinstance(t.base, StableClass) else ext_dim
        return rule(t.base, s.base, i)

    return not any(ext(t, s, i) for t, _ in x.summands() for s, _ in y.summands()
                   for i in (0, 1) if t.shift - s.shift + i <= 0)


def oracle_window_hom_vanishing(family, window):
    """`validate_stability`'s Hom check one generator pair at a time: the
    item and the pair count it hands to `CheckItem.over`."""
    gens = family.window_generators(window)
    keys = [family.slope_key(family.semistable_slope(g)) for g in gens]
    ok, detail, pairs = True, "", 0
    for g1, k1 in zip(gens, keys):
        for g2, k2 in zip(gens, keys):
            if k1 > k2:
                pairs += 1
                if not oracle_hom_vanishes_at_and_below_zero(g1, g2):
                    profile = family.hom_profile(g1, g2)
                    ok = False
                    detail = (f"Hom^(<=0)({g1.render()}, {g2.render()}) != 0 "
                              f"against the order: profile {profile!r}")
                    break
        if not ok:
            break
    return CheckItem.over("hom_vanishing", pairs, ok, detail), pairs


def oracle_window_up_closure(cut, family, radius=4):
    """`validate_cut`'s up-closure check over every pair of window slopes."""
    slopes = oracle_window_slopes(cut, family, radius)
    keyed = [(s, family.slope_key(s), cut.in_plus(s)) for s in slopes]
    ok, detail = True, ""
    for s1, key1, up1 in keyed:
        if not up1:
            continue
        for s2, key2, up2 in keyed:
            if key2 > key1 and not up2:
                ok = False
                detail = (f"up-closure fails: {family.render_slope(s1)} is in the up-set "
                          f"but {family.render_slope(s2)} above it is not")
                break
        if not ok:
            break
    return CheckItem("window_up_closure", ok, detail)


# The cut dispatchers that the cut kinds' own methods replaced: one module
# function per rule, each branching on the cut's class.

def oracle_p1_only(cut, what):
    if isinstance(cut, EllipticCut):
        raise UnsupportedFamilyError(f"{what} covers the P1 cuts only, not an elliptic cut")


def oracle_check_cut_family(cut, family):
    if isinstance(cut, StandardCut) and not isinstance(family, StandardP1):
        return "a standard cut needs the standard family"
    if isinstance(cut, ExceptionalCut) and not isinstance(family, ExceptionalP1):
        return "an exceptional cut needs an exceptional family"
    if isinstance(cut, CoarseCut) and not isinstance(family, CoarseZ):
        return "a coarse cut needs the coarse family"
    if isinstance(cut, EllipticCut) and not isinstance(family, EllipticStandard):
        return "an elliptic cut needs the elliptic family"
    return None


def oracle_cut_validity_reason(cut, family):
    mismatch = oracle_check_cut_family(cut, family)
    if mismatch:
        return mismatch
    if isinstance(cut, CoarseCut):
        return None
    if isinstance(cut, StandardCut):
        return None if cut.P is None else _point_set_reason(cut.P, family.point_labels, up=True)
    if isinstance(cut, EllipticCut):
        q = oracle_extended(cut.q)
        if not q.is_infinite and not 0 <= q.value < 1:
            return f"tilting slope must lie in [0, 1) or be inf, got {q!r}"
        return _point_set_reason(cut.P, family.point_labels, up=False)
    a, b, p = cut.a, cut.b, family.p
    if a == -INF:
        return None if b == -INF else "a = -inf forces b = -inf"
    if p == INF:
        if a == INF or b == -INF:
            return None
        return "at p = inf a non-maximal column-0 threshold forces b = -inf"
    if a == INF:
        return None if b == INF else "at finite p, a = inf forces b = inf"
    if b in (a - p - 2, a - p - 1):
        return None
    return f"at p = {p}, b must be {_fmt_bound(a - p - 2)} or {_fmt_bound(a - p - 1)}, got {_fmt_bound(b)}"


def oracle_require_valid_cut(cut, family):
    reason = oracle_cut_validity_reason(cut, family)
    if reason is not None:
        raise InvalidCutError(reason)


def oracle_window_slopes(cut, family, radius):
    if isinstance(cut, StandardCut):
        center = cut.m
        degrees = range(-radius, radius + 1) if cut.K in (INF, -INF) else \
            range(int(cut.K) - radius, int(cut.K) + radius + 1)
        levels = (*degrees, *point_universe(family.point_labels))
        return [StandardSlope(i, level)
                for i in range(center - radius, center + radius + 2) for level in levels]
    if isinstance(cut, ExceptionalCut):
        finite = [v for v in (cut.a, cut.b) if v not in (INF, -INF)]
        center = int(finite[0]) if finite else 0
        return [ExceptionalSlope(i, c)
                for i in range(center - radius - 3, center + radius + 4) for c in (0, 1)]
    if isinstance(cut, EllipticCut):
        points, q = point_universe(family.point_labels), oracle_extended(cut.q).value
        classes = family.window_classes(Window(max_degree=radius, points=points), max_rank=2)
        if q is not None:
            classes += [StableClass(q.denominator, q.numerator, pt) for pt in points]
        return [EllipticSlope(i, cls) for i in range(cut.m - 1, cut.m + 2)
                for cls in dict.fromkeys(classes)]
    return [CoarseSlope(i) for i in range(cut.m - radius, cut.m + radius + 2)]


def oracle_validate_cut(cut, family, radius=4):
    """`validate_cut` from the dispatchers, with the pairwise up-closure check."""
    reason = oracle_cut_validity_reason(cut, family)
    checks = [CheckItem("cut_constraints", reason is None, reason or "")]
    if oracle_check_cut_family(cut, family) is None:
        checks.append(oracle_window_up_closure(cut, family, radius))
    return Report(tuple(checks))


def oracle_heart_generators(cut, family):
    oracle_p1_only(cut, "heart generators")
    if isinstance(cut, CoarseCut):
        return [f"Coh[{cut.m}]"]
    if isinstance(cut, ExceptionalCut):
        gens = []
        if cut.a not in (INF, -INF):
            gens.append(_render_line_gen(family.k, int(cut.a)))
        if cut.b not in (INF, -INF):
            gens.append(_render_line_gen(family.k + 1, int(cut.b)))
        return gens
    m, K, P = cut.m, cut.K, oracle_canonical_cut(cut, family).P  # a covering P is P = all
    if K == -INF:
        return [f"O(n)[{m}] (n in Z)", f"O_x[{m}] (x in P1)"]
    if K == INF:
        if P is None:
            return [f"O_x[{m}] (x in P1)", f"O(n)[{m + 1}] (n in Z)"]
        inside = ",".join(lbl for lbl in family.point_labels if lbl in P)
        return [f"O_x[{m}] (x in {{{inside}}})",
                f"O(n)[{m + 1}] (n in Z)",
                f"O_x[{m + 1}] (x not in {{{inside}}})"]
    return [f"O(n)[{m}] (n >= {int(K)})", f"O_x[{m}] (x in P1)",
            f"O(n)[{m + 1}] (n < {int(K)})"]


def oracle_generator_objects(cut, family):
    oracle_p1_only(cut, "heart generators")
    if isinstance(cut, ExceptionalCut):
        gens = []
        if cut.a not in (INF, -INF):
            gens.append(line(family.k, int(cut.a)))
        if cut.b not in (INF, -INF):
            gens.append(line(family.k + 1, int(cut.b)))
        return gens
    raise NotSlopeDescribableError("only exceptional hearts have finitely many generators")


def oracle_is_bounded(cut, family):
    oracle_require_valid_cut(cut, family)
    if isinstance(cut, ExceptionalCut):
        return cut.a not in (INF, -INF) and cut.b not in (INF, -INF)
    return True


def oracle_apply_twist_shift(cut, twist, shift):
    oracle_p1_only(cut, "apply_twist_shift")
    if isinstance(cut, StandardCut):
        K = cut.K if cut.K in (INF, -INF) else cut.K + twist
        return StandardCut(cut.m + shift, K, cut.P)
    if isinstance(cut, ExceptionalCut):
        def move(v):
            return v if v in (INF, -INF) else v + shift
        return ExceptionalCut(move(cut.a), move(cut.b))
    return CoarseCut(cut.m + shift)


def oracle_canonical_cut(cut, family):
    if isinstance(cut, StandardCut) and cut.P is not None and family.point_labels \
            and set(cut.P) >= set(family.point_labels):
        return StandardCut(cut.m, cut.K, None)
    return cut


def oracle_classify_bounded_cut(cut, family):
    oracle_p1_only(cut, "classify_bounded_cut")
    oracle_require_valid_cut(cut, family)
    if not oracle_is_bounded(cut, family):
        raise UnboundedError("only bounded cuts are classified")
    if isinstance(cut, CoarseCut):
        return Classification("A", (), 0, cut.m)
    if isinstance(cut, StandardCut):
        cut = oracle_canonical_cut(cut, family)
        if cut.K == -INF:
            return Classification("A", (), 0, cut.m)
        if cut.K == INF:
            if cut.P is None:
                return Classification("C", (), 0, cut.m)
            return Classification("D", (("P", cut.P),), 0, cut.m)
        return Classification("B", (), int(cut.K), cut.m)
    a, b, p = int(cut.a), int(cut.b), family.p
    if b == a - p - 2:
        return Classification("E", (("p", p),), family.k, b + 2)
    return Classification("F", (("p", p),), family.k, b + 1)


def oracle_slope_token(family, s):
    if isinstance(s, StandardSlope):
        if isinstance(s.level, Point):
            return f"O_{s.level.label}[{s.i}]"
        return _render_line_gen(s.level, s.i)
    if isinstance(s, ExceptionalSlope):
        n = family.k + s.col
        return _render_line_gen(n, s.i)
    return f"Coh[{s.i}]"


def oracle_diagram(cut, family, radius=2):
    oracle_p1_only(cut, "diagram")
    oracle_require_valid_cut(cut, family)
    slopes = sorted(oracle_window_slopes(cut, family, radius), key=family.slope_key)
    heart = HeartDescription(family, cut)
    line1 = ["..."]
    line2 = ["   "]
    boundary_done = False
    for s in slopes:
        if not boundary_done and cut.in_plus(s):
            line1.append("][")
            line2.append("  ")
            boundary_done = True
        token = oracle_slope_token(family, s)
        line1.append(token)
        line2.append(("^" if heart.contains_slope(s) else " ") + " " * (len(token) - 1))
    if not boundary_done:
        line1.append("][")
        line2.append("  ")
    line1.append("...")
    return "  ".join(line1).rstrip() + "\n" + "  ".join(line2).rstrip()


def oracle_finest_check(family, window):
    """`finest_check` reading Hom^0 off a whole HomProfile per pair: the
    report and the pair count."""
    groups: dict = {}
    for g in family.window_generators(window):
        s = family.semistable_slope(g)
        if s is not None:
            groups.setdefault(s, []).append(g)
    ok, detail = True, ""
    pairs_checked = 0
    for s, gens in groups.items():
        samples = list(gens) + [2 * gens[0]]
        for a in samples:
            for b in samples:
                pairs_checked += 1
                if family.hom_profile(a, b)[0] == 0:
                    ok = False
                    detail = (f"Hom^0({a.render()}, {b.render()}) = 0 within slope "
                              f"{family.render_slope(s)}")
                    break
            if not ok:
                break
        if not ok:
            break
    item = CheckItem.over("mutual_hom_nonzero", pairs_checked, ok,
                          detail if not ok else f"{pairs_checked} pairs checked")
    return Report((item,)), pairs_checked


def oracle_exceptional_rewrite(term, k, mult=1):
    """(quotients, mid) of one atom over the pair (O(k), O(k+1)).

    Generators stay put; any other line bundle and any torsion sheaf
    splits into a column-0 and a column-1 quotient via its two-term
    resolution, with the mid-term recording the intermediate object.
    """
    i = term.shift
    base = term.base
    if isinstance(base, Line):
        n = base.n
        if n == k:
            return ((ExceptionalSlope(i, 0), line(k, i, mult)),), ZERO
        if n == k + 1:
            return ((ExceptionalSlope(i, 1), line(k + 1, i, mult)),), ZERO
        if n > k + 1:
            low = (ExceptionalSlope(i + 1, 0), line(k, i + 1, mult * (n - k - 1)))
            high = (ExceptionalSlope(i, 1), line(k + 1, i, mult * (n - k)))
            return (low, high), high[1]
        low = (ExceptionalSlope(i, 0), line(k, i, mult * (k - n + 1)))
        high = (ExceptionalSlope(i - 1, 1), line(k + 1, i - 1, mult * (k - n)))
        return (low, high), high[1]
    d = base.d
    low = (ExceptionalSlope(i + 1, 0), line(k, i + 1, mult * d))
    high = (ExceptionalSlope(i, 1), line(k + 1, i, mult * d))
    return (low, high), high[1]


def oracle_single_term_object(family, term, mult):
    """The one-summand object, read through `from_pairs`."""
    return type(family.zero).from_pairs([(term, mult)])


def oracle_term_filtration(family, term, mult):
    """HN quotients of one summand, each object built through `line()` or `from_pairs`."""
    if isinstance(family, ExceptionalP1):
        return oracle_exceptional_rewrite(term, family.k, mult)[0]
    if isinstance(family, CoarsenedFamily):
        base = oracle_term_filtration(family.base, term, mult)
        low, high = (family.partition.block_of(s) for s in (base[0][0], base[-1][0]))
        if family.slope_key(low) == family.slope_key(high):
            return ((low, oracle_single_term_object(family, term, mult)),)
        return ((low, base[0][1]), (high, base[-1][1]))
    return ((family.slope_of_term(term), oracle_single_term_object(family, term, mult)),)


def oracle_summand_tower(family, term, mult):
    """(quotients, terms) of one summand, the whole built apart from its quotients."""
    quotients = oracle_term_filtration(family, term, mult)
    top = tuple(obj for _, obj in quotients[1:])
    return quotients, (oracle_single_term_object(family, term, mult), *top, family.zero)


def oracle_term_rewrite(family, term, mult):
    """(quotients, mid) of one summand under a family a cut applies to."""
    if isinstance(family, ExceptionalP1):
        return oracle_exceptional_rewrite(term, family.k, mult)
    return ((family.slope_of_term(term), type(family.zero).single(term, mult)),), family.zero


def oracle_truncate(x, cut, family):
    """Truncation triangle data of x at the cut: (x_le0, x_ge1).

    Summand by summand: a summand all of whose HN slopes lie in the
    up-set goes to x_le0 entirely, one with no slope there goes to
    x_ge1; a summand split by the cut contributes its mid-term to
    x_le0 and its low quotient to x_ge1.
    """
    le0, ge1 = family.zero, family.zero
    for term, mult in x.summands():
        quotients, mid = oracle_term_rewrite(family, term, mult)
        statuses = [cut.in_plus(s) for s, _ in quotients]
        whole = type(family.zero).single(term, mult)
        if all(statuses):
            le0 = le0 + whole
        elif not any(statuses):
            ge1 = ge1 + whole
        else:
            le0 = le0 + mid
            for (s, obj), status in zip(quotients, statuses):
                if not status:
                    ge1 = ge1 + obj
    return le0, ge1


def oracle_heart_contains(x, cut, family):
    """Whether every slope of the whole HN filtration of x lies in the heart."""
    if x.is_zero:
        return True
    heart = HeartDescription(family, cut)
    return all(heart.contains_slope(s) for s in family.hn(x).slopes)


def oracle_coarsened_semistable_slope(family, x):
    """The one block of the slopes of the base family's HN filtration of x."""
    if x.is_zero:
        return None
    blocks = {family.partition.block_of(s) for s in family.base.hn(x).slopes}
    if len(blocks) == 1:
        return blocks.pop()
    return None


def oracle_set_semistable_slope(family, x):
    """`StabilityFamily.semistable_slope` as it ran before it compared each
    summand's slope with the first: one set of the summands' slopes."""
    slopes = {family.slope_of_term(term) for term, _ in x.summands()}
    return slopes.pop() if len(slopes) == 1 else None


def oracle_semistable_slope(family, x):
    """The one slope of x's summands, all generators, read with early exits."""
    if x.is_zero:
        return None
    slope = None
    for term, _ in x.summands():
        s = family.slope_of_term(term)
        if s is None:
            return None
        if slope is None:
            slope = s
        elif s != slope:
            return None
    return slope


# The elliptic tilt as it stood before `EllipticCut`, helpers renamed; a bad q
# raises ValueError, as the deleted QOutOfRangeError is gone.
def _oracle_check_q(q: OracleExtendedRational) -> None:
    if q.is_infinite:
        return
    if not (0 <= q.value < 1):
        raise ValueError(f"tilting slope must lie in [0, 1) or be inf, got {q!r}")


def _oracle_in_second_part(cls: StableClass, q: OracleExtendedRational,
                           P: frozenset[str]) -> bool:
    """Whether a class falls in the quotient part: mu < q, or mu = q with x in P."""
    mu = oracle_extended(cls)
    if mu < q:
        return True
    return mu == q and cls.x.label in P


def oracle_a_qp_split(x: EllipticObject, q: ExtendedRational | Fraction | str,
                      P: Iterable[str] = ()) -> tuple[EllipticObject, EllipticObject]:
    """Split a shift-0 object along the tilting pair at slope q and point set P.

    The second part collects the summands of slope < q (or slope q with
    point in P); the first part is the rest.  Vanishing of degree-0 maps
    from the first part to the second is re-checked on the output.
    """
    q = _oracle_as_extended(q)
    _oracle_check_q(q)
    pset = frozenset(P)
    if any(t.shift != 0 for t, _ in x.summands()):
        raise ValueError("the tilting split applies to shift-0 objects")
    first, second = [], []
    for t, m in x.summands():
        (second if _oracle_in_second_part(t.base, q, pset) else first).append((t, m))
    first, second = normalize_elliptic(first), normalize_elliptic(second)
    profile = hom_profile(first, second)
    if profile[0] != 0:
        raise AssertionError(f"torsion pair violated: Hom^0 = {profile[0]}")
    return first, second


def _oracle_as_extended(q) -> OracleExtendedRational:
    if isinstance(q, ExtendedRational):
        return oracle_extended(q)
    if isinstance(q, str):
        if q == "inf":
            return ORACLE_PLUS_INFINITY
        return OracleExtendedRational.finite(Fraction(q))
    return OracleExtendedRational.finite(Fraction(q))


def oracle_elliptic_heart_contains(x: EllipticObject, q, P: Iterable[str] = ()) -> bool:
    """Membership in the tilted heart: first part at shift 0, second at shift 1."""
    q = _oracle_as_extended(q)
    _oracle_check_q(q)
    pset = frozenset(P)
    for t, _ in x.summands():
        if t.shift == 0:
            if _oracle_in_second_part(t.base, q, pset):
                return False
        elif t.shift == 1:
            if not _oracle_in_second_part(t.base, q, pset):
                return False
        else:
            return False
    return True


class OraclePointOrder:
    """A session's point universe: labels with a fixed total order."""

    def __init__(self, labels):
        if len(set(labels)) != len(labels):
            raise ValueError("point labels must be unique")
        self._points = {lbl: Point(lbl, i) for i, lbl in enumerate(labels)}

    def point(self, label):
        try:
            return self._points[label]
        except KeyError:
            raise KeyError(f"undeclared point label {label!r}") from None

    def __contains__(self, label):
        return label in self._points


def oracle_session_resolver(points):
    """The session's resolver: undeclared labels of a declared order are errors."""
    if not points:
        return Point
    order = OraclePointOrder(points)

    def resolve(label):
        if label in order:
            return order.point(label)
        raise ObjectParseError(f"undeclared point label {label!r}", 0)
    return resolve


def oracle_family_resolver(family):
    """The resolver of parsed documents: undeclared labels got order index 0."""
    labels = getattr(family, "point_labels", ())
    if labels:
        order = OraclePointOrder(labels)
        return lambda lbl: order.point(lbl) if lbl in order else Point(lbl)
    return Point


class _OracleScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str):
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ObjectParseError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ObjectParseError("expected a natural number", start)
        return int(self.text[start:self.pos])

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] in ("+", "-"):
            raise ObjectParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def label(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise ObjectParseError("expected a point label", start)
        return self.text[start:self.pos]


def _oracle_opt_shift(sc):
    if sc.peek() == "[":
        sc.take("[")
        n = sc.integer()
        sc.take("]")
        return n
    return 0


def _oracle_point(resolve_point, lbl, atom_pos):
    """The resolver's point of a label; its error is raised at the atom's position."""
    try:
        return resolve_point(lbl)
    except ObjectParseError as exc:
        raise ObjectParseError(exc.message, atom_pos) from None


def oracle_parse_object(text, category="auto", resolve_point=None):
    """The object parser as a scanner alone, one character at a time."""
    if resolve_point is None:
        resolve_point = Point
    sc = _OracleScanner(text)
    p1_terms = []
    ell_terms = []

    while True:
        sc.skip_ws()
        mult = 1
        if sc.peek().isdigit():
            mult = sc.nat()
            if sc.peek() == "*":
                sc.take("*")
            elif mult == 0 and sc.peek() in ("", "+", "["):
                if sc.peek() == "[":
                    sc.take("[")
                    sc.integer()
                    sc.take("]")
                mult = None
            else:
                raise ObjectParseError("expected '*' after a multiplicity", sc.pos)
        if mult is not None:
            atom_pos = sc.pos
            head = sc.peek()
            if head == "0":
                sc.take("0")
                _oracle_opt_shift(sc)
            elif head == "O":
                sc.take("O")
                sc.take("(")
                n = sc.integer()
                sc.take(")")
                shift = _oracle_opt_shift(sc)
                p1_terms.append((ShiftedIndec(Line(n), shift), mult))
            elif head == "T":
                sc.take("T")
                sc.take("(")
                lbl = sc.label()
                sc.take(",")
                d = sc.nat()
                sc.take(")")
                if d == 0:
                    raise InvalidLengthError("torsion length must be >= 1", atom_pos)
                base = Torsion(_oracle_point(resolve_point, lbl, atom_pos), d)
                shift = _oracle_opt_shift(sc)
                p1_terms.append((ShiftedIndec(base, shift), mult))
            elif head == "S":
                sc.take("S")
                sc.take("(")
                r = sc.integer()
                sc.take(",")
                d = sc.integer()
                sc.take(",")
                lbl = sc.label()
                sc.take(")")
                if r < 0 or math.gcd(r, d) != 1:
                    raise NonCoprimeError(
                        f"stable classes need coprime rank >= 0 and degree, got ({r},{d})",
                        atom_pos)
                cls = StableClass(r, d, _oracle_point(resolve_point, lbl, atom_pos))
                shift = _oracle_opt_shift(sc)
                ell_terms.append((ShiftedIndec(cls, shift), mult))
            else:
                raise ObjectParseError("expected an atom O(...), T(...), S(...) or 0", sc.pos)
        if sc.at_end():
            break
        sc.take("+")

    if p1_terms and ell_terms:
        raise ObjectParseError("cannot mix O/T atoms with S atoms", 0)
    if category == "p1" and ell_terms:
        raise ObjectParseError("an object on the line was expected", 0)
    if category == "elliptic" and p1_terms:
        raise ObjectParseError("an elliptic object was expected", 0)
    if ell_terms or category == "elliptic":
        return normalize_elliptic(ell_terms)
    return normalize(p1_terms)


# --- strategies ---------------------------------------------------------------------

LABELS = ("x", "y", "z")
ORDERS = (("x", "y", "z"), ("z", "x", "y"), ("y", "z", "x"), ("z", "y", "x"))


def _points(order):
    """Points as the family orders them, and unordered label points."""
    return st.sampled_from([Point(lbl, order.index(lbl)) for lbl in order]
                           + [Point(lbl) for lbl in LABELS])


def p1_objects(order=LABELS, max_size=12):
    bases = st.one_of(st.integers(-6, 6).map(Line),
                      st.builds(Torsion, _points(order), st.integers(1, 3)))
    summands = st.tuples(bases, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(summands, max_size=max_size).map(
        lambda triples: normalize([(ShiftedIndec(b, sh), m) for b, sh, m in triples]))


def _coprime(rd):
    r, d = rd
    return math.gcd(r, d) == 1 and (r > 0 or d == 1)


def stable_classes(order=LABELS, max_rank=4, max_degree=8):
    pairs = st.tuples(st.integers(0, max_rank),
                      st.integers(-max_degree, max_degree)).filter(_coprime)
    return st.builds(lambda rd, pt: StableClass(rd[0], rd[1], pt), pairs, _points(order))


def elliptic_objects(order=LABELS, max_size=12):
    summands = st.tuples(stable_classes(order), st.integers(-3, 3), st.integers(1, 3))
    return st.lists(summands, max_size=max_size).map(
        lambda triples: normalize_elliptic([(ShiftedIndec(c, sh), m) for c, sh, m in triples]))


def _exceptional():
    return st.builds(ExceptionalP1, st.sampled_from((-1, 0, 1)), st.sampled_from((0, 1, INF)))


# `coarsen` validates its partition on a window, so each family is built once.
_COARSENED = {**{("std", order): coarsen(StandardP1(order), by_shift_partition())
                 for order in ORDERS},
              **{("exc", k): coarsen(ExceptionalP1(k, INF), column_partition())
                 for k in (-1, 0, 1)}}


@st.composite
def family_and_object(draw, max_size=12):
    """A family of every kind, with an object of its object model."""
    kind = draw(st.sampled_from(("coarse", "std", "exc", "ell", "std-by-shift", "exc-columns")))
    order = draw(st.sampled_from(ORDERS))
    if kind == "ell":
        return EllipticStandard(order), draw(elliptic_objects(order, max_size))
    if kind == "coarse":
        family = CoarseZ()
    elif kind == "std":
        family = StandardP1(order)
    elif kind == "exc":
        family = draw(_exceptional())
    elif kind == "std-by-shift":
        family = _COARSENED["std", order]
    else:
        family = _COARSENED["exc", draw(st.sampled_from((-1, 0, 1)))]
    return family, draw(p1_objects(order, max_size))


def _assert_same(filt, ref):
    assert filt.quotients == ref.quotients
    assert filt.terms == ref.terms
    assert filt.to_json() == ref.to_json()


# --- the HN order of a heart with a slope function (Rudakov, Bridgeland Prop. 5.3) ------

_HEART_FAMILIES = (CoarseZ(), StandardP1(), *(StandardP1(order) for order in ORDERS),
                   EllipticStandard(), *(EllipticStandard(order) for order in ORDERS))


def _sheaf_k0(pairs):
    """The K0 class of the sheaves of `pairs`, shifts ignored: a positive class."""
    total = K0Class((0, 0))
    for atom, mult in pairs:
        total = total + mult * K0Class(atom.base.rank_degree())
    return total


def _sheaf_gamma(atom):
    """The exact slope gamma of an atom's sheaf on the rank/degree system."""
    return gamma_slope(RANK_DEGREE, K0Class(atom.base.rank_degree()))


def _by_shift_and_gamma(x):
    """x split by shift, and each shift's part, an object of Coh shifted, split by
    the exact slope gamma of its sheaves: {shift: [(gamma, pairs)] ascending}."""
    parts = {}
    for atom, mult in x.summands():
        parts.setdefault(atom.shift, {}).setdefault(_sheaf_gamma(atom), []).append((atom, mult))
    by_gamma = cmp_to_key(lambda a, b: compare_slopes(a[0], b[0]).value)
    return {i: sorted(part.items(), key=by_gamma) for i, part in sorted(parts.items())}


def rudakov_bridgeland_hn(family, x):
    """The HN quotient objects of x, ascending, as Prop. 5.3 builds them from the
    heart Coh and its slope: by shift, then by gamma within a shift; for CoarseZ,
    whose slopes are the shifts, by shift alone."""
    make = type(family.zero).from_pairs
    parts = _by_shift_and_gamma(x)
    if isinstance(family, CoarseZ):
        return [make(p for _, pairs in part for p in pairs) for part in parts.values()]
    return [make(pairs) for part in parts.values() for _, pairs in part]


def _merged_quotients(family, filt):
    """The quotient objects of a filtration, consecutive ones merged where gamma
    cannot tell their slopes apart: torsion at different points, elliptic classes
    of one slope; each quotient lies in one shift and one gamma (one shift for CoarseZ)."""
    merged, last, coarse = [], None, isinstance(family, CoarseZ)
    for _, obj in filt.quotients:
        [label] = {(atom.shift, None if coarse else _sheaf_gamma(atom))
                   for atom, _ in obj.summands()}
        if label == last:
            merged[-1] = merged[-1] + obj
        else:
            merged.append(obj)
        last = label
    return merged


@settings(max_examples=200)
@given(st.sampled_from(_HEART_FAMILIES), st.randoms(use_true_random=False))
def test_hn_matches_the_heart_slope_oracle(family, rng):
    window = Window(max_degree=4, max_shift=2, max_summands=8,
                    points=point_universe(family.point_labels))
    x = family.random_object(rng, window)
    assert _merged_quotients(family, family.hn(x)) == rudakov_bridgeland_hn(family, x)
    for part in _by_shift_and_gamma(x).values():
        # sub = the higher slopes, quotient = the lower: gamma(sub) > gamma(x) > gamma(quotient)
        for j in range(1, len(part)):
            sub = _sheaf_k0([p for _, pairs in part[j:] for p in pairs])
            quotient = _sheaf_k0([p for _, pairs in part[:j] for p in pairs])
            assert seesaw_check(RANK_DEGREE, sub, quotient).alternative == "decreasing"
    atoms = [atom for atom, _ in x.summands()]
    for a, b in itertools.product(atoms, repeat=2):
        order = compare_slopes(_sheaf_gamma(a), _sheaf_gamma(b))
        assert Ordering.of(mu_bar(_sheaf_k0([(a, 1)])), mu_bar(_sheaf_k0([(b, 1)]))) == order
        if isinstance(a.base, StableClass):
            assert Ordering.of(a.base.mu(), b.base.mu()) == order


# --- merge ----------------------------------------------------------------------------

@settings(max_examples=300)
@given(family_and_object())
def test_hn_matches_oracle_merge(case):
    family, x = case
    _assert_same(family.hn(x), oracle_hn(family, x))


@settings(max_examples=150)
@given(family_and_object())
def test_semistable_slope_matches_summand_loop_oracle(case):
    """On objects and on their HN quotients, which are semistable."""
    family, x = case
    for y in (x, *family.hn(x).quotient_objects):
        if not isinstance(family, CoarsenedFamily):  # which reads the base family's hn
            assert family.semistable_slope(y) == oracle_semistable_slope(family, y)


@settings(max_examples=150)
@given(family_and_object(), st.data())
def test_semistable_slope_matches_the_slope_set_oracle(case, data):
    """On the zero object, drawn objects (non-generators of an exceptional family
    among them), their HN quotients and sums of window generators, of one slope
    or mixed; a coarsened family against its one block of base HN slopes."""
    family, x = case
    window = Window(max_degree=2, max_shift=1, max_length=2, points=point_universe(LABELS))
    gens = data.draw(st.lists(st.sampled_from(family.window_generators(window)), max_size=4))
    oracle = (oracle_coarsened_semistable_slope if isinstance(family, CoarsenedFamily)
              else oracle_set_semistable_slope)
    for y in (family.zero, x, sum(gens, family.zero), *family.hn(x).quotient_objects):
        assert family.semistable_slope(y) == oracle(family, y)


@settings(max_examples=150)
@given(family_and_object(), st.data())
def test_shuffle_merge_by_slope_matches_oracle(case, data):
    family, x = case
    if isinstance(family, EllipticStandard):
        y = data.draw(elliptic_objects(family.point_labels))
    else:
        y = data.draw(p1_objects(getattr(family, "point_labels", None) or LABELS))
    fa, fb = family.hn(x), family.hn(y)
    ref = oracle_merge_towers(family, [(fa.quotients, fa.terms), (fb.quotients, fb.terms)])
    _assert_same(merge_two(fa, fb), ref)


@settings(max_examples=100)
@given(st.sampled_from(ORDERS), st.lists(p1_objects(max_size=3), min_size=1, max_size=4),
       st.data())
def test_merge_of_unsorted_towers_matches_oracle(order, objects, data):
    """Steps agree even on towers whose slopes are not ascending."""
    family = StandardP1(order)
    sources = []
    for obj in objects:
        quotients = data.draw(st.permutations(family.hn(obj).quotients))
        terms = [ZERO]  # partial sums of the quotients, top first: obj splits
        for _, q in reversed(quotients):
            terms.append(terms[-1] + q)
        sources.append((tuple(quotients), tuple(reversed(terms))))
    _assert_same(merge_towers(family, sources), oracle_merge_towers(family, sources))


def _shared_atom_cases():
    """Named merges whose sources share atoms: (family, sources)."""
    exc, std, coarse = ExceptionalP1(0, 0), StandardP1(), CoarseZ()
    # Each exceptional tower of a line or a point leaves multiples of O(0)[1] and O(1).
    lines = line(3) + line(4) + 2 * line(5, 1) + torsion("x")
    one_block = [_ONE_BLOCK_FAMILIES["exc", 0, 0].hn(x) for x in (lines, line(3) + line(-2))]
    fa = std.hn(line(1) + torsion("x") + line(2, 1))
    fb = std.hn(line(1) + torsion("x", 2) + line(-3))
    return {
        "exceptional-towers-leaving-one-line": (exc, summand_towers(exc, lines)),
        "one-block-coarsening": (one_block[0].family, [(f.quotients, f.terms) for f in one_block]),
        "shuffle-of-common-summands": (std, [(fa.quotients, fa.terms), (fb.quotients, fb.terms)]),
        "single-source-groups": (std, summand_towers(std, line(-1) + line(0, 1) + torsion("y"))),
        "many-source-group": (coarse, summand_towers(coarse, line(-1) + line(2) + torsion("z", 3))),
    }


@pytest.mark.parametrize("name", ["exceptional-towers-leaving-one-line", "one-block-coarsening",
                                  "shuffle-of-common-summands", "single-source-groups",
                                  "many-source-group"])
def test_merge_of_towers_sharing_atoms_matches_oracle(name):
    family, sources = _shared_atom_cases()[name]
    merged = merge_towers(family, sources)
    _assert_same(merged, oracle_merge_towers(family, sources))
    group_sizes = Counter(family.slope_key(s) for quotients, _ in sources for s, _ in quotients)
    own = [obj for quotients, _ in sources for _, obj in quotients]
    if name == "single-source-groups":  # each step hands on the source's own quotient
        assert set(group_sizes.values()) == {1}
        assert all(any(q is obj for obj in own) for _, q in merged.quotients)
    elif name == "many-source-group":
        assert list(group_sizes.values()) == [len(sources)] and len(merged.quotients) == 1
    else:  # the sources share atoms, and some step coalesces several of them
        atoms = Counter(atom for _, terms in sources
                        for atom in {a for t in terms for a, _ in t.terms})
        assert max(atoms.values()) > 1 and max(group_sizes.values()) > 1


# --- per-summand towers -------------------------------------------------------------

@settings(max_examples=100)
@given(family_and_object())
def test_no_summand_has_more_than_two_quotients(case):
    family, x = case
    for term, mult in x.summands():
        quotients, terms = family.summand_tower(term, mult)
        assert quotients == family.term_filtration(term, mult)
        assert 1 <= len(quotients) <= 2
        assert len(terms) == len(quotients) + 1
        assert terms[0] == type(family.zero).single(term, mult) and terms[-1].is_zero


@settings(max_examples=200)
@given(family_and_object(max_size=4), st.integers(1, 4))
def test_summand_towers_match_from_pairs_oracle(case, mult):
    family, x = case
    make = type(family.zero).from_pairs
    for term, _ in x.summands():
        quotients, terms = family.summand_tower(term, mult)
        assert (quotients, terms) == oracle_summand_tower(family, term, mult)
        whole = type(family.zero).single(term, mult)
        assert whole == oracle_single_term_object(family, term, mult)
        for obj in (*terms, *(q for _, q in quotients)):
            assert obj == make(obj.summands())


def test_one_summand_objects_keep_their_answers_off_positive_multiplicities():
    for family, term in ((StandardP1(), ShiftedIndec(Line(2), 1)),
                         (EllipticStandard(), ShiftedIndec(StableClass(1, 0, Point("x"))))):
        assert type(family.zero).single(term, 0) == family.zero
        with pytest.raises(ValueError):
            type(family.zero).single(term, -1)
    for base in (Line(0), Line(3), Torsion(Point("x"), 2)):
        term = ShiftedIndec(base, 1)
        assert exceptional_rewrite(term, 0, 0) == oracle_exceptional_rewrite(term, 0, 0)[0]
        assert all(obj.is_zero for _, obj in exceptional_rewrite(term, 0, 0))
        with pytest.raises(ValueError):
            exceptional_rewrite(term, 0, -1)


def test_exceptional_column_atoms_are_shared():
    exc = ExceptionalP1(0, 0)
    x = line(3) + line(5)
    (q3, _), (q5, _) = (exc.summand_tower(term, mult) for term, mult in x.summands())
    columns = [obj.terms[0][0] for _, obj in q3]
    assert [atom.render() for atom in columns] == ["O(0)[1]", "O(1)"]
    assert all(obj.terms[0][0] is atom for (_, obj), atom in zip(q5, columns))
    merged = [atom for _, obj in exc.hn(x).quotients for atom, _ in obj.terms]
    assert len(merged) == 2 and all(a is b for a, b in zip(merged, columns))


@st.composite
def family_object_cut(draw):
    """A family a cut applies to, an object, and a valid cut of that family's kind."""
    kind = draw(st.sampled_from(("coarse", "std", "exc")))
    order = draw(st.sampled_from(ORDERS))
    x = draw(p1_objects(order, max_size=draw(st.sampled_from((1, 3, 12)))))
    m = draw(st.integers(-3, 3))
    if kind == "coarse":
        family, cut = CoarseZ(), CoarseCut(m)
    elif kind == "std":
        family = StandardP1(order)
        K = draw(st.sampled_from((-INF, INF)) | st.integers(-6, 6))
        P = draw(st.none() | st.integers(0, len(order)).map(lambda j: frozenset(order[j:])))
        cut = StandardCut(m, K, P)
    else:
        family = draw(_exceptional())
        p = family.p
        if p == INF:
            bounds = [(m, -INF), (INF, m), (-INF, -INF), (INF, -INF)]
        else:
            bounds = [(m, m - p - 2), (m, m - p - 1), (-INF, -INF), (INF, INF)]
        cut = ExceptionalCut(*draw(st.sampled_from(bounds)))
    assert cut.validity_reason(family) is None
    return family, x, cut


@settings(max_examples=200)
@given(family_object_cut())
def test_truncate_matches_mid_term_oracle(case):
    family, x, cut = case
    le0, ge1 = truncate(x, cut, family)
    ref_le0, ref_ge1 = oracle_truncate(x, cut, family)
    assert (le0.terms, ge1.terms) == (ref_le0.terms, ref_ge1.terms)
    assert (le0.render(), ge1.render()) == (ref_le0.render(), ref_ge1.render())


@settings(max_examples=200)
@given(family_object_cut())
def test_heart_contains_matches_hn_oracle(case):
    family, x, cut = case
    assert heart_contains(x, cut, family) == oracle_heart_contains(x, cut, family)


def _cut_cases():
    """(family, cut) pairs: every cut shape of every kind, at a few positions."""
    cases = [(CoarseZ(), CoarseCut(m)) for m in (-1, 0, 1)]
    for order in ORDERS[:2]:
        std = StandardP1(order)
        cases += [(std, StandardCut(m, K, P)) for m in (-1, 0) for K, P in
                  ((-INF, None), (0, None), (3, None), (INF, None),
                   (INF, frozenset(order[1:])), (INF, frozenset(order[2:])))]
    for k in (-1, 0, 1):
        for p in (0, 1, INF):
            exc = ExceptionalP1(k, p)
            bounds = [(-INF, -INF)]
            for a in (-1, 0, 2):
                bounds += [(a, -INF), (INF, a)] if p == INF else [(a, a - p - 2), (a, a - p - 1)]
            bounds.append((INF, -INF) if p == INF else (INF, INF))
            cases += [(exc, ExceptionalCut(a, b)) for a, b in bounds]
    return cases


def test_truncate_and_heart_match_oracles_on_every_window_atom():
    """Every atom of a window, alone, against every cut shape: each way a cut
    can fall across a summand's tower, the split one included."""
    bases = [Line(n) for n in range(-5, 6)] + \
        [Torsion(Point(lbl), d) for lbl in LABELS for d in (1, 2)]
    atoms = [normalize([(ShiftedIndec(b, sh), 2)]) for b in bases for sh in range(-3, 4)]
    splits = 0
    for family, cut in _cut_cases():
        assert cut.validity_reason(family) is None
        for x in atoms:
            ref = oracle_truncate(x, cut, family)
            assert truncate(x, cut, family) == ref
            splits += not (ref[0].is_zero or ref[1].is_zero)
            assert heart_contains(x, cut, family) == oracle_heart_contains(x, cut, family)
    assert splits > 0


_TILT_QS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), PLUS_INFINITY)
_LABEL_SETS = [frozenset(c) for r in range(len(LABELS) + 1)
               for c in itertools.combinations(LABELS, r)]


def _tilts():
    """Every (q, S) with the family whose point order lists S first."""
    for q in _TILT_QS:
        for S in _LABEL_SETS:
            order = tuple(sorted(S)) + tuple(lbl for lbl in LABELS if lbl not in S)
            yield q, S, EllipticStandard(order)


def test_every_tilt_is_a_valid_elliptic_cut():
    for q, S, family in _tilts():
        report = validate_cut(EllipticCut(0, q, S), family)
        assert report.ok, (q, S, report.summary())


@settings(max_examples=150)
@given(elliptic_objects())
def test_elliptic_cut_matches_the_tilt_oracles(x):
    shift0 = normalize_elliptic([pair for pair in x.summands() if pair[0].shift == 0])
    for q, S, family in _tilts():
        cut = EllipticCut(0, q, S)
        assert truncate(shift0, cut, family) == oracle_a_qp_split(shift0, q, S)
        assert heart_contains(x, cut, family) == oracle_elliptic_heart_contains(x, q, S)


_ONE_BLOCK = SlopePartition("one", lambda s: 0, lambda b: b, lambda b, n=1: b)
_ONE_BLOCK_FAMILIES = {("std", order): coarsen(StandardP1(order), _ONE_BLOCK) for order in ORDERS}
_ONE_BLOCK_FAMILIES.update({("exc", k, p): coarsen(ExceptionalP1(k, p), _ONE_BLOCK)
                            for k in (-1, 0, 1) for p in (0, 1, INF)})
_ONE_BLOCK_FAMILIES["coarse"] = coarsen(CoarseZ(), _ONE_BLOCK)


def _pair_lines(max_size=3):
    """Sums of shifted O(-1) .. O(2): the generators of every twisting pair drawn here."""
    summands = st.tuples(st.integers(-1, 2), st.integers(-3, 3), st.integers(1, 3))
    return st.lists(summands, max_size=max_size).map(
        lambda triples: normalize([(ShiftedIndec(Line(n), sh), m) for n, sh, m in triples]))


@st.composite
def coarsened_family_and_object(draw):
    """A coarsened family, registered or one-block, with an object likely to be
    semistable in it as often as not."""
    family = draw(st.sampled_from(sorted(_COARSENED.values(), key=lambda f: f.kind)
                                  + sorted(_ONE_BLOCK_FAMILIES.values(), key=lambda f: f.kind)))
    order = family.point_labels or LABELS
    x = draw(st.one_of(p1_objects(order, max_size=3), _pair_lines()))
    return family, x


@settings(max_examples=200)
@given(coarsened_family_and_object())
def test_coarsened_semistable_slope_matches_base_hn_oracle(case):
    family, x = case
    assert family.semistable_slope(x) == oracle_coarsened_semistable_slope(family, x)


@settings(max_examples=150)
@given(st.sampled_from(sorted(_ONE_BLOCK_FAMILIES.values(), key=lambda f: f.kind)),
       p1_objects(max_size=6))
def test_one_block_coarsening_leaves_every_object_whole(family, x):
    """With a single block every object is semistable: its filtration is x itself."""
    filt = family.hn(x)
    if x.is_zero:
        assert filt == HNFiltration(family, (), (ZERO,))
    else:
        assert (filt.quotients, filt.terms) == (((0, x),), (x, ZERO))
    assert verify_hn(x, filt, family).ok


# --- slope order ----------------------------------------------------------------------

def _order_cases():
    """(family, oracle comparator, a foreign slope) for every family kind."""
    foreign = StandardSlope(0, 0)
    cases = [pytest.param(CoarseZ(), oracle_compare_coarse, foreign, id="coarse"),
             pytest.param(EllipticStandard(), oracle_compare_elliptic, CoarseSlope(0), id="ell")]
    cases += [pytest.param(StandardP1(order), oracle_compare_standard, CoarseSlope(0),
                           id="std-" + "".join(order)) for order in ORDERS]
    cases += [pytest.param(ExceptionalP1(k, p),
                           lambda a, b, p=p: oracle_compare_exceptional(a, b, p),
                           CoarseSlope(0), id=f"exc-k{k}-p{p}")
              for k in (-1, 0, 1) for p in (0, 1, 2, INF)]
    cases += [pytest.param(_COARSENED["std", order], oracle_compare_blocks, foreign,
                           id="std-by-shift-" + "".join(order)) for order in ORDERS]
    cases += [pytest.param(_COARSENED["exc", k], oracle_compare_blocks, foreign,
                           id=f"exc-columns-k{k}") for k in (-1, 0, 1)]
    return cases


def _window_slopes(family):
    """Distinct slopes of the window generators, with their tau-shifts by -2..2.

    Points carry the family's order and the default order side by side."""
    order = getattr(family, "point_labels", ()) or LABELS
    points = tuple(Point(lbl, order.index(lbl)) for lbl in order) + \
        tuple(Point(lbl) for lbl in LABELS)
    window = Window(max_degree=3, max_shift=1, max_length=1, points=points)
    slopes = {family.semistable_slope(g) for g in family.window_generators(window)}
    return sorted({family.tau(s, n) for s in slopes for n in range(-2, 3)}, key=repr)


@pytest.mark.parametrize("family, oracle, foreign", _order_cases())
def test_slope_key_order_matches_comparator_oracle(family, oracle, foreign):
    slopes = _window_slopes(family)
    assert len(slopes) >= 2
    for a in slopes:
        for b in slopes:
            assert family.compare(a, b) == oracle(a, b), (a, b)
    random.Random(5).shuffle(slopes)
    assert sorted(slopes, key=family.slope_key) == \
        sorted(slopes, key=cmp_to_key(lambda a, b: oracle(a, b).value))
    for a, b in ((slopes[0], foreign), (foreign, slopes[0])):
        with pytest.raises(TypeError):
            family.compare(a, b)


@dataclass(frozen=True)
class OracleIntLevel:
    n: int


@dataclass(frozen=True)
class OraclePointLevel:
    point: Point


@dataclass(frozen=True)
class OracleStandardSlope:
    """A standard slope as it was held before its level became a plain int or
    Point: (shift, IntLevel(n)) or (shift, PointLevel(point))."""

    i: int
    level: object

    def key(self):
        if isinstance(self.level, OracleIntLevel):
            return (self.i, 0, (self.level.n, ""))
        return (self.i, 1, self.level.point.key())

    def to_json(self):
        if isinstance(self.level, OracleIntLevel):
            return {"shift": self.i, "level": {"int": self.level.n}}
        return {"shift": self.i, "level": {"point": self.level.point.label}}

    def __repr__(self):
        if isinstance(self.level, OracleIntLevel):
            return f"({self.i}, {self.level.n})"
        return f"({self.i}, {self.level.point.label})"


@pytest.mark.parametrize("order", [(), *ORDERS], ids=lambda o: "".join(o) or "lex")
def test_standard_slopes_match_the_wrapped_level_oracle(order):
    """Every window slope reads, serialises and sorts as the wrapped one did."""
    family = StandardP1(order)
    new, old = [], []
    for g in family.window_generators(Window(points=p1.point_universe(order))):
        ((term, _),) = g.summands()
        base = term.base
        level = OracleIntLevel(base.n) if isinstance(base, Line) else OraclePointLevel(base.x)
        new.append(family.semistable_slope(g))
        old.append(OracleStandardSlope(term.shift, level))
    for s, o in zip(new, old):
        assert repr(s) == repr(o)
        assert family.slope_json(s) == o.to_json()
        assert family.slope_from_json(o.to_json()) == s
    for a, oa in zip(new, old):
        for b, ob in zip(new, old):
            assert Ordering.of(family.slope_key(a), family.slope_key(b)) == \
                Ordering.of(oa.key(), ob.key())
    positions = list(range(len(new)))
    random.Random(7).shuffle(positions)
    assert sorted(positions, key=lambda j: family.slope_key(new[j])) == \
        sorted(positions, key=lambda j: old[j].key())


# --- Hom rule -------------------------------------------------------------------------

def _window_stable_classes():
    """The stable classes of ranks <= 3 at three points, skyscrapers included."""
    window = Window(points=tuple(Point(lbl, i) for i, lbl in enumerate(LABELS)))
    classes = EllipticStandard(LABELS).window_classes(window, max_rank=3)
    assert any(c.r == 0 for c in classes) and max(c.r for c in classes) == 3
    return classes


def test_integer_hom_rule_matches_fraction_rule_on_window_classes():
    classes = _window_stable_classes()
    for e in classes:
        for f in classes:
            for i in (-1, 0, 1, 2):
                assert hom_dim_stable(e, f, i) == fraction_hom_dim_stable(e, f, i), (e, f, i)


@given(stable_classes(max_rank=40, max_degree=100), stable_classes(max_rank=40, max_degree=100),
       st.integers(-1, 2))
def test_integer_hom_rule_matches_fraction_rule(e, f, i):
    assert hom_dim_stable(e, f, i) == fraction_hom_dim_stable(e, f, i)


def test_hom_rule_matches_the_equal_first_rule_on_window_classes():
    classes = _window_stable_classes()
    equal_slope_pairs = 0
    for e in classes:
        for f in classes:
            equal_slope_pairs += e != f and e.r * f.d == e.d * f.r
            for i in (-1, 0, 1, 2):
                assert hom_dim_stable(e, f, i) == equal_first_hom_dim_stable(e, f, i), (e, f, i)
    assert equal_slope_pairs  # classes of one slope at different points, skyscrapers too


def test_slope_json_mu_is_the_text_of_the_class_slope():
    family = EllipticStandard(LABELS)
    for cls in _window_stable_classes():
        mu = cls.mu()
        slope = EllipticSlope(-1, cls)
        old = oracle_extended(mu)
        assert family.slope_json(slope)["mu"] == ("inf" if old.is_infinite else str(old.value))
        assert family.slope_from_json(family.slope_json(slope)) == slope


# --- K0 -------------------------------------------------------------------------------

@given(p1_objects())
def test_k0_matches_per_summand_sum_p1(x):
    assert x.k0() == per_summand_k0(x)


@given(elliptic_objects())
def test_k0_matches_per_summand_sum_elliptic(x):
    assert x.k0() == per_summand_k0(x)


@given(st.one_of(p1_objects(), elliptic_objects()))
def test_rank_degree_is_the_k0_components(x):
    assert x.rank_degree() == x.k0().components
    assert all(c.__class__ is int for c in x.rank_degree())


def test_rank_degree_of_the_zero_objects_is_zero():
    assert ZERO.rank_degree() == EllipticObject().rank_degree() == (0, 0)


@given(st.one_of(p1_objects(max_size=1), elliptic_objects(max_size=1)).filter(lambda x: x.terms),
       st.integers(0, 7))
def test_rank_degree_of_one_summand_is_its_multiple_of_the_atom(x, m):
    [(atom, _)] = x.terms
    r, d = atom.rank_degree()
    assert type(x).single(atom, m).rank_degree() == (m * r, m * d)


# --- parser ---------------------------------------------------------------------------

_WS = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", " ", " "])
_INT = st.tuples(st.sampled_from(["", "", "+", "-"]),
                 st.sampled_from(["0", "1", "2", "3", "5", "07", "12", "9" * 5000])).map("".join)
_LABEL = st.sampled_from(["x", "y", "z", "q", "a1", "7"])


@st.composite
def _summand(draw, kinds):
    """Tokens of one summand; whitespace may go between any two of them."""
    tokens = []
    mult = draw(st.sampled_from([None, None, "0", "1", "2", "03", "12"]))
    if mult is not None:
        tokens += [mult, "*"]
    kind = draw(st.sampled_from(kinds))
    if kind == "O":
        tokens += ["O", "(", draw(_INT), ")"]
    elif kind == "T":
        tokens += ["T", "(", draw(_LABEL), ",",
                   draw(st.sampled_from(["0", "1", "2", "3", "04"])), ")"]
    elif kind == "S":
        tokens += ["S", "(", draw(st.sampled_from(["0", "1", "2", "3", "-1"])), ",",
                   draw(_INT), ",", draw(_LABEL), ")"]
    else:
        tokens.append("0")
    if draw(st.booleans()):
        tokens += ["[", draw(_INT), "]"]
    return tokens


@st.composite
def expressions(draw):
    """Well-formed expressions with whitespace anywhere the grammar allows it."""
    kinds = draw(st.sampled_from([("O", "T", "0"), ("S", "0"), ("O", "T", "S", "0")]))
    summands = draw(st.lists(_summand(kinds), min_size=1, max_size=6))
    if draw(st.booleans()):
        summands.append(summands[-1])  # a repeated atom, spelled alike
    tokens = [tok for i, summand in enumerate(summands)
              for tok in (["+"] if i else []) + summand]
    return draw(_WS) + "".join(tok + draw(_WS) for tok in tokens)


_NOISE = st.sampled_from(list("0123456789OTSxq()[],*+- \t") + ["٣", "²", "é", "_"])


@st.composite
def mangled_expressions(draw):
    """Expressions with a few characters deleted, inserted, replaced or cut off."""
    text = draw(expressions())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace", "truncate")))
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op == "insert":
            text = text[:i] + draw(_NOISE) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(_NOISE) + text[i + 1:]
        else:
            text = text[:i]
    return text


_RESOLVERS = {
    "default": None,
    "family": point_resolver(StandardP1(("z", "x", "y")).point_labels),
    "session": point_resolver(("y", "x", "z")),
}


def _parse_through(text, category, resolver, memo):
    """`parse_object` with its own `memo`, as `filtration_from_json` reads a document."""
    return syntax._read_object(text, category, resolver, memo)[0]


def _outcome(parse, *args):
    try:
        obj = parse(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc), getattr(exc, "position", None)
    return type(obj), obj.terms, obj.render()


def _assert_parses_like_oracle(texts, category, resolver_name):
    resolver = _RESOLVERS[resolver_name]
    memo: dict = {}
    for text in texts:
        expected = _outcome(oracle_parse_object, text, category, resolver)
        assert _outcome(cli.parse_object, text, category, resolver) == expected, text
        shared = _outcome(_parse_through, text, category, resolver or Point, memo)
        assert shared == expected, text


_CATEGORIES = st.sampled_from(("auto", "p1", "elliptic"))


@settings(max_examples=100)
@given(st.lists(expressions(), min_size=1, max_size=3), _CATEGORIES,
       st.sampled_from(sorted(_RESOLVERS)))
def test_parser_matches_scanner_oracle_on_expressions(texts, category, resolver):
    _assert_parses_like_oracle(texts, category, resolver)


@settings(max_examples=100)
@given(st.lists(mangled_expressions(), min_size=1, max_size=3), _CATEGORIES,
       st.sampled_from(sorted(_RESOLVERS)))
def test_parser_matches_scanner_oracle_on_mangled_expressions(texts, category, resolver):
    _assert_parses_like_oracle(texts, category, resolver)


def test_parser_matches_scanner_oracle_on_non_strings():
    _assert_parses_like_oracle([5, None, ["O(3)"], ["  "], [], ("0",)], "p1", "default")


# Error orderings and spellings that hypothesis seldom draws.
_FIXED_EXPRESSIONS = {
    "syntax-error-before-length-error": "T(x,0",
    "atom-position-right-after-star": " 2*  T(x,0)",
    "atom-position-in-a-later-summand": "O(1) + 3 *T(x,0)",
    "value-check-before-shift-int": "S(0,0,x)[" + "9" * 5000 + "]",
    "later-syntax-error-before-mix-error": "O(1) + S(1,0,x) + O(",
    "mixed-keys-not-compared": "S(1,0,x) + O(1)",
    "shifted-zero": "0[1] + O(2)",
    "double-zero": "00",
    "multiplied-shifted-zero": "2*0[1]",
    "arabic-indic-digit": "O(٣)",
    "superscript-digit": "3²*O(1)",
    "non-ascii-label": "T(é,1)",
    "skyscraper-of-degree-minus-one": "S(0,-1,x)",
}


@pytest.mark.parametrize("text", list(_FIXED_EXPRESSIONS.values()), ids=list(_FIXED_EXPRESSIONS))
def test_parser_matches_scanner_oracle_on_fixed_orderings(text):
    for category in ("auto", "p1", "elliptic"):
        for resolver in sorted(_RESOLVERS):
            _assert_parses_like_oracle([text], category, resolver)


# A warmed memo holds the pieces of this text; each text below hits some of
# them and then holds a piece the memo must not take, or a bad one.
_MEMO_WARMUP = "O(1) + O(2) + 2*O(1) + 0 + T(x,1)"
_MEMO_EXPRESSIONS = {
    "double-space-before-separator": "O(1)  + O(2)",
    "plus-without-spaces": "O(1)+O(2) + O(1)",
    "empty-summand": "O(1) + + O(2)",
    "trailing-separator": "O(1) + ",
    "trailing-plus": "O(1) +",
    "zeros-around": "0 + O(1) + 0[1]",
    "star-with-spaces": "2*O(1) + 2 * O(1)",
    "repeat-then-bad-length": "O(1) + O(1) + T(x,0)",
    "repeat-then-unclosed": "O(1) + 2*O(1) + O(",
    "atom-position-in-a-later-summand": "O(1) + 3 *T(x,0)",
}


@pytest.mark.parametrize("text", list(_MEMO_EXPRESSIONS.values()), ids=list(_MEMO_EXPRESSIONS))
def test_parser_memo_hits_then_misses_like_the_scanner_oracle(text):
    for category in ("auto", "p1", "elliptic"):
        for resolver in _RESOLVERS.values():
            memo: dict = {}
            _outcome(_parse_through, _MEMO_WARMUP, category, resolver or Point, memo)
            assert {"O(1)", "O(2)", "2*O(1)", "0", "T(x,1)"} <= memo.keys()
            expected = _outcome(oracle_parse_object, text, category, resolver)
            for _ in range(2):  # the second read may hit what the first one stored
                assert _outcome(_parse_through, text, category, resolver or Point, memo) \
                    == expected, text


def test_a_text_read_again_takes_every_summand_from_the_memo(monkeypatch):
    text = "O(1) + 2*O(2)[1] + T(x,1) + S(1,0,x)"
    memo: dict = {}
    with pytest.raises(ObjectParseError):  # the mix error comes after every summand is read
        _parse_through(text, "auto", Point, memo)
    monkeypatch.setattr(syntax, "_matched_summand", None)  # a miss would call one of these
    monkeypatch.setattr(syntax, "_Scanner", None)
    with pytest.raises(ObjectParseError, match="cannot mix"):
        _parse_through(text, "auto", Point, memo)
    assert _parse_through(text.rpartition(" + ")[0], "p1", Point, memo) == \
        oracle_parse_object(text.rpartition(" + ")[0])


def test_filtration_document_error_is_at_its_own_terms_position():
    """The memo is shared over a document: a term that repeats earlier pieces and
    then holds a bad one raises at the bad piece's position in that term."""
    doc = StandardP1().hn(line(1) + line(2)).to_json()
    bad = "O(1) + O(2) + O(2) + T(x,0)"
    doc["terms"][1] = bad
    with pytest.raises(InvalidLengthError) as err:
        cli.filtration_from_json(doc)
    assert _outcome(oracle_parse_object, bad, "p1", point_resolver(())) \
        == (InvalidLengthError, str(err.value), bad.index("T(x,0)"))
    assert err.value.position == bad.index("T(x,0)")


@st.composite
def rendered_texts(draw):
    """`render`'s own text: the summands of a P1 or elliptic object (the zero
    object included), joined out of order, some repeated, some zeros."""
    x = draw(st.one_of(p1_objects(max_size=8), elliptic_objects(max_size=8)))
    pieces = x.render().split(" + ")
    extra = draw(st.lists(st.sampled_from([*pieces, "0"]), max_size=4))
    return " + ".join(draw(st.permutations(pieces + extra)))


@settings(max_examples=200)
@given(rendered_texts(), _CATEGORIES, st.sampled_from(sorted(_RESOLVERS)))
def test_rendered_text_is_read_piece_by_piece(text, category, resolver_name):
    """Text as `render` writes it never reaches the scanner, and a fresh memo
    ends with one entry per distinct piece."""
    resolver, memo = _RESOLVERS[resolver_name], {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(syntax, "_Scanner", None)
        outcome = _outcome(_parse_through, text, category, resolver or Point, memo)
    assert outcome == _outcome(oracle_parse_object, text, category, resolver)
    assert category != "auto" or not issubclass(outcome[0], Exception)
    assert memo.keys() == set(text.split(" + "))


# The lexicographic resolver and five resolvers of other point orders.
_SHARED_RESOLVERS = (Point, *map(point_resolver, (("z", "x", "y"), ("y", "z", "x"),
                                                  ("z", "y", "x"), ("x", "z", "y"),
                                                  ("y", "x", "z"))))


@settings(max_examples=100)
@given(st.lists(st.tuples(rendered_texts(), _CATEGORIES, st.sampled_from(_SHARED_RESOLVERS)),
                min_size=1, max_size=6))
def test_the_shared_memo_parses_like_a_fresh_one(reads):
    """`parse_object` reads through the memo that every call with its resolver
    shares; read after read, resolvers interleaved, it gives what a fresh memo gives."""
    for text, category, resolver in reads:
        for _ in range(2):  # the second read takes every piece from the shared memo
            assert _outcome(cli.parse_object, text, category, resolver) \
                == _outcome(_parse_through, text, category, resolver, {}), text


def test_a_bad_piece_raises_at_its_own_position_every_time(monkeypatch):
    monkeypatch.setattr(syntax, "_MEMOS", {})
    for text in ("O(1) + T(x,0)", "T(x,0)", "O(1) + T(x,0)"):
        with pytest.raises(InvalidLengthError) as err:
            syntax.parse_object(text)
        assert err.value.position == text.index("T(x,0)")
    assert syntax._MEMOS[Point].keys() == {"O(1)"}  # the bad piece is never stored


def test_the_shared_memo_stays_within_its_bounds(monkeypatch):
    monkeypatch.setattr(syntax, "_MEMOS", {})
    cap = syntax._MEMO_SUMMANDS
    first = syntax.parse_object("O(0)").terms[0][0]
    document = " + ".join(f"O({n})" for n in range(cap + 100))
    assert syntax.parse_object(document).terms[0][0] is first  # one text, one atom
    assert len(syntax._MEMOS[Point]) == cap + 100  # a call never evicts its own entries
    for n in range(1, 2 * cap):  # more than a cap's worth of distinct pieces, one per call
        syntax.parse_object(f"T(x,{n})")
        assert sum(map(len, syntax._MEMOS.values())) <= cap + 1
    for i in range(2 * syntax._MEMO_RESOLVERS):
        syntax.parse_object(f"T(p{i},1)", "p1", point_resolver((f"p{i}",)))
        assert len(syntax._MEMOS) <= syntax._MEMO_RESOLVERS


# --- point order ------------------------------------------------------------------------

_ORDER_LABELS = st.sampled_from(["x", "y", "z", "a", "b1", "7"])


@settings(max_examples=200)
@given(st.lists(_ORDER_LABELS, unique=True, max_size=4), st.lists(_ORDER_LABELS, max_size=6))
def test_point_resolver_matches_replaced_resolvers(order, labels):
    """Declared labels (or any label when no order is declared) resolve to the
    old resolvers' Points; an undeclared one raises the session's error."""
    resolve = point_resolver(tuple(order))
    session = oracle_session_resolver(tuple(order))
    family = oracle_family_resolver(StandardP1(tuple(order)))
    for label in labels:
        if order and label not in order:
            with pytest.raises(ObjectParseError) as new:
                resolve(label)
            with pytest.raises(ObjectParseError) as old:
                session(label)
            assert str(new.value) == str(old.value)
            continue
        expected = [session(label), family(label)]
        if order:
            expected.append(OraclePointOrder(order).point(label))
        for point in expected:
            assert resolve(label) == point and resolve(label).key() == point.key()


@given(st.lists(_ORDER_LABELS, min_size=2, max_size=4).filter(lambda o: len(set(o)) < len(o)))
def test_point_resolver_rejects_repeated_labels_like_point_order(order):
    with pytest.raises(ValueError, match="unique"):
        OraclePointOrder(order)
    with pytest.raises(ValueError, match="unique"):
        point_resolver(tuple(order))


# --- Hom-vanishing check ----------------------------------------------------------------

@st.composite
def tampered_filtrations(draw):
    """HN filtrations of every family with quotients shuffled, swapped or shifted."""
    family, x = draw(family_and_object())
    filt = family.hn(x)
    quotients = list(filt.quotients)
    for _ in range(draw(st.integers(0, 2))):
        if not quotients:
            break
        op = draw(st.sampled_from(("shuffle", "replace", "shift")))
        j = draw(st.integers(0, len(quotients) - 1))
        if op == "shuffle":
            quotients = draw(st.permutations(quotients))
        elif op == "replace":
            _, y = draw(family_and_object())
            if family.accepts(y) and not y.is_zero:
                quotients[j] = (quotients[j][0], y)
        else:
            slope, obj = quotients[j]
            quotients[j] = (slope, obj.shift(draw(st.sampled_from((-1, 1)))))
    return family, x, HNFiltration(family, tuple(quotients), filt.terms)


@settings(max_examples=120)
@given(tampered_filtrations())
def test_hom_vanishing_sweep_matches_pairwise_oracle(case):
    family, x, filt = case
    [item] = [c for c in verify_hn(x, filt, family).checks if c.name == "hom_vanishing"]
    assert item == oracle_hom_vanishing(filt, family)


@settings(max_examples=60)
@given(family_and_object(), family_and_object())
def test_hom_vanishing_rule_matches_hom_profile(a, b):
    (family, x), (_, y) = a, b
    if family.accepts(y):
        expected = family.hom_profile(x, y).vanishes_at_and_below(0)
        assert (_first_hom_violation((y, x)) is None) == expected
        assert oracle_hom_vanishes_at_and_below_zero(x, y) == expected


def oracle_first_hom_violation(objects):
    """`_first_hom_violation` as a scan over object pairs, j then i ascending."""
    return next(((j, i) for j in range(len(objects)) for i in range(j)
                 if not oracle_hom_vanishes_at_and_below_zero(objects[j], objects[i])), None)


_SWEEP_FAMILIES = (CoarseZ(), *(StandardP1(order) for order in ORDERS),
                   *(ExceptionalP1(k, p) for k in (-1, 0) for p in (0, 1, INF)),
                   *_COARSENED.values(), *(EllipticStandard(order) for order in ORDERS))
_SWEEP_TYPES = ((0, 1), (1, 0), (1, 1), (1, -1), (2, 1), (3, -2))  # (rank, degree), skyscraper first


def _distinct_atoms(bases, least: int, most: int):
    """Lists of `least` to `most` distinct atoms over `bases`, at shifts -3..3."""
    return st.lists(st.builds(ShiftedIndec, bases, st.integers(-3, 3)),
                    min_size=least, max_size=most, unique=True)


@st.composite
def swept_quotient_lists(draw):
    """HN quotients of an object of 25-100 distinct summands in any family, then
    shuffled, truncated or with one quotient shifted by +-1, up to twice.

    The summands sit at shifts -3..3, over points in the family's order and
    unordered ones: lines and up to ten torsion sheaves on P1; on the elliptic
    curve classes of one to three (rank, degree) types, skyscrapers among them,
    so that most classes have equal-slope classes beside them, at other points
    and shifts."""
    family = draw(st.sampled_from(_SWEEP_FAMILIES))
    points = _points(family.point_labels or LABELS)
    if isinstance(family, EllipticStandard):
        types = st.sampled_from(draw(st.lists(st.sampled_from(_SWEEP_TYPES), min_size=1,
                                              max_size=3, unique=True)))
        classes = st.builds(lambda rd, pt: StableClass(*rd, pt), types, points)
        atoms = draw(_distinct_atoms(classes, 25, 100))
    else:  # few torsion sheaves, so that one often meets only lines
        atoms = draw(_distinct_atoms(st.builds(Line, st.integers(-4, 4)), 24, 90)) + draw(
            _distinct_atoms(st.builds(Torsion, points, st.integers(1, 3)), 1, 10))
    x = type(family.zero).from_pairs((a, draw(st.integers(1, 3))) for a in atoms)
    objects = list(family.hn(x).quotient_objects)
    for op in draw(st.lists(st.sampled_from(("shuffle", "truncate", "shift")), max_size=2)):
        if op == "shuffle":
            objects = draw(st.permutations(objects))
        elif op == "truncate":
            start = draw(st.integers(0, len(objects)))
            objects = objects[start:draw(st.integers(start, len(objects)))]
        elif objects:
            j = draw(st.integers(0, len(objects) - 1))
            objects[j] = objects[j].shift(draw(st.sampled_from((-1, 1))))
    return tuple(objects)


# Ext^0 and Ext^1 across a shift gap from a line, torsion and a class; then the
# equal-degree and the equal-class rule at one shift
@example((line(0, 1), line(0)))
@example((line(0, 1), line(2)))
@example((line(0, 1), torsion("x")))
@example((stable(1, 0, "x", 1), stable(1, 1, "x")))
@example((line(-1), line(2), line(2)))
@example((stable(1, 0, "y"), stable(1, 0, "x"), stable(1, 0, "y")))
@settings(max_examples=200, deadline=None)
@given(swept_quotient_lists())
def test_hom_sweep_at_scale_matches_pairwise_oracle(objects):
    assert _first_hom_violation(objects) == oracle_first_hom_violation(objects)


def _window_objects(family, oracle):
    """Random window objects of a family: torsion or skyscrapers and mixed shifts."""
    window = Window(max_degree=4, max_shift=2, max_summands=8)
    return st.randoms(use_true_random=False).map(
        lambda rng: (oracle, family.random_object(rng, window), family.random_object(rng, window)))


@settings(max_examples=200)
@given(st.one_of(st.tuples(st.just(oracle_p1_hom_loop), p1_objects(), p1_objects()),
                 st.tuples(st.just(oracle_elliptic_hom_loop), elliptic_objects(),
                           elliptic_objects()),
                 _window_objects(StandardP1(), oracle_p1_hom_loop),
                 _window_objects(EllipticStandard(), oracle_elliptic_hom_loop)))
def test_hom_profile_matches_per_curve_oracle_loops(case):
    oracle, x, y = case
    for a, b in ((x, y), (y, x), (x, x), (x + y, x.shift(1))):
        assert hom_profile(a, b) == oracle(a, b)


# --- verify_hn --------------------------------------------------------------------------

def _foreign_slope(family):
    """A slope of another family: a coarse one, or a standard one for `CoarseZ`."""
    return StandardSlope(0, 0) if isinstance(family, CoarseZ) else CoarseSlope(0)


@st.composite
def verified_filtrations(draw):
    """A computed HN filtration of every family kind, or one tampered with: one
    of the four mutation kinds of the acceptance suite, a term of another K0
    or a foreign slope after (or before) a descent; on top of these, a term or
    quotient may get a multiplicity of 1.5."""
    family, x = draw(family_and_object())
    filt = family.hn(x)
    kind = draw(st.sampled_from(("none", "mutation", "term", "foreign")))
    mutants = list(_mutations(filt, family))
    if kind == "mutation" and mutants:
        filt = draw(st.sampled_from(mutants))
    quots, terms = list(filt.quotients), list(filt.terms)
    if kind == "term":
        i = draw(st.integers(0, len(terms) - 1))
        _, y = draw(family_and_object())
        if family.accepts(y) and y.k0() != terms[i].k0():
            terms[i] = y
    elif kind == "foreign" and quots:
        if len(quots) > 1:
            j = draw(st.integers(0, len(quots) - 2))
            quots[j], quots[j + 1] = quots[j + 1], quots[j]
        k = draw(st.integers(0, len(quots) - 1))
        quots[k] = (_foreign_slope(family), quots[k][1])
    if quots and draw(st.booleans()) and draw(st.booleans()):
        pos = draw(st.integers(0, len(terms) + len(quots) - 1))
        bad = type(family.zero)._raw(((draw(st.sampled_from(x.terms))[0], 1.5),))
        if pos < len(terms):
            terms[pos] = bad
        else:
            quots[pos - len(terms)] = (quots[pos - len(terms)][0], bad)
    return family, x, HNFiltration(family, tuple(quots), tuple(terms))


def _verdict(check, x, filt, family):
    """The report of a check, or the type and message of what it raised."""
    try:
        return check(x, filt, family)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _float_quotient_after_a_k0_failure():
    """Quotients 0 and 1 swapped, so K0 additivity fails at 0 and never reads
    quotient 2, 1.5 * O(3)."""
    family, x = StandardP1(), line(1) + line(2) + line(3)
    filt = family.hn(x)
    q0, q1, (slope, obj) = filt.quotients
    bad = DerivedObject._raw(((obj.terms[0][0], 1.5),))  # past the constructor's checks
    return family, x, HNFiltration(family, (q1, q0, (slope, bad)), filt.terms)


@settings(max_examples=400)
@given(verified_filtrations())
@example(_float_quotient_after_a_k0_failure())
def test_verify_hn_matches_the_k0class_and_compare_oracle(case):
    family, x, filt = case
    assert _verdict(verify_hn, x, filt, family) == _verdict(oracle_verify_hn, x, filt, family)


# --- JSON round trip ------------------------------------------------------------------------

def _respell(data, text):
    """Another spelling of a rendered object: "[0]" shifts, "1*" and "0*"
    multiplicities, k*A split as A + (k-1)*A, bare zeros and whitespace
    leave the object unchanged."""
    summands = [] if text == "0" else text.split(" + ")
    out = []
    for summand in summands:
        if "[" not in summand and data.draw(st.booleans()):
            summand += data.draw(st.sampled_from(["[0]", " [ 0 ]", "[-0]", "[+0]"]))
        if "*" not in summand and data.draw(st.booleans()):
            summand = "1*" + summand
        elif "*" in summand and data.draw(st.booleans()):
            mult, atom = summand.split("*")
            out.append(atom)  # k*A as A + (k-1)*A
            summand = f"{int(mult) - 1}*{atom}"
        if data.draw(st.booleans()):
            out.append("0*" + summand.split("*")[-1])
        out.append(summand)
    if not out or data.draw(st.booleans()):
        out.insert(data.draw(st.integers(0, len(out))), data.draw(st.sampled_from(["0", "0[2]"])))
    return data.draw(_WS) + " + ".join(out) + data.draw(_WS)


@settings(max_examples=50)
@given(family_and_object(max_size=30), st.data())
def test_filtration_json_round_trip_all_families(case, data):
    family, drawn = case
    # Points as the family's documents resolve them (see ROADMAP item 4).
    category = "elliptic" if isinstance(family.zero, EllipticObject) else "p1"
    x = oracle_parse_object(drawn.render(), category, point_resolver(family.point_labels))
    filt = family.hn(x)
    doc = filt.to_json()
    x2, filt2 = cli.filtration_from_json(doc)
    assert x2 == x and filt2 == filt
    assert filt2.to_json() == doc
    respelled = {**doc,
                 "object": _respell(data, doc["object"]),
                 "quotients": [{**q, "object": _respell(data, q["object"])}
                               for q in doc["quotients"]],
                 "terms": [_respell(data, t) for t in doc["terms"]]}
    x3, filt3 = cli.filtration_from_json(respelled)
    assert x3 == x and filt3 == filt
    assert filt3.to_json() == doc


# --- terms as tails -------------------------------------------------------------------------

def _to_json_outcome(to_json, filt):
    try:
        return to_json(filt)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _read_outcome(read, data):
    """What a reader makes of a document: every object with its type, or the error."""
    try:
        x, filt = read(data)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc), getattr(exc, "position", None)
    return (type(x), x.terms, filt.family.descriptor(),
            tuple((s, type(o), o.terms) for s, o in filt.quotients),
            tuple((type(t), t.terms) for t in filt.terms))


@st.composite
def float_tails(draw):
    """A filtration of `verified_filtrations`, where one summand pair (a, m) of a
    term may become (a, 1.5): in that term alone, where it may lie in the head,
    or in every term that holds it, so that each tail stays a tail."""
    family, x, filt = draw(verified_filtrations())
    held = [(i, pair) for i, t in enumerate(filt.terms) for pair in t.terms]
    kind = draw(st.sampled_from(("none", "head", "tail")))
    if kind == "none" or not held:
        return family, x, filt
    i, (atom, m) = draw(st.sampled_from(held))
    terms = list(filt.terms)
    for j, t in enumerate(terms):
        if (kind == "tail" or j == i) and (atom, m) in t.terms:
            terms[j] = t._raw(tuple((a, 1.5) if (a, k) == (atom, m) else (a, k)
                                    for a, k in t.terms))
    return family, x, HNFiltration(family, filt.quotients, tuple(terms))


def _one_float_pair(where):
    """line(1) + line(2) + line(3) under `StandardP1`, whose terms are each a tail
    of the one before, with O(2) of multiplicity 1.5 in the head of terms[1]
    alone, or in every term as a tail."""
    family, x = StandardP1(), line(1) + line(2) + line(3)
    filt = family.hn(x)
    o2 = filt.terms[1].terms[0]
    terms = [t._raw(tuple((a, 1.5) if (a, m) == o2 and (where == "tail" or i == 1) else (a, m)
                          for a, m in t.terms)) for i, t in enumerate(filt.terms)]
    return family, x, HNFiltration(family, filt.quotients, tuple(terms))


@settings(max_examples=300)
@given(float_tails())
@example(_one_float_pair("head"))
@example(_one_float_pair("tail"))
def test_terms_as_tails_render_and_sum_like_the_full_path_oracles(case):
    """`to_json` and `verify_hn` give what rendering and summing every term in full
    gives, raises (K0Class's TypeError at the first term of a 1.5 multiplicity) included."""
    family, x, filt = case
    assert _to_json_outcome(HNFiltration.to_json, filt) == _to_json_outcome(oracle_to_json, filt)
    assert _verdict(verify_hn, x, filt, family) == _verdict(oracle_verify_hn, x, filt, family)


def test_a_float_multiplicity_raises_at_its_first_term():
    """With 1.5 in the head of terms[1] alone, terms[1] is no tail of terms[0] and
    raises; with 1.5 in every term, terms[0] raises before any tail is read."""
    for where, rank in (("head", "2.5"), ("tail", "3.5")):
        family, x, filt = _one_float_pair(where)
        with pytest.raises(TypeError, match=f"K0 component must be an integer, got {rank}$"):
            verify_hn(x, filt, family)
        assert "1.5*O(2)" in filt.to_json()["terms"][1]


@settings(max_examples=100)
@given(family_and_object(max_size=30))
def test_hn_text_form_renders_like_the_full_path_oracle(case):
    """The text of `tstab hn`, built from the texts of its document, tails included,
    prints the object, each quotient and every term as `render` does."""
    family, x = case
    filt = family.hn(x)
    assert cli._filtration_text(filt, filt.to_json()).splitlines() == [
        f"object: {filt.object.render()}", "quotients:",
        *(f"  {family.render_slope(s)}: {o.render()}" for s, o in filt.quotients),
        "terms: " + " -> ".join(t.render() for t in filt.terms)]


@settings(max_examples=100)
@given(family_and_object(max_size=30), st.data())
def test_terms_as_tails_read_like_the_per_term_oracle(case, data):
    """Real documents of every family kind, and the same documents respelled, read
    as the oracle reads them, term by term."""
    family, x = case
    doc = family.hn(x).to_json()
    respelled = {**doc, "terms": [_respell(data, t) if data.draw(st.booleans()) else t
                                  for t in doc["terms"]]}
    for d in (doc, respelled):
        assert _read_outcome(cli.filtration_from_json, d) \
            == _read_outcome(oracle_filtration_from_json, d)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mangled_documents_read_like_the_per_term_oracle(text):
    """Mangled `hn` documents give the oracle's objects, or its error, message and position."""
    try:
        data = json.loads(text)
    except ValueError:
        assume(False)
    assert _read_outcome(cli.filtration_from_json, data) \
        == _read_outcome(oracle_filtration_from_json, data)


@pytest.mark.parametrize("prev, text", [
    ("O(1) + O(2) + 0", "0"),         # a zero piece: the last summand is no piece's
    ("O(2) + O(1)", "O(1)"),          # sorted by `from_pairs`: the last summand is O(2)
    ("2*O(1) + O(1)", "O(1)"),        # merged into 3*O(1)
    (" O(2) + O(1)", "O(1)"),         # read by the scanner, and sorted
    ("O(1) + O(2) + 0[1]", "0[1]"),   # read by the scanner, a shifted zero dropped
])
def test_a_term_is_a_tail_only_of_one_summand_per_piece(prev, text):
    """Where a rule that took the last pieces' count of summands would be wrong."""
    doc = StandardP1().hn(line(1) + line(2)).to_json()
    doc["terms"] = [prev, text, "0"]
    outcome = _read_outcome(cli.filtration_from_json, doc)
    assert outcome == _read_outcome(oracle_filtration_from_json, doc)
    assert outcome[-1][1] == (DerivedObject, cli.parse_object(text).terms)


def test_a_tail_term_is_not_parsed_again(monkeypatch):
    """Of a five-line `StandardP1` document, whose terms are each a tail of the one
    before, the object, the quotients and the first term alone are parsed."""
    doc = StandardP1().hn(normalize([(ShiftedIndec(Line(n)), 1) for n in range(5)])).to_json()
    assert all(t.endswith(" + " + u) for t, u in zip(doc["terms"], doc["terms"][1:-1]))
    read, texts = syntax._read_object, []
    monkeypatch.setattr(syntax, "_read_object", lambda text, *rest: texts.append(text)
                        or read(text, *rest))
    x, filt = syntax.filtration_from_json(doc)
    assert texts == [doc["object"], *(q["object"] for q in doc["quotients"]), doc["terms"][0],
                     "0"]
    assert (x, filt) == oracle_filtration_from_json(doc) and filt.to_json() == doc


# --- atoms ----------------------------------------------------------------------------------

def _sheaves(order):
    """Each curve's sheaves, points drawn in the family's order and lexicographic,
    with the atom oracle of that curve."""
    p1_sheaves = st.one_of(st.integers(-6, 6).map(Line),
                           st.builds(Torsion, _points(order), st.integers(1, 4)))
    skyscrapers = _points(order).map(lambda pt: StableClass(0, 1, pt))
    return ((OracleShiftedIndec, DerivedObject, p1_sheaves),
            (OracleShiftedClass, EllipticObject, st.one_of(stable_classes(order), skyscrapers)))


@settings(max_examples=150)
@given(st.data())
def test_atoms_match_per_curve_oracles(data):
    order = data.draw(st.sampled_from(ORDERS))
    n = data.draw(st.integers(-3, 3))
    for oracle, curve, sheaves in _sheaves(order):
        drawn = data.draw(st.lists(st.tuples(sheaves, st.integers(-4, 4)), min_size=1,
                                   max_size=6))
        atoms = [(ShiftedIndec(b, sh), oracle(b, sh)) for b, sh in drawn]
        for new, old in atoms:
            assert new.key() == old.key()
            assert new.rank_degree() == old.rank_degree()
            assert new.k0() == old.k0()
            assert new.render() == repr(new) == old.render()
        for (a, old_a), (b, old_b) in itertools.product(atoms, repeat=2):
            for i in range(-1, 3):
                assert a.ext_dim(b, i) == old_a.ext_dim(old_b, i)
        # Keys lead with the shift, so `shift` keeps the term order.
        x = curve.from_pairs((t, 1) for t, _ in atoms)
        assert x.shift(n) == curve.from_pairs((t.shifted(n), m) for t, m in x.summands())


def oracle_stable_key(cls):
    """`StableClass.key` as it was: the slope as a Fraction, the skyscraper's as
    Fraction(0) behind a 1."""
    mu_key = (1, Fraction(0)) if cls.r == 0 else (0, Fraction(cls.d, cls.r))
    return (*mu_key, *cls.x.key())


class OracleComputedAtom:
    """`ShiftedIndec` as it was before it cached its derived values: each method
    computes its value from the base on every call."""

    def __init__(self, base, shift):
        self.base, self.shift = base, shift

    def __hash__(self):
        return hash((self.base, self.shift))

    def key(self):
        base_key = oracle_stable_key(self.base) if isinstance(self.base, StableClass) \
            else self.base.key()
        return (self.shift, *base_key)

    def rank_degree(self):
        r, d = self.base.rank_degree()
        return (-r, -d) if self.shift % 2 else (r, d)

    def render(self):
        s = self.base.render()
        return f"{s}[{self.shift}]" if self.shift else s


def _as_fractions(key):
    """A sort key with its slope read as the old key's pair: (0, Fraction(d, r)),
    or (1, Fraction(0)) for +infinity."""
    return tuple(part for k in key for part in
                 (oracle_extended(k).key() if isinstance(k, ExtendedRational) else (k,)))


@settings(max_examples=200)
@given(st.data())
def test_cached_atom_values_match_the_computing_oracle(data):
    order = data.draw(st.sampled_from(ORDERS))
    p1_sheaves = st.one_of(st.integers(-8, 8).map(Line),
                           st.builds(Torsion, _points(order), st.integers(1, 4)))
    skyscrapers = _points(order).map(lambda pt: StableClass(0, 1, pt))
    classes = st.one_of(stable_classes(order, max_rank=6, max_degree=9), skyscrapers)
    for sheaves in (p1_sheaves, classes):
        drawn = data.draw(st.lists(st.tuples(sheaves, st.integers(-5, 5)), min_size=1,
                                   max_size=8))
        atoms = [(ShiftedIndec(b, sh), OracleComputedAtom(b, sh)) for b, sh in drawn]
        for new, old in atoms:
            assert new._hash == hash(new) == hash(old)
            assert _as_fractions(new._key) == _as_fractions(new.key()) == old.key()
            assert new._rd == new.rank_degree() == old.rank_degree()
            assert new._text == new.render() == old.render()
        for (a, old_a), (b, old_b) in itertools.product(atoms, repeat=2):
            assert (a.key() == b.key()) == (old_a.key() == old_b.key())
            assert (a.key() < b.key()) == (old_a.key() < old_b.key())
        positions = range(len(atoms))
        assert sorted(positions, key=lambda j: atoms[j][0].key()) == \
            sorted(positions, key=lambda j: atoms[j][1].key())


def oracle_atoms_equal(a, b) -> bool:
    """Whether two per-call atoms are equal as the atom value type compared them:
    the same atom type over an equal sheaf at the same shift."""
    return type(a) is type(b) and vars(a) == vars(b)


def oracle_fields(value):
    """A sheaf or point as plain data, its class and its fields, a point field
    read the same way: equal as the field-comparing value types compared them."""
    if isinstance(value, Value):
        return type(value), tuple(oracle_fields(getattr(value, f)) for f in value._fields)
    return value


_ROUND_TRIPS = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))


@settings(max_examples=200)
@given(st.data())
def test_atoms_are_one_object_exactly_when_the_oracle_atoms_are_equal(data):
    order = data.draw(st.sampled_from(ORDERS))
    atoms = []
    for oracle, _, sheaves in _sheaves(order):
        drawn = data.draw(st.lists(st.tuples(sheaves, st.integers(-2, 2)), min_size=1,
                                   max_size=8))
        # some pairs again, over a sheaf (and point) built again from its fields
        drawn += [(copy.deepcopy(b), sh) for b, sh in
                  data.draw(st.lists(st.sampled_from(drawn), max_size=3))]
        atoms += [(ShiftedIndec(b, sh), oracle(b, sh)) for b, sh in drawn]
    for new, old in atoms:
        assert new.key() == old.key()
        assert new.rank_degree() == old.rank_degree()
        assert new.render() == old.render()
        assert all(round_trip(new) is new for round_trip in _ROUND_TRIPS)
    for (a, old_a), (b, old_b) in itertools.product(atoms, repeat=2):
        assert (a is b) == (a == b) == oracle_atoms_equal(old_a, old_b)
        assert (a != b) == (not oracle_atoms_equal(old_a, old_b))
        if type(old_a) is type(old_b):  # Ext is within one curve
            for i in range(-1, 3):
                assert a.ext_dim(b, i) == old_a.ext_dim(old_b, i)
    # the sheaves and points under the atoms: one object exactly when the fields are equal
    parts = [part for new, _ in atoms for part in (new.base, getattr(new.base, "x", None))
             if part is not None]
    for part in parts:
        fields = tuple(getattr(part, f) for f in part._fields)
        assert type(part)(*fields) is part and hash(part) == hash(fields)
        assert all(round_trip(part) is part for round_trip in _ROUND_TRIPS)
    for a, b in itertools.product(parts, repeat=2):
        assert (a is b) == (a == b) == (oracle_fields(a) == oracle_fields(b))
        assert (a != b) == (oracle_fields(a) != oracle_fields(b))


_TABLES = (Point, Line, Torsion, StableClass, ShiftedIndec)  # the interned classes
_NOT_SHIFTS = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
                        st.just(None), st.fractions())
_NOT_SHEAVES = st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
                         _points(LABELS),
                         st.builds(Torsion, st.sampled_from(LABELS), st.integers(1, 3)))


@settings(max_examples=200)
@given(st.data())
def test_a_failed_atom_build_leaves_the_table_unchanged(data):
    order = data.draw(st.sampled_from(ORDERS))
    p1_sheaves, ell_sheaves = (sheaves for _, _, sheaves in _sheaves(order))
    base, shift = data.draw(st.one_of(
        st.tuples(st.one_of(p1_sheaves, ell_sheaves), _NOT_SHIFTS),
        st.tuples(_NOT_SHEAVES, st.integers(-3, 3))))
    x = data.draw(_points(order))
    bad_base = data.draw(st.sampled_from([  # refused by the rules run on a miss
        lambda: Torsion(x, 0), lambda: StableClass(2, 4, x), lambda: StableClass(0, 2, x),
        lambda: Point("a b")]))
    before = [dict(cls._table) for cls in _TABLES]
    with pytest.raises((TypeError, AttributeError)):
        ShiftedIndec(base, shift)
    with pytest.raises(ValueError):
        bad_base()
    assert [cls._table for cls in _TABLES] == before


def _atoms_of(x, filt):
    return [atom for obj in (x, *(q for _, q in filt.quotients), *filt.terms)
            for atom, _ in obj.terms]


@settings(max_examples=50)
@given(family_and_object(max_size=20))
def test_a_read_back_filtration_holds_the_original_atoms(case):
    family, drawn = case
    # Points as the family's documents resolve them (see ROADMAP item 4).
    category = "elliptic" if isinstance(family.zero, EllipticObject) else "p1"
    x = oracle_parse_object(drawn.render(), category, point_resolver(family.point_labels))
    filt = family.hn(x)
    x2, filt2 = syntax.filtration_from_json(filt.to_json())
    read, held = _atoms_of(x2, filt2), _atoms_of(x, filt)
    assert len(read) == len(held) and all(a is b for a, b in zip(read, held))


def test_extended_rational_compares_only_with_extended_rationals():
    half, third = ExtendedRational(1, 2), ExtendedRational(-1, 3)
    assert third < half <= half and half > third >= third and half == ExtendedRational(1, 2)
    assert hash(half) == hash(ExtendedRational(1, 2)) and half != third
    for other in (Fraction(1, 2), 0.5, 0, "1/2", OracleMuKey(1, 2), OracleExtendedRational()):
        assert half != other and other != half
        with pytest.raises(TypeError):
            half < other
    assert StableClass(0, 1, Point("x")).key()[0] == PLUS_INFINITY


_EXTENDED_FIELDS = st.one_of(
    st.just((1, 0)),
    st.tuples(st.integers(-30, 30), st.integers(1, 12)).filter(lambda dr: math.gcd(*dr) == 1))


@settings(max_examples=300)
@given(st.lists(_EXTENDED_FIELDS, min_size=1, max_size=6),
       st.tuples(st.integers(-60, 60), st.integers(-20, 20)),
       st.lists(st.one_of(stable_classes(max_rank=6, max_degree=9),
                          _points(LABELS).map(lambda pt: StableClass(0, 1, pt))), max_size=6))
def test_extended_rational_matches_the_fraction_and_mu_key_oracles(fields, raw, classes):
    values = [(ExtendedRational(d, r), oracle_extended(ExtendedRational(d, r))) for d, r in fields]
    for new, old in values:
        assert repr(new) == repr(old)
        assert new.is_infinite == old.is_infinite
        if not new.is_infinite:
            assert new == ExtendedRational.finite(old.value)
    for (a, old_a), (b, old_b) in itertools.product(values, repeat=2):
        assert (a == b) == (old_a == old_b) and (a != b) == (old_a != old_b)
        assert (a < b) == (old_a < old_b) and (a <= b) == (old_a <= old_b)
        assert (a > b) == (old_b < old_a) and (a >= b) == (old_b <= old_a)
        assert a != b or hash(a) == hash(b)
    # the reducing constructor gives Fraction's lowest terms, +infinity for r = 0, d != 0
    d, r = raw
    if d == r == 0:
        with pytest.raises(ZeroClassError):
            ExtendedRational.reduced(d, r)
        d = 1
    expected = ORACLE_PLUS_INFINITY if r == 0 else OracleExtendedRational.finite(Fraction(d, r))
    reduced = ExtendedRational.reduced(d, r)
    assert repr(reduced) == repr(expected)
    assert reduced.r >= 0 and math.gcd(reduced.d, reduced.r) == 1
    # class keys lead with the class's own slope and order as the MuKey and Fraction keys did
    keys = [(cls.key(), oracle_mu_key_stable_key(cls), oracle_stable_key(cls)) for cls in classes]
    for cls, (key, _, _) in zip(classes, keys):
        assert key[0] == cls.mu() and repr(key[0]) == repr(oracle_extended(cls))
    for (a, mu_a, old_a), (b, mu_b, old_b) in itertools.product(keys, repeat=2):
        assert (a == b) == (mu_a == mu_b) == (old_a == old_b)
        assert (a < b) == (mu_a < mu_b) == (old_a < old_b)


# --- the abelian slope gamma -------------------------------------------------------------

class OracleOne(Value):
    """`slopes.One` as it was: the slope component above every Nu."""

    __slots__ = ()


class OracleNu(Value):
    """`slopes.Nu` as it was: nu(q) = arccot(q)/pi, so the order of q is reversed."""

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        set_field(self, "q", q)


def oracle_component_key(c):
    # One sorts above every Nu; among Nu values the order of q is reversed.
    if isinstance(c, OracleOne):
        return (1, Fraction(0))
    return (0, -c.q)


class OracleSlopeValue(Value):
    """`slopes.SlopeValue` as it was: a vector of One and Nu components, ordered
    lexicographically through their Fraction keys."""

    __slots__ = ("components",)

    def __init__(self, components):
        set_field(self, "components", components)

    def key(self):
        return tuple(oracle_component_key(c) for c in self.components)


def oracle_gamma_slope(system, cls):
    """`slopes.gamma_slope` as it was: s leading One components, s the index of
    the first nonzero value, then Nu(-x_{s+j}/x_s) for the later positions."""
    if cls.arity != system.arity:
        raise ArityMismatchError(f"class arity {cls.arity} vs system arity {system.arity}")
    if cls.is_zero:
        raise ZeroClassError("the zero class has no slope")
    reason = slopes._nonzero_cascade_violation(cls)
    if reason is not None:
        raise NotPositiveError(reason)
    comps = cls.components
    s = next(i for i, c in enumerate(comps) if c != 0)
    parts = [OracleOne()] * s
    for j in range(s + 1, len(comps)):
        parts.append(OracleNu(Fraction(-comps[j], comps[s])))
    return OracleSlopeValue(tuple(parts))


def _gamma_or_error(gamma, system, cls):
    try:
        return gamma(system, cls)
    except TStabError as exc:
        return type(exc), str(exc)


@st.composite
def k0_classes(draw, arity):
    """A K0 class of the given arity, positive or not, with leading zeros often."""
    zeros = draw(st.integers(0, arity))
    rest = draw(st.lists(st.integers(-12, 12), min_size=arity - zeros, max_size=arity - zeros))
    return K0Class((0,) * zeros + tuple(rest))


@settings(max_examples=300)
@given(st.integers(2, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(k0_classes(r), min_size=1, max_size=6))))
def test_gamma_slope_matches_the_one_and_nu_oracle(case):
    arity, classes = case
    system = PositiveSystem(tuple(f"x{i}" for i in range(arity)))
    slopes_of = []
    for cls in classes:
        new = _gamma_or_error(gamma_slope, system, cls)
        old = _gamma_or_error(oracle_gamma_slope, system, cls)
        if isinstance(old, OracleSlopeValue):
            assert len(new) == len(old.components) == arity - 1
            assert all(n.__class__ is ExtendedRational for n in new)
            slopes_of.append((new, old))
        else:
            assert new == old  # the zero class and a class that is not positive
    for (a, old_a), (b, old_b) in itertools.product(slopes_of, repeat=2):
        assert compare_slopes(a, b) == Ordering.of(old_a.key(), old_b.key())
        assert (a == b) == (old_a == old_b) and (a != b or hash(a) == hash(b))


# --- value types ----------------------------------------------------------------------------

def _dataclass_oracles():
    """The frozen dataclasses that the hand-written value types replaced.

    Each keeps its fields, defaults, `field(compare=False)`, `__post_init__`
    and `__repr__` as they were; the other methods do not bear on `==`,
    `hash`, `repr`, construction or refused assignment and are left out.
    The classes get their library names, which the dataclass `repr` prints.
    The two slope records and `ExtendedRational` have their present fields: a
    `StandardSlope` level is a degree or a Point, an `EllipticSlope` reads mu
    off its class, and an exact slope is the coprime pair (d, r) with r >= 0.
    `ShiftedIndec` is the one atom of both curves and prints its base's
    `render`, which the three sheaf records therefore keep.
    """
    @dataclass(frozen=True)
    class Point:
        label: str
        order_index: int = 0

        def __post_init__(self):
            if not isinstance(self.label, str) or not re.match(r"[A-Za-z0-9]+\Z", self.label):
                raise ValueError(f"point label must be letters/digits, got {self.label!r}")

        def __repr__(self):
            return self.label

    @dataclass(frozen=True)
    class Line:
        n: int

        def render(self) -> str:
            return f"O({self.n})"

    @dataclass(frozen=True)
    class Torsion:
        x: Point
        d: int

        def __post_init__(self):
            if self.d < 1:
                raise ValueError(f"torsion length must be >= 1, got {self.d}")

        def render(self) -> str:
            return f"T({self.x.label},{self.d})"

    @dataclass(frozen=True)
    class ShiftedIndec:
        base: object
        shift: int = 0

        def render(self) -> str:
            s = self.base.render()
            if self.shift != 0:
                s += f"[{self.shift}]"
            return s

        def __repr__(self):
            return self.render()

    @dataclass(frozen=True)
    class FormalSum:
        terms: tuple = ()

        def render(self) -> str:
            if not self.terms:
                return "0"
            return " + ".join(t.render() if m == 1 else f"{m}*{t.render()}"
                              for t, m in self.terms)

        def __repr__(self):
            return self.render()

    class DerivedObject(FormalSum):
        pass

    class EllipticObject(FormalSum):
        pass

    @dataclass(frozen=True)
    class StableClass:
        r: int
        d: int
        x: Point

        def __post_init__(self):
            if self.r < 0:
                raise ValueError("rank must be nonnegative")
            if self.r == 0 and self.d != 1:
                raise ValueError("rank-zero classes are skyscrapers: degree must be 1")
            if math.gcd(self.r, self.d) != 1:
                raise ValueError(f"rank and degree must be coprime, got ({self.r}, {self.d})")

        def render(self) -> str:
            return f"S({self.r},{self.d},{self.x.label})"

        def __repr__(self):
            return self.render()

    @dataclass(frozen=True)
    class K0Class:
        components: tuple

        def __post_init__(self):
            object.__setattr__(self, "components", tuple(int(c) for c in self.components))

        def __repr__(self):
            return f"K0{self.components}"

    @dataclass(frozen=True)
    class HomProfile:
        entries: tuple = ()

        def __repr__(self):
            return "{" + ", ".join(f"{q}: {n}" for q, n in self.entries) + "}"

    @dataclass(frozen=True)
    class ExtendedRational:
        d: int
        r: int

        def __repr__(self):
            return "+inf" if self.r == 0 else str(self.d) if self.r == 1 else f"{self.d}/{self.r}"

    @dataclass(frozen=True)
    class CoarseSlope:
        i: int

        def __repr__(self):
            return f"({self.i})"

    @dataclass(frozen=True)
    class StandardSlope:
        i: int
        level: object  # a line degree (int) or a Point

        def __repr__(self):
            level = self.level if isinstance(self.level, int) else self.level.label
            return f"({self.i}, {level})"

    @dataclass(frozen=True)
    class ExceptionalSlope:
        i: int
        col: int

        def __post_init__(self):
            if self.col not in (0, 1):
                raise ValueError("column must be 0 or 1")

        def __repr__(self):
            return f"({self.i}, col {self.col})"

    @dataclass(frozen=True)
    class EllipticSlope:
        i: int
        cls: StableClass

        def __repr__(self):
            mu = "+inf" if self.cls.r == 0 else Fraction(self.cls.d, self.cls.r)
            return f"({self.i}, {mu}, {self.cls})"

    @dataclass(frozen=True)
    class CheckItem:
        name: str
        ok: bool
        detail: str = ""

    @dataclass(frozen=True)
    class HNFiltration:
        family: object = field(compare=False)
        quotients: tuple = ()
        terms: tuple = ()

        def __post_init__(self):
            if len(self.terms) != len(self.quotients) + 1:
                raise ValueError("terms must be one longer than quotients")

    oracles = {name: cls for name, cls in locals().items() if isinstance(cls, type)}
    for name, cls in oracles.items():
        cls.__qualname__ = name
    return oracles


ORACLE_TYPES = _dataclass_oracles()
VALUE_TYPES = {name: getattr(module, name) for module in (p1, elliptic, slopes, stability)
               for name in ORACLE_TYPES if hasattr(module, name)}

# A recipe names a value type and its arguments, which may be recipes; `_build`
# makes it from the library's types or from the oracles.
Make = namedtuple("Make", "name args")


def _build(recipe, types):
    if isinstance(recipe, Make):
        return types[recipe.name](*(_build(a, types) for a in recipe.args))
    if isinstance(recipe, tuple):
        return tuple(_build(a, types) for a in recipe)
    return recipe


def _make(name, *args):
    return st.tuples(*args).map(lambda built: Make(name, built))


_INTS = st.integers(-3, 3)
_LABEL_TEXT = st.sampled_from(["x", "y", "z", "P1", "", "a\n", "é", "x y", 7])
_POINT = _make("Point", _LABEL_TEXT, _INTS)
_INDEC = st.one_of(_make("Line", _INTS), _make("Torsion", _POINT, st.integers(-1, 3)))
_SHIFTED_INDEC = _make("ShiftedIndec", _INDEC, _INTS)
_STABLE = _make("StableClass", st.integers(-1, 3), st.integers(-2, 3), _POINT)
_SHIFTED_STABLE = _make("ShiftedIndec", _STABLE, _INTS)
_EXTENDED = _EXTENDED_FIELDS.map(lambda dr: Make("ExtendedRational", dr))
_SLOPE = st.one_of(_make("CoarseSlope", _INTS),
                   _make("StandardSlope", _INTS, st.one_of(_INTS, _POINT)),
                   _make("ExceptionalSlope", _INTS, st.integers(-1, 2)),
                   _make("EllipticSlope", _INTS, _STABLE))
_SUMMANDS = {curve: st.lists(st.tuples(atom, st.integers(1, 3)), max_size=3)  # a curve's own atoms
             for curve, atom in (("DerivedObject", _SHIFTED_INDEC),
                                 ("EllipticObject", _SHIFTED_STABLE))}


def _in_normal_form(pairs):
    """The drawn summands one per atom, by ascending atom key, as the sums'
    constructor takes them; as drawn if an atom does not build."""
    try:
        atoms = [_build(atom, VALUE_TYPES) for atom, _ in pairs]
    except Exception:  # both sides raise it alike
        return tuple(pairs)
    first = {}
    for atom, pair in zip(atoms, pairs):
        first.setdefault(atom, pair)
    return tuple(first[atom] for atom in sorted(first, key=ShiftedIndec.key))


_SUM = st.sampled_from(sorted(_SUMMANDS)).flatmap(
    lambda curve: _SUMMANDS[curve].map(lambda pairs: Make(curve, (_in_normal_form(pairs),))))
_FAMILIES = (CoarseZ(), StandardP1(("y", "x")), ExceptionalP1(0, INF), EllipticStandard())
_FILTRATION = _make("HNFiltration", st.sampled_from(_FAMILIES),
                    st.lists(st.tuples(_SLOPE, _SUM), max_size=2).map(tuple),
                    st.lists(_SUM, min_size=1, max_size=3).map(tuple))
_VALUE = st.one_of(
    _POINT, _INDEC, _SHIFTED_INDEC, _STABLE, _SHIFTED_STABLE, _EXTENDED, _SLOPE, _SUM,
    _make("K0Class", st.lists(_INTS, max_size=3).map(tuple)),
    _make("HomProfile", st.lists(st.tuples(_INTS, st.integers(1, 3)), max_size=3).map(tuple)),
    _make("CheckItem", st.sampled_from(["a", "b"]), st.booleans(), st.sampled_from(["", "d"])),
    _FILTRATION)


def _value_outcome(recipe, types):
    """The value a recipe builds, or the (type name, message) of what building
    or printing it raises."""
    try:
        value = _build(recipe, types)
        repr(value)
    except Exception as exc:  # both sides must raise alike
        return None, (type(exc).__name__, str(exc))
    return value, None


def _refusals(obj, name):
    """What assigning and deleting field `name` of obj raise."""
    out = []
    for action in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name)):
        with pytest.raises(AttributeError) as info:
            action()
        out.append(str(info.value))
    return out


@settings(max_examples=400)
@given(_VALUE, _VALUE)
def test_value_types_match_dataclass_oracles(a, b):
    new_a, err_a = _value_outcome(a, VALUE_TYPES)
    old_a, old_err_a = _value_outcome(a, ORACLE_TYPES)
    assert err_a == old_err_a
    if err_a:
        return
    assert type(new_a).__name__ == type(old_a).__name__
    assert repr(new_a) == repr(old_a)
    assert hash(new_a) == hash(old_a)
    assert new_a != old_a and old_a != new_a  # a value type never equals another class
    assert type(new_a)._fields == tuple(f.name for f in dataclasses.fields(old_a))
    for name in type(new_a)._fields:
        assert _refusals(new_a, name) == _refusals(old_a, name)
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        again = round_trip(new_a)
        assert type(again) is type(new_a)
        assert again == new_a and hash(again) == hash(new_a) and repr(again) == repr(new_a)

    # The same arguments under every other type name, and the second drawn value.
    others = [Make(name, a.args) for name in VALUE_TYPES if name != a.name] + [b]
    for other in others:
        new_b, err_b = _value_outcome(other, VALUE_TYPES)
        old_b, old_err_b = _value_outcome(other, ORACLE_TYPES)
        if err_b or old_err_b:
            continue
        assert (new_a == new_b) == (old_a == old_b)
        assert (new_a != new_b) == (old_a != old_b)
        # Equal hashes of equal fields: sets iterate in the same order.
        assert [repr(v) for v in {new_a, new_b}] == [repr(v) for v in {old_a, old_b}]


def test_every_oracle_has_a_value_type():
    assert VALUE_TYPES.keys() == ORACLE_TYPES.keys()


def test_compare_false_fields_take_no_part_in_equality():
    std, other = StandardP1(("y", "x")), StandardP1(("x", "y"))
    x = line(2) + line(3, 1)
    filt = std.hn(x)
    moved = HNFiltration(other, filt.quotients, filt.terms)
    assert moved == filt and hash(moved) == hash(filt) and repr(moved) != repr(filt)
    assert HeartDescription(std, CoarseCut(0)) == HeartDescription(CoarseZ(), CoarseCut(0))
    entry = catalog("A")
    assert CatalogEntry(entry.name, entry.params, other, entry.cut) == \
        CatalogEntry(entry.name, entry.params, entry.family, entry.cut)


# --- window checks ------------------------------------------------------------------


class _ScrambledOrder(StandardP1):
    """Deliberately wrong: slopes ordered by a checksum of the true key, so the
    first failing generator pair can lie anywhere in the window."""

    def __init__(self, order=(), salt=0):
        super().__init__(order)
        set_field(self, "salt", salt)

    def slope_key(self, s):
        key = super().slope_key(s)
        return (zlib.crc32(repr((self.salt, key)).encode()), key)


_BROKEN_FAMILIES = (_TorsionBelowLines(), _ShiftsDescend(),
                    *(_ScrambledOrder(ORDERS[salt % 4], salt) for salt in range(4)))
_WINDOW_FAMILIES = (
    CoarseZ(), StandardP1(), *(StandardP1(order) for order in ORDERS),
    *(ExceptionalP1(k, p) for k in (-1, 0, 1) for p in (0, 1, INF)),
    EllipticStandard(), *(EllipticStandard(order) for order in ORDERS),
    *_COARSENED.values(), _ONE_BLOCK_FAMILIES["coarse"], _ONE_BLOCK_FAMILIES["std", ORDERS[1]],
    *_BROKEN_FAMILIES)


@st.composite
def family_and_window(draw):
    """A family, broken ones included, and a small window: a prefix of the
    family's points, in its order or reversed, and any seed."""
    family = draw(st.sampled_from(_WINDOW_FAMILIES))
    points = point_universe(family.point_labels)[:draw(st.integers(0, 3))]
    if draw(st.booleans()):
        points = points[::-1]
    return family, Window(max_degree=draw(st.integers(0, 4)), max_shift=draw(st.integers(0, 2)),
                          max_length=draw(st.integers(1, 3)), points=points,
                          samples=draw(st.integers(0, 2)), seed=draw(st.integers(0, 1 << 16)))


def _over_counts(check, *args):
    """The check's report, and the case count of each item built by `CheckItem.over`."""
    counts = {}
    over = CheckItem.over

    def counting(name, cases, ok, detail=""):
        counts[name] = cases
        return over(name, cases, ok, detail)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CheckItem, "over", staticmethod(counting))
        report = check(*args)
    return report, counts


@settings(max_examples=150, deadline=None)
@given(family_and_window())
def test_validate_stability_hom_sweep_matches_pairwise_oracle(case):
    family, window = case
    report, counts = _over_counts(validate_stability, family, window)
    if not family.window_generators(window):  # an elliptic window without points
        assert report.checks == (CheckItem("generators_semistable", False, "no cases examined"),)
        return
    item, pairs = oracle_window_hom_vanishing(family, window)
    assert [c for c in report.checks if c.name == "hom_vanishing"] == [item]
    assert counts["hom_vanishing"] == pairs


def test_validate_stability_hom_sweep_on_broken_orders():
    """Every broken family fails the Hom check, each with the oracle's first pair."""
    window = Window(max_degree=3, max_shift=1, max_length=2, samples=0)
    for family in _BROKEN_FAMILIES:
        report, counts = _over_counts(validate_stability, family, window)
        item, pairs = oracle_window_hom_vanishing(family, window)
        assert not item.ok and item.detail
        assert report.checks[2] == item and counts["hom_vanishing"] == pairs


def _window_cut_cases():
    """Every cut shape of `_cut_cases`, valid or not, on its family and on a
    scrambled one, plus valid and invalid elliptic point sets."""
    cases = list(_cut_cases())
    for order in ORDERS[:2]:
        cases += [(StandardP1(order), StandardCut(0, INF, frozenset(P)))
                  for P in (order[:1], order[:2], order[::2], ("q",))]
        cases += [(_ScrambledOrder(order, salt), StandardCut(m, K, None))
                  for salt, (m, K) in enumerate(((0, 0), (1, INF), (-1, -INF)))]
    cases += [(ExceptionalP1(0, p), ExceptionalCut(a, b))
              for p in (0, 1) for a, b in ((0, 0), (0, -5), (INF, 0), (-INF, 0))]
    ordered = EllipticStandard(("l", "m", "n"))
    cases += [(ordered, EllipticCut(0, 0, P)) for P in ({"l", "n"}, {"m"}, {"z"}, {"l"})]
    cases += [(EllipticStandard(), EllipticCut(0, 0, {"y"})),
              (EllipticStandard(), EllipticCut(1, 0))]
    cases += [(family, EllipticCut(0, q, S)) for q, S, family in _tilts()][::7]
    return cases


def test_validate_cut_matches_pairwise_up_closure_oracle():
    outcomes = set()
    for radius in (0, 1, 3):
        for family, cut in _window_cut_cases():
            report = validate_cut(cut, family, radius)
            assert report.checks[1] == oracle_window_up_closure(cut, family, radius)
            outcomes.add((report.checks[0].ok, report.checks[1].ok))
    assert outcomes == {(True, True), (True, False), (False, False), (False, True)}


def _protocol_cases():
    """(family, cut): the cases of `_window_cut_cases`, every elliptic tilt, a
    standard point set covering the universe, and every cut kind over every
    family, its own kind and each other one (a coarsened family included)."""
    cases = _window_cut_cases() + [(family, EllipticCut(0, q, S)) for q, S, family in _tilts()]
    cases += [(StandardP1(order), StandardCut(m, INF, frozenset(order)))
              for order in ORDERS[:2] for m in (-1, 0)]
    families = (CoarseZ(), StandardP1(LABELS), ExceptionalP1(0, 0), ExceptionalP1(1, INF),
                EllipticStandard(LABELS), coarsen(StandardP1(), by_shift_partition()))
    cuts = (CoarseCut(1), StandardCut(0, 2), StandardCut(0, INF, {"z"}), ExceptionalCut(2, 0),
            ExceptionalCut(INF, -INF), EllipticCut(0, Fraction(1, 2), {"x"}))
    return cases + [(family, cut) for family in families for cut in cuts]


def _result(call, *args):
    """What call(*args) returns, with its type, or the type and message of its error."""
    try:
        value = call(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return type(value), value, repr(value)


def test_cut_methods_match_the_dispatch_oracles():
    """Every rule a cut kind owns against the dispatcher it replaced: reasons,
    windows, verdicts, twist images, generators, classes and diagrams."""
    seen = set()
    for family, cut in _protocol_cases():
        reason = oracle_cut_validity_reason(cut, family)
        assert cut.validity_reason(family) == reason
        assert (cut.validity_reason(family) is None) == (reason is None)
        assert validate_cut(cut, family, 2) == oracle_validate_cut(cut, family, 2)
        if oracle_check_cut_family(cut, family) is None:
            for radius in (0, 2, 4):
                assert cut.window(family, radius) == oracle_window_slopes(cut, family, radius)
        heart = HeartDescription(family, cut)
        pairs = [((is_bounded, cut, family), (oracle_is_bounded, cut, family)),
                 ((heart.generators,), (oracle_heart_generators, cut, family)),
                 ((heart.generator_objects,), (oracle_generator_objects, cut, family)),
                 ((classify_bounded_cut, cut, family), (oracle_classify_bounded_cut, cut, family)),
                 ((diagram, cut, family), (oracle_diagram, cut, family)),
                 ((diagram, cut, family, 1), (oracle_diagram, cut, family, 1))]
        pairs += [((apply_twist_shift, cut, t, n), (oracle_apply_twist_shift, cut, t, n))
                  for t, n in ((0, 0), (1, -1), (-3, 2))]
        for new, old in pairs:
            outcome = _result(*new)
            assert outcome == _result(*old), (family, cut, new[0])
            seen.add(outcome[0].__name__)
    assert {"InvalidCutError", "UnboundedError", "UnsupportedFamilyError",
            "NotSlopeDescribableError", "Classification", "str", "bool"} <= seen


@settings(max_examples=100, deadline=None)
@given(family_and_window())
def test_finest_check_hom0_matches_profile_oracle(case):
    family, window = case
    report, counts = _over_counts(finest_check, family, window)
    expected, pairs = oracle_finest_check(family, window)
    assert report == expected and counts["mutual_hom_nonzero"] == pairs


def test_finest_check_oracle_cases():
    """Passing families, failing ones, and a window with no pairs."""
    window = Window(max_degree=2, max_shift=1, max_length=2)
    cases = [(family, window) for family in (StandardP1(ORDERS[1]), ExceptionalP1(1, INF),
                                             EllipticStandard(ORDERS[2]), EllipticStandard(),
                                             CoarseZ(), _COARSENED["exc", 0])]
    for family, w in cases + [(EllipticStandard(), Window(points=()))]:
        assert finest_check(family, w) == oracle_finest_check(family, w)[0]
    assert not finest_check(CoarseZ(), window).ok


# --- CLI settings and specs --------------------------------------------------------

_ORACLE_CUT_FIELDS = {"std": ("m", "K", "P"), "exc": ("a", "b"), "coarse": ("m",)}
_ORACLE_FAMILY_FIELDS = {"std": (), "coarse": (), "exc": ("k", "p"), "ell": ()}


def oracle_load_config(path: str) -> dict:
    """The config reader with one `if` per key; it names the format `fmt`."""
    settings: dict = {}
    for lineno, raw in enumerate(cli._read(path).split("\n"), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise TStabError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key == "points":
            settings["points"] = tuple(part.strip() for part in value.split(",") if part.strip())
        elif key == "k":
            settings["k"] = cli._int_field(value, "k", f"{path}:{lineno}")
        elif key == "p":
            settings["p"] = cli._parse_p(value, f"{path}:{lineno}")
        elif key == "format":
            if value not in ("text", "json"):
                raise TStabError(f"{path}:{lineno}: format must be text or json")
            settings["fmt"] = value
        elif key == "seed":
            settings["seed"] = cli._int_field(value, "seed", f"{path}:{lineno}")
        else:
            raise TStabError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def oracle_parse_cutspec(spec, session):
    """The cut spec reader with one `if` block per kind."""
    kind, fields = cli._spec_fields(spec, "cut", _ORACLE_CUT_FIELDS)
    bound = ("inf", "-inf")
    if kind == "std":
        m = cli._int_field(fields.get("m", "0"), "m", spec)
        K = cli._int_field(fields.get("K", "-inf"), "K", spec, bound)
        p_field = fields.get("P", "all")
        if K != INF and p_field != "all":  # a P that would have no effect
            raise TStabError(f"P must be all unless K = inf, got {p_field!r} in {spec!r}")
        if p_field == "all":
            P = None
        elif p_field == "none":
            P = frozenset()
        else:
            P = frozenset(lbl for lbl in p_field.split(";") if lbl)
        cut = StandardCut(m, K, P)
    elif kind == "exc":
        if "a" not in fields or "b" not in fields:
            raise TStabError("an exceptional cut needs a and b")
        cut = ExceptionalCut(cli._int_field(fields["a"], "a", spec, bound),
                             cli._int_field(fields["b"], "b", spec, bound))
    elif kind == "coarse":
        cut = CoarseCut(cli._int_field(fields.get("m", "0"), "m", spec))
    else:
        raise TStabError(f"unknown cut kind {kind!r} (use std:, exc: or coarse:)")
    return cut, oracle_parse_famspec(kind, session)


def oracle_parse_famspec(spec, session):
    """The family spec reader with one descriptor per kind."""
    kind, fields = cli._spec_fields(spec, "family", _ORACLE_FAMILY_FIELDS)
    if kind == "std":
        desc = {"family": "standard", "point_order": list(session.points)}
    elif kind == "coarse":
        desc = {"family": "coarse"}
    elif kind == "exc":
        k = cli._int_field(fields["k"], "k", spec) if "k" in fields else session.k
        p = cli._parse_p(fields["p"], spec) if "p" in fields else session.p
        desc = {"family": "exceptional", "k": k, "p": "inf" if p == INF else p}
    elif kind == "ell":
        desc = {"family": "elliptic", "point_order": list(session.points)}
    else:
        raise TStabError(f"unknown family {spec!r} (use std, coarse, exc:k=..,p=.. or ell)")
    return family_from_descriptor(desc)


def _cli_outcome(read, *args):
    try:
        return "ok", read(*args)
    except Exception as exc:  # the outcome is compared, so any error class counts
        return type(exc), str(exc)


_SPEC_VALUES = st.sampled_from(["0", "3", "-2", "+1", "inf", "-inf", "1_0", "1.5", " 3", "x", "",
                                "all", "none", "a;b", "x;y", ";", "\u0663"])
# The fields a spec of each kind draws most: its own, or those of the other
# reader (an exc cut takes a and b, an exc family k and p).
_SPEC_KEYS = {"std": ["mKP"], "exc": ["ab", "kp", "abkp"], "coarse": ["m"], "ell": [""],
              "foo": ["mkp"], "": ["m"]}


@st.composite
def specs(draw):
    """A cut or family spec: a known or unknown kind and any fields."""
    kind = draw(st.sampled_from(list(_SPEC_KEYS)))
    keys = draw(st.sampled_from(_SPEC_KEYS[kind]))
    own = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    fields = [f"{key}={draw(_SPEC_VALUES)}" for key in own]
    if draw(st.integers(0, 3)) == 0:  # one odd field: foreign, repeated, spaced or without "="
        odd = st.sampled_from(["q=1", "m", "", " P = x;z ", *(f"{key}=0" for key in keys)])
        fields.insert(draw(st.integers(0, len(fields))), draw(odd))
    return kind + (":" + ",".join(fields) if fields or draw(st.booleans()) else "")


_SESSIONS = st.builds(cli.SessionConfig, st.sampled_from([(), ("z", "x", "y"), ("b", "a")]),
                      st.sampled_from([-1, 0, 2]), st.sampled_from([0, 3, INF]))


@settings(max_examples=400)
@given(specs(), _SESSIONS)
@example("std:m=0,K=inf,P=none", cli.SessionConfig())
@example("std:K=inf,P=b;;a,m=-1", cli.SessionConfig(points=("b", "a")))
@example("exc:b=-inf,a=1", cli.SessionConfig(k=1, p=INF))
@example("std:m=0,K=3,P=x", cli.SessionConfig())
@example("exc:k=2,p=-1", cli.SessionConfig())
def test_cut_and_family_specs_match_per_kind_oracles(spec, session):
    assert _cli_outcome(cli.parse_cutspec, spec, session) == \
        _cli_outcome(oracle_parse_cutspec, spec, session)
    assert _cli_outcome(cli.parse_famspec, spec, session) == \
        _cli_outcome(oracle_parse_famspec, spec, session)


_CONFIG_LINE = st.one_of(
    st.sampled_from(["", "   ", "# a comment", "#k = x", "points x,y", "= 3", "colour = red"]),
    st.builds("{} = {}".format, st.sampled_from(["points", "k", "p", "format", "seed", " k"]),
              st.sampled_from(["b,a", "x, y,,z", "", "3", "-1", "inf", "1_0", "0_7", "1.5",
                               "٣", "text", "json", "yaml", "a = b"])))


@settings(max_examples=300)
@given(st.lists(_CONFIG_LINE, max_size=6))
def test_config_files_match_per_key_oracle(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "differential-session.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    expected = _cli_outcome(oracle_load_config, str(path))
    if expected[0] == "ok" and "fmt" in expected[1]:
        expected[1]["format"] = expected[1].pop("fmt")
    assert _cli_outcome(cli.load_config, str(path)) == expected
