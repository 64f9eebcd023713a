"""Stability data and the Harder-Narasimhan filtration engine.

A stability family fixes a linearly ordered slope set with a shift
automorphism tau, one semistable subcategory per slope, and an
algorithm producing the HN filtration of any nonzero object.  The
filtration is stored as its quotient list plus the intermediate term
objects; in the split object models of this package those data
determine the underlying tower of triangles up to unique isomorphism,
so no morphisms are represented.

`verify_hn` re-checks a filtration against the defining conditions
(ascending slopes, semistable quotients, Hom-vanishing between
quotients in degrees <= 0, K0 additivity, correct endpoints); a
filtration passing all of them is accepted as THE HN filtration of its
object.
"""

from __future__ import annotations

import heapq
import random
import re
from collections.abc import Sequence
from itertools import compress
from operator import methodcaller

from .errors import FiltrationFormatError, InvalidShuffleError, UnsupportedFamilyError
from .p1 import Point, hom_profile, point_universe
from .slopes import ExtendedRational, K0Class, Ordering
from .value import Value, assign, set_field


# --- slope identifiers ------------------------------------------------------

# The integer literals of specs and documents.  Compiled on first use, through
# `re`'s own cache, so commands that read none do not pay for it at import.
INT_TEXT = r"[+-]?[0-9]+\Z"


def slope_int(value, name: str, text: bool = False) -> int:
    """An integer slope field of a document, not coerced: a JSON integer (not
    a bool), or with `text` an INT_TEXT string; else FiltrationFormatError."""
    ok = isinstance(value, str) and re.match(INT_TEXT, value) if text else type(value) is int
    if not ok:
        kind = "a decimal integer string" if text else "an integer"
        raise FiltrationFormatError(f"slope field {name!r} must be {kind}, got {value!r}")
    return int(value)


class CoarseSlope(Value):
    """Slope in the coarse family: the shift level alone."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        set_field(self, "i", i)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.i == other.i
        return NotImplemented

    def __hash__(self):
        return hash((self.i,))

    def __repr__(self):
        return f"({self.i})"


class StandardSlope(Value):
    """Slope (shift, level) with level a line degree (an int) or a Point."""

    __slots__ = ("i", "level")

    def __init__(self, i: int, level: int | Point):
        set_field(self, "i", i)
        set_field(self, "level", level)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.i == other.i and self.level == other.level
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.level))

    def key(self):
        if isinstance(self.level, Point):
            return (self.i, 1, self.level.key())
        return (self.i, 0, self.level)

    def __repr__(self):
        return f"({self.i}, {self.level})"


class ExceptionalSlope(Value):
    """Slope (shift, column): column 0 carries O(k), column 1 carries O(k+1)."""

    __slots__ = ("i", "col")

    def __init__(self, i: int, col: int):
        if col not in (0, 1):
            raise ValueError("column must be 0 or 1")
        set_field(self, "i", i)
        set_field(self, "col", col)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.i == other.i and self.col == other.col
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.col))

    def __repr__(self):
        return f"({self.i}, col {self.col})"


class EllipticSlope(Value):
    """Slope (shift, stable class) on the elliptic model; mu is the class's."""

    __slots__ = ("i", "cls")

    def __init__(self, i: int, cls):  # cls: a StableClass
        set_field(self, "i", i)
        set_field(self, "cls", cls)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.i == other.i and self.cls == other.cls
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.cls))

    @property
    def mu(self) -> ExtendedRational:
        return self.cls.mu()

    def __repr__(self):
        return f"({self.i}, {self.mu}, {self.cls})"


# --- reports ----------------------------------------------------------------

class CheckItem(Value):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)

    @staticmethod
    def over(name: str, cases: int, ok: bool, detail: str = "") -> "CheckItem":
        """The item of a check that examined `cases` cases.

        A check that examined none proves nothing, so it does not pass.
        """
        if ok and cases < 1:
            return CheckItem(name, False, "no cases examined")
        return CheckItem(name, ok, detail)

    def __str__(self):
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail and not self.ok else "")


class Report(Value):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckItem, ...] = ()):
        assign(self, locals())

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckItem]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        return "\n".join(str(c) for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
        }


# --- window for finite checks -----------------------------------------------

class Window(Value):
    """Finite bounds for axiom checks: shifts, degrees, lengths, points."""

    __slots__ = ("max_degree", "max_shift", "max_length", "max_summands", "points", "samples",
                 "seed")

    def __init__(self, max_degree: int = 8, max_shift: int = 2, max_length: int = 3,
                 max_summands: int = 6,
                 points: tuple[Point, ...] = point_universe(),
                 samples: int = 50, seed: int = 0):
        assign(self, locals())
        for name, least in (("max_degree", 0), ("max_shift", 0), ("max_length", 1),
                            ("max_summands", 1), ("samples", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"Window.{name} must be >= {least}, got {getattr(self, name)}")

    def shifts(self) -> range:
        return range(-self.max_shift, self.max_shift + 1)

    def degrees(self) -> range:
        return range(-self.max_degree, self.max_degree + 1)

    def lengths(self) -> range:
        return range(1, self.max_length + 1)


# --- filtrations ------------------------------------------------------------

class HNFiltration(Value):
    """Quotient list plus term objects of a t-filtration.

    terms[0] is the filtered object, terms[-1] is zero, and
    k0(terms[i]) = k0(terms[i+1]) + k0(quotients[i]) throughout.  The
    empty filtration represents the zero object.  A term need not be the
    direct sum of the quotients below it (`StabilityFamily.summand_tower`).

    All terms are held eagerly.  `merge_towers` builds them in one pass
    over a running list of multiplicities, so producing them costs about
    as much as reading them, and serialisation and `verify_hn` read
    every term anyway.
    """

    __slots__ = ("family", "quotients", "terms")
    _compare = ("quotients", "terms")  # filtrations of equal data are equal in any family

    def __init__(self, family: StabilityFamily,
                 quotients: tuple[tuple[object, object], ...] = (), terms: tuple[object, ...] = ()):
        if len(terms) != len(quotients) + 1:
            raise ValueError("terms must be one longer than quotients")
        assign(self, locals())

    @property
    def object(self):
        return self.terms[0]

    @property
    def slopes(self) -> tuple:
        return tuple(s for s, _ in self.quotients)

    @property
    def quotient_objects(self) -> tuple:
        return tuple(o for _, o in self.quotients)

    @staticmethod
    def empty(family: "StabilityFamily") -> "HNFiltration":
        return HNFiltration(family, (), (family.zero,))

    @staticmethod
    def from_quotients(family: "StabilityFamily",
                       quotients: Sequence[tuple[object, object]]) -> "HNFiltration":
        """Filtration with terms taken as partial sums of the quotients.

        Only correct when the filtered object really is the direct sum
        of the quotients (as in the standard and elliptic families, or
        in synthetic test data); `hn` takes the terms of non-split
        towers from the summands' own towers instead.
        """
        terms = [family.zero]
        for _, obj in reversed(list(quotients)):
            terms.append(terms[-1] + obj)
        terms.reverse()
        return HNFiltration(family, tuple(quotients), tuple(terms))

    def shifted(self, n: int) -> "HNFiltration":
        """Apply the shift [n]: slopes move by tau^n, objects by [n]."""
        fam = self.family
        quotients = tuple((fam.tau(s, n), o.shift(n)) for s, o in self.quotients)
        return HNFiltration(fam, quotients, tuple(t.shift(n) for t in self.terms))

    def to_json(self) -> dict:
        fam = self.family
        return {
            "object": self.object.render(),
            "family": fam.descriptor(),
            "quotients": [{"slope": fam.slope_json(s), "object": o.render()}
                          for s, o in self.quotients],
            "terms": [t.render() for t in self.terms],
        }


# --- the family interface ----------------------------------------------------

class StabilityFamily:
    """Interface shared by the concrete stability families.

    Subclasses fix the slope order (`slope_key`, `tau`), the object
    model (`zero`, whose type is the family's `FormalSum` subclass) and
    the per-atom slopes (`slope_of_term`); a family whose atoms are not
    all semistable also overrides `term_filtration`.  The generic engine
    assembles full filtrations from those.
    """

    kind = "abstract"
    zero: object = None
    point_labels: tuple[str, ...] = ()  # the declared point order, if any

    # -- slope order --

    def slope_key(self, s):
        """An exact key (ints, tuples, Fractions) whose natural order is the
        slope order; a slope of another family raises TypeError."""
        raise NotImplementedError

    def compare(self, a, b) -> Ordering:
        return Ordering.of(self.slope_key(a), self.slope_key(b))

    def tau(self, s, n: int = 1):
        """tau^n, for any integer n."""
        raise NotImplementedError

    # -- object model --

    def accepts(self, x) -> bool:
        return isinstance(x, type(self.zero))

    def hom_profile(self, x, y):
        return hom_profile(x, y)

    def k0(self, x) -> K0Class:
        return x.k0()

    def render_slope(self, s) -> str:
        return repr(s)

    def slope_json(self, s) -> dict:
        raise NotImplementedError

    def slope_from_json(self, data: dict):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    # -- per-term HN data --

    def slope_of_term(self, term):
        """Slope of a semistable generator term, or None if not a generator."""
        raise NotImplementedError

    def term_filtration(self, term, mult: int) -> tuple[tuple[object, object], ...]:
        """The HN quotients of `mult` copies of one atom, ascending in slope,
        at most two; here every atom is semistable."""
        return ((self.slope_of_term(term), self.single_term_object(term, mult)),)

    def summand_tower(self, term, mult: int) -> tuple[tuple, tuple]:
        """(quotients, terms) of the HN filtration of `mult` copies of one atom:
        the terms are the whole, then the top quotient if there are two, then zero."""
        quotients = self.term_filtration(term, mult)
        top = tuple(obj for _, obj in quotients[1:])
        return quotients, (self.single_term_object(term, mult), *top, self.zero)

    # -- assembled operations --

    def _require(self, x):
        if not self.accepts(x):
            raise UnsupportedFamilyError(
                f"object {x!r} is outside the {self.kind} family's object model")

    def single_term_object(self, term, mult: int):
        """The object with a single summand `term` of multiplicity `mult`."""
        return type(self.zero).from_pairs([(term, mult)])

    def hn(self, x) -> HNFiltration:
        """The HN filtration: merge the summands' towers by slope (none for zero)."""
        self._require(x)
        return merge_towers(self, [self.summand_tower(term, mult) for term, mult in x.summands()])

    def semistable_slope(self, x):
        """The slope of x if all its summands are generators of one slope.

        This is a direct structural membership test, independent of
        `hn`, used to verify quotients of candidate filtrations.
        """
        self._require(x)
        slopes = {self.slope_of_term(term) for term, _ in x.summands()}  # None for a non-generator
        return slopes.pop() if len(slopes) == 1 else None

    # -- finite windows --

    def window_generators(self, window: Window) -> list:
        """Single-generator objects spanning the window's slopes."""
        raise NotImplementedError

    def random_object(self, rng: random.Random, window: Window):
        raise NotImplementedError


def merge_towers(family: StabilityFamily,
                 sources: Sequence[tuple[Sequence[tuple[object, object]], Sequence[object]]]
                 ) -> HNFiltration:
    """Merge filtration towers by ascending slope, coalescing equal slopes.

    Each source is (quotients, terms) of normal forms, with strictly
    ascending slopes and len(terms) == len(quotients) + 1.  The merged
    term after each step is the direct sum of every source's current
    term, which realises the filtration of the direct sum of the source
    objects.

    The sources' next quotients wait in a heap of (slope key, source
    index); each step takes the lowest key with every head of an equal
    key, and records the slope of the first such source.  The atoms of
    all sources are sorted by key once; the merged term is a running
    list of multiplicities by atom index, from which a source stepping
    from terms[p] to terms[p+1] takes terms[p] and gains terms[p+1],
    split tower or not.  A term is emitted in one pass over that list,
    and a step of one source hands on its own quotient.
    """
    slope_key = family.slope_key
    make = type(family.zero)
    atoms = sorted({atom for quotients, terms in sources
                    for obj in (*terms, *(q for _, q in quotients)) for atom, _ in obj.terms},
                   key=methodcaller("key"))
    index = {atom: i for i, atom in enumerate(atoms)}
    mults = [0] * len(atoms)
    pairs = [(atom, 0) for atom in atoms]  # (atom, multiplicity), as the terms hold them

    def add(obj, sign: int) -> None:
        for atom, m in obj.terms:
            i = index[atom]
            mults[i] += sign * m
            pairs[i] = (atom, mults[i])

    heap = []
    for idx, (quotients, terms) in enumerate(sources):
        add(terms[0], 1)
        if quotients:
            heap.append((slope_key(quotients[0][0]), idx))
    heapq.heapify(heap)
    pointers = [0] * len(sources)

    merged: list[tuple[object, object]] = []
    merged_terms = [make(tuple(compress(pairs, mults)))]
    while heap:
        key, first = heapq.heappop(heap)
        group = [first]
        while heap and heap[0][0] == key:
            group.append(heapq.heappop(heap)[1])
        heads = [sources[idx][0][pointers[idx]] for idx in group]
        best, quotient = heads[0]
        if len(heads) > 1:
            parts: dict = {}
            for _, obj in heads:
                for atom, m in obj.terms:
                    i = index[atom]
                    parts[i] = parts.get(i, 0) + m
            quotient = make(tuple((atoms[i], m) for i, m in sorted(parts.items())))
        for idx in group:
            quotients, terms = sources[idx]
            p = pointers[idx]
            add(terms[p], -1)
            add(terms[p + 1], 1)
            pointers[idx] = p + 1
            if p + 1 < len(quotients):
                heapq.heappush(heap, (slope_key(quotients[p + 1][0]), idx))
        merged.append((best, quotient))
        merged_terms.append(make(tuple(compress(pairs, mults))))
    return HNFiltration(family, tuple(merged), tuple(merged_terms))


# --- module-level operations --------------------------------------------------

def is_semistable(x, family: StabilityFamily):
    """The slope if the HN filtration of x has exactly one quotient, else None."""
    quotients = family.hn(x).quotients
    return quotients[0][0] if len(quotients) == 1 else None


def _maps_at_or_below_zero(t, s) -> bool:
    """Whether Hom^q(t, s) != 0 for some q <= 0, for two shifted atoms.

    Ext between sheaves lives in degrees 0 and 1, so Hom^q(t, s) is
    Ext^0 at q = gap and Ext^1 at q = gap + 1, where gap = shift(t) -
    shift(s); a gap >= 1 leaves nothing in degrees <= 0.
    """
    gap = t.shift - s.shift
    return gap <= 0 and bool(t.base.ext_dim(s.base, 0) or (gap < 0 and t.base.ext_dim(s.base, 1)))


def hom_vanishes_at_and_below_zero(x, y) -> bool:
    """Whether Hom^q(x, y) = 0 for all q <= 0.

    Multiplicities and dimensions are nonnegative, so the sum vanishes
    exactly when every pair of summands does.
    """
    return not any(_maps_at_or_below_zero(t, s)
                   for t, _ in x.summands() for s, _ in y.summands())


def _first_hom_violation(objects: Sequence) -> tuple[int, int] | None:
    """The first (j, i), i < j, with Hom^(<=0)(objects[j], objects[i]) != 0.

    "First" is in the order j ascending, then i ascending.  The summands
    of objects[:j] wait in buckets by shift, each in ascending i; a
    summand t of objects[j] is tested only against buckets with shift >=
    shift(t), the only ones `_maps_at_or_below_zero` can hit.
    """
    by_shift: dict[int, list] = {}
    for j, obj in enumerate(objects):
        best = j
        for t, _ in obj.summands():
            for shift, bucket in by_shift.items():
                if shift < t.shift:
                    continue
                for i, s in bucket:
                    if i >= best:
                        break
                    if _maps_at_or_below_zero(t, s):
                        best = i
                        break
        if best < j:
            return j, best
        for t, _ in obj.summands():
            by_shift.setdefault(t.shift, []).append((j, t))
    return None


def verify_hn(x, filt: HNFiltration, family: StabilityFamily) -> Report:
    """Re-check a filtration against the HN characterisation.

    (a) slopes strictly ascending; (b) every quotient nonzero and
    semistable of its recorded slope; (c) Hom^{<=0} between quotients
    vanishes from higher to lower position; (d) K0 additivity of the
    terms; (e) terms start at x and end at zero.  Passing all five
    identifies the filtration as the unique HN filtration of x.
    """
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

    ok, detail = True, ""
    bad = _first_hom_violation(filt.quotient_objects)
    if bad is not None:
        j, i = bad
        profile = family.hom_profile(filt.quotients[j][1], filt.quotients[i][1])
        ok, detail = False, f"Hom^(<=0)(Q_{j}, Q_{i}) != 0: profile {profile!r}"
    checks.append(CheckItem("hom_vanishing", ok, detail))

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


def glue(outer: Sequence[tuple[object, Sequence[tuple[object, object]]]]) -> list[tuple[object, object]]:
    """Flatten a nested filtration: concatenate inner quotient lists in order."""
    flat: list[tuple[object, object]] = []
    for _, inner in outer:
        if not inner:
            raise ValueError("inner quotient lists must be nonempty")
        flat.extend(inner)
    return flat


def split(flat: Sequence[tuple[object, object]],
          blocks: Sequence[Sequence[int]]) -> list[tuple[object, list[tuple[object, object]]]]:
    """Group a flat quotient list into consecutive blocks.

    Returns (block direct sum, inner quotient list) per block; blocks
    must be nonempty consecutive index groups covering the list.
    """
    out = []
    expected = 0
    for block in blocks:
        idxs = list(block)
        if not idxs or idxs != list(range(expected, expected + len(idxs))):
            raise ValueError("blocks must be nonempty consecutive index groups")
        expected += len(idxs)
        inner = [flat[i] for i in idxs]
        total = type(inner[0][1]).from_pairs(p for _, obj in inner for p in obj.summands())
        out.append((total, inner))
    if expected != len(flat):
        raise ValueError("blocks must cover the whole quotient list")
    return out


def shuffle_merge(fa: HNFiltration, fb: HNFiltration,
                  mode: str | Sequence[str] = "by-slope") -> HNFiltration:
    """Interleave two filtrations into a filtration of the direct sum.

    In "by-slope" mode the quotients are merged in ascending slope order
    and equal slopes are coalesced by direct sum, which yields the HN
    filtration of the sum.  An explicit shuffle is a sequence over
    {"a", "b"} naming the source of each successive quotient; it must
    use each source exactly as often as it has quotients.
    """
    if fa.family.descriptor() != fb.family.descriptor():
        raise InvalidShuffleError("filtrations belong to different families")
    family = fa.family
    if mode == "by-slope":
        return merge_towers(family, [(fa.quotients, fa.terms), (fb.quotients, fb.terms)])
    picks = list(mode)
    if picks.count("a") != len(fa.quotients) or picks.count("b") != len(fb.quotients) \
            or len(picks) != len(fa.quotients) + len(fb.quotients):
        raise InvalidShuffleError("shuffle must use each source's quotients exactly once, in order")
    ia = ib = 0
    quotients = []
    terms = [fa.terms[0] + fb.terms[0]]
    for pick in picks:
        if pick == "a":
            quotients.append(fa.quotients[ia])
            ia += 1
        elif pick == "b":
            quotients.append(fb.quotients[ib])
            ib += 1
        else:
            raise InvalidShuffleError(f"unknown shuffle tag {pick!r}")
        terms.append(fa.terms[ia] + fb.terms[ib])
    return HNFiltration(family, tuple(quotients), tuple(terms))


def validate_stability(family: StabilityFamily, window: Window) -> Report:
    """Check the stability axioms on a finite window of generators.

    Verifies tau-equivariance of generator slopes, tau(phi) >= phi,
    Hom-vanishing in degrees <= 0 against the slope order on all
    generator pairs, and runs hn + verify_hn on random objects.

    The Hom check is one sweep: the generators of each slope key are
    summed, and `_first_hom_violation` scans the sums in ascending key
    order.  Hom dimensions are bilinear and nonnegative, so two sums
    vanish exactly when all their generator pairs do.  Only on a
    violation are the generator pairs scanned, in generator order, to
    name the first failing pair and count the pairs up to it.

    The report ends at a failing `generators_semistable`: at a generator
    that is not semistable, or at a window with no generators.
    """
    gens = family.window_generators(window)
    slopes = [family.semistable_slope(g) for g in gens]
    detail = next((f"window generator {g.render()} is not semistable"
                   for g, s in zip(gens, slopes) if s is None), "")
    checks = [CheckItem.over("generators_semistable", len(gens), not detail, detail)]
    if not checks[0].ok:
        return Report(tuple(checks))

    ok, detail = True, ""
    for g, s in zip(gens, slopes):
        shifted_slope = family.semistable_slope(g.shift(1))
        if shifted_slope != family.tau(s):
            ok, detail = False, f"slope of {g.render()}[1] is not tau(slope)"
            break
        if family.compare(family.tau(s), s) == Ordering.LESS:
            ok, detail = False, f"tau({family.render_slope(s)}) < {family.render_slope(s)}"
            break
        if family.tau(family.tau(s), -1) != s:
            ok, detail = False, f"tau_inv(tau) != id at {family.render_slope(s)}"
            break
    checks.append(CheckItem.over("tau_equivariance", len(gens), ok, detail))

    ok, detail = True, ""
    keys = [family.slope_key(s) for s in slopes]
    groups: dict = {}
    for g, k in zip(gens, keys):
        groups.setdefault(k, []).append(g)
    pairs = (len(gens) ** 2 - sum(len(grp) ** 2 for grp in groups.values())) // 2
    make = type(family.zero).from_pairs
    sums = [make(p for g in groups[k] for p in g.summands()) for k in sorted(groups)]
    if _first_hom_violation(sums) is not None:
        ok = False
        scan = ((g1, g2) for g1, k1 in zip(gens, keys) for g2, k2 in zip(gens, keys) if k1 > k2)
        for pairs, (g1, g2) in enumerate(scan, 1):
            if not hom_vanishes_at_and_below_zero(g1, g2):
                break
        detail = (f"Hom^(<=0)({g1.render()}, {g2.render()}) != 0 "
                  f"against the order: profile {family.hom_profile(g1, g2)!r}")
    checks.append(CheckItem.over("hom_vanishing", pairs, ok, detail))

    rng = random.Random(window.seed)
    ok, detail = True, ""
    for _ in range(window.samples):
        x = family.random_object(rng, window)
        report = verify_hn(x, family.hn(x), family)
        if not report.ok:
            ok = False
            failed = ", ".join(c.name for c in report.failures())
            detail = f"hn({x.render()}) failed: {failed}"
            break
    checks.append(CheckItem.over("hn_random_objects", window.samples, ok, detail))

    return Report(tuple(checks))
