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
object.  `syntax.filtration_from_json` reads back `HNFiltration.to_json`.
"""

from __future__ import annotations

import heapq
import random
import re
from collections.abc import Sequence
from itertools import compress
from operator import methodcaller

from .errors import FiltrationFormatError, ObjectParseError, UnsupportedFamilyError
from .p1 import (Point, ShiftSummary, head_before, hom_profile, point_resolver, point_universe,
                 rank_degree_of, render_pairs)
from .slopes import ExtendedRational, K0Class, Ordering
from .value import INT_TEXT, Value, assign, check_ints, set_field


# --- slope identifiers ------------------------------------------------------

def slope_int(value, name: str, text: bool = False) -> int:
    """An integer slope field of a document, not coerced: a JSON integer (not
    a bool), or with `text` an INT_TEXT string; else FiltrationFormatError."""
    ok = isinstance(value, str) and re.match(INT_TEXT, value) if text else type(value) is int
    if not ok:
        kind = "a decimal integer string" if text else "an integer"
        raise FiltrationFormatError(f"slope field {name!r} must be {kind}, got {value!r}")
    return int(value)


def slope_point(labels: tuple[str, ...], label, name: str) -> Point:
    """The point that slope field `name` names under the point order `labels`.

    A label the order does not declare raises FiltrationFormatError naming
    the field: a slope field has no text position to report."""
    try:
        return point_resolver(labels)(label)
    except ObjectParseError as exc:
        raise FiltrationFormatError(f"slope field {name!r} names an {exc.message}") from None


class CoarseSlope(Value):
    """Slope in the coarse family: the shift level alone."""

    __slots__ = ("i",)
    _ints = {"i": ()}

    def __init__(self, i: int):
        check_ints(self._ints, i)
        set_field(self, "i", i)

    def __repr__(self):
        return f"({self.i})"


class StandardSlope(Value):
    """Slope (shift, level) with level a line degree (an int) or a Point."""

    __slots__ = ("i", "level")
    _ints = {"i": (), "level": (Point,)}

    def __init__(self, i: int, level: int | Point):
        check_ints(self._ints, i, level)
        set_field(self, "i", i)
        set_field(self, "level", level)

    def key(self):
        if isinstance(self.level, Point):
            return (self.i, 1, self.level.key())
        return (self.i, 0, self.level)

    def __repr__(self):
        return f"({self.i}, {self.level})"


class ExceptionalSlope(Value):
    """Slope (shift, column): column 0 carries O(k), column 1 carries O(k+1), no other."""

    __slots__ = ("i", "col")
    _ints = {"i": (), "col": ()}

    def __init__(self, i: int, col: int):
        check_ints(self._ints, i, col)  # True must not pass for column 1
        if col not in (0, 1):
            raise ValueError("column must be 0 or 1")
        set_field(self, "i", i)
        set_field(self, "col", col)

    def __repr__(self):
        return f"({self.i}, col {self.col})"


class EllipticSlope(Value):
    """Slope (shift, stable class) on the elliptic model; mu is the class's."""

    __slots__ = ("i", "cls")
    _ints = {"i": ()}

    def __init__(self, i: int, cls):  # cls: a StableClass
        check_ints(self._ints, i)
        set_field(self, "i", i)
        set_field(self, "cls", cls)

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
    _ints = dict.fromkeys(__slots__[:4] + __slots__[5:], ())  # all but points

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
    as much as reading them.  A term of a split family is mostly a head
    followed by the next term's summands (`p1.head_before`), and `to_json`,
    `verify_hn` and the reader `syntax.filtration_from_json` then read only that head.
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

    def shifted(self, n: int) -> "HNFiltration":
        """Apply the shift [n]: slopes move by tau^n, objects by [n]."""
        fam = self.family
        quotients = tuple((fam.tau(s, n), o.shift(n)) for s, o in self.quotients)
        return HNFiltration(fam, quotients, tuple(t.shift(n) for t in self.terms))

    def to_json(self) -> dict:
        fam = self.family
        texts, nxt = [], None  # the terms' texts, last first
        for t in reversed(self.terms):
            head = head_before(t, nxt)
            texts.append(f"{render_pairs(head)} + {texts[-1]}" if head else t.render())
            nxt = t
        texts.reverse()
        return {
            "object": texts[0],
            "family": fam.descriptor(),
            "quotients": [{"slope": fam.slope_json(s), "object": o.render()}
                          for s, o in self.quotients],
            "terms": texts,
        }


# --- the family interface ----------------------------------------------------

class StabilityFamily:
    """Interface shared by the concrete stability families.

    Subclasses fix the slope order, the object model (`zero`, whose type
    is the family's `FormalSum` subclass) and the per-atom slopes; a
    family whose atoms are not all semistable also overrides
    `term_filtration`.  The generic engine assembles full filtrations
    from those.  Each subclass gives:

    * `slope_key(s)`: an exact key (ints, tuples, `ExtendedRational`s) whose natural
      order is the slope order; a slope of another family raises TypeError;
    * `tau(s, n=1)`: tau^n, for any integer n;
    * `slope_json(s)`, `slope_from_json(data)` and `descriptor()`: a slope
      as a JSON dict and back, and the family as one;
    * `slope_of_term(term)`: the slope of a semistable generator term, or
      None if it is not a generator;
    * `window_generators(window)`: single-generator objects spanning the
      window's slopes, which the window checks read through `window_slopes`;
    * `random_object(rng, window)`: a random object of the window.
    """

    kind = "abstract"
    zero: object = None
    point_labels: tuple[str, ...] = ()  # the declared point order, if any

    # -- slope order --

    def compare(self, a, b) -> Ordering:
        return Ordering.of(self.slope_key(a), self.slope_key(b))

    # -- object model --

    def accepts(self, x) -> bool:
        return isinstance(x, type(self.zero))

    def hom_profile(self, x, y):
        return hom_profile(x, y)

    def k0(self, x) -> K0Class:
        return x.k0()

    def render_slope(self, s) -> str:
        return repr(s)

    # -- per-term HN data --

    def term_filtration(self, term, mult: int) -> tuple[tuple[object, object], ...]:
        """The HN quotients of `mult` copies of one atom, ascending in slope,
        at most two; here every atom is semistable."""
        return ((self.slope_of_term(term), type(self.zero).single(term, mult)),)

    def summand_tower(self, term, mult: int) -> tuple[tuple, tuple]:
        """(quotients, terms) of the HN filtration of `mult` copies of one atom:
        the terms are the whole, then the top quotient if there are two, then zero.
        A one-quotient tower's whole is its quotient object itself."""
        quotients = self.term_filtration(term, mult)
        if len(quotients) == 1:
            return quotients, (quotients[0][1], self.zero)
        return quotients, (type(self.zero).single(term, mult), quotients[1][1], self.zero)

    # -- assembled operations --

    def _require(self, x):
        if not self.accepts(x):
            raise UnsupportedFamilyError(
                f"object {x!r} is outside the {self.kind} family's object model")

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
        summands = x.summands()
        first = next(summands, None)
        slope = None if first is None else self.slope_of_term(first[0])  # None: a non-generator
        if slope is not None:
            for term, _ in summands:
                if self.slope_of_term(term) != slope:
                    return None
        return slope


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
    make = type(family.zero)._raw
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

def _first_hom_violation(objects: Sequence) -> tuple[int, int] | None:
    """The first (j, i), i < j, with Hom^(<=0)(objects[j], objects[i]) != 0.

    "First" is in the order j ascending, then i ascending.  One pass keeps a
    `p1.ShiftSummary` per shift of the summands of objects[:j].  A summand t
    of objects[j] maps to an earlier summand s in a degree <= 0 exactly when
    Ext^0(t, s) != 0 with shift(s) >= shift(t), or Ext^1(t, s) != 0 with
    shift(s) > shift(t), as Hom^q(t, s) = Ext^(q + shift(s) - shift(t))(t, s)
    and Ext between sheaves lives in degrees 0 and 1.  So t is tested, by its
    sheaf's `hits`, against the summary of its own shift for Ext^0, and
    against those of higher shifts for Ext^0 or Ext^1; the latter only once
    a shift above t's has been seen, which ascending HN quotients seldom show.
    Each test is exact, as the rule tables (`p1.ext_dim`,
    `elliptic.hom_dim_stable`) decide whether an Ext vanishes by extremes
    and by equality alone:

    * Ext^0(O(a), O(b)) != 0 iff b >= a, and Ext^0(O(a), T) != 0 always; so a
      line hits a summary with torsion or a greatest degree >= a.  Ext^1(O(a),
      O(b)) != 0 iff b <= a - 2, and Ext^1(O(a), T) = 0; so across a shift gap
      it also hits a least degree <= a - 2.
    * Ext^0(T_x, O(b)) = 0, and Ext^i(T_x, T_y) != 0 iff x == y for i = 0, 1;
      so torsion at x hits torsion at x.  Ext^1(T_x, O(b)) != 0 always; so
      across a gap it also hits any line.
    * Ext^0(e, f) != 0 iff mu(e) < mu(f) or e == f, and Ext^1(e, f) != 0 iff
      mu(e) > mu(f) or e == f; so a class hits itself or a greatest slope above
      its own, and across a gap also a least slope below its own.  Slopes
      compare by the int cross product, as `hom_dim_stable` decides.

    At the first j that hits, `hom_profile` of objects[j] against each earlier
    object in turn names the least i.
    """
    summaries: dict[int, ShiftSummary] = {}
    top = None  # the greatest shift with a summary
    for j, obj in enumerate(objects):
        for t, _ in obj.terms:
            shift, base = t.shift, t.base
            own = summaries.get(shift)
            hit = own is not None and base.hits(own, False)
            if not hit and top is not None and top > shift:
                hit = any(base.hits(above, True) for at, above in summaries.items() if at > shift)
            if hit:
                return j, next(i for i in range(j)
                               if not hom_profile(obj, objects[i]).vanishes_at_and_below(0))
        for t, _ in obj.terms:
            own = summaries.get(t.shift)
            if own is None:
                own = summaries[t.shift] = ShiftSummary()
                top = t.shift if top is None else max(top, t.shift)
            t.base.join(own)
    return None


def verify_hn(x, filt: HNFiltration, family: StabilityFamily) -> Report:
    """Re-check a filtration against the HN characterisation.

    (a) slopes strictly ascending, keyed as the walk reaches them; (b) every
    quotient nonzero and semistable of its recorded slope; (c) Hom^{<=0}
    between quotients vanishes from higher to lower position; (d) K0
    additivity of the terms on int (rank, degree) pairs, with `K0Class`
    values only in a failure's detail; a term that ends the term before
    (`p1.head_before`) gets that term's pair minus its head's, and the first
    term whose full sum is not an int raises; (e) terms start at x and end at zero.
    Passing all five identifies the filtration as the unique HN filtration of x.
    """
    checks = []

    ok, detail, slopes = True, "", filt.slopes
    prev = family.slope_key(slopes[0]) if len(slopes) > 1 else None
    for j in range(1, len(slopes)):
        key = family.slope_key(slopes[j])
        if not prev < key:
            ok, detail = False, (f"slope {family.render_slope(slopes[j - 1])} !< "
                                 f"{family.render_slope(slopes[j])} at position {j - 1}")
            break
        prev = key
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
    term_rd = [filt.terms[0].rank_degree()]
    for prev, t in zip(filt.terms, filt.terms[1:]):
        if head := head_before(prev, t):
            (r0, d0), (r, d) = term_rd[-1], rank_degree_of(head)
        term_rd.append((r0 - r, d0 - d) if head else t.rank_degree())
    for i, (_, obj) in enumerate(filt.quotients):
        (r, d), (r1, d1) = obj.rank_degree(), term_rd[i + 1]
        if term_rd[i] != (r1 + r, d1 + d):
            lhs, rhs = family.k0(filt.terms[i]), family.k0(filt.terms[i + 1]) + family.k0(obj)
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


def window_slopes(family: StabilityFamily, window: Window) -> list[tuple[object, object]]:
    """Each window generator of the family, in order, with its semistable slope
    (None for one that is not semistable); the table the window checks read."""
    return [(g, family.semistable_slope(g)) for g in family.window_generators(window)]


def validate_stability(family: StabilityFamily, window: Window) -> Report:
    """Check the stability axioms on a finite window of generators.

    Verifies tau-equivariance of generator slopes, tau(phi) >= phi,
    Hom-vanishing in degrees <= 0 against the slope order on all
    generator pairs, and runs hn + verify_hn on random objects.

    The Hom check is one sweep: the generators of each slope key are
    summed, and `_first_hom_violation` scans the sums in ascending key
    order.  Hom dimensions are bilinear and nonnegative, so two sums
    vanish exactly when all their generator pairs do.  Only on a
    violation are the generator pairs' `hom_profile`s read, in generator
    order, to name the first failing pair and count the pairs up to it.

    The report ends at a failing `generators_semistable`: at a generator
    that is not semistable, or at a window with no generators.
    """
    table = window_slopes(family, window)
    detail = next((f"window generator {g.render()} is not semistable"
                   for g, s in table if s is None), "")
    checks = [CheckItem.over("generators_semistable", len(table), not detail, detail)]
    if not checks[0].ok:
        return Report(tuple(checks))

    ok, detail = True, ""
    for g, s in table:
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
    checks.append(CheckItem.over("tau_equivariance", len(table), ok, detail))

    ok, detail = True, ""
    keyed = [(g, family.slope_key(s)) for g, s in table]
    groups: dict = {}
    for g, k in keyed:
        groups.setdefault(k, []).append(g)
    pairs = (len(keyed) ** 2 - sum(len(grp) ** 2 for grp in groups.values())) // 2
    make = type(family.zero).from_pairs
    sums = [make(p for g in groups[k] for p in g.summands()) for k in sorted(groups)]
    if _first_hom_violation(sums) is not None:
        ok = False
        scan = ((g1, g2) for g1, k1 in keyed for g2, k2 in keyed if k1 > k2)
        for pairs, (g1, g2) in enumerate(scan, 1):
            profile = family.hom_profile(g1, g2)
            if not profile.vanishes_at_and_below(0):
                break
        detail = (f"Hom^(<=0)({g1.render()}, {g2.render()}) != 0 "
                  f"against the order: profile {profile!r}")
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
