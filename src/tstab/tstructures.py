"""Slope-set cuts, induced t-structures, torsion pairs and the catalog.

A cut splits a family's slope set into a down-set and an up-set
(every slope of the first below every slope of the second); the up-set
spans the aisle T^{<=0}, the shifted down-set spans T^{>=0}, and the
heart is spanned by the slopes lying in the up-set whose tau-preimage
lies in the down-set.  Cuts are finite descriptions, not raw sets:

* `StandardCut(m, K, P)` over the standard family: a line bundle slope
  (i, n) is in the up-set iff i >= m+1 when n < K, iff i >= m
  otherwise; a point slope (i, x) iff i >= m when K < +inf or x is in
  P, iff i >= m+1 otherwise (P = None means all points).  Up-closure
  forces exactly this two-value threshold shape.
* `ExceptionalCut(a, b)` over the pair (O(k), O(k+1)): column 0 enters
  the up-set at shift a, column 1 at shift b.  For interleaving
  parameter p, up-closure pins b to a-p-2 or a-p-1 when both are
  finite; at p = inf a finite a forces b = -inf.
* `CoarseCut(m)`: the up-set is everything at shift >= m.
* `EllipticCut(m, q, P)` over the elliptic family: the tilt of the
  heart at slope q (in [0, 1), or inf) and point set P, placed at
  shift m.  A slope (i, S(r,d,x)) is in the up-set iff i > m, or
  i = m and mu > q, or mu = q with x not in P.  Up-closure forces P to
  be down-closed in the point order.  The catalog, the classifier,
  twists, diagrams and heart generators cover the P1 cuts only.

`catalog` returns the nine named bounded/unbounded t-structures
(A, B, C, D(P) on the standard side; E(p), F(p), G, H, I on the
exceptional side) and `classify_bounded_cut` normalises any valid
bounded cut onto one of A..F(p) by a twist and a shift.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .elliptic import EllipticStandard, StableClass
from .errors import (BadParamsError, HomViolationError, InvalidCutError,
                     NotSlopeDescribableError, UnboundedError, UnsupportedFamilyError)
from .families import INF, CoarseZ, ExceptionalP1, StandardP1
from .p1 import (DEFAULT_POINTS, DerivedObject, Indec, Line, Point, Torsion, hom_profile, line,
                 point_universe, torsion)
from .slopes import ExtendedRational
from .stability import (CheckItem, CoarseSlope, EllipticSlope, ExceptionalSlope, Report,
                        StabilityFamily, StandardSlope, Window)
from .value import Value, assign


def _fmt_bound(v) -> str:
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return str(int(v))


# --- cuts ---------------------------------------------------------------------

class StandardCut(Value):
    """Two-value threshold cut of the standard slope set.

    Canonicalised at construction: P is dropped when K < +inf (the
    point threshold is then forced to m), and the empty point set at
    K = +inf collapses to the constant threshold m+1.
    """

    __slots__ = ("m", "K", "P")

    def __init__(self, m: int, K: int | float = -INF, P: frozenset[str] | None = None):
        if P is not None:
            P = frozenset(P)
        if K != INF:
            P = None
        elif P is not None and not P:
            m, K, P = m + 1, -INF, None
        assign(self, locals())

    def line_threshold(self, n: int) -> int:
        return self.m + 1 if n < self.K else self.m

    def point_threshold(self, label: str) -> int:
        if self.K < INF or self.P is None or label in self.P:
            return self.m
        return self.m + 1

    def in_plus(self, s: StandardSlope) -> bool:
        if isinstance(s.level, Point):
            return s.i >= self.point_threshold(s.level.label)
        return s.i >= self.line_threshold(s.level)

    def spec(self) -> str:
        pts = "all" if self.P is None else ";".join(sorted(self.P))
        return f"std:m={self.m},K={_fmt_bound(self.K)},P={pts}"


class ExceptionalCut(Value):
    """Columnwise cut of an exceptional slope set: thresholds a and b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int | float, b: int | float):
        assign(self, locals())

    def in_plus(self, s: ExceptionalSlope) -> bool:
        return s.i >= (self.a if s.col == 0 else self.b)

    def spec(self) -> str:
        return f"exc:a={_fmt_bound(self.a)},b={_fmt_bound(self.b)}"


class CoarseCut(Value):
    """Cut of the coarse slope set at shift m."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        assign(self, locals())

    def in_plus(self, s: CoarseSlope) -> bool:
        return s.i >= self.m

    def spec(self) -> str:
        return f"coarse:m={self.m}"


class EllipticCut(Value):
    """Tilt of the elliptic heart at slope q and point set P, at shift m; q is
    an `ExtendedRational` (`PLUS_INFINITY` for inf), or an int or Fraction."""

    __slots__ = ("m", "q", "P")

    def __init__(self, m: int, q, P: Iterable[str] = ()):
        if not isinstance(q, ExtendedRational):
            q = ExtendedRational.finite(q)
        P = frozenset(P)
        assign(self, locals())

    def in_plus(self, s: EllipticSlope) -> bool:
        if s.i != self.m:
            return s.i > self.m
        return s.mu > self.q or (s.mu == self.q and s.cls.x.label not in self.P)


SlopeCut = StandardCut | ExceptionalCut | CoarseCut | EllipticCut


def _p1_only(cut: SlopeCut, what: str) -> None:
    if isinstance(cut, EllipticCut):
        raise UnsupportedFamilyError(f"{what} covers the P1 cuts only, not an elliptic cut")


def _check_cut_family(cut: SlopeCut, family: StabilityFamily) -> str | None:
    if isinstance(cut, StandardCut) and not isinstance(family, StandardP1):
        return "a standard cut needs the standard family"
    if isinstance(cut, ExceptionalCut) and not isinstance(family, ExceptionalP1):
        return "an exceptional cut needs an exceptional family"
    if isinstance(cut, CoarseCut) and not isinstance(family, CoarseZ):
        return "a coarse cut needs the coarse family"
    if isinstance(cut, EllipticCut) and not isinstance(family, EllipticStandard):
        return "an elliptic cut needs the elliptic family"
    return None


def _point_set_reason(P: frozenset[str], labels: tuple[str, ...], up: bool) -> str | None:
    """None if the point set is empty, or declared and up-closed (up) or
    down-closed in the point order; else the reason it is not."""
    if not P:
        return None
    if not labels:
        return "a proper point set needs a declared point universe on the family"
    unknown = P - set(labels)
    if unknown:
        return f"undeclared point labels in P: {sorted(unknown)}"
    member = [lbl in P for lbl in labels]
    if any((a, b) == (up, not up) for a, b in zip(member, member[1:])):
        return f"P must be {'up' if up else 'down'}-closed in the point order"
    return None


def _cut_validity_reason(cut: SlopeCut, family: StabilityFamily) -> str | None:
    """None if valid, else the reason the cut is not an up-closed decomposition."""
    mismatch = _check_cut_family(cut, family)
    if mismatch:
        return mismatch
    if isinstance(cut, CoarseCut):
        return None
    if isinstance(cut, StandardCut):
        return None if cut.P is None else _point_set_reason(cut.P, family.point_labels, up=True)
    if isinstance(cut, EllipticCut):
        q = cut.q
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


def cut_is_valid(cut: SlopeCut, family: StabilityFamily) -> bool:
    return _cut_validity_reason(cut, family) is None


def _window_slopes(cut: SlopeCut, family: StabilityFamily, radius: int) -> list:
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
        # ranks up to 2 near the cut, and every point's class of slope q (at inf, skyscrapers)
        points, q = point_universe(family.point_labels), cut.q.value
        classes = family.window_classes(Window(max_degree=radius, points=points), max_rank=2)
        if q is not None:
            classes += [StableClass(q.denominator, q.numerator, pt) for pt in points]
        return [EllipticSlope(i, cls) for i in range(cut.m - 1, cut.m + 2)
                for cls in dict.fromkeys(classes)]
    return [CoarseSlope(i) for i in range(cut.m - radius, cut.m + radius + 2)]


def validate_cut(cut: SlopeCut, family: StabilityFamily, radius: int = 4) -> Report:
    """Check that the cut decomposes the slope set into down-set < up-set.

    Combines the analytic validity conditions with an exhaustive
    up-closure check on a window of slopes around the cut.  Up-closure
    fails exactly when an up slope lies below the highest down slope, so
    one pass finds that key; the detail names the first such up slope in
    window order, and the first down slope above it.
    """
    checks = []
    reason = _cut_validity_reason(cut, family)
    checks.append(CheckItem("cut_constraints", reason is None, reason or ""))
    if _check_cut_family(cut, family) is None:
        slopes = _window_slopes(cut, family, radius)
        keyed = [(s, family.slope_key(s), cut.in_plus(s)) for s in slopes]
        top_down = max((key for _, key, up in keyed if not up), default=None)
        low = next(((s, key) for s, key, up in keyed
                    if up and top_down is not None and key < top_down), None)
        ok, detail = low is None, ""
        if low is not None:
            s1, key1 = low
            s2 = next(s for s, key, up in keyed if not up and key > key1)
            detail = (f"up-closure fails: {family.render_slope(s1)} is in the up-set "
                      f"but {family.render_slope(s2)} above it is not")
        checks.append(CheckItem("window_up_closure", ok, detail))
    return Report(tuple(checks))


def require_valid_cut(cut: SlopeCut, family: StabilityFamily) -> None:
    reason = _cut_validity_reason(cut, family)
    if reason is not None:
        raise InvalidCutError(reason)


# --- truncation -----------------------------------------------------------------

def truncate(x: DerivedObject, cut: SlopeCut, family: StabilityFamily
             ) -> tuple[DerivedObject, DerivedObject]:
    """Truncation triangle data of x at the cut: (x_le0, x_ge1).

    Summand by summand: with j of its HN quotients below the cut, the
    summand's tower term j goes to x_le0; x_ge1 takes the whole summand
    when j is all of them, else those j quotients.
    """
    require_valid_cut(cut, family)
    family._require(x)
    le0, ge1 = [], []
    for term, mult in x.summands():
        quotients, terms = family.summand_tower(term, mult)
        j = sum(not cut.in_plus(s) for s, _ in quotients)
        if j == len(quotients):
            ge1.append((term, mult))
        else:
            le0.extend(terms[j].summands())
            ge1.extend(pair for _, obj in quotients[:j] for pair in obj.summands())
    make = type(family.zero).from_pairs
    return make(le0), make(ge1)


# --- hearts -----------------------------------------------------------------------

def _render_line_gen(n: int, i: int) -> str:
    return (f"O[{i}]" if n == 0 else f"O({n})[{i}]")


class HeartDescription(Value):
    """The heart of the t-structure induced by a cut.

    A slope belongs to the heart iff it lies in the up-set and its
    tau-preimage does not; an object belongs to the heart iff all its
    HN slopes do.
    """

    __slots__ = ("family", "cut")
    _compare = ("cut",)

    def __init__(self, family: StabilityFamily, cut: SlopeCut = None):
        assign(self, locals())

    def contains_slope(self, s) -> bool:
        return self.cut.in_plus(s) and not self.cut.in_plus(self.family.tau(s, -1))

    def generators(self) -> list[str]:
        _p1_only(self.cut, "heart generators")
        cut, family = self.cut, self.family
        if isinstance(cut, CoarseCut):
            return [f"Coh[{cut.m}]"]
        if isinstance(cut, ExceptionalCut):
            gens = []
            if cut.a not in (INF, -INF):
                gens.append(_render_line_gen(family.k, int(cut.a)))
            if cut.b not in (INF, -INF):
                gens.append(_render_line_gen(family.k + 1, int(cut.b)))
            return gens
        m, K, P = cut.m, cut.K, cut.P
        if K == -INF:
            return [f"O(n)[{m}] (n in Z)", f"O_x[{m}] (x in P1)"]
        if K == INF:
            if P is None:
                return [f"O_x[{m}] (x in P1)", f"O(n)[{m + 1}] (n in Z)"]
            inside = ",".join(lbl for lbl in self.family.point_labels if lbl in P)
            return [f"O_x[{m}] (x in {{{inside}}})",
                    f"O(n)[{m + 1}] (n in Z)",
                    f"O_x[{m + 1}] (x not in {{{inside}}})"]
        return [f"O(n)[{m}] (n >= {int(K)})", f"O_x[{m}] (x in P1)",
                f"O(n)[{m + 1}] (n < {int(K)})"]

    def generator_objects(self) -> list[DerivedObject]:
        """Concrete generators; only exceptional hearts have finitely many."""
        _p1_only(self.cut, "heart generators")
        cut, family = self.cut, self.family
        if isinstance(cut, ExceptionalCut):
            gens = []
            if cut.a not in (INF, -INF):
                gens.append(line(family.k, int(cut.a)))
            if cut.b not in (INF, -INF):
                gens.append(line(family.k + 1, int(cut.b)))
            return gens
        raise NotSlopeDescribableError("only exceptional hearts have finitely many generators")


def heart_slopes(cut: SlopeCut, family: StabilityFamily) -> HeartDescription:
    require_valid_cut(cut, family)
    return HeartDescription(family, cut)


def heart_contains(x: DerivedObject, cut: SlopeCut, family: StabilityFamily) -> bool:
    """Whether every HN slope of x (every slope of its summands' towers) lies in the heart."""
    require_valid_cut(cut, family)
    family._require(x)
    heart = HeartDescription(family, cut)
    return all(heart.contains_slope(s) for term, mult in x.summands()
               for s, _ in family.term_filtration(term, mult))


def is_bounded(cut: SlopeCut, family: StabilityFamily) -> bool:
    """Whether the induced t-structure is bounded.

    Standard, coarse and elliptic cuts always are (their thresholds are finite);
    an exceptional cut is bounded iff both column thresholds are.
    """
    require_valid_cut(cut, family)
    if isinstance(cut, ExceptionalCut):
        return cut.a not in (INF, -INF) and cut.b not in (INF, -INF)
    return True


# --- torsion pairs ----------------------------------------------------------------

class TorsionPair(Value):
    """A shift-0 torsion pair described by level sets.

    The first part contains the line bundles of degree >= line_threshold
    and the torsion sheaves at the points of torsion_points (None = all
    points); the second part is the complement.  Maps from the first
    part to the second must vanish; `torsion_pair_cut` verifies this on
    a window.
    """

    __slots__ = ("line_threshold", "torsion_points")

    def __init__(self, line_threshold: int | float, torsion_points: frozenset[str] | None = None):
        if torsion_points is not None:
            torsion_points = frozenset(torsion_points)
        assign(self, locals())

    def in_first(self, base: Indec) -> bool:
        if isinstance(base, Line):
            return base.n >= self.line_threshold
        return self.torsion_points is None or base.x.label in self.torsion_points

    @staticmethod
    def from_predicates(pred_first, degrees: Iterable[int],
                        points: Sequence[Point], lengths: Iterable[int] = (1, 2)
                        ) -> "TorsionPair":
        """Infer the level-set description of a predicate on indecomposables.

        Raises NotSlopeDescribableError when the predicate is not a
        degree up-set on lines, or distinguishes torsion sheaves of the
        same point by length.
        """
        degrees = sorted(degrees)
        flags = [bool(pred_first(Line(n))) for n in degrees]
        if any(a and not b for a, b in zip(flags, flags[1:])):
            raise NotSlopeDescribableError("line membership is not an up-set in the degree")
        if all(flags):
            threshold: int | float = -INF
        elif not any(flags):
            threshold = INF
        else:
            threshold = degrees[flags.index(True)]
        pts = set()
        for pt in points:
            verdicts = {bool(pred_first(Torsion(pt, d))) for d in lengths}
            if len(verdicts) > 1:
                raise NotSlopeDescribableError(
                    f"torsion membership at {pt.label} depends on the length")
            if verdicts.pop():
                pts.add(pt.label)
        torsion_points = None if len(pts) == len(points) else frozenset(pts)
        return TorsionPair(threshold, torsion_points)


def torsion_pair_cut(pair: TorsionPair, family: StandardP1 = StandardP1(),
                     radius: int = 6) -> StandardCut:
    """The standard cut whose up-set is shifts >= 1 plus the pair's first part.

    Verifies Hom^0(first part, second part) = 0 on a window of
    generators before returning the cut; a nonzero map raises
    HomViolationError, and a pair whose cut would not be up-closed in
    the session's point order raises NotSlopeDescribableError.
    """
    degrees = range(-radius, radius + 1) if pair.line_threshold in (INF, -INF) else \
        range(int(pair.line_threshold) - radius, int(pair.line_threshold) + radius + 1)
    first, second = [], []
    for n in degrees:
        (first if pair.in_first(Line(n)) else second).append(line(n))
    for pt in point_universe(family.point_labels):
        for d in (1, 2):
            (first if pair.in_first(Torsion(pt, d)) else second).append(torsion(pt, d))
    for a in first:
        for b in second:
            if hom_profile(a, b)[0] != 0:
                raise HomViolationError(
                    f"Hom^0({a.render()}, {b.render()}) != 0 across the claimed pair")
    cut = StandardCut(0, pair.line_threshold, pair.torsion_points)
    reason = _cut_validity_reason(cut, family)
    if reason is not None:
        raise NotSlopeDescribableError(reason)
    return cut


# --- catalog ------------------------------------------------------------------------

STANDARD_NAMES = ("A", "B", "C", "D")
EXCEPTIONAL_NAMES = ("E", "F", "G", "H", "I")
CATALOG_NAMES = STANDARD_NAMES + EXCEPTIONAL_NAMES


class CatalogEntry(Value):
    """A named t-structure: family, cut, heart, and associated data."""

    __slots__ = ("name", "params", "family", "cut", "bounded", "torsion_pair", "quiver_heart")
    _compare = ("name", "params", "cut", "bounded", "torsion_pair", "quiver_heart")

    def __init__(self, name: str, params: tuple[tuple[str, object], ...], family: StabilityFamily,
                 cut: SlopeCut = None, bounded: bool = True,
                 torsion_pair: TorsionPair | None = None, quiver_heart: bool = False):
        assign(self, locals())

    @property
    def heart(self) -> HeartDescription:
        return HeartDescription(self.family, self.cut)

    def params_dict(self) -> dict:
        return dict(self.params)

    def to_json(self, twist: int = 0, shift: int = 0) -> dict:
        return {
            "name": self.name,
            "params": _params_json(self.params_dict()),
            "twist": twist,
            "shift": shift,
            "heart": self.heart.generators(),
            "bounded": self.bounded,
        }


def _params_json(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, frozenset):
            out[key] = sorted(value)
        else:
            out[key] = value
    return out


def catalog(name: str, p: int | None = None, P: Iterable[str] | None = None,
            points: Sequence[str] = DEFAULT_POINTS) -> CatalogEntry:
    """The named t-structure, normalised to twist 0 and shift 0.

    Standard entries (A, B, C, D) live over the standard family with the
    given point universe; exceptional entries (E, F, G, H, I) live over
    the pair (O, O(1)), with interleaving parameter p for E and F.
    D needs a nonempty proper up-closed point set P.
    """
    name = name.upper()
    std = StandardP1(tuple(points))
    if name == "A":
        return CatalogEntry("A", (), std, StandardCut(0, -INF, None))
    if name == "B":
        return CatalogEntry("B", (), std, StandardCut(0, 0, None),
                            torsion_pair=TorsionPair(0, None))
    if name == "C":
        return CatalogEntry("C", (), std, StandardCut(0, INF, None),
                            torsion_pair=TorsionPair(INF, None))
    if name == "D":
        if P is None:
            raise BadParamsError("D needs a point set P")
        pset = frozenset(P)
        if not pset or pset >= set(points):
            raise BadParamsError("D needs a nonempty proper subset of the point universe")
        cut = StandardCut(0, INF, pset)
        reason = _cut_validity_reason(cut, std)
        if reason is not None:
            raise BadParamsError(reason)
        return CatalogEntry("D", (("P", pset),), std, cut,
                            torsion_pair=TorsionPair(INF, pset))
    if name in ("E", "F"):
        if not isinstance(p, int) or p < 0:
            raise BadParamsError(f"{name} needs a nonnegative integer parameter p")
        fam = ExceptionalP1(0, p)
        if name == "E":
            return CatalogEntry("E", (("p", p),), fam, ExceptionalCut(p, -2))
        return CatalogEntry("F", (("p", p),), fam, ExceptionalCut(p, -1),
                            quiver_heart=(p == 0))
    fam = ExceptionalP1(0, INF)
    if name == "G":
        return CatalogEntry("G", (), fam, ExceptionalCut(0, -INF), bounded=False)
    if name == "H":
        return CatalogEntry("H", (), fam, ExceptionalCut(INF, 0), bounded=False)
    if name == "I":
        return CatalogEntry("I", (), fam, ExceptionalCut(INF, -INF), bounded=False)
    raise BadParamsError(f"unknown catalog name {name!r}")


def catalog_entries(points: Sequence[str] = DEFAULT_POINTS, p: int = 0) -> list[CatalogEntry]:
    """All nine entries with default parameters (D uses the top point)."""
    top = points[-1]
    return [catalog("A", points=points), catalog("B", points=points),
            catalog("C", points=points), catalog("D", P={top}, points=points),
            catalog("E", p=p), catalog("F", p=p),
            catalog("G"), catalog("H"), catalog("I")]


# --- classification -----------------------------------------------------------------

class Classification(Value):
    """Catalog name plus the twist/shift normalising the input cut onto it."""

    __slots__ = ("name", "params", "twist", "shift")

    def __init__(self, name: str, params: tuple[tuple[str, object], ...], twist: int, shift: int):
        assign(self, locals())

    def params_dict(self) -> dict:
        return dict(self.params)

    def to_json(self) -> dict:
        entry_params = _params_json(self.params_dict())
        return {"name": self.name, "params": entry_params,
                "twist": self.twist, "shift": self.shift}


def apply_twist_shift(cut: SlopeCut, twist: int, shift: int) -> SlopeCut:
    """The image of a cut under tensoring by O(twist) and shifting by [shift]."""
    _p1_only(cut, "apply_twist_shift")
    if isinstance(cut, StandardCut):
        K = cut.K if cut.K in (INF, -INF) else cut.K + twist
        return StandardCut(cut.m + shift, K, cut.P)
    if isinstance(cut, ExceptionalCut):
        def move(v):
            return v if v in (INF, -INF) else v + shift
        return ExceptionalCut(move(cut.a), move(cut.b))
    return CoarseCut(cut.m + shift)


def canonical_cut(cut: SlopeCut, family: StabilityFamily) -> SlopeCut:
    """Cut with a point set covering the whole universe rewritten to P = all."""
    if isinstance(cut, StandardCut) and cut.P is not None and family.point_labels \
            and set(cut.P) >= set(family.point_labels):
        return StandardCut(cut.m, cut.K, None)
    return cut


def classify_bounded_cut(cut: SlopeCut, family: StabilityFamily) -> Classification:
    """Normalise a valid bounded cut onto its catalog class.

    Returns the catalog name with parameters and the witnessing
    autoequivalence data: applying the twist and shift to the catalog
    cut reproduces the input cut (and the twist maps the catalog family
    onto the input family on the exceptional side).
    """
    _p1_only(cut, "classify_bounded_cut")
    require_valid_cut(cut, family)
    if not is_bounded(cut, family):
        raise UnboundedError("only bounded cuts are classified")
    if isinstance(cut, CoarseCut):
        return Classification("A", (), 0, cut.m)
    if isinstance(cut, StandardCut):
        cut = canonical_cut(cut, family)
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


# --- diagrams ------------------------------------------------------------------------

def _slope_token(family: StabilityFamily, s) -> str:
    if isinstance(s, StandardSlope):
        if isinstance(s.level, Point):
            return f"O_{s.level.label}[{s.i}]"
        return _render_line_gen(s.level, s.i)
    if isinstance(s, ExceptionalSlope):
        n = family.k + s.col
        return _render_line_gen(n, s.i)
    return f"Coh[{s.i}]"


def diagram(cut: SlopeCut, family: StabilityFamily, radius: int = 2) -> str:
    """ASCII slope line: generators in ascending order, the cut marked by
    "][", and "^" under the heart slopes."""
    _p1_only(cut, "diagram")
    require_valid_cut(cut, family)
    slopes = sorted(_window_slopes(cut, family, radius), key=family.slope_key)
    heart = HeartDescription(family, cut)
    line1 = ["..."]
    line2 = ["   "]
    boundary_done = False
    for s in slopes:
        if not boundary_done and cut.in_plus(s):
            line1.append("][")
            line2.append("  ")
            boundary_done = True
        token = _slope_token(family, s)
        line1.append(token)
        line2.append(("^" if heart.contains_slope(s) else " ") + " " * (len(token) - 1))
    if not boundary_done:
        line1.append("][")
        line2.append("  ")
    line1.append("...")
    return "  ".join(line1).rstrip() + "\n" + "  ".join(line2).rstrip()
