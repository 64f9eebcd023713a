"""Slope-set cuts, induced t-structures, torsion pairs and the catalog.

A cut splits a family's slope set into a down-set and an up-set
(every slope of the first below every slope of the second); the up-set
spans the aisle T^{<=0}, the shifted down-set spans T^{>=0}, and the
heart is spanned by the slopes lying in the up-set whose tau-preimage
lies in the down-set.  Cuts are finite descriptions, not raw sets: each
kind is a `SlopeCut` class that owns its rules, and the module functions
below are thin calls into the cut.

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
from .families import CoarseZ, ExceptionalP1, StandardP1
from .p1 import (DEFAULT_POINTS, DerivedObject, Indec, Line, Point, Torsion, hom_profile, line,
                 point_universe, torsion)
from .slopes import INF, ExtendedRational
from .stability import (CheckItem, CoarseSlope, EllipticSlope, ExceptionalSlope, Report,
                        StabilityFamily, StandardSlope, Window)
from .value import Value, assign, check_ints, set_field


def _fmt_bound(v) -> str:
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return str(v)


def _labels(P, name: str) -> frozenset[str]:
    """`P` as a frozenset; a point label in it that is not a str is a TypeError."""
    P = frozenset(P)
    for label in P:
        if not isinstance(label, str):
            raise TypeError(f"{name} must hold point labels (strings), got {label!r}")
    return P


def _degrees_around(K: int | float, radius: int) -> range:
    """Line degrees within radius of a threshold K, of 0 when K is infinite."""
    center = 0 if K in (INF, -INF) else K
    return range(center - radius, center + radius + 1)


def _render_line_gen(n: int, i: int) -> str:
    return (f"O[{i}]" if n == 0 else f"O({n})[{i}]")


# --- cuts ---------------------------------------------------------------------

class SlopeCut(Value):
    """A cut of one kind of family's slope set; each kind owns its rules.

    A kind names the family it cuts (`family_type`, and the `mismatch`
    reason for any other) and gives its up-set (`in_plus`), analytic
    constraints (`constraint_reason`), window of slopes around the cut
    (`window`), image under a twist and a shift (`twisted`), heart
    generators (`heart_generators`), catalog class (`catalog_class`) and
    the diagram token of a slope (`token`).  The family check, the
    defaults and the order of the checks in `classify` and `diagram`
    are shared here.  Thresholds are ints or, where `_ints` says, +-INF, and
    point labels strs; any other value is a TypeError when the cut is built.
    """

    __slots__ = ()
    family_type: type  # the family whose slope set the cut splits
    mismatch: str      # the validity reason over any other family

    def validity_reason(self, family: StabilityFamily) -> str | None:
        """None if valid, else the reason the cut is not an up-closed decomposition."""
        if not isinstance(family, self.family_type):
            return self.mismatch
        return self.constraint_reason(family)

    def constraint_reason(self, family: StabilityFamily) -> str | None:
        """The analytic constraints over a family of `family_type`; none by default."""
        return None

    def bounded(self) -> bool:
        """Whether the induced t-structure is bounded; finite thresholds always are."""
        return True

    def generator_objects(self, family: StabilityFamily) -> list[DerivedObject]:
        raise NotSlopeDescribableError("only exceptional hearts have finitely many generators")

    def classify(self, family: StabilityFamily) -> Classification:
        """The catalog class of a valid bounded cut (see `classify_bounded_cut`)."""
        if not is_bounded(self, family):
            raise UnboundedError("only bounded cuts are classified")
        return self.catalog_class(family)

    def diagram(self, family: StabilityFamily, radius: int) -> str:
        """The slope line of `diagram`."""
        require_valid_cut(self, family)
        slopes = sorted(self.window(family, radius), key=family.slope_key)
        heart = HeartDescription(family, self)
        cells = [(self.token(family, s), "^" if heart.contains_slope(s) else " ") for s in slopes]
        top = next((j for j, s in enumerate(slopes) if self.in_plus(s)), len(slopes))
        cells.insert(top, ("][", " "))  # the cut, before the lowest up slope
        line1 = "  ".join(["...", *(token for token, _ in cells), "..."])
        line2 = "  ".join(["   ", *(mark.ljust(len(token)) for token, mark in cells)])
        return line1.rstrip() + "\n" + line2.rstrip()


class StandardCut(SlopeCut):
    """Two-value threshold cut of the standard slope set.

    A line bundle slope (i, n) is in the up-set iff i >= m+1 when n < K,
    iff i >= m otherwise; a point slope (i, x) iff i >= m when K < +inf or
    x is in P, iff i >= m+1 otherwise (P = None means all points).
    Up-closure forces exactly this shape, and P to be up-closed in the
    point order.  Canonicalised at construction: P is dropped when
    K < +inf (the point threshold is then forced to m), and the empty
    point set at K = +inf collapses to the constant threshold m+1.
    """

    __slots__ = ("m", "K", "P")
    _ints = {"m": (), "K": (INF, -INF)}
    family_type, mismatch = StandardP1, "a standard cut needs the standard family"

    def __init__(self, m: int, K: int | float = -INF, P: frozenset[str] | None = None):
        check_ints(self._ints, m, K)  # before the empty point set moves m
        if P is not None:
            P = _labels(P, "P")
        if K != INF:
            P = None
        elif P is not None and not P:
            m, K, P = m + 1, -INF, None
        set_field(self, "m", m)
        set_field(self, "K", K)
        set_field(self, "P", P)

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

    def constraint_reason(self, family: StandardP1) -> str | None:
        return None if self.P is None else _point_set_reason(self.P, family.point_labels, up=True)

    def window(self, family: StandardP1, radius: int) -> list[StandardSlope]:
        levels = (*_degrees_around(self.K, radius), *point_universe(family.point_labels))
        return [StandardSlope(i, level)
                for i in range(self.m - radius, self.m + radius + 2) for level in levels]

    def twisted(self, twist: int, shift: int) -> StandardCut:
        return StandardCut(self.m + shift, self.K + twist, self.P)

    def points(self, family: StandardP1) -> frozenset[str] | None:
        """P as the family reads it: a P covering its declared universe is P = all."""
        P, labels = self.P, family.point_labels
        return None if P is not None and labels and P >= set(labels) else P

    def heart_generators(self, family: StandardP1) -> list[str]:
        m, K, P = self.m, self.K, self.points(family)
        if K == -INF:
            return [f"O(n)[{m}] (n in Z)", f"O_x[{m}] (x in P1)"]
        if K == INF:
            if P is None:
                return [f"O_x[{m}] (x in P1)", f"O(n)[{m + 1}] (n in Z)"]
            inside = ",".join(lbl for lbl in family.point_labels if lbl in P)
            return [f"O_x[{m}] (x in {{{inside}}})",
                    f"O(n)[{m + 1}] (n in Z)",
                    f"O_x[{m + 1}] (x not in {{{inside}}})"]
        return [f"O(n)[{m}] (n >= {K})", f"O_x[{m}] (x in P1)", f"O(n)[{m + 1}] (n < {K})"]

    def catalog_class(self, family: StandardP1) -> Classification:
        m, K, P = self.m, self.K, self.points(family)
        if K == -INF:
            return Classification("A", (), 0, m)
        if K == INF:
            if P is None:
                return Classification("C", (), 0, m)
            return Classification("D", (("P", P),), 0, m)
        return Classification("B", (), K, m)

    def token(self, family: StandardP1, s: StandardSlope) -> str:
        if isinstance(s.level, Point):
            return f"O_{s.level.label}[{s.i}]"
        return _render_line_gen(s.level, s.i)


class ExceptionalCut(SlopeCut):
    """Columnwise cut of the exceptional slope set of the pair (O(k), O(k+1)).

    Column 0 enters the up-set at shift a, column 1 at shift b.  For
    interleaving parameter p, up-closure pins b to a-p-2 or a-p-1 when
    both are finite; at p = inf a finite a forces b = -inf.
    """

    __slots__ = ("a", "b")
    _ints = {"a": (INF, -INF), "b": (INF, -INF)}
    family_type, mismatch = ExceptionalP1, "an exceptional cut needs an exceptional family"

    def __init__(self, a: int | float, b: int | float):
        assign(self, locals())

    def in_plus(self, s: ExceptionalSlope) -> bool:
        return s.i >= (self.a if s.col == 0 else self.b)

    def spec(self) -> str:
        return f"exc:a={_fmt_bound(self.a)},b={_fmt_bound(self.b)}"

    def constraint_reason(self, family: ExceptionalP1) -> str | None:
        a, b, p = self.a, self.b, family.p
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
        return (f"at p = {p}, b must be {_fmt_bound(a - p - 2)} or {_fmt_bound(a - p - 1)}, "
                f"got {_fmt_bound(b)}")

    def window(self, family: ExceptionalP1, radius: int) -> list[ExceptionalSlope]:
        finite = [v for v in (self.a, self.b) if v not in (INF, -INF)]
        center = finite[0] if finite else 0
        return [ExceptionalSlope(i, c)
                for i in range(center - radius - 3, center + radius + 4) for c in (0, 1)]

    def bounded(self) -> bool:
        return self.a not in (INF, -INF) and self.b not in (INF, -INF)

    def twisted(self, twist: int, shift: int) -> ExceptionalCut:
        return ExceptionalCut(self.a + shift, self.b + shift)

    def _heart_lines(self, family: ExceptionalP1) -> list[tuple[int, int]]:
        """(degree, shift) of the heart's line bundle in each column of finite threshold."""
        return [(family.k + col, v) for col, v in enumerate((self.a, self.b))
                if v not in (INF, -INF)]

    def heart_generators(self, family: ExceptionalP1) -> list[str]:
        return [_render_line_gen(n, i) for n, i in self._heart_lines(family)]

    def generator_objects(self, family: ExceptionalP1) -> list[DerivedObject]:
        return [line(n, i) for n, i in self._heart_lines(family)]

    def catalog_class(self, family: ExceptionalP1) -> Classification:
        b, p = self.b, family.p
        if b == self.a - p - 2:
            return Classification("E", (("p", p),), family.k, b + 2)
        return Classification("F", (("p", p),), family.k, b + 1)

    def token(self, family: ExceptionalP1, s: ExceptionalSlope) -> str:
        return _render_line_gen(family.k + s.col, s.i)


class CoarseCut(SlopeCut):
    """Cut of the coarse slope set: the up-set is everything at shift >= m."""

    __slots__ = ("m",)
    _ints = {"m": ()}
    family_type, mismatch = CoarseZ, "a coarse cut needs the coarse family"

    def __init__(self, m: int):
        assign(self, locals())

    def in_plus(self, s: CoarseSlope) -> bool:
        return s.i >= self.m

    def spec(self) -> str:
        return f"coarse:m={self.m}"

    def window(self, family: CoarseZ, radius: int) -> list[CoarseSlope]:
        return [CoarseSlope(i) for i in range(self.m - radius, self.m + radius + 2)]

    def twisted(self, twist: int, shift: int) -> CoarseCut:
        return CoarseCut(self.m + shift)

    def heart_generators(self, family: CoarseZ) -> list[str]:
        return [f"Coh[{self.m}]"]

    def catalog_class(self, family: CoarseZ) -> Classification:
        return Classification("A", (), 0, self.m)

    def token(self, family: CoarseZ, s: CoarseSlope) -> str:
        return f"Coh[{s.i}]"


def _p1_notion(what: str):
    """A method refusing an elliptic cut: `what` covers the P1 cuts only."""
    def refuse(self, *args):
        raise UnsupportedFamilyError(f"{what} covers the P1 cuts only, not an elliptic cut")
    return refuse


class EllipticCut(SlopeCut):
    """Tilt of the elliptic heart at slope q and point set P, at shift m.

    q is an int (not a bool), a Fraction or an `ExtendedRational` (`PLUS_INFINITY`
    for inf); any other q is a TypeError.  q lies in [0, 1) or is inf.
    A slope (i, S(r,d,x)) is in the up-set iff i > m, or i = m and mu > q,
    or mu = q with x not in P; up-closure forces P to be down-closed in the
    point order.  The catalog, the classifier, twists, diagrams and heart
    generators are P1 notions, which it refuses.
    """

    __slots__ = ("m", "q", "P")
    _ints = {"m": ()}
    family_type, mismatch = EllipticStandard, "an elliptic cut needs the elliptic family"

    def __init__(self, m: int, q, P: Iterable[str] = ()):
        q = q if isinstance(q, ExtendedRational) else ExtendedRational.finite(q)
        P = _labels(P, "P")
        assign(self, locals())

    def in_plus(self, s: EllipticSlope) -> bool:
        if s.i != self.m:
            return s.i > self.m
        return s.mu > self.q or (s.mu == self.q and s.cls.x.label not in self.P)

    def constraint_reason(self, family: EllipticStandard) -> str | None:
        q = self.q
        if not (q.is_infinite or 0 <= q.d < q.r):
            return f"tilting slope must lie in [0, 1) or be inf, got {q!r}"
        return _point_set_reason(self.P, family.point_labels, up=False)

    def window(self, family: EllipticStandard, radius: int) -> list[EllipticSlope]:
        # ranks up to 2 near the cut, and every point's class of slope q (at inf, skyscrapers)
        if radius < 0:  # no slopes, as for the other cuts
            return []
        points, q = point_universe(family.point_labels), self.q
        classes = family.window_classes(Window(max_degree=radius, points=points), max_rank=2)
        classes += [StableClass(q.r, q.d, pt) for pt in points]
        return [EllipticSlope(i, cls) for i in range(self.m - 1, self.m + 2)
                for cls in dict.fromkeys(classes)]

    twisted = _p1_notion("apply_twist_shift")
    classify = _p1_notion("classify_bounded_cut")
    diagram = _p1_notion("diagram")
    heart_generators = generator_objects = _p1_notion("heart generators")


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


def validate_cut(cut: SlopeCut, family: StabilityFamily, radius: int = 4) -> Report:
    """Check that the cut decomposes the slope set into down-set < up-set.

    Combines the analytic validity conditions with an exhaustive
    up-closure check on a window of slopes around the cut.  Up-closure
    fails exactly when an up slope lies below the highest down slope, so
    one pass finds that key; the detail names the first such up slope in
    window order, and the first down slope above it.  A window with no
    slopes (a negative radius) examines nothing, so that item fails.
    """
    reason = cut.validity_reason(family)
    checks = [CheckItem("cut_constraints", reason is None, reason or "")]
    if isinstance(family, cut.family_type):
        slopes = cut.window(family, radius)
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
        checks.append(CheckItem.over("window_up_closure", len(slopes), ok, detail))
    return Report(tuple(checks))


def require_valid_cut(cut: SlopeCut, family: StabilityFamily) -> None:
    reason = cut.validity_reason(family)
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
        return self.cut.heart_generators(self.family)

    def generator_objects(self) -> list[DerivedObject]:
        """Concrete generators; only exceptional hearts have finitely many."""
        return self.cut.generator_objects(self.family)


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
    """Whether the induced t-structure is bounded (see the cut kind's `bounded`)."""
    require_valid_cut(cut, family)
    return cut.bounded()


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
    _ints = {"line_threshold": (INF, -INF)}

    def __init__(self, line_threshold: int | float, torsion_points: frozenset[str] | None = None):
        if torsion_points is not None:
            torsion_points = _labels(torsion_points, "torsion_points")
        assign(self, locals())

    def in_first(self, base: Indec) -> bool:
        if isinstance(base, Line):
            return base.n >= self.line_threshold
        return self.torsion_points is None or base.x.label in self.torsion_points


def torsion_pair_cut(pair: TorsionPair, family: StandardP1 = StandardP1(),
                     radius: int = 6) -> StandardCut:
    """The standard cut whose up-set is shifts >= 1 plus the pair's first part.

    Verifies Hom^0(first part, second part) = 0 on a window of
    generators before returning the cut; a nonzero map raises
    HomViolationError, and a pair whose cut would not be up-closed in
    the session's point order raises NotSlopeDescribableError.
    """
    first, second = [], []
    for n in _degrees_around(pair.line_threshold, radius):
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
    reason = cut.validity_reason(family)
    if reason is not None:
        raise NotSlopeDescribableError(reason)
    return cut


# --- catalog ------------------------------------------------------------------------

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
        reason = cut.validity_reason(std)
        if reason is not None:
            raise BadParamsError(reason)
        return CatalogEntry("D", (("P", pset),), std, cut,
                            torsion_pair=TorsionPair(INF, pset))
    if name in ("E", "F"):
        if p.__class__ is not int or p < 0:  # a bool is no p
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


# --- classification and diagrams ----------------------------------------------------

class Classification(Value):
    """Catalog name plus the twist/shift normalising the input cut onto it."""

    __slots__ = ("name", "params", "twist", "shift")
    _ints = {"twist": (), "shift": ()}

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
    return cut.twisted(twist, shift)


def classify_bounded_cut(cut: SlopeCut, family: StabilityFamily) -> Classification:
    """Normalise a valid bounded cut onto its catalog class.

    Returns the catalog name with parameters and the witnessing
    autoequivalence data: applying the twist and shift to the catalog
    cut reproduces the input cut (and the twist maps the catalog family
    onto the input family on the exceptional side).  A standard point
    set covering the whole declared universe classifies as P = all.
    """
    return cut.classify(family)


def diagram(cut: SlopeCut, family: StabilityFamily, radius: int = 2) -> str:
    """ASCII slope line: generators in ascending order, the cut marked by
    "][", and "^" under the heart slopes; a negative radius raises ValueError."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return cut.diagram(family, radius)
