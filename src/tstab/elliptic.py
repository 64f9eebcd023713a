"""Reduced model of the derived category of coherent sheaves on an elliptic curve.

Semistable building blocks are stable classes (r, d, x): coprime rank
and degree plus a point of the curve (the moduli of stable bundles of
each slope is a copy of the curve; skyscrapers are the slope-infinity
classes).  Derived objects are finite formal sums of shifted classes,
the normal form being justified by homological dimension one: the same
`FormalSum` (`EllipticObject`) and the same atom `ShiftedIndec` as on
the line, here over a `StableClass`, and the same `hom_profile` over
the atoms' `ext_dim`.  A stable class gives the atom its `key`,
`rank_degree`, `ext_dim` (the slope rule table below) and `render`,
which the atom caches, and its part of the Hom sweep (`join`, `hits`).

The sort key of a class leads with its slope `mu()`, the exact
`ExtendedRational(d, r)`: a skyscraper's (d, r) is (1, 0), +infinity, so
it comes last.  Slopes compare by cross-multiplication, d*r' < d'*r, so
no quotient is computed per key and no float enters a comparison.

Hom dimensions between stable classes are determined by their slopes:

    E = F                 : 1 in both degrees (simple, trivial canonical bundle)
    mu(E) < mu(F)         : hom = r_E d_F - d_E r_F, ext1 = 0
    mu(E) > mu(F)         : hom = 0, ext1 = d_E r_F - r_E d_F
    mu(E) = mu(F), E != F : 0 in both degrees

Indecomposable semistables of non-coprime type (iterated
self-extensions of a stable class) are represented by multiples of the
class: correct at the level of K-theory and slopes, which is all the
filtration and tilting machinery uses; the indecomposability defect is
a documented limitation.
"""

from __future__ import annotations

import math
import random
import re
from functools import lru_cache

from .errors import FiltrationFormatError
from .p1 import FormalSum, Point, ShiftSummary, ShiftedIndec, point_resolver
from .slopes import ExtendedRational
from .stability import EllipticSlope, StabilityFamily, Window, slope_int, slope_point
from .value import Interned, Value, set_field


class StableClass(Interned):
    """A stable sheaf class: int rank r >= 0, int degree d (not bools) with
    gcd(r, d) = 1, point x.

    Rank 0 forces degree 1 (the skyscraper at x); positive rank allows
    any coprime degree.
    """

    __slots__ = ("r", "d", "x")
    _ints = {"r": (), "d": ()}

    def __init__(self, r: int, d: int, x: Point):
        if r < 0:
            raise ValueError("rank must be nonnegative")
        if r == 0 and d != 1:
            raise ValueError("rank-zero classes are skyscrapers: degree must be 1")
        if math.gcd(r, d) != 1:
            raise ValueError(f"rank and degree must be coprime, got ({r}, {d})")
        set_field(self, "r", r)
        set_field(self, "d", d)
        set_field(self, "x", x)

    @property
    def is_skyscraper(self) -> bool:
        return self.r == 0

    def mu(self) -> ExtendedRational:
        return ExtendedRational._raw(self.d, self.r)  # a skyscraper's (d, r) is (1, 0), +infinity

    def key(self):
        return (self.mu(), *self.x.key())

    def rank_degree(self) -> tuple[int, int]:
        return self.r, self.d

    def ext_dim(self, other: "StableClass", i: int) -> int:
        return hom_dim_stable(self, other, i)

    # Slopes compare as `hom_dim_stable` decides: mu(e) < mu(f) iff e.r*f.d - e.d*f.r > 0.

    def join(self, summary: ShiftSummary) -> None:
        """Add this class to a summary: the class set, and the greatest slope yet."""
        summary.classes.add(self)
        if summary.high is None:
            summary.low = self
        summary.high = self  # see `ShiftSummary`

    def hits(self, summary: ShiftSummary, across: bool) -> bool:
        """Whether Ext^0(e, f) != 0 for a class f of the summary, or with `across`
        Ext^1: e itself or a class of greater slope, and with `across` also a
        class of smaller slope."""
        high = summary.high
        if high is None:
            return False
        chi = self.r * high.d - self.d * high.r
        if chi:  # above every class or below the top one: no class equals e
            return chi > 0 or across
        low = summary.low
        return self in summary.classes or across and self.r * low.d - self.d * low.r < 0

    def render(self) -> str:
        return f"S({self.r},{self.d},{self.x.label})"

    def __repr__(self):
        return self.render()


def hom_dim_stable(e: StableClass, f: StableClass, ext_degree: int) -> int:
    """dim Ext^i(e, f) between stable classes, from the slope rule table."""
    if ext_degree not in (0, 1):
        return 0
    # Ranks are >= 0 and the only rank-0 class is (0, 1), so the sign of
    # chi decides the slope order exactly: chi > 0 iff mu(e) < mu(f).
    chi = e.r * f.d - e.d * f.r
    if chi > 0:
        return chi if ext_degree == 0 else 0
    if chi < 0:
        return 0 if ext_degree == 0 else -chi
    # Equal slopes: the coprime (r, d) agree, so e == f iff the points do.
    return 1 if e.x == f.x else 0


class EllipticObject(FormalSum):
    """An object of the elliptic model: a formal sum of shifted stable classes."""

    __slots__ = ()
    _bases = (StableClass,)


ELLIPTIC_ZERO = EllipticObject()
normalize_elliptic = EllipticObject.from_pairs


def stable(r: int, d: int, x: Point | str, shift: int = 0, mult: int = 1) -> EllipticObject:
    """Convenience constructor: mult * S(r,d,x)[shift]."""
    pt = x if isinstance(x, Point) else Point(x)
    return EllipticObject.single(ShiftedIndec(StableClass(r, d, pt), shift), mult)


# --- the standard family ------------------------------------------------------

# Compiled on first use, through `re`'s own cache.
_CLASS_RE = r"S\((-?[0-9]+),(-?[0-9]+),([A-Za-z0-9]+)\)\Z"


class EllipticStandard(StabilityFamily, Value):
    """The finest grading of the elliptic model: (shift, slope, class).

    Slopes order lexicographically by (shift, mu) and by the point
    order within one (shift, mu) stratum; each stable class spans its
    own semistable subcategory.
    """

    __slots__ = ("point_labels",)
    kind = "elliptic"
    zero = ELLIPTIC_ZERO

    def __init__(self, point_labels: tuple[str, ...] = ()):
        point_labels = tuple(point_labels)
        point_resolver(point_labels)  # checks the labels
        set_field(self, "point_labels", point_labels)

    def slope_key(self, s: EllipticSlope) -> tuple:
        if not isinstance(s, EllipticSlope):
            raise TypeError("cross-family slope comparison")
        return (s.i, *s.cls.key())

    def tau(self, s: EllipticSlope, n: int = 1) -> EllipticSlope:
        return EllipticSlope(s.i + n, s.cls)

    def slope_of_term(self, term: ShiftedIndec) -> EllipticSlope:
        return EllipticSlope(term.shift, term.base)

    def descriptor(self) -> dict:
        return {"family": "elliptic", "point_order": list(self.point_labels)}

    def slope_json(self, s: EllipticSlope) -> dict:
        mu = s.mu
        return {"shift": s.i, "mu": "inf" if mu.is_infinite else repr(mu), "class": s.cls.render()}

    def slope_from_json(self, data: dict) -> EllipticSlope:
        match = re.match(_CLASS_RE, data["class"])
        if not match:
            raise ValueError(f"bad stable class {data['class']!r}")
        r, d, label = int(match.group(1)), int(match.group(2)), match.group(3)
        cls = StableClass(r, d, slope_point(self.point_labels, label, "class"))
        slope = EllipticSlope(slope_int(data["shift"], "shift"), cls)
        mu = self.slope_json(slope)["mu"]
        if data["mu"] != mu:
            raise FiltrationFormatError(f"slope field 'mu' is {data['mu']!r}, "
                                        f"but {cls.render()} has slope {mu!r}")
        return slope

    def window_classes(self, window: Window, max_rank: int = 3) -> list[StableClass]:
        return list(_window_classes(window.points, window.max_degree, max_rank))

    def window_generators(self, window: Window) -> list[EllipticObject]:
        return [EllipticObject.single(ShiftedIndec(cls, i), 1)
                for i in window.shifts()
                for cls in _window_classes(window.points, window.max_degree, 2)]

    def random_object(self, rng: random.Random, window: Window) -> EllipticObject:
        classes = _window_classes(window.points, window.max_degree, 3)
        count = rng.randint(1, window.max_summands)
        pairs = []
        for _ in range(count):
            cls = rng.choice(classes)
            sh = rng.randint(-window.max_shift, window.max_shift)
            pairs.append((ShiftedIndec(cls, sh), rng.randint(1, 3)))
        return EllipticObject.from_pairs(pairs)


@lru_cache(maxsize=16)
def _window_classes(points: tuple, max_degree: int, max_rank: int) -> tuple[StableClass, ...]:
    """The stable classes of rank <= `max_rank` over a window's points and degrees,
    each point's skyscraper first.  Cached on what it reads, as `random_object` draws
    from them once per sample of a window, and windows of other seeds share them."""
    classes = []
    for pt in points:
        classes.append(StableClass(0, 1, pt))
        for r in range(1, max_rank + 1):
            for d in range(-max_degree, max_degree + 1):
                if math.gcd(r, d) == 1:
                    classes.append(StableClass(r, d, pt))
    return tuple(classes)
