"""Reduced model of the derived category of coherent sheaves on an elliptic curve.

Semistable building blocks are stable classes (r, d, x): coprime rank
and degree plus a point of the curve (the moduli of stable bundles of
each slope is a copy of the curve; skyscrapers are the slope-infinity
classes).  Derived objects are finite formal sums of shifted classes,
the normal form being justified by homological dimension one: the same
`FormalSum` as on the line, with `ShiftedClass` as its atom type
(`EllipticObject`), and the same `hom_profile` over the atoms' `ext_dim`.

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
from fractions import Fraction
from collections.abc import Iterable

from .errors import FiltrationFormatError, QOutOfRangeError
from .p1 import FormalSum, Point, hom_profile, point_resolver
from .slopes import ExtendedRational, K0Class, PLUS_INFINITY
from .stability import EllipticSlope, StabilityFamily, Window, slope_int
from .value import Value, set_field


class StableClass(Value):
    """A stable sheaf class: rank r >= 0, degree d with gcd(r, d) = 1, point x.

    Rank 0 forces degree 1 (the skyscraper at x); positive rank allows
    any coprime degree.
    """

    __slots__ = ("r", "d", "x")

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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.r == other.r and self.d == other.d and self.x == other.x
        return NotImplemented

    def __hash__(self):
        return hash((self.r, self.d, self.x))

    @property
    def is_skyscraper(self) -> bool:
        return self.r == 0

    def mu(self) -> ExtendedRational:
        if self.r == 0:
            return PLUS_INFINITY
        return ExtendedRational.finite(Fraction(self.d, self.r))

    def key(self):
        mu_key = (1, Fraction(0)) if self.r == 0 else (0, Fraction(self.d, self.r))
        return (*mu_key, *self.x.key())

    def render(self) -> str:
        return f"S({self.r},{self.d},{self.x.label})"

    def __repr__(self):
        return self.render()


def hom_dim_stable(e: StableClass, f: StableClass, ext_degree: int) -> int:
    """dim Ext^i(e, f) between stable classes, from the slope rule table."""
    if ext_degree not in (0, 1):
        return 0
    if e == f:
        return 1
    # Ranks are >= 0 and the only rank-0 class is (0, 1), so the sign of
    # chi decides the slope order exactly: chi > 0 iff mu(e) < mu(f).
    chi = e.r * f.d - e.d * f.r
    if chi > 0:
        return chi if ext_degree == 0 else 0
    if chi < 0:
        return 0 if ext_degree == 0 else -chi
    return 0


class ShiftedClass(Value):
    """A stable class placed at a shift."""

    __slots__ = ("cls", "shift")

    def __init__(self, cls: StableClass, shift: int = 0):
        set_field(self, "cls", cls)
        set_field(self, "shift", shift)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.cls == other.cls and self.shift == other.shift
        return NotImplemented

    def __hash__(self):
        return hash((self.cls, self.shift))

    def shifted(self, n: int) -> "ShiftedClass":
        return ShiftedClass(self.cls, self.shift + n)

    def key(self):
        return (self.shift, *self.cls.key())

    def rank_degree(self) -> tuple[int, int]:
        sign = -1 if self.shift % 2 else 1
        return sign * self.cls.r, sign * self.cls.d

    def k0(self) -> K0Class:
        return K0Class(self.rank_degree())

    def ext_dim(self, other: "ShiftedClass", i: int) -> int:
        """dim Ext^i between the two stable classes, shifts ignored."""
        return hom_dim_stable(self.cls, other.cls, i)

    def render(self) -> str:
        s = self.cls.render()
        if self.shift != 0:
            s += f"[{self.shift}]"
        return s

    def __repr__(self):
        return self.render()


class EllipticObject(FormalSum):
    """An object of the elliptic model: a formal sum of `ShiftedClass` atoms."""

    __slots__ = ()


ELLIPTIC_ZERO = EllipticObject()
normalize_elliptic = EllipticObject.from_pairs


def stable(r: int, d: int, x: Point | str, shift: int = 0, mult: int = 1) -> EllipticObject:
    """Convenience constructor: mult * S(r,d,x)[shift]."""
    pt = x if isinstance(x, Point) else Point(x)
    return normalize_elliptic([(ShiftedClass(StableClass(r, d, pt), shift), mult)])


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
        return EllipticSlope(s.i + n, s.mu, s.cls)

    def slope_of_term(self, term: ShiftedClass) -> EllipticSlope:
        return EllipticSlope(term.shift, term.cls.mu(), term.cls)

    def descriptor(self) -> dict:
        return {"family": "elliptic", "point_order": list(self.point_labels)}

    def slope_json(self, s: EllipticSlope) -> dict:
        mu = "inf" if s.mu.is_infinite else str(s.mu.value)
        return {"shift": s.i, "mu": mu, "class": s.cls.render()}

    def slope_from_json(self, data: dict) -> EllipticSlope:
        match = re.match(_CLASS_RE, data["class"])
        if not match:
            raise ValueError(f"bad stable class {data['class']!r}")
        r, d, label = int(match.group(1)), int(match.group(2)), match.group(3)
        cls = StableClass(r, d, point_resolver(self.point_labels)(label))
        slope = EllipticSlope(slope_int(data["shift"], "shift"), cls.mu(), cls)
        mu = self.slope_json(slope)["mu"]
        if data["mu"] != mu:
            raise FiltrationFormatError(f"slope field 'mu' is {data['mu']!r}, "
                                        f"but {cls.render()} has slope {mu!r}")
        return slope

    def window_classes(self, window: Window, max_rank: int = 3) -> list[StableClass]:
        classes = []
        for pt in window.points:
            classes.append(StableClass(0, 1, pt))
            for r in range(1, max_rank + 1):
                for d in window.degrees():
                    if math.gcd(r, d) == 1:
                        classes.append(StableClass(r, d, pt))
        return classes

    def window_generators(self, window: Window) -> list[EllipticObject]:
        return [normalize_elliptic([(ShiftedClass(cls, i), 1)])
                for i in window.shifts()
                for cls in self.window_classes(window, max_rank=2)]

    def random_object(self, rng: random.Random, window: Window) -> EllipticObject:
        classes = self.window_classes(window, max_rank=3)
        count = rng.randint(1, window.max_summands)
        pairs = []
        for _ in range(count):
            cls = rng.choice(classes)
            sh = rng.randint(-window.max_shift, window.max_shift)
            pairs.append((ShiftedClass(cls, sh), rng.randint(1, 3)))
        return normalize_elliptic(pairs)


# --- tilting torsion pairs ------------------------------------------------------

def _check_q(q: ExtendedRational) -> None:
    if q.is_infinite:
        return
    if not (0 <= q.value < 1):
        raise QOutOfRangeError(f"tilting slope must lie in [0, 1) or be inf, got {q!r}")


def _in_second_part(cls: StableClass, q: ExtendedRational, P: frozenset[str]) -> bool:
    """Whether a class falls in the quotient part: mu < q, or mu = q with x in P."""
    mu = cls.mu()
    if mu < q:
        return True
    return mu == q and cls.x.label in P


def a_qp_split(x: EllipticObject, q: ExtendedRational | Fraction | str,
               P: Iterable[str] = ()) -> tuple[EllipticObject, EllipticObject]:
    """Split a shift-0 object along the tilting pair at slope q and point set P.

    The second part collects the summands of slope < q (or slope q with
    point in P); the first part is the rest.  Vanishing of degree-0 maps
    from the first part to the second is re-checked on the output.
    """
    q = _as_extended(q)
    _check_q(q)
    pset = frozenset(P)
    if any(t.shift != 0 for t, _ in x.summands()):
        raise ValueError("the tilting split applies to shift-0 objects")
    first, second = [], []
    for t, m in x.summands():
        (second if _in_second_part(t.cls, q, pset) else first).append((t, m))
    first, second = normalize_elliptic(first), normalize_elliptic(second)
    profile = hom_profile(first, second)
    if profile[0] != 0:
        raise AssertionError(f"torsion pair violated: Hom^0 = {profile[0]}")
    return first, second


def _as_extended(q) -> ExtendedRational:
    if isinstance(q, ExtendedRational):
        return q
    if isinstance(q, str):
        if q == "inf":
            return PLUS_INFINITY
        return ExtendedRational.finite(Fraction(q))
    return ExtendedRational.finite(Fraction(q))


def elliptic_heart_contains(x: EllipticObject, q, P: Iterable[str] = ()) -> bool:
    """Membership in the tilted heart: first part at shift 0, second at shift 1."""
    q = _as_extended(q)
    _check_q(q)
    pset = frozenset(P)
    for t, _ in x.summands():
        if t.shift == 0:
            if _in_second_part(t.cls, q, pset):
                return False
        elif t.shift == 1:
            if not _in_second_part(t.cls, q, pset):
                return False
        else:
            return False
    return True
