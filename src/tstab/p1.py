"""Object model of the bounded derived category of coherent sheaves on P1.

Coherent sheaves on the projective line split into line bundles O(n) and
indecomposable torsion sheaves T(x, d) of length d at a point x; because
the category has homological dimension 1, every derived object is a
finite direct sum of shifted indecomposables, as is every object of the
elliptic model.  `ShiftedIndec` is the one shifted atom of both curves,
over a `Line`, a `Torsion` or an elliptic `StableClass`, each of which
gives its `key`, `rank_degree`, `ext_dim` and `render`.  `FormalSum` is
the one normal form, a multiset of atoms with multiplicities:
`DerivedObject` here, `EllipticObject` on the elliptic curve.

The Hom rule table is classical:

    Ext^0(O(a), O(b))    = max(b - a + 1, 0)
    Ext^1(O(a), O(b))    = max(a - b - 1, 0)
    Ext^0(O(a), T(x,d))  = d        Ext^1(O(a), T(x,d))  = 0
    Ext^0(T(x,d), O(a))  = 0        Ext^1(T(x,d), O(a))  = d
    Ext^i(T(x,d), T(y,e)) = min(d, e) if x == y (i = 0, 1), else 0

and in every other degree zero.  The table is pinned as data together
with an Euler-form cross-check so the model is self-checking.

Note T(x, 1) is the skyscraper at x; T(x, d) with d > 1 is its unique
indecomposable length-d thickening (of degree d).
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Callable, Iterable, Iterator

from .errors import ObjectParseError
from .slopes import K0Class
from .value import Value, set_field


# The point universe of windows, catalogs and cut checks when no order is declared.
DEFAULT_POINTS = ("x", "y", "z")


class Point(Value):
    """A point of P1: an opaque label plus its position in the point order.

    Points sort by `key()`, (order_index, label), so leaving order_index at
    0 gives the default lexicographic order on labels.  Points of a
    declared order come from `point_resolver`.
    """

    __slots__ = ("label", "order_index")

    def __init__(self, label: str, order_index: int = 0):
        if not isinstance(label, str) or not (label.isascii() and label.isalnum()):
            raise ValueError(f"point label must be letters/digits, got {label!r}")
        set_field(self, "label", label)
        set_field(self, "order_index", order_index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.label == other.label and self.order_index == other.order_index
        return NotImplemented

    def __hash__(self):
        return hash((self.label, self.order_index))

    def key(self):
        return (self.order_index, self.label)

    def __repr__(self):
        return self.label


@lru_cache(maxsize=64)
def point_resolver(labels: tuple[str, ...] = ()) -> Callable[[str], Point]:
    """The map from a label to its Point under a declared point order.

    With no order declared every label gets its lexicographic `Point`.
    Otherwise the labels must be unique point labels; a declared label
    gets its position in the order, and an undeclared one raises
    ObjectParseError.  This is the only code that gives a point a
    position.  Resolvers of recent orders are cached, so per-call use
    (one slope of a document) costs a lookup.
    """
    if not labels:
        return Point
    if len(set(labels)) != len(labels):
        raise ValueError("point labels must be unique")
    points = {lbl: Point(lbl, i) for i, lbl in enumerate(labels)}

    def resolve(label: str) -> Point:
        try:
            return points[label]
        except KeyError:
            raise ObjectParseError(f"undeclared point label {label!r}", 0) from None
    return resolve


def point_universe(labels: tuple[str, ...] = ()) -> tuple[Point, ...]:
    """The points of a declared order, in that order; with none declared,
    the lexicographic points of DEFAULT_POINTS."""
    return tuple(map(point_resolver(labels), labels or DEFAULT_POINTS))


# --- indecomposables --------------------------------------------------------

class Line(Value):
    """The line bundle O(n)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        set_field(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.n,))

    def key(self):
        return (0, (self.n,))  # lines before torsion, then by degree

    def rank_degree(self) -> tuple[int, int]:
        return 1, self.n

    def ext_dim(self, other: Indec, i: int) -> int:
        return ext_dim(self, other, i)

    def render(self) -> str:
        return f"O({self.n})"


class Torsion(Value):
    """The indecomposable torsion sheaf of length d >= 1 at a point."""

    __slots__ = ("x", "d")

    def __init__(self, x: Point, d: int):
        if d < 1:
            raise ValueError(f"torsion length must be >= 1, got {d}")
        set_field(self, "x", x)
        set_field(self, "d", d)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.x == other.x and self.d == other.d
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.d))

    def key(self):
        return (1, (*self.x.key(), self.d))  # by point order, then length

    def rank_degree(self) -> tuple[int, int]:
        return 0, self.d

    def ext_dim(self, other: Indec, i: int) -> int:
        return ext_dim(self, other, i)

    def render(self) -> str:
        return f"T({self.x.label},{self.d})"


Indec = Line | Torsion


class ShiftedIndec(Value):
    """A sheaf placed in homological degree -shift (i.e. base[shift]): a
    `Line` or a `Torsion` on the line, a `StableClass` on the elliptic curve.
    """

    __slots__ = ("base", "shift")

    def __init__(self, base: Line | Torsion | StableClass, shift: int = 0):
        set_field(self, "base", base)
        set_field(self, "shift", shift)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.base == other.base and self.shift == other.shift
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.shift))

    def shifted(self, n: int) -> "ShiftedIndec":
        return ShiftedIndec(self.base, self.shift + n)

    def key(self):
        return (self.shift, *self.base.key())

    def rank_degree(self) -> tuple[int, int]:
        r, d = self.base.rank_degree()
        return (-r, -d) if self.shift % 2 else (r, d)

    def k0(self) -> K0Class:
        return K0Class(self.rank_degree())

    def ext_dim(self, other: "ShiftedIndec", i: int) -> int:
        """dim Ext^i between the two sheaves, shifts ignored."""
        return self.base.ext_dim(other.base, i)

    def render(self) -> str:
        s = self.base.render()
        return f"{s}[{self.shift}]" if self.shift else s

    def __repr__(self):
        return self.render()


# --- normal forms -----------------------------------------------------------

class FormalSum(Value):
    """Normal form of a derived object: shifted atoms with multiplicities.

    The atoms are `ShiftedIndec`s, over a `Line` or a `Torsion` on the
    line and over a `StableClass` on the elliptic curve.  The term list
    is sorted by atom key and free of zero multiplicities; the zero
    object is the empty sum.  Each curve has its own subclass, and sums
    of different subclasses are never equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[object, int], ...] = ()):
        set_field(self, "terms", terms)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, int]]):
        """Merge, sort and drop zeros; the normal form of a formal sum."""
        acc: dict = {}
        for t, m in pairs:
            if m < 0:
                raise ValueError("multiplicities must be >= 0")
            if m:
                acc[t] = acc.get(t, 0) + m
        return cls(tuple(sorted(acc.items(), key=lambda tm: tm[0].key())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def summands(self) -> Iterator[tuple[object, int]]:
        return iter(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented  # sums on different curves do not mix
        return self.from_pairs(list(self.terms) + list(other.terms))

    def __rmul__(self, m: int):
        if m < 0:
            raise ValueError("multiplicities must be >= 0")
        if m == 0:
            return type(self)()
        return type(self)(tuple((t, m * k) for t, k in self.terms))

    def shift(self, n: int):
        # Every atom key starts with the shift, so the order is kept.
        return type(self)(tuple((t.shifted(n), m) for t, m in self.terms))

    def k0(self) -> K0Class:
        rank = degree = 0
        for t, m in self.terms:
            r, d = t.rank_degree()
            rank += m * r
            degree += m * d
        return K0Class((rank, degree))

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(t.render() if m == 1 else f"{m}*{t.render()}"
                          for t, m in self.terms)

    def __repr__(self):
        return self.render()


class DerivedObject(FormalSum):
    """A derived object on P1: a formal sum of shifted lines and torsion sheaves."""

    __slots__ = ()


ZERO = DerivedObject()
normalize = DerivedObject.from_pairs


def direct_sum(*objects: DerivedObject) -> DerivedObject:
    total = ZERO
    for x in objects:
        total = total + x
    return total


def line(n: int, shift: int = 0, mult: int = 1) -> DerivedObject:
    """Convenience constructor: mult * O(n)[shift]."""
    return normalize([(ShiftedIndec(Line(n), shift), mult)])


def torsion(x: Point | str, d: int = 1, shift: int = 0, mult: int = 1) -> DerivedObject:
    """Convenience constructor: mult * T(x, d)[shift]."""
    pt = x if isinstance(x, Point) else Point(x)
    return normalize([(ShiftedIndec(Torsion(pt, d), shift), mult)])


# --- Hom dimensions ---------------------------------------------------------

def ext_dim(a: Indec, b: Indec, i: int) -> int:
    """dim Ext^i between two sheaves, from the rule table."""
    if i not in (0, 1):
        return 0
    if isinstance(a, Line) and isinstance(b, Line):
        if i == 0:
            return max(b.n - a.n + 1, 0)
        return max(a.n - b.n - 1, 0)
    if isinstance(a, Line) and isinstance(b, Torsion):
        return b.d if i == 0 else 0
    if isinstance(a, Torsion) and isinstance(b, Line):
        return a.d if i == 1 else 0
    # torsion vs torsion
    if a.x == b.x:
        return min(a.d, b.d)
    return 0


def hom_dim(a, b, q: int) -> int:
    """dim Hom^q(a, b) between two shifted atoms: Ext^(q + shift(b) - shift(a))."""
    return a.ext_dim(b, q + b.shift - a.shift)


class HomProfile(Value):
    """The graded Hom dimensions between two objects, by degree: `entries`
    is the sorted tuple of (degree, dim) with dim > 0."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()):
        set_field(self, "entries", entries)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "HomProfile":
        return HomProfile(tuple(sorted((q, n) for q, n in d.items() if n)))

    def __getitem__(self, q: int) -> int:
        for degree, n in self.entries:
            if degree == q:
                return n
        return 0

    def items(self):
        return self.entries

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def vanishes_at_and_below(self, q0: int = 0) -> bool:
        return all(q > q0 for q, _ in self.entries)

    def euler(self) -> int:
        return sum(n if q % 2 == 0 else -n for q, n in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def __repr__(self):
        return "{" + ", ".join(f"{q}: {n}" for q, n in self.entries) + "}"


def hom_profile(x: FormalSum, y: FormalSum) -> HomProfile:
    """Bilinear extension of `hom_dim` over direct sums, on either curve."""
    acc: dict[int, int] = {}
    for t, m in x.summands():
        for s, k in y.summands():
            # Ext lives in degrees 0 and 1, so Hom^q is supported at
            # q = shift gap + i for i = 0, 1; hom_dim(t, s, q), inlined.
            gap = t.shift - s.shift
            for i in (0, 1):
                n = t.base.ext_dim(s.base, i)
                if n:
                    acc[gap + i] = acc.get(gap + i, 0) + m * k * n
    return HomProfile.from_dict(acc)


def euler_form(a: K0Class, b: K0Class) -> int:
    """The Riemann-Roch pairing on P1: rk*rk' + rk*deg' - deg*rk'."""
    return a.rank * b.rank + a.rank * b.degree - a.degree * b.rank
