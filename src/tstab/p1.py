"""Object model of the bounded derived category of coherent sheaves on P1.

Coherent sheaves on the projective line split into line bundles O(n) and
indecomposable torsion sheaves T(x, d) of length d at a point x; because
the category has homological dimension 1, every derived object is a
finite direct sum of shifted indecomposables, as is every object of the
elliptic model.  `ShiftedIndec` is the one shifted atom of both curves,
over a `Line`, a `Torsion` or an elliptic `StableClass`, each of which
gives its `key`, `rank_degree`, `ext_dim` and `render`, and its part of the
Hom sweep's `ShiftSummary` (`join`, `hits`).  `FormalSum` is
the one normal form, a multiset of atoms with multiplicities, with its own
`rank_degree`: `DerivedObject` here, `EllipticObject` on the elliptic curve.

Points, sheaves and atoms are interned (`tstab.value.Interned`), so `==` is
identity; an atom is built once with its sort key, signed (rank, degree) and
text, which sorting, K0 sums and rendering read per summand.

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
from .value import Interned, Value, check_ints, set_field


# The point universe of windows, catalogs and cut checks when no order is declared.
DEFAULT_POINTS = ("x", "y", "z")


class Point(Interned):
    """A point of P1: an opaque label plus its int position (not a bool) in the point order.

    Points sort by `key()`, (order_index, label), so leaving order_index at
    0 gives the default lexicographic order on labels.  Points of a
    declared order come from `point_resolver`.
    """

    __slots__ = ("label", "order_index")
    _ints = {"order_index": ()}

    def __init__(self, label: str, order_index: int = 0):
        if not isinstance(label, str) or not (label.isascii() and label.isalnum()):
            raise ValueError(f"point label must be letters/digits, got {label!r}")
        set_field(self, "label", label)
        set_field(self, "order_index", order_index)

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

class Line(Interned):
    """The line bundle O(n), of an int degree n (not a bool)."""

    __slots__ = ("n",)
    _ints = {"n": ()}

    def __init__(self, n: int):
        set_field(self, "n", n)

    def key(self):
        return (0, (self.n,))  # lines before torsion, then by degree

    def rank_degree(self) -> tuple[int, int]:
        return 1, self.n

    def ext_dim(self, other: Indec, i: int) -> int:
        return ext_dim(self, other, i)

    def join(self, summary: ShiftSummary) -> None:
        """Add this line to a summary: its degree, the greatest yet (`ShiftSummary`)."""
        if summary.hi is None:
            summary.lo = self.n
        summary.hi = self.n

    def hits(self, summary: ShiftSummary, across: bool) -> bool:
        """Whether Ext^0(O(n), s) != 0 for a sheaf s of the summary, or with
        `across` Ext^1: any torsion or a line of degree >= n, and with `across`
        also a line of degree <= n - 2."""
        hi = summary.hi
        if summary.points or hi is not None and hi >= self.n:
            return True
        return across and hi is not None and summary.lo <= self.n - 2

    def render(self) -> str:
        return f"O({self.n})"


class Torsion(Interned):
    """The indecomposable torsion sheaf of int length d >= 1 (not a bool) at a point."""

    __slots__ = ("x", "d")
    _ints = {"d": ()}

    def __init__(self, x: Point, d: int):
        if d < 1:
            raise ValueError(f"torsion length must be >= 1, got {d}")
        set_field(self, "x", x)
        set_field(self, "d", d)

    def key(self):
        return (1, (*self.x.key(), self.d))  # by point order, then length

    def rank_degree(self) -> tuple[int, int]:
        return 0, self.d

    def ext_dim(self, other: Indec, i: int) -> int:
        return ext_dim(self, other, i)

    def join(self, summary: ShiftSummary) -> None:
        """Add this sheaf to a summary: its point."""
        summary.points.add(self.x)

    def hits(self, summary: ShiftSummary, across: bool) -> bool:
        """Whether Ext^0(T(x,d), s) != 0 for a sheaf s of the summary, or with
        `across` Ext^1: torsion at x, and with `across` also any line."""
        return self.x in summary.points or across and summary.hi is not None

    def render(self) -> str:
        return f"T({self.x.label},{self.d})"


Indec = Line | Torsion


class ShiftSummary:
    """What the Hom sweep (`stability._first_hom_violation`) keeps of the
    sheaves placed at one shift.  Each sheaf type adds itself with `join` and
    tests itself against a summary with `hits`, on its own fields.  `join`
    takes each sheaf as the greatest yet, as terms ascend within a normal form
    and a later object's sheaf below the greatest hits the summary first:

    * `lo`, `hi`: the least and greatest line degree (None before a line);
    * `points`: the points of the torsion sheaves;
    * `low`, `high`: a stable class of least and of greatest slope (None before one);
    * `classes`: the stable classes.
    """

    __slots__ = ("lo", "hi", "points", "low", "high", "classes")

    def __init__(self):
        self.lo = self.hi = self.low = self.high = None
        self.points, self.classes = set(), set()


class ShiftedIndec(Interned):
    """A sheaf placed in homological degree -shift (i.e. base[shift]): a
    `Line` or a `Torsion` on the line, a `StableClass` on the elliptic curve.

    Interned; built once per (base, shift), with its sort key `_key`, signed
    (rank, degree) `_rd` and text `_text` (see `tstab.value`), or refused: a
    shift that is no int, or a base that is unhashable or no sheaf, raises.
    """

    __slots__ = ("base", "shift", "_key", "_rd", "_text")
    _ints = {"shift": ()}

    def __init__(self, base: Line | Torsion | StableClass, shift: int = 0):
        (r, d), text = base.rank_degree(), base.render()
        set_field(self, "base", base)
        set_field(self, "shift", shift)
        set_field(self, "_key", (shift, *base.key()))
        set_field(self, "_rd", (-r, -d) if shift % 2 else (r, d))
        set_field(self, "_text", f"{text}[{shift}]" if shift else text)

    def shifted(self, n: int) -> "ShiftedIndec":
        return ShiftedIndec(self.base, self.shift + n)

    def key(self):
        return self._key

    def rank_degree(self) -> tuple[int, int]:
        return self._rd

    def k0(self) -> K0Class:
        return K0Class(self.rank_degree())

    def ext_dim(self, other: "ShiftedIndec", i: int) -> int:
        """dim Ext^i between the two sheaves, shifts ignored."""
        return self.base.ext_dim(other.base, i)

    def render(self) -> str:
        return self._text

    def __repr__(self):
        return self.render()


# --- normal forms -----------------------------------------------------------

class FormalSum(Value):
    """Normal form of a derived object: shifted atoms with multiplicities.

    The atoms are `ShiftedIndec`s, over a `Line` or a `Torsion` on the line
    and over a `StableClass` on the elliptic curve.  The terms ascend by atom
    key, with int multiplicities > 0; the zero object is the empty sum.  Each
    curve has its own subclass, of the sheaf classes `_bases`, and sums of
    different subclasses are never equal.  The constructor takes a normal form
    alone, else raises as `from_pairs` would (TypeError for an atom of the other
    curve), or ValueError; `_raw`, the builders' path for terms already in
    normal form, checks nothing.  `rank_degree()` is the signed (rank, degree)
    int pair, `k0()` that pair as a `K0Class`; they and `render` loop in
    `rank_degree_of` and `render_pairs`, over any run of pairs, so an HN term
    that ends with the next term's pairs is read from its head (`head_before`).
    """

    __slots__ = ("terms",)
    _bases: tuple[type, ...] = ()

    def __init__(self, terms: tuple[tuple[object, int], ...] = ()):
        if terms != self.from_pairs(terms).terms:
            raise ValueError(f"terms must be a normal form, as from_pairs builds it, got {terms}")
        set_field(self, "terms", terms)

    @classmethod
    def _raw(cls, terms: tuple[tuple[object, int], ...]):
        """The sum of `terms`, a tuple already in normal form; nothing is checked."""
        obj = object.__new__(cls)
        set_field(obj, "terms", terms)
        return obj

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, int]]):
        """Merge, sort and drop zeros; the normal form of a formal sum."""
        acc: dict = {}
        for t, m in pairs:
            check_ints("multiplicity", m)
            if m < 0:
                raise ValueError("multiplicities must be >= 0")
            if t.base.__class__ not in cls._bases:
                raise TypeError(f"a {cls.__name__} takes no atom of the other curve, got {t!r}")
            if m:
                acc[t] = acc.get(t, 0) + m
        return cls._raw(tuple(sorted(acc.items(), key=lambda tm: tm[0].key())))

    @classmethod
    def single(cls, atom, mult: int):
        """`mult` copies of one atom: built as it stands when mult > 0 and the atom is
        of this curve (a normal form), else as `from_pairs` reads (or refuses) it."""
        check_ints("multiplicity", mult)
        return cls._raw(((atom, mult),)) if mult > 0 and atom.base.__class__ in cls._bases \
            else cls.from_pairs([(atom, mult)])

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
        check_ints("multiplicity", m)
        if m < 0:
            raise ValueError("multiplicities must be >= 0")
        return self._raw(tuple((t, m * k) for t, k in self.terms) if m else ())

    def shift(self, n: int):
        # Every atom key starts with the shift, so the order is kept.
        return self._raw(tuple((t.shifted(n), m) for t, m in self.terms))

    def rank_degree(self) -> tuple[int, int]:
        rank, degree = rank_degree_of(self.terms)
        check_ints("K0 component", rank, degree)
        return rank, degree

    def k0(self) -> K0Class:
        return K0Class(rank_degree_of(self.terms))

    def render(self) -> str:
        return render_pairs(self.terms) if self.terms else "0"

    def __repr__(self):
        return self.render()


def rank_degree_of(pairs) -> tuple[int, int]:
    """The signed (rank, degree) of (atom, multiplicity) pairs; unchecked, unlike `rank_degree`."""
    rank = degree = 0
    for t, m in pairs:
        r, d = t._rd
        rank += m * r
        degree += m * d
    return rank, degree


def render_pairs(pairs) -> str:
    """The text of a nonempty run of (atom, multiplicity) pairs, as `render` writes it."""
    return " + ".join([t._text if m == 1 else f"{m}*{t._text}" for t, m in pairs])


def head_before(obj, tail) -> tuple | None:
    """The summands of `obj` before `tail`'s, if `tail` is a nonzero sum of its type
    whose pairs equal `obj`'s last ones (an HN term of a split family often is
    the tail of the one before); else None."""
    if type(obj) is not type(tail) or not isinstance(obj, FormalSum):
        return None
    k, terms = len(tail.terms), obj.terms
    return terms[:-k] if 0 < k < len(terms) and terms[-k:] == tail.terms else None


class DerivedObject(FormalSum):
    """A derived object on P1: a formal sum of shifted lines and torsion sheaves."""

    __slots__ = ()
    _bases = (Line, Torsion)


ZERO = DerivedObject()
normalize = DerivedObject.from_pairs


def line(n: int, shift: int = 0, mult: int = 1) -> DerivedObject:
    """Convenience constructor: mult * O(n)[shift]."""
    return DerivedObject.single(ShiftedIndec(Line(n), shift), mult)


def torsion(x: Point | str, d: int = 1, shift: int = 0, mult: int = 1) -> DerivedObject:
    """Convenience constructor: mult * T(x, d)[shift]."""
    pt = x if isinstance(x, Point) else Point(x)
    return DerivedObject.single(ShiftedIndec(Torsion(pt, d), shift), mult)


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
    is the sorted tuple of (degree, dim) with dim > 0, each an int (not a bool)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()):
        for q, n in entries:
            check_ints({"degree": (), "dim": ()}, q, n)
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
    profile = object.__new__(HomProfile)  # of int entries, as the sums' multiplicities are
    set_field(profile, "entries", tuple(sorted((q, n) for q, n in acc.items() if n)))
    return profile


def euler_form(a: K0Class, b: K0Class) -> int:
    """The Riemann-Roch pairing on P1: rk*rk' + rk*deg' - deg*rk'."""
    return a.rank * b.rank + a.rank * b.degree - a.degree * b.rank
