"""Generic slope machinery over a free abelian K0 model.

A positive system is a list of additive integer-valued functions
(x_0, ..., x_{r-1}) on K0 such that x_0 >= 0, each leading-zero prefix
forces the next value to be >= 0, and a class that vanishes in all but
the last position must be strictly positive there.  Such a system
assigns to every nonzero class an exact, totally ordered slope vector,
and the induced preorder on objects has the seesaw property.

All ordering here is exact: slope components carry rational arguments
and the comparator reverses their order (the underlying arccotangent
reparametrisation is strictly decreasing), so no floating point ever
participates in a comparison.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from collections.abc import Iterable

from .errors import ArityMismatchError, NotPositiveError, ZeroClassError
from .value import Value, assign, set_field


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1

    @staticmethod
    def of(a, b) -> "Ordering":
        """Ordering of two values that support <."""
        if a < b:
            return Ordering.LESS
        if b < a:
            return Ordering.GREATER
        return Ordering.EQUAL


class K0Class(Value):
    """A class in the free abelian K0 model: a fixed-length integer vector.

    For curve categories the arity is 2 and the components are
    (rank, degree).  Components must be ints (not bools): anything else
    raises TypeError rather than being truncated.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[int]):
        components = tuple(components)
        for c in components:
            if c.__class__ is not int:
                raise TypeError(f"K0 components must be integers, got {c!r}")
        set_field(self, "components", components)

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    @property
    def rank(self) -> int:
        return self.components[0]

    @property
    def degree(self) -> int:
        return self.components[1]

    def __add__(self, other: "K0Class") -> "K0Class":
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} vs {other.arity}")
        return K0Class(tuple(a + b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "K0Class":
        return K0Class(tuple(-c for c in self.components))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return self + (-other)

    def __rmul__(self, m: int) -> "K0Class":
        return K0Class(tuple(m * c for c in self.components))

    def __repr__(self):
        return f"K0{self.components}"


def k0(*components: int) -> K0Class:
    return K0Class(tuple(components))


class PositiveSystem(Value):
    """A labelled system of additive functions with the positivity property.

    Positivity is not proven symbolically; `check_positive` verifies it on
    any supplied sample of classes.  `is_base` additionally demands that
    the zero vector only represents the zero object.
    """

    __slots__ = ("labels", "is_base")

    def __init__(self, labels: tuple[str, ...], is_base: bool = False):
        assign(self, locals())

    @property
    def arity(self) -> int:
        return len(self.labels)


#: The rank/degree system of a smooth curve, used throughout the package.
RANK_DEGREE = PositiveSystem(labels=("rk", "deg"), is_base=True)


class PositivityViolation(Value):
    __slots__ = ("cls", "reason")

    def __init__(self, cls: K0Class, reason: str):
        assign(self, locals())

    def __str__(self):
        return f"{self.cls}: {self.reason}"


def _nonzero_cascade_violation(cls: K0Class) -> str | None:
    """Reason string if a nonzero vector fails the cascading conditions."""
    comps = cls.components
    r = len(comps)
    for i, c in enumerate(comps):
        if c != 0:
            if c < 0:
                which = "> 0" if i == r - 1 else ">= 0"
                return f"x_{i} = {c} must be {which} once x_0..x_{i-1} vanish" if i else f"x_0 = {c} must be >= 0"
            return None
    return None


def check_positive(system: PositiveSystem, samples: Iterable[K0Class]) -> list[PositivityViolation]:
    """Check the cascading positivity conditions on every sample.

    Returns an empty list iff all samples pass.  The cascade applies to
    nonzero vectors; the zero vector is flagged only when the system is
    declared a base (zero vector must then mean the zero object).
    """
    violations = []
    for cls in samples:
        if cls.arity != system.arity:
            raise ArityMismatchError(f"sample {cls} has arity {cls.arity}, system has {system.arity}")
        if cls.is_zero:
            if system.is_base:
                violations.append(PositivityViolation(cls, "zero vector in a positive base must be the zero object"))
            continue
        reason = _nonzero_cascade_violation(cls)
        if reason is not None:
            violations.append(PositivityViolation(cls, reason))
    return violations


# --- slope values -----------------------------------------------------------

class One(Value):
    """The maximal slope component (the filler above every Nu value)."""

    __slots__ = ()

    def __repr__(self):
        return "One"


class Nu(Value):
    """Slope component nu(q); ordering reverses the rational argument.

    Semantically nu(q) = arccot(q)/pi, which is strictly decreasing in q,
    so Nu(q1) < Nu(q2) iff q1 > q2, and Nu(q) < One for every q.
    """

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        assign(self, locals())

    def __repr__(self):
        return f"Nu({self.q})"


SlopeComponent = One | Nu


def _component_key(c: SlopeComponent):
    # One sorts above every Nu; among Nu values the order of q is reversed.
    if isinstance(c, One):
        return (1, Fraction(0))
    return (0, -c.q)


class SlopeValue(Value):
    """An exact slope vector of length r-1, ordered lexicographically."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[SlopeComponent, ...]):
        assign(self, locals())

    def key(self):
        return tuple(_component_key(c) for c in self.components)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return "Slope(" + ", ".join(repr(c) for c in self.components) + ")"


def compare_slopes(a: SlopeValue, b: SlopeValue) -> Ordering:
    """Lexicographic comparison of two slope vectors of equal length."""
    if len(a) != len(b):
        raise ArityMismatchError("cannot compare slope vectors of different lengths")
    return Ordering.of(a.key(), b.key())


def gamma_slope(system: PositiveSystem, cls: K0Class) -> SlopeValue:
    """The exact slope of a nonzero positive class.

    The result has s leading One components, where s is the index of the
    first nonzero function value, followed by Nu(-x_{s+j}/x_s) for the
    remaining positions.
    """
    if cls.arity != system.arity:
        raise ArityMismatchError(f"class arity {cls.arity} vs system arity {system.arity}")
    if cls.is_zero:
        raise ZeroClassError("the zero class has no slope")
    reason = _nonzero_cascade_violation(cls)
    if reason is not None:
        raise NotPositiveError(reason)
    comps = cls.components
    s = next(i for i, c in enumerate(comps) if c != 0)
    parts: list[SlopeComponent] = [One()] * s
    for j in range(s + 1, len(comps)):
        parts.append(Nu(Fraction(-comps[j], comps[s])))
    return SlopeValue(tuple(parts))


# --- extended rationals -----------------------------------------------------

class ExtendedRational(Value):
    """A rational number d/r or +infinity, with +infinity maximal.

    The fields are coprime ints with r >= 0; +infinity is (1, 0), the value
    `PLUS_INFINITY`.  `finite` and `reduced` are the conversions; a caller
    of the constructor gives the fields in this form.  Values compare by
    cross-multiplication, d*r' < d'*r, exact as no r is negative; against
    any other type every comparison is NotImplemented.  Equal values have
    equal fields, so `hash` reads the fields.
    """

    __slots__ = ("d", "r")

    def __init__(self, d: int, r: int):
        set_field(self, "d", d)
        set_field(self, "r", r)

    @staticmethod
    def finite(q: int | Fraction) -> "ExtendedRational":
        """q as an extended rational: an int (not a bool) or a Fraction, else TypeError."""
        if q.__class__ is int:
            return ExtendedRational(q, 1)
        if isinstance(q, Fraction):
            return ExtendedRational(q.numerator, q.denominator)
        raise TypeError(f"a slope must be an int or a Fraction, got {q!r}")

    @staticmethod
    def reduced(d: int, r: int) -> "ExtendedRational":
        """d/r in lowest terms; +infinity when r = 0 and d != 0; 0/0 is a ZeroClassError."""
        if r == 0:
            if d == 0:
                raise ZeroClassError("the zero class has no slope")
            return PLUS_INFINITY
        g = math.gcd(d, r) if r > 0 else -math.gcd(d, r)
        return ExtendedRational(d // g, r // g)

    @property
    def is_infinite(self) -> bool:
        return self.r == 0

    def __eq__(self, other):
        if other.__class__ is ExtendedRational:
            return self.d * other.r == other.d * self.r
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is ExtendedRational:
            return self.d * other.r < other.d * self.r
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is ExtendedRational:
            return self.d * other.r <= other.d * self.r
        return NotImplemented

    # `a > b` and `a >= b` are answered by the reflections `b < a` and `b <= a`.

    def __hash__(self):
        return hash((self.d, self.r))

    def __repr__(self):
        return "+inf" if self.r == 0 else str(self.d) if self.r == 1 else f"{self.d}/{self.r}"


PLUS_INFINITY = ExtendedRational(1, 0)

# The infinite bounds of cuts and the parameter p = inf, as plain floats.
INF = float("inf")


def mu_bar(cls: K0Class) -> ExtendedRational:
    """deg/rk for positive rank, +infinity for torsion classes.

    Order-equivalent to `gamma_slope` on the rank/degree system, and defined
    on the same classes: the zero class raises ZeroClassError, a class that
    is not positive NotPositiveError.  The equivalence is a tested invariant
    rather than an assumption.
    """
    if cls.arity != 2:
        raise ArityMismatchError("mu_bar is defined for (rank, degree) classes")
    reason = _nonzero_cascade_violation(cls)
    if reason is not None:
        raise NotPositiveError(reason)
    rk, deg = cls.components
    return ExtendedRational.reduced(deg, rk)


# --- seesaw -----------------------------------------------------------------

class SeesawResult(Value):
    """Outcome of a seesaw check on a subobject/quotient pair.

    `alternative` is one of "increasing", "decreasing", "equal" or
    "mixed"; the first three are the legal alternatives, "mixed" means
    the three pairwise comparisons are inconsistent.
    """

    __slots__ = ("a", "b", "c", "ab", "ac", "bc", "alternative")

    def __init__(self, a: K0Class, b: K0Class, c: K0Class,
                 ab: Ordering, ac: Ordering, bc: Ordering, alternative: str):
        assign(self, locals())

    @property
    def ok(self) -> bool:
        return self.alternative != "mixed"


def seesaw_check(system: PositiveSystem, a: K0Class, c: K0Class) -> SeesawResult:
    """Check the seesaw alternatives for the extension class b = a + c.

    For slopes built from additive functions exactly one of the three
    alternatives holds: gamma(a) < gamma(b) < gamma(c) ("increasing"),
    all reversed ("decreasing"), or all equal ("equal").
    """
    b = a + c
    ga, gb, gc = (gamma_slope(system, x) for x in (a, b, c))
    ab, ac, bc = compare_slopes(ga, gb), compare_slopes(ga, gc), compare_slopes(gb, gc)
    if ab == ac == bc == Ordering.LESS:
        alternative = "increasing"
    elif ab == ac == bc == Ordering.GREATER:
        alternative = "decreasing"
    elif ab == ac == bc == Ordering.EQUAL:
        alternative = "equal"
    else:
        alternative = "mixed"
    return SeesawResult(a, b, c, ab, ac, bc, alternative)
