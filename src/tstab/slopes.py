"""Generic slope machinery over a free abelian K0 model.

A positive system is a list of additive integer-valued functions
(x_0, ..., x_{r-1}) on K0 such that x_0 >= 0, each leading-zero prefix
forces the next value to be >= 0, and a class that vanishes in all but
the last position must be strictly positive there.  Such a system
assigns to every nonzero class an exact, totally ordered slope vector,
and the induced preorder on objects has the seesaw property.

A slope vector is a tuple of `ExtendedRational`s, compared
lexicographically: +infinity stands where a leading function vanishes,
and each later entry is a quotient of two function values.  The order is
exact, by integer cross-multiplication, so no floating point ever
participates in a comparison.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable

from .errors import ArityMismatchError, NotPositiveError, ZeroClassError
from .value import Value, assign, check_ints, set_field


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
    (rank, degree), ints: anything else raises TypeError, not truncated.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[int]):
        components = tuple(components)
        for c in components:
            check_ints("K0 component", c)
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

def compare_slopes(a: tuple[ExtendedRational, ...], b: tuple[ExtendedRational, ...]) -> Ordering:
    """Lexicographic comparison of two slope vectors of equal length."""
    if len(a) != len(b):
        raise ArityMismatchError("cannot compare slope vectors of different lengths")
    return Ordering.of(a, b)


def gamma_slope(system: PositiveSystem, cls: K0Class) -> tuple[ExtendedRational, ...]:
    """The exact slope of a nonzero positive class, a vector of length r-1.

    With x_s the first nonzero value (positive, by the cascade), it holds s
    copies of +infinity, then x_{s+j}/x_s for each later position.
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
    return (PLUS_INFINITY,) * s + tuple(ExtendedRational.reduced(c, comps[s])
                                        for c in comps[s + 1:])


# --- extended rationals -----------------------------------------------------

class ExtendedRational(Value):
    """A rational number d/r or +infinity, with +infinity maximal.

    The fields are coprime ints with r > 0, or (1, 0) for +infinity, the value
    `PLUS_INFINITY`; the constructor refuses any others, with ValueError.  `finite`
    and `reduced` are the conversions, through the unchecked `_raw`.  Values compare by cross-multiplication, d*r' < d'*r,
    exact as no r is negative; against any other type every comparison is
    NotImplemented.  Equal values have equal fields, so `hash` reads the fields.
    """

    __slots__ = ("d", "r")
    _ints = {"d": (), "r": ()}

    def __init__(self, d: int, r: int):
        check_ints(self._ints, d, r)
        if not (r > 0 and math.gcd(d, r) == 1 or d == 1 and r == 0):
            raise ValueError(f"rational fields must be coprime with r > 0, or (1, 0), got {(d, r)}")
        set_field(self, "d", d)
        set_field(self, "r", r)

    @staticmethod
    def _raw(d: int, r: int) -> "ExtendedRational":
        """d/r of fields already in lowest terms; nothing is checked."""
        q = object.__new__(ExtendedRational)
        set_field(q, "d", d)
        set_field(q, "r", r)
        return q

    @staticmethod
    def finite(q) -> "ExtendedRational":
        """q as an extended rational: an int (not a bool) or a Fraction, else TypeError."""
        if q.__class__ is int:
            return ExtendedRational._raw(q, 1)
        from fractions import Fraction  # only a caller that has a Fraction pays its import
        if isinstance(q, Fraction):
            return ExtendedRational._raw(q.numerator, q.denominator)
        raise TypeError(f"a slope must be an int or a Fraction, got {q!r}")

    @staticmethod
    def reduced(d: int, r: int) -> "ExtendedRational":
        """d/r in lowest terms; +infinity when r = 0 and d != 0; 0/0 is a ZeroClassError."""
        if r == 0:
            if d == 0:
                raise ZeroClassError("the zero class has no slope")
            return PLUS_INFINITY
        g = math.gcd(d, r) if r > 0 else -math.gcd(d, r)
        return ExtendedRational._raw(d // g, r // g)

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


PLUS_INFINITY = ExtendedRational._raw(1, 0)

# The infinite bounds of cuts and the parameter p = inf, as plain floats.
INF = float("inf")


def mu_bar(cls: K0Class) -> ExtendedRational:
    """deg/rk for positive rank, +infinity for torsion classes.

    `gamma_slope(RANK_DEGREE, cls)` is `(mu_bar(cls),)`, and the two are
    defined on the same classes: the zero class raises ZeroClassError, a
    class that is not positive NotPositiveError.
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
