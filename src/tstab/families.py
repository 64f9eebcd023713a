"""The concrete t-stabilities on the derived category of P1.

Three families are provided.

* `CoarseZ` grades by the shift alone: one semistable subcategory per
  homological level.
* `StandardP1` refines each level into line-bundle strata (one per
  degree, ascending) below torsion strata (one per point, in a chosen
  point order); every indecomposable is semistable, so HN filtrations
  are computed by grouping.
* `ExceptionalP1(k, p)` is built on the twisting pair (O(k), O(k+1)).
  Its slope set has two columns indexed by the shift, interleaved
  according to the parameter p (p = inf puts the whole first column
  below the second).  Indecomposables other than O(k)[i], O(k+1)[i] are
  destabilised by one of three two-term resolutions:

      (n-k) O(k+1)       -> O(n)   -> (n-k-1) O(k)[1]    for n > k+1
      (k-n) O(k+1)[-1]   -> O(n)   -> (k-n+1) O(k)       for n < k
      d O(k+1)           -> T(x,d) -> d O(k)[1]

  In each triangle A -> E -> B, `exceptional_rewrite` gives B as the low
  HN quotient and A as the top one, which is also the term above B.

The cross-column order for finite p is (i,0) < (j,1) iff i <= j+p+1
(equivalently (j,1) < (i,0) iff i >= j+p+2), the unique total order
extending the interleaving chain O(k)[i+p] < O(k+1)[i-1] < O(k)[i+p+1];
its sort key is (i-p-1, 0) for column 0 and (i, 1) for column 1.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .errors import InvalidPartitionError
from .p1 import (DerivedObject, Line, Point, ShiftedIndec, Torsion, ZERO, hom_dim, line,
                 normalize, point_resolver, torsion)
from .slopes import INF
from .stability import (CheckItem, CoarseSlope, ExceptionalSlope, Report, StabilityFamily,
                        StandardSlope, Window, slope_int, slope_point, window_slopes)
from .value import Value, assign, set_field


class P1Family(StabilityFamily):
    """Shared object model of the three P1 families."""

    zero = ZERO

    def window_generators(self, window: Window) -> list[DerivedObject]:
        gens = []
        for i in window.shifts():
            for n in window.degrees():
                gens.append(line(n, i))
            for x in window.points:
                for d in window.lengths():
                    gens.append(torsion(x, d, i))
        return gens

    def random_object(self, rng: random.Random, window: Window) -> DerivedObject:
        count = rng.randint(1, window.max_summands)
        pairs = []
        for _ in range(count):
            sh = rng.randint(-window.max_shift, window.max_shift)
            mult = rng.randint(1, 3)
            if rng.random() < 0.7 or not window.points:
                base = Line(rng.randint(-window.max_degree, window.max_degree))
            else:
                base = Torsion(rng.choice(window.points), rng.randint(1, window.max_length))
            pairs.append((ShiftedIndec(base, sh), mult))
        return normalize(pairs)


# --- coarse -------------------------------------------------------------------

class CoarseZ(P1Family, Value):
    """The shift grading: semistable subcategory at level i is Coh[i]."""

    __slots__ = ()
    kind = "coarse"

    def slope_key(self, s: CoarseSlope) -> int:
        if not isinstance(s, CoarseSlope):
            raise TypeError("cross-family slope comparison")
        return s.i

    def tau(self, s: CoarseSlope, n: int = 1) -> CoarseSlope:
        return CoarseSlope(s.i + n)

    def slope_of_term(self, term: ShiftedIndec) -> CoarseSlope:
        return CoarseSlope(term.shift)

    def descriptor(self) -> dict:
        return {"family": "coarse"}

    def slope_json(self, s: CoarseSlope) -> dict:
        return {"shift": s.i}

    def slope_from_json(self, data: dict) -> CoarseSlope:
        return CoarseSlope(slope_int(data["shift"], "shift"))


# --- standard -----------------------------------------------------------------

class StandardP1(P1Family, Value):
    """The finest grading by (shift, degree-or-point).

    Within one shift level all line-bundle slopes (ascending in degree)
    lie below all point slopes; points are ordered by their declared
    order (lexicographic by label when none is declared).  `point_labels`
    is that order: it is serialised, resolves the labels of documents
    and validates point sets of cuts; slope comparisons use the order
    carried by the points themselves.
    """

    __slots__ = ("point_labels",)
    kind = "standard"

    def __init__(self, point_labels: tuple[str, ...] = ()):
        point_labels = tuple(point_labels)
        point_resolver(point_labels)  # checks the labels
        set_field(self, "point_labels", point_labels)

    def slope_key(self, s: StandardSlope) -> tuple:
        if not isinstance(s, StandardSlope):
            raise TypeError("cross-family slope comparison")
        return s.key()

    def tau(self, s: StandardSlope, n: int = 1) -> StandardSlope:
        return StandardSlope(s.i + n, s.level)

    def slope_of_term(self, term: ShiftedIndec) -> StandardSlope:
        if isinstance(term.base, Line):
            return StandardSlope(term.shift, term.base.n)
        return StandardSlope(term.shift, term.base.x)

    def descriptor(self) -> dict:
        return {"family": "standard", "point_order": list(self.point_labels)}

    def slope_json(self, s: StandardSlope) -> dict:
        if isinstance(s.level, Point):
            return {"shift": s.i, "level": {"point": s.level.label}}
        return {"shift": s.i, "level": {"int": s.level}}

    def slope_from_json(self, data: dict) -> StandardSlope:
        shift, level = slope_int(data["shift"], "shift"), data["level"]
        if "int" in level:
            return StandardSlope(shift, slope_int(level["int"], "level.int"))
        return StandardSlope(shift, slope_point(self.point_labels, level["point"], "level.point"))


# --- exceptional ----------------------------------------------------------------

class ExceptionalP1(P1Family, Value):
    """Stability built on the twisting pair (O(k), O(k+1)) with interleaving p >= 0 or INF."""

    __slots__ = ("k", "p")
    _ints = {"k": (), "p": (INF,)}
    kind = "exceptional"

    def __init__(self, k: int = 0, p: int | float = 0):
        assign(self, locals())
        if p < 0:
            raise ValueError("p must be a nonnegative integer or inf")

    def slope_key(self, s: ExceptionalSlope) -> tuple[int, int]:
        """The two-column order for interleaving parameter p (module docstring)."""
        if not isinstance(s, ExceptionalSlope):
            raise TypeError("cross-family slope comparison")
        if self.p == INF:
            return (s.col, s.i)
        return (s.i, 1) if s.col else (s.i - self.p - 1, 0)

    def tau(self, s: ExceptionalSlope, n: int = 1) -> ExceptionalSlope:
        return ExceptionalSlope(s.i + n, s.col)

    def slope_of_term(self, term: ShiftedIndec) -> ExceptionalSlope | None:
        if isinstance(term.base, Line):
            if term.base.n == self.k:
                return ExceptionalSlope(term.shift, 0)
            if term.base.n == self.k + 1:
                return ExceptionalSlope(term.shift, 1)
        return None

    def term_filtration(self, term: ShiftedIndec, mult: int) -> tuple:
        return exceptional_rewrite(term, self.k, mult)

    def window_generators(self, window: Window) -> list[DerivedObject]:
        gens = []
        for i in window.shifts():
            gens.append(line(self.k, i))
            gens.append(line(self.k + 1, i))
        return gens

    def descriptor(self) -> dict:
        return {"family": "exceptional", "k": self.k,
                "p": "inf" if self.p == INF else self.p}

    def slope_json(self, s: ExceptionalSlope) -> dict:
        return {"shift": s.i, "col": s.col}

    def slope_from_json(self, data: dict) -> ExceptionalSlope:
        return ExceptionalSlope(slope_int(data["shift"], "shift"), slope_int(data["col"], "col"))

    def render_slope(self, s: ExceptionalSlope) -> str:
        return f"({s.i}, {s.col})"


def exceptional_rewrite(term: ShiftedIndec, k: int, mult: int = 1) -> tuple:
    """The HN quotients of `mult` copies of one atom over the twisting
    pair (O(k), O(k+1)), ascending.

    Generators stay put, on their own atom; any other line bundle and any
    torsion sheaf splits into a column-0 and a column-1 quotient via its
    two-term resolution (module docstring).  Each quotient is one summand,
    built as it stands.
    """
    i = term.shift
    base = term.base
    if isinstance(base, Line):
        n = base.n
        if n == k or n == k + 1:
            return ((ExceptionalSlope(i, n - k), DerivedObject.single(term, mult)),)
        low, high, a, b = (i + 1, i, n - k - 1, n - k) if n > k else (i, i - 1, k - n + 1, k - n)
    else:
        low, high, a, b = i + 1, i, base.d, base.d
    column0, column1 = ShiftedIndec(Line(k), low), ShiftedIndec(Line(k + 1), high)
    return ((ExceptionalSlope(low, 0), DerivedObject.single(column0, mult * a)),
            (ExceptionalSlope(high, 1), DerivedObject.single(column1, mult * b)))


# --- refinement order -----------------------------------------------------------

class FinerVerdict(Value):
    """Outcome of a window check of the refinement conditions.

    `condition` names the first failing condition ("coverage" when the
    window has no generators, "semistable", "well_defined", "order",
    "tau") and `witnesses` lists all window generators breaking
    semistability, when that is the failure.
    """

    __slots__ = ("holds", "condition", "witness", "witnesses")

    def __init__(self, holds: bool, condition: str = "", witness: str = "",
                 witnesses: tuple[str, ...] = ()):
        assign(self, locals())

    def __bool__(self):
        return self.holds


def is_finer(fine: StabilityFamily, weak: StabilityFamily, window: Window) -> FinerVerdict:
    """Window certification that `fine` refines `weak`.

    Checks, on all of `fine`'s window generators: (i) each is
    weak-semistable; (ii) the induced slope map is well defined and
    order-compatible; (iii) the induced map commutes with tau.  For the
    shift-periodic families here a window check at the default radius
    certifies the global statement.
    """
    table = window_slopes(fine, window)
    if not table:
        return FinerVerdict(False, "coverage", "no cases examined")
    assignments = []  # (generator, fine slope, weak slope)
    bad = []
    for g, phi in table:
        psi = weak.semistable_slope(g)
        if psi is None:
            bad.append(g.render())
        else:
            assignments.append((g, phi, psi))
    if bad:
        return FinerVerdict(False, "semistable",
                            f"{bad[0]} is fine-semistable but not weak-semistable",
                            tuple(bad))

    induced: dict = {}
    for g, phi, psi in assignments:
        if phi in induced and induced[phi] != psi:
            return FinerVerdict(False, "well_defined",
                                f"slope {fine.render_slope(phi)} maps to two weak slopes")
        induced[phi] = psi

    keyed = [(fine.slope_key(phi), weak.slope_key(psi), phi, psi)
             for phi, psi in induced.items()]
    for fine1, weak1, phi1, psi1 in keyed:
        for fine2, weak2, phi2, psi2 in keyed:
            if fine1 < fine2 and weak1 > weak2:
                return FinerVerdict(False, "order",
                                    f"{fine.render_slope(phi1)} < {fine.render_slope(phi2)} "
                                    f"but induced slopes reverse: {weak.render_slope(psi1)} > "
                                    f"{weak.render_slope(psi2)}")

    for phi, psi in induced.items():
        tphi = fine.tau(phi)
        if tphi in induced and induced[tphi] != weak.tau(psi):
            return FinerVerdict(False, "tau",
                                f"induced map does not commute with tau at {fine.render_slope(phi)}")

    return FinerVerdict(True)


# --- coarsening -----------------------------------------------------------------

class SlopePartition(Value):
    """Blocks of a slope set, described by predicates.

    `block_of` maps a slope to its block id, `block_key` maps a block id
    to a sort key whose natural order is the block order, and
    `tau_block(b, n=1)` gives the induced shift on blocks, tau^n for any
    integer n.  Order-congruence and tau-stability are checked on a
    window by `coarsen`.
    """

    __slots__ = ("label", "block_of", "block_key", "tau_block")

    def __init__(self, label: str, block_of: Callable, block_key: Callable, tau_block: Callable):
        assign(self, locals())


# The block maps of the named partitions, module functions so that two partitions
# built from them are equal and pickle by name.

def _shift_of(s) -> int:
    return s.i


def _column_of(s) -> int:
    return s.col


def _same_block(b: int, n: int = 1) -> int:
    """A block's own sort key, and tau^n of a block that tau fixes."""
    return b


def _shift_block(b: int, n: int = 1) -> int:
    return b + n


def by_shift_partition() -> SlopePartition:
    """Blocks of the standard slope set by shift level (the coarse analog)."""
    return SlopePartition("by-shift", _shift_of, _same_block, _shift_block)


def column_partition() -> SlopePartition:
    """The two-column blocks of an exceptional slope set.

    Order-congruent only for p = inf, where the whole first column sits
    below the second; for finite p the columns interleave and `coarsen`
    rejects the partition.
    """
    return SlopePartition("columns", _column_of, _same_block, _same_block)


# The partitions a coarsened family's descriptor can name; their block ids are ints.
PARTITIONS = {"by-shift": by_shift_partition, "columns": column_partition}


class CoarsenedFamily(StabilityFamily, Value):
    """The derived family of a validated slope-set partition.

    Semistable objects are those whose base HN slopes all lie in one
    block.  A summand's HN quotients are its base quotients in their
    blocks, or the whole summand when they all lie in one block.  The
    fields are (base, partition); `kind` and `zero`, read off them, are
    plain instance attributes, as cheap to read as a class's.
    """

    __slots__ = ("base", "partition")

    def __init__(self, base: StabilityFamily, partition: SlopePartition):
        assign(self, locals())
        set_field(self, "kind", f"coarsened({base.kind}; {partition.label})")
        set_field(self, "zero", base.zero)

    @property
    def point_labels(self) -> tuple[str, ...]:
        """The base family's point order; parsed documents resolve labels by it."""
        return self.base.point_labels

    def slope_key(self, s):
        return self.partition.block_key(s)

    def tau(self, s, n: int = 1):
        return self.partition.tau_block(s, n)

    def term_filtration(self, term, mult: int) -> tuple:
        base = self.base.term_filtration(term, mult)
        low, high = self.partition.block_of(base[0][0]), self.partition.block_of(base[-1][0])
        if self.slope_key(low) == self.slope_key(high):  # the summand, not its base quotients' sum
            return ((low, type(self.zero).single(term, mult)),)
        return ((low, base[0][1]), (high, base[-1][1]))

    def slope_of_term(self, term):
        """The atom's block when its base HN slopes lie in one block, else None."""
        quotients = self.term_filtration(term, 1)
        return quotients[0][0] if len(quotients) == 1 else None

    def window_generators(self, window: Window):
        return self.base.window_generators(window)

    def random_object(self, rng, window: Window):
        return self.base.random_object(rng, window)

    def descriptor(self) -> dict:
        return {"family": "coarsened", "base": self.base.descriptor(),
                "partition": self.partition.label}

    def slope_json(self, s) -> dict:
        return {"block": str(s)}

    def slope_from_json(self, data: dict):
        return slope_int(data["block"], "block", text=True)

    def render_slope(self, s) -> str:
        return f"[{s}]"


def coarsen(family: StabilityFamily, partition: SlopePartition,
            window: Window = Window()) -> CoarsenedFamily:
    """Derive the coarsened family, validating the partition on a window.

    The blocks must be order-congruent (slopes in distinct blocks
    compare the way their blocks do) and permuted by tau; violations
    raise InvalidPartitionError with a witness.
    """
    slopes = list(dict.fromkeys(s for _, s in window_slopes(family, window) if s is not None))
    try:
        blocks = [partition.block_of(s) for s in slopes]
    except (AttributeError, TypeError):
        raise InvalidPartitionError(f"partition {partition.label!r} does not apply to "
                                    f"the slopes of the {family.kind} family") from None
    keyed = [(s, family.slope_key(s), b, partition.block_key(b)) for s, b in zip(slopes, blocks)]
    for s1, key1, b1, bkey1 in keyed:
        for s2, key2, b2, bkey2 in keyed:
            if key1 < key2 and bkey1 > bkey2:
                raise InvalidPartitionError(
                    f"blocks are not order-congruent: {family.render_slope(s1)} < "
                    f"{family.render_slope(s2)} but block {b1} > block {b2}")
            if bkey1 == bkey2 and b1 != b2:
                raise InvalidPartitionError("block ids must order consistently with equality")
    for s in slopes:
        t = family.tau(s)
        if partition.block_of(t) != partition.tau_block(partition.block_of(s)):
            raise InvalidPartitionError(
                f"blocks are not tau-stable at {family.render_slope(s)}")
    return CoarsenedFamily(family, partition)


# --- finest check -----------------------------------------------------------------

def finest_check(family: StabilityFamily, window: Window) -> Report:
    """Check the finest criterion on a window: within each slope, all pairs
    of semistable objects admit nonzero maps in both directions.

    Only Hom^0 is tested: multiplicities are positive, so Hom^0(a, b) != 0
    exactly when some summand pair (ta, tb) has hom_dim(ta, tb, 0) != 0."""
    groups: dict = {}
    for g, s in window_slopes(family, window):
        if s is not None:
            groups.setdefault(s, []).append(g)
    ok, detail = True, ""
    pairs_checked = 0
    for s, gens in groups.items():
        samples = list(gens) + [2 * gens[0]]
        for a in samples:
            for b in samples:
                pairs_checked += 1
                if not any(hom_dim(ta, tb, 0) for ta, _ in a.summands() for tb, _ in b.summands()):
                    ok = False
                    detail = (f"Hom^0({a.render()}, {b.render()}) = 0 within slope "
                              f"{family.render_slope(s)}")
                    break
            if not ok:
                break
        if not ok:
            break
    item = CheckItem.over("mutual_hom_nonzero", pairs_checked, ok,
                          detail if not ok else f"{pairs_checked} pairs checked")
    return Report((item,))


# --- descriptors ------------------------------------------------------------------

def family_from_descriptor(desc: dict) -> StabilityFamily:
    """Rebuild a family from its JSON descriptor; `point_order` not a list
    raises ValueError, and `k` or `p` not an integer TypeError."""
    kind = desc.get("family")
    if kind == "coarse":
        return CoarseZ()
    if kind in ("standard", "elliptic"):
        order = desc.get("point_order", [])
        if not isinstance(order, list):
            raise ValueError(f"point_order must be a list of point labels, got {order!r}")
        if kind == "standard":
            return StandardP1(tuple(order))
        from .elliptic import EllipticStandard  # only an elliptic family loads the model
        return EllipticStandard(tuple(order))
    if kind == "exceptional":
        p = desc.get("p", 0)
        return ExceptionalP1(desc.get("k", 0), INF if p == "inf" else p)
    if kind == "coarsened" and desc.get("partition") in PARTITIONS:
        return coarsen(family_from_descriptor(desc["base"]), PARTITIONS[desc["partition"]]())
    raise ValueError(f"unknown family descriptor {desc!r}")
