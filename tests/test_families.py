"""Tests for the concrete families: orders, rewrites, refinement, coarsening."""

import itertools
import random
import re

import pytest

from tstab.elliptic import ELLIPTIC_ZERO, EllipticObject, EllipticStandard, stable
from tstab.errors import InvalidPartitionError, UnsupportedFamilyError
from tstab.families import (INF, CoarseZ, ExceptionalP1, SlopePartition, StandardP1,
                            by_shift_partition, coarsen, column_partition,
                            exceptional_rewrite, family_from_descriptor,
                            finest_check, is_finer)
from tstab.p1 import (DerivedObject, Line, Point, ShiftedIndec, Torsion, ZERO, line,
                      point_resolver, torsion)
from tstab.slopes import Ordering
from tstab.stability import (ExceptionalSlope, StandardSlope, Window, merge_towers,
                             validate_stability, verify_hn)

WINDOW = Window(max_degree=6, max_shift=2, max_length=3, samples=30)


# --- standard ------------------------------------------------------------------

def test_standard_slope_examples():
    slope_of_term = StandardP1().slope_of_term
    assert slope_of_term(ShiftedIndec(Line(3), 2)) == StandardSlope(2, 3)
    pt = Point("x")
    assert slope_of_term(ShiftedIndec(Torsion(pt, 5), 0)) == StandardSlope(0, pt)
    assert slope_of_term(ShiftedIndec(Line(-1), -1)) == StandardSlope(-1, -1)


def test_standard_order_rules():
    std = StandardP1()
    x = Point("x")
    # higher shift dominates
    assert std.compare(StandardSlope(1, -99), StandardSlope(0, x)) == Ordering.GREATER
    # within a level, degree ascends
    assert std.compare(StandardSlope(0, 2), StandardSlope(0, -2)) == Ordering.GREATER
    # points sit above all degrees of the same shift
    assert std.compare(StandardSlope(0, x), StandardSlope(0, 10 ** 6)) == Ordering.GREATER


def test_hn_standard_grouping():
    filt = StandardP1().hn(line(3) + line(-1) + torsion(Point("x"), 1))
    assert [s.level for s in filt.slopes] == [-1, 3, Point("x")]
    filt = StandardP1().hn(line(0, 1) + line(0))
    assert [s.i for s in filt.slopes] == [0, 1]
    filt = StandardP1().hn(torsion(Point("y"), 2))
    assert len(filt.quotients) == 1


def test_point_order_configuration_changes_torsion_order():
    default = StandardP1().hn(torsion(Point("b"), 1) + torsion(Point("a"), 1))
    assert [s.level.label for s in default.slopes] == ["a", "b"]
    fam = StandardP1(("b", "a"))
    resolve = point_resolver(fam.point_labels)
    swapped = fam.hn(torsion(resolve("b"), 1) + torsion(resolve("a"), 1))
    assert [s.level.label for s in swapped.slopes] == ["b", "a"]


# --- exceptional order -----------------------------------------------------------

def test_compare_exceptional_chain_instances():
    # O(k)[i+p] < O(k+1)[i-1] < O(k)[i+p+1] for every finite p
    for p in (0, 1, 2, 5):
        for i in range(-4, 5):
            low = ExceptionalSlope(i + p, 0)
            middle = ExceptionalSlope(i - 1, 1)
            high = ExceptionalSlope(i + p + 1, 0)
            assert ExceptionalP1(0, p).compare(low, middle) == Ordering.LESS
            assert ExceptionalP1(0, p).compare(middle, high) == Ordering.LESS


def test_compare_exceptional_examples():
    assert ExceptionalP1(0, 0).compare(ExceptionalSlope(0, 0), ExceptionalSlope(-1, 1)) \
        == Ordering.LESS
    assert ExceptionalP1(0, 0).compare(ExceptionalSlope(1, 0), ExceptionalSlope(-1, 1)) \
        == Ordering.GREATER
    assert ExceptionalP1(0, INF).compare(ExceptionalSlope(100, 0), ExceptionalSlope(-100, 1)) \
        == Ordering.LESS


def test_compare_exceptional_is_total_order_on_window():
    slopes = [ExceptionalSlope(i, c) for i in range(-6, 7) for c in (0, 1)]
    for p in (0, 1, 2, INF):
        for a, b in itertools.product(slopes, slopes):
            ab = ExceptionalP1(0, p).compare(a, b)
            ba = ExceptionalP1(0, p).compare(b, a)
            assert ab == Ordering(-ba.value)
            assert (ab == Ordering.EQUAL) == (a == b)
        for a, b, c in itertools.product(slopes, slopes, slopes):
            if ExceptionalP1(0, p).compare(a, b) != Ordering.LESS:
                continue
            if ExceptionalP1(0, p).compare(b, c) == Ordering.LESS:
                assert ExceptionalP1(0, p).compare(a, c) == Ordering.LESS


def test_exceptional_rejects_bool_and_non_integer_parameters():
    """A k or p that is not an int is a TypeError, as an atom's or a cut's int
    field is (before, a ValueError); a negative p stays a ValueError."""
    # bool is an int subclass: True must not be taken for p = 1 or k = 1
    for k, p in ((0, True), (0, False), (True, 0), (0.5, 0), (0, 1.5), ("0", 0), (0, -INF)):
        with pytest.raises(TypeError, match="must be an integer"):
            ExceptionalP1(k, p)
    with pytest.raises(ValueError, match="nonnegative"):
        ExceptionalP1(0, -1)
    assert ExceptionalP1(-1, INF).p == INF and ExceptionalP1(2, 3).p == 3


def test_exceptional_slope_rejects_a_column_that_is_not_an_int():
    """ExceptionalSlope(0, True) built, printed `(0, col True)` and equalled
    ExceptionalSlope(0, 1), hash included; a bool or float column now raises."""
    for col in (True, False, 1.0, 0.0, "1", None):
        with pytest.raises(TypeError, match="col must be an integer"):
            ExceptionalSlope(0, col)
    for col in (-1, 2):
        with pytest.raises(ValueError, match="column must be 0 or 1"):
            ExceptionalSlope(0, col)
    assert repr(ExceptionalSlope(0, 1)) == "(0, col 1)"


def test_tau_preserves_order_and_raises():
    std, exc = StandardP1(), ExceptionalP1(0, 1)
    std_slopes = [StandardSlope(i, lvl) for i in (-2, 0, 1)
                  for lvl in (-1, 4, Point("x"))]
    for a in std_slopes:
        assert std.compare(std.tau(a), a) == Ordering.GREATER
        for b in std_slopes:
            assert std.compare(std.tau(a), std.tau(b)) == std.compare(a, b)
    exc_slopes = [ExceptionalSlope(i, c) for i in range(-4, 5) for c in (0, 1)]
    for a in exc_slopes:
        assert exc.compare(exc.tau(a), a) == Ordering.GREATER
        for b in exc_slopes:
            assert exc.compare(exc.tau(a), exc.tau(b)) == exc.compare(a, b)


# --- exceptional rewrite -----------------------------------------------------------

def _tower_mid(term, k):
    """The summand's tower term above its lowest quotient (zero if semistable)."""
    return ExceptionalP1(k, 0).summand_tower(term, 1)[1][1]


def test_exceptional_rewrite_examples():
    rw = exceptional_rewrite(ShiftedIndec(Line(3)), 0)
    assert rw == (
        (ExceptionalSlope(1, 0), 2 * line(0, 1)),
        (ExceptionalSlope(0, 1), 3 * line(1)),
    )
    assert _tower_mid(ShiftedIndec(Line(3)), 0) == 3 * line(1)

    rw = exceptional_rewrite(ShiftedIndec(Line(-2)), 0)
    assert rw == (
        (ExceptionalSlope(0, 0), 3 * line(0)),
        (ExceptionalSlope(-1, 1), 2 * line(1, -1)),
    )
    assert _tower_mid(ShiftedIndec(Line(-2)), 0) == 2 * line(1, -1)

    rw = exceptional_rewrite(ShiftedIndec(Torsion(Point("x"), 2)), 0)
    assert rw == (
        (ExceptionalSlope(1, 0), 2 * line(0, 1)),
        (ExceptionalSlope(0, 1), 2 * line(1)),
    )
    assert _tower_mid(ShiftedIndec(Torsion(Point("x"), 2)), 0) == 2 * line(1)


def test_exceptional_rewrite_generators_stay_put():
    for k in (-2, 0, 3):
        for i in (-1, 0, 2):
            rw = exceptional_rewrite(ShiftedIndec(Line(k), i), k)
            assert rw == ((ExceptionalSlope(i, 0), line(k, i)),)
            assert _tower_mid(ShiftedIndec(Line(k), i), k) == ZERO
            rw = exceptional_rewrite(ShiftedIndec(Line(k + 1), i), k)
            assert rw == ((ExceptionalSlope(i, 1), line(k + 1, i)),)


def test_exceptional_rewrite_k0_additivity_and_mid_term():
    fam_cache = {}
    for n in range(-10, 11):
        for k in range(-3, 4):
            if n in (k, k + 1):
                continue
            term = ShiftedIndec(Line(n), 0)
            rw = exceptional_rewrite(term, k)
            total = sum((obj.k0() for _, obj in rw), start=ZERO.k0())
            assert total == term.k0()
            fam = fam_cache.setdefault(k, ExceptionalP1(k, 0))
            filt = fam.hn(line(n))
            assert verify_hn(line(n), filt, fam).ok
            assert filt.terms[1] == _tower_mid(term, k)


def test_hn_exceptional_examples():
    filt = ExceptionalP1(0, 0).hn(line(3) + line(-2))
    assert [(s.i, s.col) for s in filt.slopes] == [(0, 0), (-1, 1), (1, 0), (0, 1)]
    filt = ExceptionalP1(0, 0).hn(line(1))
    assert filt.quotients == ((ExceptionalSlope(0, 1), line(1)),)
    filt = ExceptionalP1(0, INF).hn(line(3) + line(-2))
    assert [s.col for s in filt.slopes] == [0, 0, 1, 1]


# --- refinement order ----------------------------------------------------------------

def test_standard_refines_coarse():
    verdict = is_finer(StandardP1(), CoarseZ(), WINDOW)
    assert verdict.holds


def test_finer_verdict_is_true_exactly_when_it_holds():
    assert is_finer(StandardP1(), CoarseZ(), WINDOW)
    assert not is_finer(CoarseZ(), StandardP1(), WINDOW)


def test_family_refines_itself():
    for fam in (StandardP1(), ExceptionalP1(0, 1), CoarseZ()):
        assert is_finer(fam, fam, WINDOW).holds


def test_standard_vs_exceptional_incomparable():
    exc = ExceptionalP1(0, 0)
    forward = is_finer(StandardP1(), exc, WINDOW)
    assert not forward.holds
    assert forward.condition == "semistable"
    assert "O(3)" in forward.witnesses and "O(2)" in forward.witnesses
    backward = is_finer(exc, StandardP1(), WINDOW)
    assert not backward.holds
    assert backward.condition == "order"


def test_exceptional_refines_its_column_coarsening():
    exc = ExceptionalP1(0, INF)
    two_block = coarsen(exc, column_partition(), WINDOW)
    verdict = is_finer(exc, two_block, WINDOW)
    assert verdict.holds


# --- coarsening ------------------------------------------------------------------------

def test_coarsen_by_shift_acts_like_coarse_family():
    derived = coarsen(StandardP1(), by_shift_partition(), WINDOW)
    coarse = CoarseZ()
    rng = random.Random(31)
    for _ in range(40):
        x = coarse.random_object(rng, WINDOW)
        filt_d = derived.hn(x)
        filt_c = coarse.hn(x)
        assert [b for b in filt_d.slopes] == [s.i for s in filt_c.slopes]
        assert filt_d.quotient_objects == filt_c.quotient_objects
        assert filt_d.terms == filt_c.terms


def test_coarsen_singleton_blocks_is_identity():
    std = StandardP1()
    identity = SlopePartition("identity", lambda s: s, std.slope_key, std.tau)
    derived = coarsen(std, identity, WINDOW)
    rng = random.Random(37)
    for _ in range(30):
        x = std.random_object(rng, WINDOW)
        assert derived.hn(x).quotients == std.hn(x).quotients


def test_one_block_coarsening_keeps_a_split_summand_whole():
    one = SlopePartition("one", lambda s: 0, lambda b: b, lambda b, n=1: b)
    fam = coarsen(ExceptionalP1(0, 0), one)
    filt = fam.hn(line(3))
    assert filt.quotients == ((0, line(3)),)
    assert filt.terms == (line(3), ZERO)


def test_coarsen_rejects_non_tau_stable_blocks():
    std = StandardP1()
    capped = SlopePartition("capped", lambda s: min(s.i, 0), lambda b: b, lambda b: b + 1)
    with pytest.raises(InvalidPartitionError):
        coarsen(std, capped, WINDOW)
    # distinct block ids under one block key are refused before the tau check
    flat = SlopePartition("flat", lambda s: s.i, lambda b: 0, lambda b, n=1: b + n)
    with pytest.raises(InvalidPartitionError, match="block ids must order consistently"):
        coarsen(std, flat)


def test_coarsen_rejects_partitions_of_another_slope_set():
    by_shift = coarsen(StandardP1(), by_shift_partition())
    for family, partition in ((by_shift, by_shift_partition()), (StandardP1(), column_partition()),
                              (CoarseZ(), column_partition())):
        with pytest.raises(InvalidPartitionError,
                           match=f"partition '{partition.label}' does not apply to the "
                                 rf"slopes of the {re.escape(family.kind)} family"):
            coarsen(family, partition, WINDOW)
    desc = {"family": "coarsened", "base": by_shift.descriptor(), "partition": "by-shift"}
    with pytest.raises(InvalidPartitionError):
        family_from_descriptor(desc)


def test_coarsen_rejects_interleaved_columns_at_finite_p():
    for p in (0, 1, 2):
        with pytest.raises(InvalidPartitionError):
            coarsen(ExceptionalP1(0, p), column_partition(), WINDOW)


def test_column_coarsening_satisfies_stability_axioms():
    two_block = coarsen(ExceptionalP1(0, INF), column_partition(), WINDOW)
    report = validate_stability(two_block, WINDOW)
    assert report.ok, report.summary()


def test_column_coarsening_semistables():
    two_block = coarsen(ExceptionalP1(0, INF), column_partition(), WINDOW)
    assert two_block.semistable_slope(line(0) + 2 * line(0, 3)) == 0
    assert two_block.semistable_slope(line(1, -2)) == 1
    assert two_block.semistable_slope(line(0) + line(1)) is None
    assert two_block.semistable_slope(line(5)) is None


# --- finest ---------------------------------------------------------------------------

def test_finest_check_standard_and_exceptional():
    assert finest_check(StandardP1(), WINDOW).ok
    assert finest_check(ExceptionalP1(0, 0), WINDOW).ok
    assert finest_check(ExceptionalP1(1, INF), WINDOW).ok


def test_finest_check_with_no_pairs_does_not_pass():
    from tstab.elliptic import EllipticStandard
    report = finest_check(EllipticStandard(), Window(points=()))
    assert not report.ok and report.failures()[0].detail == "no cases examined"


def test_is_finer_over_no_generators_does_not_hold():
    from tstab.elliptic import EllipticStandard
    with pytest.raises(ValueError, match="max_degree"):
        is_finer(StandardP1(), CoarseZ(), Window(max_degree=-3, max_shift=-1))
    verdict = is_finer(EllipticStandard(), EllipticStandard(), Window(points=()))
    assert not verdict.holds and verdict.condition == "coverage"
    assert verdict.witness == "no cases examined"


def test_is_finer_names_a_slope_map_that_is_not_well_defined():
    # one coarse slope (shift -1) holds lines of several standard slopes
    verdict = is_finer(CoarseZ(), StandardP1(), Window(max_degree=3, max_shift=1))
    assert (verdict.holds, verdict.condition) == (False, "well_defined")
    assert verdict.witness == "slope (-1) maps to two weak slopes"


def test_is_finer_names_a_slope_map_that_does_not_commute_with_tau():
    from test_stability import _TauSkipsAShift
    verdict = is_finer(StandardP1(), _TauSkipsAShift(), Window(max_degree=3, max_shift=1))
    assert (verdict.holds, verdict.condition) == (False, "tau")
    assert verdict.witness == "induced map does not commute with tau at (-1, -3)"


def test_finest_check_fails_for_coarse():
    report = finest_check(CoarseZ(), WINDOW)
    assert not report.ok
    detail = report.failures()[0].detail
    assert "Hom^0" in detail


# --- object models ------------------------------------------------------------------------

def test_families_keep_to_their_own_object_model():
    p1_families = (CoarseZ(), StandardP1(), ExceptionalP1(0, 0), ExceptionalP1(1, INF),
                   coarsen(StandardP1(), by_shift_partition()),
                   coarsen(ExceptionalP1(0, INF), column_partition()))
    ell = EllipticStandard()
    for family in p1_families:
        with pytest.raises(UnsupportedFamilyError):
            family.hn(stable(1, 0, "x"))
        with pytest.raises(UnsupportedFamilyError):
            family.semistable_slope(stable(0, 1, "x"))
    for x in (line(0), torsion("x", 2), ZERO):
        with pytest.raises(UnsupportedFamilyError):
            ell.hn(x)
    assert not isinstance(stable(1, 0, "x"), DerivedObject)
    assert not isinstance(line(0), EllipticObject)
    assert ZERO != ELLIPTIC_ZERO
    cases = [(family, line(3) + torsion("x", 1, 1) + line(-2, -1)) for family in p1_families]
    cases.append((ell, stable(1, 0, "x") + stable(0, 1, "y", 1) + 2 * stable(2, 1, "x")))
    for family, x in cases:
        filt = family.hn(x)
        merged = merge_towers(family, [(filt.quotients, filt.terms)])
        assert merged == filt
        for obj in (*merged.terms, *merged.quotient_objects):
            assert type(obj) is type(family.zero)


def test_objects_on_different_curves_do_not_add():
    for a, b in ((ZERO, stable(1, 0, "x")), (ELLIPTIC_ZERO, line(2)),
                 (line(0) + torsion("x"), stable(0, 1, "x", 1))):
        for left, right in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                left + right


# --- descriptors ------------------------------------------------------------------------

def test_family_descriptor_round_trip():
    for fam in (StandardP1(("a", "b")), ExceptionalP1(2, 1), ExceptionalP1(0, INF), CoarseZ()):
        rebuilt = family_from_descriptor(fam.descriptor())
        assert rebuilt.descriptor() == fam.descriptor()
    from tstab.elliptic import EllipticStandard
    fam = EllipticStandard(("x", "y"))
    assert family_from_descriptor(fam.descriptor()).descriptor() == fam.descriptor()
