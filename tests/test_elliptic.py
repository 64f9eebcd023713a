"""Tests for the elliptic-curve model: stable classes, Hom rules, tilting pairs."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from tstab import elliptic
from tstab.elliptic import (ELLIPTIC_ZERO, EllipticObject, EllipticStandard,
                            StableClass, hom_dim_stable, stable)
from tstab.errors import InvalidCutError, ZeroClassError
from tstab.p1 import Point, ShiftedIndec, hom_profile
from tstab.slopes import ExtendedRational, PLUS_INFINITY
from tstab.families import StandardP1
from tstab.stability import CheckItem, EllipticSlope, Window, validate_stability, verify_hn
from tstab.tstructures import EllipticCut, heart_contains, truncate, validate_cut
from tstab.value import FrozenInstanceError

L, M, N = Point("l"), Point("m"), Point("n")
FAMILY = EllipticStandard()
ORDERED = EllipticStandard(("l", "m", "n"))
WINDOW = Window(max_degree=4, max_shift=2, points=(L, M, N), samples=25)


def _window_classes(max_rank=5, max_degree=7, points=(L, M, N)):
    classes = []
    for pt in points:
        classes.append(StableClass(0, 1, pt))
        for r in range(1, max_rank + 1):
            for d in range(-max_degree, max_degree + 1):
                if math.gcd(r, d) == 1:
                    classes.append(StableClass(r, d, pt))
    return classes


# --- stable classes --------------------------------------------------------------

def test_stable_class_validation():
    StableClass(1, 0, L)
    StableClass(0, 1, L)
    StableClass(2, -3, L)
    with pytest.raises(ValueError):
        StableClass(2, 4, L)
    with pytest.raises(ValueError):
        StableClass(0, 2, L)
    with pytest.raises(ValueError):
        StableClass(-1, 1, L)


def test_class_slope_does_not_order_against_an_int():
    with pytest.raises(TypeError):
        StableClass(2, 1, L).mu() <= 3


def test_mu_class_examples():
    assert StableClass(1, 0, L).mu() == ExtendedRational.finite(0)
    assert StableClass(0, 1, L).mu() == PLUS_INFINITY
    assert StableClass(2, 3, L).mu() == ExtendedRational.finite(Fraction(3, 2))


def test_hom_dim_stable_examples():
    e, f = StableClass(1, 0, L), StableClass(1, 1, M)
    # Euler oracle: chi = r_e d_f - d_e r_f = 1, concentrated in degree 0
    assert hom_dim_stable(e, f, 0) - hom_dim_stable(e, f, 1) == 1
    assert hom_dim_stable(e, f, 0) == 1
    assert hom_dim_stable(e, e, 0) == 1 and hom_dim_stable(e, e, 1) == 1
    g = StableClass(1, 0, M)
    assert hom_dim_stable(e, g, 0) == 0 and hom_dim_stable(e, g, 1) == 0


def test_euler_and_serre_identities_on_window():
    classes = _window_classes(max_rank=3, max_degree=5, points=(L, M))
    for e, f in itertools.product(classes, classes):
        chi = e.r * f.d - e.d * f.r
        assert hom_dim_stable(e, f, 0) - hom_dim_stable(e, f, 1) == chi
        assert hom_dim_stable(e, f, 1) == hom_dim_stable(f, e, 0)
        assert hom_dim_stable(e, f, 0) >= 0
        assert hom_dim_stable(e, f, 1) >= 0


# --- objects and filtrations -------------------------------------------------------

def test_normal_form_and_render():
    x = stable(1, 1, M) + 2 * stable(1, 0, L) + stable(1, 1, M)
    assert x.render() == "2*S(1,0,l) + 2*S(1,1,m)"
    assert (3 * stable(0, 1, L, shift=1)).render() == "3*S(0,1,l)[1]"
    assert ELLIPTIC_ZERO.render() == "0"
    assert x.shift(2).shift(-2) == x


def test_hn_elliptic_grouping():
    filt = EllipticStandard().hn(stable(1, 0, L) + stable(1, 1, M))
    assert [s.mu for s in filt.slopes] == [ExtendedRational.finite(0),
                                           ExtendedRational.finite(1)]
    filt = EllipticStandard().hn(stable(0, 1, L) + stable(1, 5, M))
    assert [s.cls.is_skyscraper for s in filt.slopes] == [False, True]
    assert len(EllipticStandard().hn(4 * stable(2, 1, N)).quotients) == 1


def test_elliptic_slope_reads_mu_off_its_class():
    assert EllipticSlope._fields == ("i", "cls")
    for cls in (StableClass(0, 1, L), StableClass(2, -1, M), StableClass(1, 3, N)):
        s = EllipticSlope(3, cls)
        assert s.mu == cls.mu() == FAMILY.tau(s, -2).mu
        assert repr(s) == f"(3, {cls.mu()}, {cls.render()})"
        assert FAMILY.slope_from_json(FAMILY.slope_json(s)) == s
        with pytest.raises(FrozenInstanceError):
            s.mu = PLUS_INFINITY


def test_hn_elliptic_orders_by_shift_mu_then_point():
    x = stable(1, 0, M) + stable(1, 0, L) + stable(1, 1, L) + stable(2, 1, L, shift=-1)
    filt = EllipticStandard().hn(x)
    rendered = [o.render() for o in filt.quotient_objects]
    assert rendered == ["S(2,1,l)[-1]", "S(1,0,l)", "S(1,0,m)", "S(1,1,l)"]
    report = verify_hn(x, filt, FAMILY)
    assert report.ok, report.summary()


def test_single_class_objects_are_semistable():
    for cls in _window_classes(max_rank=3, max_degree=4, points=(L,))[:40]:
        for shift in (-1, 0, 2):
            obj = 2 * EllipticObject(((ShiftedIndec(cls, shift), 1),))
            assert FAMILY.semistable_slope(obj) is not None


def test_equal_slope_distinct_points_not_semistable():
    x = stable(1, 0, L) + stable(1, 0, M)
    assert FAMILY.semistable_slope(x) is None
    assert len(FAMILY.hn(x).quotients) == 2


def test_validate_elliptic_stability():
    report = validate_stability(FAMILY, WINDOW)
    assert report.ok, report.summary()


# --- tilting pairs -----------------------------------------------------------------

def test_a_qp_split_standard_pair():
    x = stable(1, -1, L) + stable(1, 0, L) + stable(1, 1, M) + stable(0, 1, N)
    first, second = truncate(x, EllipticCut(0, 0), FAMILY)
    assert second == stable(1, -1, L)
    assert first == stable(1, 0, L) + stable(1, 1, M) + stable(0, 1, N)


def test_a_qp_split_point_set_matters():
    x = stable(1, 0, L) + stable(1, 0, M)
    first, second = truncate(x, EllipticCut(0, 0, P={"l"}), ORDERED)
    assert second == stable(1, 0, L)
    assert first == stable(1, 0, M)


def test_a_qp_split_skyscraper_stays_high():
    for q in (0, Fraction(1, 2)):
        first, second = truncate(stable(0, 1, L), EllipticCut(0, q), FAMILY)
        assert second.is_zero and first == stable(0, 1, L)
    first, second = truncate(stable(0, 1, L), EllipticCut(0, PLUS_INFINITY), FAMILY)
    assert second.is_zero  # mu = q = inf but l not in P
    first, second = truncate(stable(0, 1, L), EllipticCut(0, PLUS_INFINITY, P={"l"}), ORDERED)
    assert first.is_zero and second == stable(0, 1, L)


def test_a_qp_split_rejects_bad_q_and_shifts():
    with pytest.raises(InvalidCutError):
        truncate(stable(1, 0, L), EllipticCut(0, 1), FAMILY)
    with pytest.raises(InvalidCutError):
        truncate(stable(1, 0, L), EllipticCut(0, Fraction(-1, 2)), FAMILY)


def test_a_qp_split_hom_vanishing_random():
    rng = random.Random(77)
    classes = _window_classes(max_rank=3, max_degree=5)
    for q in (0, Fraction(1, 2), PLUS_INFINITY):
        for P in (frozenset(), frozenset({"l"})):
            for _ in range(40):
                picks = [rng.choice(classes) for _ in range(rng.randint(1, 5))]
                x = ELLIPTIC_ZERO
                for cls in picks:
                    x = x + stable(cls.r, cls.d, cls.x)
                first, second = truncate(x, EllipticCut(0, q, P), ORDERED)
                assert first + second == x
                assert hom_profile(first, second)[0] == 0


def test_elliptic_heart_contains_examples():
    cut = EllipticCut(0, 0)
    assert heart_contains(stable(1, 1, L), cut, FAMILY)
    assert heart_contains(stable(1, -1, L, shift=1), cut, FAMILY)
    assert not heart_contains(stable(1, -1, L), cut, FAMILY)
    assert not heart_contains(stable(1, 1, L, shift=2), cut, FAMILY)
    assert heart_contains(ELLIPTIC_ZERO, cut, FAMILY)
    # mu = q membership splits along P
    assert heart_contains(stable(1, 0, L, shift=1), EllipticCut(0, 0, P={"l"}), ORDERED)
    assert not heart_contains(stable(1, 0, L, shift=1), cut, FAMILY)


def test_heart_of_standard_pair_is_shifted_sheaves():
    # q = 0, P = empty: mu >= 0 lives at shift 0, mu < 0 at shift 1
    cut = EllipticCut(0, 0)
    assert heart_contains(stable(2, 1, L) + stable(1, -2, M, shift=1), cut, FAMILY)
    assert not heart_contains(stable(2, 1, L, shift=1), cut, FAMILY)


def test_truncate_of_a_shifted_object():
    # every shift, not only 0: shift 1 lies above the tilt at m = 0, shift -1 below
    x = stable(1, 0, L, shift=1) + stable(1, 1, M, shift=-1)
    assert truncate(x, EllipticCut(0, 0), FAMILY) == (stable(1, 0, L, shift=1),
                                                      stable(1, 1, M, shift=-1))
    assert truncate(x, EllipticCut(1, 0), FAMILY) == (stable(1, 0, L, shift=1),
                                                      stable(1, 1, M, shift=-1))
    assert truncate(x, EllipticCut(2, 0), FAMILY) == (ELLIPTIC_ZERO, x)


@pytest.mark.parametrize("family, P, reason, window_ok", [
    (ORDERED, {"l", "n"}, "P must be down-closed in the point order", False),
    (ORDERED, {"m"}, "P must be down-closed in the point order", False),
    # the window holds slopes at the declared points only, so it cannot see z
    (ORDERED, {"z"}, "undeclared point labels in P: ['z']", True),
    (FAMILY, {"y"}, "a proper point set needs a declared point universe on the family", False),
], ids=["gap", "not-a-prefix", "undeclared", "no-order"])
def test_elliptic_cut_point_set_must_be_declared_and_down_closed(family, P, reason, window_ok):
    cut = EllipticCut(0, 0, P)
    report = validate_cut(cut, family)
    assert [(c.name, c.ok) for c in report.checks] == [("cut_constraints", False),
                                                       ("window_up_closure", window_ok)]
    assert report.checks[0].detail == reason
    with pytest.raises(InvalidCutError, match=re.escape(reason)):
        truncate(stable(1, 0, L), cut, family)
    with pytest.raises(InvalidCutError, match=re.escape(reason)):
        heart_contains(stable(1, 0, L), cut, family)


def test_elliptic_cut_window_names_the_first_gap():
    report = validate_cut(EllipticCut(0, 0, {"l", "n"}), ORDERED)
    assert report.checks[1].detail == ("up-closure fails: (0, 0, S(1,0,m)) is in the up-set "
                                       "but (0, 0, S(1,0,n)) above it is not")


@pytest.mark.parametrize("q", [1, Fraction(-1, 2), Fraction(3, 2)])
def test_elliptic_cut_slope_out_of_range(q):
    cut = EllipticCut(0, q)
    reason = f"tilting slope must lie in [0, 1) or be inf, got {ExtendedRational.finite(q)!r}"
    assert validate_cut(cut, FAMILY).checks[0] == CheckItem("cut_constraints", False, reason)
    for operation in (truncate, heart_contains):
        with pytest.raises(InvalidCutError, match=re.escape(reason)):
            operation(stable(1, 0, L), cut, FAMILY)


@pytest.mark.parametrize("q", [0.1, True, "1/2"])
def test_elliptic_cut_refuses_a_slope_that_is_not_exact(q):
    """A float, a bool or a string is not read as a slope, so no cut is built."""
    with pytest.raises(TypeError, match="a slope must be an int or a Fraction"):
        EllipticCut(0, q)


def test_elliptic_cut_slope_is_read_from_its_fields():
    assert EllipticCut(0, Fraction(2, 6)).q == ExtendedRational(1, 3)
    assert EllipticCut(0, 0).q == ExtendedRational(0, 1)
    assert validate_cut(EllipticCut(0, ExtendedRational(1, 2)), FAMILY).ok


def test_elliptic_cut_reduces_a_slope_given_by_its_fields():
    """Fields not in lowest terms no longer build a slope (the cut reduced them);
    `reduced` names the slope, and 0/0 none."""
    for fields, reduced in (((2, 4), (1, 2)), ((-1, -3), (1, 3)), ((3, 0), (1, 0))):
        with pytest.raises(ValueError, match="must be coprime with r > 0, or"):
            ExtendedRational(*fields)
        cut = EllipticCut(0, ExtendedRational.reduced(*fields), {"l"})
        assert (cut.q.d, cut.q.r) == reduced
        assert cut == EllipticCut(0, ExtendedRational(*reduced), {"l"})
        assert validate_cut(cut, ORDERED).ok
    with pytest.raises(ZeroClassError, match="the zero class has no slope"):
        EllipticCut(0, ExtendedRational.reduced(0, 0))


@pytest.mark.parametrize("q", [0, Fraction(1, 3), Fraction(5, 7), Fraction(49, 50),
                               PLUS_INFINITY])
def test_valid_elliptic_cuts_pass_validate_cut(q):
    for family, P in ((FAMILY, ()), (ORDERED, ()), (ORDERED, {"l"}), (ORDERED, {"l", "m"}),
                      (ORDERED, {"l", "m", "n"})):
        report = validate_cut(EllipticCut(-1, q, P), family)
        assert report.ok, report.summary()
    # the window holds the q stratum, and the cut falls inside it
    slopes = EllipticCut(0, q, {"l"}).window(ORDERED, 4)
    stratum = [s for s in slopes if s.i == 0 and s.mu == EllipticCut(0, q).q]
    assert [s.cls.x.label for s in stratum] == ["l", "m", "n"]


def test_elliptic_cut_needs_the_elliptic_family():
    report = validate_cut(EllipticCut(0, 0), StandardP1())
    assert report.checks == (CheckItem("cut_constraints", False,
                                       "an elliptic cut needs the elliptic family"),)
    with pytest.raises(InvalidCutError):
        truncate(stable(1, 0, L), EllipticCut(0, 0), StandardP1())


def test_window_classes_are_shared_by_windows_of_other_seeds_and_samples():
    """The class list is read off the points and the degree bound alone, so windows that
    differ in what it does not read get the very same tuple, not a rebuilt one."""
    cached = elliptic._window_classes
    base = Window(max_degree=3, points=(L, M), samples=5, seed=1)
    for other in (Window(max_degree=3, points=(L, M), samples=9, seed=2),
                  Window(max_degree=3, max_shift=1, max_length=2, points=(L, M), seed=3)):
        assert cached(other.points, other.max_degree, 2) is cached(base.points, 3, 2)
        assert FAMILY.window_classes(other, 2) == FAMILY.window_classes(base, 2)
    assert FAMILY.window_classes(base, 2) == _window_classes(2, 3, (L, M))
    assert cached((L, M), 3, 2) is not cached((L, M), 4, 2)


def test_the_hom_sweep_reads_a_summary_of_the_other_curve_as_no_hit():
    """A class tested against a shift's summary that only lines joined (and a line
    against one that only classes joined) hits nothing: the curves do not mix."""
    from tstab.p1 import line
    from tstab.stability import _first_hom_violation
    for objects in ((line(0), stable(1, 0, "x")), (stable(1, 0, "x"), line(0)),
                    (line(0, 1), stable(1, 0, "x"))):
        assert _first_hom_violation(objects) is None
