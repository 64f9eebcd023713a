"""Tests for the HN engine: computation, verification, filtration algebra."""

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from tstab.errors import UnsupportedFamilyError
from tstab.elliptic import EllipticStandard, stable
from tstab.families import (INF, CoarseZ, ExceptionalP1, StandardP1, by_shift_partition,
                            coarsen, column_partition)
from tstab.p1 import (DerivedObject, Line, Point, ShiftedIndec, Torsion, ZERO, line, normalize,
                      torsion)
from tstab.stability import (CheckItem, CoarseSlope, ExceptionalSlope, HNFiltration,
                             StandardSlope, Window, merge_towers, validate_stability, verify_hn)

STD = StandardP1()
EXC0 = ExceptionalP1(0, 0)
WINDOW = Window(max_degree=5, max_shift=2, max_length=3, samples=40)


def merge_two(fa, fb):
    """The by-slope merge of two filtrations of one family: a filtration of the sum."""
    return merge_towers(fa.family, [(fa.quotients, fa.terms), (fb.quotients, fb.terms)])


def _random_objects(count, seed=0, window=WINDOW):
    rng = random.Random(seed)
    return [STD.random_object(rng, window) for _ in range(count)]


# --- hn -------------------------------------------------------------------------

def test_hn_standard_semistable_generator():
    filt = STD.hn(line(5))
    assert filt.quotients == ((StandardSlope(0, 5), line(5)),)
    assert filt.terms == (line(5), ZERO)


def test_hn_exceptional_destabilises_line():
    filt = EXC0.hn(line(3))
    assert filt.quotients == (
        (ExceptionalSlope(1, 0), 2 * line(0, 1)),
        (ExceptionalSlope(0, 1), 3 * line(1)),
    )
    assert filt.terms == (line(3), 3 * line(1), ZERO)


def test_hn_zero_object():
    filt = STD.hn(ZERO)
    assert filt.quotients == ()
    assert filt.terms == (ZERO,)


def test_hn_rejects_foreign_objects():
    from tstab.elliptic import stable
    with pytest.raises(UnsupportedFamilyError):
        STD.hn(stable(1, 0, "x"))


def test_hn_coarse_groups_by_shift():
    x = line(1) + torsion(Point("x"), 2) + line(0, -1)
    filt = CoarseZ().hn(x)
    assert [s.i for s in filt.slopes] == [-1, 0]
    assert filt.quotient_objects[1] == line(1) + torsion(Point("x"), 2)


# --- verify_hn ---------------------------------------------------------------------

def test_verify_accepts_computed_filtration():
    x = line(3)
    report = verify_hn(x, EXC0.hn(x), EXC0)
    assert report.ok, report.summary()


def test_verify_rejects_descending_order():
    filt = EXC0.hn(line(3))
    swapped = HNFiltration(EXC0, tuple(reversed(filt.quotients)), filt.terms)
    report = verify_hn(line(3), swapped, EXC0)
    assert not report.ok
    assert any(c.name == "ascending_slopes" and not c.ok for c in report.checks)


def test_verify_rejects_non_semistable_quotient():
    bad = HNFiltration(EXC0, ((ExceptionalSlope(0, 0), line(3)),), (line(3), ZERO))
    report = verify_hn(line(3), bad, EXC0)
    assert any(c.name == "semistable_quotients" and not c.ok for c in report.checks)


def test_verify_rejects_wrong_endpoints():
    filt = STD.hn(line(2))
    wrong = HNFiltration(STD, filt.quotients, (line(1), ZERO))
    report = verify_hn(line(2), wrong, STD)
    assert any(c.name == "endpoints" and not c.ok for c in report.checks)


def test_verify_hom_vanishing_detects_bad_pairing():
    # Hom^0(O(0), O(1)) != 0, so listing O(1) below O(0) must fail (c)
    filt = HNFiltration(STD, ((StandardSlope(0, 1), line(1)), (StandardSlope(0, 0), line(0))),
                        (line(0) + line(1), line(0), ZERO))
    report = verify_hn(line(0) + line(1), filt, STD)
    assert not report.ok
    failing = {c.name for c in report.failures()}
    assert "hom_vanishing" in failing or "ascending_slopes" in failing


def test_verify_k0_additivity_detail_names_both_classes():
    x = line(1) + line(2)
    filt = STD.hn(x)
    wrong = HNFiltration(STD, filt.quotients, (filt.terms[0], line(5), ZERO))
    [item] = [c for c in verify_hn(x, wrong, STD).checks if c.name == "k0_additivity"]
    assert item == CheckItem("k0_additivity", False, "k0(terms[0]) = K0(2, 3) != K0(2, 6)")


def test_verify_raises_on_a_term_whose_k0_is_not_an_int():
    x = line(1) + line(2)
    filt = STD.hn(x)
    bad = DerivedObject._raw(((ShiftedIndec(Line(1)), 1.5),))  # past the checks
    with pytest.raises(TypeError, match=r"^K0 component must be an integer, got 1\.5$"):
        verify_hn(x, HNFiltration(STD, filt.quotients, (bad,) + filt.terms[1:]), STD)


def test_verify_reports_a_foreign_slope_after_a_descent_without_raising():
    x = line(1) + line(2) + line(3)
    filt = STD.hn(x)
    quots = list(filt.quotients)
    quots[0], quots[1] = quots[1], quots[0]
    quots[2] = (CoarseSlope(0), quots[2][1])
    report = verify_hn(x, HNFiltration(STD, tuple(quots), filt.terms), STD)
    assert report.checks == (
        CheckItem("ascending_slopes", False, "slope (0, 2) !< (0, 1) at position 0"),
        CheckItem("semistable_quotients", False, "quotient 2 (O(3)) is not semistable of slope (0)"),
        CheckItem("hom_vanishing", False, "Hom^(<=0)(Q_1, Q_0) != 0: profile {0: 2}"),
        CheckItem("k0_additivity", False, "k0(terms[0]) = K0(3, 6) != K0(3, 7)"),
        CheckItem("endpoints", True, ""),
    )


# --- semistability through hn -------------------------------------------------------

def test_is_semistable_examples():
    assert STD.hn(3 * line(2, 1)).slopes == (StandardSlope(1, 2),)
    assert len(ExceptionalP1(0, 2).hn(line(5)).slopes) > 1
    pt = Point("x")
    assert STD.hn(torsion(pt, 4)).slopes == (StandardSlope(0, pt),)


def test_is_semistable_matches_structural_check():
    """hn gives one quotient exactly when the structural check finds a slope, and
    that quotient has the slope."""
    for x in _random_objects(60, seed=5):
        for fam in (STD, EXC0, CoarseZ()):
            slopes = fam.hn(x).slopes
            assert (slopes[0] if len(slopes) == 1 else None) == fam.semistable_slope(x)


def test_summand_stability():
    for x in _random_objects(40, seed=9):
        for y in _random_objects(40, seed=10):
            for fam in (STD, EXC0):
                slopes = fam.hn(x + y).slopes
                if len(slopes) == 1 and not x.is_zero and not y.is_zero:
                    assert fam.hn(x).slopes == slopes == fam.hn(y).slopes


# --- merging two filtrations ---------------------------------------------------------

def test_merge_by_slope_standard():
    merged = merge_two(STD.hn(line(-1)), STD.hn(line(3)))
    assert merged.quotients == (
        (StandardSlope(0, -1), line(-1)),
        (StandardSlope(0, 3), line(3)),
    )


def test_merge_exceptional_interleaving():
    merged = merge_two(EXC0.hn(line(3)), EXC0.hn(line(-2)))
    slopes = [(s.i, s.col) for s in merged.slopes]
    assert slopes == [(0, 0), (-1, 1), (1, 0), (0, 1)]
    objs = [o.render() for o in merged.quotient_objects]
    assert objs == ["3*O(0)", "2*O(1)[-1]", "2*O(0)[1]", "3*O(1)"]
    # comparator oracle: (i,0) < (j,1) iff i <= j + p + 1, applied pairwise
    p = 0
    for idx in range(len(slopes) - 1):
        (i1, c1), (i2, c2) = slopes[idx], slopes[idx + 1]
        if c1 == 0 and c2 == 1:
            assert i1 <= i2 + p + 1
        elif c1 == 1 and c2 == 0:
            assert i2 >= i1 + p + 2
        else:
            assert i1 < i2


def test_merge_with_empty_is_identity():
    filt = STD.hn(line(2) + torsion(Point("x"), 1))
    merged = merge_two(filt, STD.hn(ZERO))
    assert merged == filt


def test_merge_coalesces_equal_slopes():
    merged = merge_two(STD.hn(line(2)), STD.hn(2 * line(2)))
    assert merged.quotients == ((StandardSlope(0, 2), 3 * line(2)),)


def test_hn_of_sum_equals_merge():
    rng = random.Random(21)
    for fam in (STD, EXC0, ExceptionalP1(-1, 2), CoarseZ()):
        for _ in range(40):
            x = fam.random_object(rng, WINDOW)
            y = fam.random_object(rng, WINDOW)
            assert fam.hn(x + y) == merge_two(fam.hn(x), fam.hn(y))


def test_shift_equivariance():
    rng = random.Random(22)
    for fam in (STD, EXC0):
        for _ in range(40):
            x = fam.random_object(rng, WINDOW)
            assert fam.hn(x.shift(1)) == fam.hn(x).shifted(1)
            assert fam.hn(x.shift(-2)) == fam.hn(x).shifted(-2)


def test_shifted_is_closed_form_for_huge_shifts():
    p1 = line(3) + torsion(Point("x"), 2, 1) + line(-2, -1)
    ell = stable(1, 2, "x") + stable(0, 1, "y", shift=-1)
    cases = [(fam, p1) for fam in (STD, EXC0, CoarseZ(), coarsen(STD, by_shift_partition()),
                                   coarsen(ExceptionalP1(0, INF), column_partition()))]
    cases.append((EllipticStandard(), ell))
    for (fam, x), n in itertools.product(cases, (10 ** 8, -10 ** 8)):
        filt = fam.hn(x)
        start = time.perf_counter()
        far = filt.shifted(n)
        assert time.perf_counter() - start < 1.0
        assert far == fam.hn(x.shift(n))
        assert far.shifted(-n) == filt


@pytest.mark.parametrize("bounds, field", [
    (dict(max_degree=-3), "max_degree"),
    (dict(max_shift=-1), "max_shift"),
    (dict(max_length=0, samples=3), "max_length"),
    (dict(max_summands=0), "max_summands"),
    (dict(samples=-1), "samples"),
])
def test_window_rejects_out_of_range_bounds(bounds, field):
    with pytest.raises(ValueError, match=f"Window.{field} must be >="):
        Window(**bounds)


def test_validate_stability_with_no_samples_does_not_pass():
    report = validate_stability(STD, Window(max_degree=2, samples=0))
    assert not report.ok
    [failure] = report.failures()
    assert failure.name == "hn_random_objects" and failure.detail == "no cases examined"


_points = st.sampled_from([Point("x"), Point("y"), Point("z")])
_bases = st.one_of(
    st.integers(-6, 6).map(Line),
    st.builds(Torsion, _points, st.integers(1, 3)),
)
_summands = st.tuples(_bases, st.integers(-2, 2), st.integers(1, 3))
objects = st.lists(_summands, max_size=5).map(
    lambda triples: normalize([(ShiftedIndec(base, sh), m) for base, sh, m in triples]))
families = st.sampled_from([STD, EXC0, ExceptionalP1(1, 2),
                            ExceptionalP1(0, float("inf")), CoarseZ()])


@given(families, objects, objects)
def test_property_hn_is_additive_under_direct_sum(fam, x, y):
    assert fam.hn(x + y) == merge_two(fam.hn(x), fam.hn(y))


@given(families, objects, st.integers(-2, 2))
def test_property_hn_commutes_with_shift(fam, x, n):
    assert x.shift(n) == normalize([(t.shifted(n), m) for t, m in x.summands()])
    assert fam.hn(x.shift(n)) == fam.hn(x).shifted(n)


@given(families, objects)
def test_property_hn_output_verifies(fam, x):
    assert verify_hn(x, fam.hn(x), fam).ok


# --- validate_stability -------------------------------------------------------------

def test_validate_standard_and_exceptional():
    for fam in (STD, ExceptionalP1(0, 0), ExceptionalP1(0, 1),
                ExceptionalP1(1, float("inf")), CoarseZ()):
        report = validate_stability(fam, WINDOW)
        assert report.ok, f"{fam.kind}: {report.summary()}"


class _TorsionBelowLines(StandardP1):
    """Deliberately wrong order: point strata below line strata."""

    def slope_key(self, s):
        if isinstance(s.level, int):
            return (s.i, 1, (s.level, ""))
        return (s.i, 0, s.level.key())


def test_validate_rejects_inverted_torsion_order():
    report = validate_stability(_TorsionBelowLines(), WINDOW)
    assert not report.ok
    failing = [c for c in report.failures() if c.name == "hom_vanishing"]
    assert failing
    assert "O(" in failing[0].detail  # a line bundle mapping onto torsion witnesses it


class _TorsionNotSemistable(StandardP1):
    """Deliberately wrong: torsion atoms have no slope."""

    def slope_of_term(self, term):
        return None if isinstance(term.base, Torsion) else super().slope_of_term(term)


class _TauSkipsAShift(StandardP1):
    """Deliberately wrong: tau moves a slope up two shifts."""

    def tau(self, s, n=1):
        return StandardSlope(s.i + 2 * n, s.level)


class _ShiftsDescend(StandardP1):
    """Deliberately wrong order: a higher shift sorts lower, so tau(s) < s."""

    def slope_key(self, s):
        i, *rest = s.key()
        return (-i, *rest)


class _TauIgnoresSign(StandardP1):
    """Deliberately wrong: tau^n moves up |n| shifts, so tau^-1 does not undo tau."""

    def tau(self, s, n=1):
        return StandardSlope(s.i + abs(n), s.level)


SMALL_WINDOW = Window(max_degree=1, max_shift=1, max_length=1, samples=2)


def test_validate_rejects_a_window_generator_that_is_not_semistable():
    report = validate_stability(_TorsionNotSemistable(), SMALL_WINDOW)
    assert report.summary() == \
        "FAIL generators_semistable: window generator T(x,1)[-1] is not semistable"


def test_validate_stability_on_a_window_without_points():
    # Random objects of a P1 window without points are sums of lines; an
    # elliptic window without points has no generators, so nothing is examined.
    window = Window(points=(), samples=5)
    for family in (STD, CoarseZ()):
        report = validate_stability(family, window)
        assert [c.name for c in report.checks if c.ok] == \
            ["generators_semistable", "tau_equivariance", "hom_vanishing", "hn_random_objects"]
    assert validate_stability(EllipticStandard(), window).summary() == \
        "FAIL generators_semistable: no cases examined"


@pytest.mark.parametrize("family, detail", [
    (_TauSkipsAShift(), "slope of O(-1)[-1][1] is not tau(slope)"),
    (_ShiftsDescend(), "tau((-1, -1)) < (-1, -1)"),
    (_TauIgnoresSign(), "tau_inv(tau) != id at (-1, -1)"),
], ids=["shift", "descending", "inverse"])
def test_validate_rejects_a_tau_that_is_not_the_shift(family, detail):
    report = validate_stability(family, SMALL_WINDOW)
    (item,) = [c for c in report.checks if c.name == "tau_equivariance"]
    assert (item.ok, item.detail) == (False, detail)


# --- serialization -------------------------------------------------------------------

def test_filtration_json_round_trip():
    from tstab.cli import filtration_from_json
    for fam in (STD, StandardP1(("a", "b")), EXC0, CoarseZ()):
        x = 2 * line(3) + torsion(Point("a" if fam.point_labels else "x"), 2) + line(0, -1) \
            if getattr(fam, "point_labels", ()) else 2 * line(3) + torsion(Point("x"), 2)
        filt = fam.hn(x)
        data = filt.to_json()
        obj, rebuilt = filtration_from_json(data)
        assert obj == x
        assert rebuilt.quotients == filt.quotients
        assert rebuilt.terms == filt.terms
        assert verify_hn(obj, rebuilt, rebuilt.family).ok
