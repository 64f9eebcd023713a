"""The field contract of the value types, and the values it makes unbuildable.

Every `Value` class of `tstab.__all__` declares its int fields in `_ints`, and
`value.check_ints` refuses, with one message form, any value there that is
no int (a bool included) and not what the field also takes.  The sums and
the exact slope refuse fields out of their normal form.
"""

import pytest

import tstab
from tstab import (CatalogEntry, CheckItem, Classification, CoarseCut, CoarseSlope, CoarseZ,
                   DerivedObject, EllipticCut, EllipticObject, EllipticSlope, EllipticStandard,
                   ExceptionalCut, ExceptionalP1, ExceptionalSlope, ExtendedRational,
                   FinerVerdict, FormalSum, HeartDescription, HomProfile, INF,
                   K0Class, Line, PLUS_INFINITY, Point, PositiveSystem, Report, ShiftedIndec,
                   SlopeCut, SlopePartition, StableClass, StandardCut, StandardP1, StandardSlope,
                   Torsion, TorsionPair, Window, line, normalize, stable, verify_hn)
from tstab.value import Value

X = Point("x")
S = StableClass(1, 0, X)


def _examples():
    """One value of every `Value` class in `tstab.__all__`, its int fields nonzero."""
    std = StandardP1()
    return [
        ExtendedRational(-3, 2), K0Class((1, 2)), PositiveSystem(("rk", "deg"), True),
        line(1, 2, 3), FormalSum(), HomProfile(((0, 2),)), Line(4), Point("x", 1),
        ShiftedIndec(Line(1), 2), Torsion(X, 2), CheckItem("a", True, "d"), CoarseSlope(1),
        EllipticSlope(1, S), ExceptionalSlope(1, 1), std.hn(line(1)), Report(()),
        StandardSlope(1, 2), Window(1, 2, 3, 4, (X,), 5, 6), CoarseZ(), ExceptionalP1(1, 2),
        FinerVerdict(True), SlopePartition("p", abs, abs, abs), std,
        CatalogEntry("A", (), std, StandardCut(1)), Classification("A", (), 1, 2), CoarseCut(1),
        EllipticCut(1, 0, ()), ExceptionalCut(1, 2), HeartDescription(std, StandardCut(1)),
        SlopeCut(), StandardCut(1, 2), TorsionPair(1), stable(1, 0, "x", 1, 2),
        EllipticStandard(), StableClass(2, 1, X)]


VALUE_CLASSES = {obj for obj in (getattr(tstab, name) for name in tstab.__all__)
                 if isinstance(obj, type) and issubclass(obj, Value)}
EXAMPLES = {type(value): value for value in _examples()}
INT_FIELDS = [(cls, name) for cls in sorted(VALUE_CLASSES, key=lambda c: c.__name__)
              for name in cls._ints]


def test_every_exported_value_class_has_an_example():
    assert set(EXAMPLES) == VALUE_CLASSES


@pytest.mark.parametrize("cls", sorted(VALUE_CLASSES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_int_field_is_declared(cls):
    """A field that holds an int in the example is in `_ints`, so it is checked."""
    example = EXAMPLES[cls]
    assert {f for f in cls._fields if getattr(example, f).__class__ is int} <= set(cls._ints)
    assert set(cls._ints) <= set(cls._fields)


@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("bad", [True, 1.5, "1", None], ids=repr)
def test_a_declared_int_field_refuses_what_is_no_int(cls, name, bad):
    example = EXAMPLES[cls]
    fields = [getattr(example, f) for f in cls._fields]
    assert cls(*fields) == example  # the example's fields build it again
    fields[cls._fields.index(name)] = bad
    with pytest.raises(TypeError, match=f"^{name} must be an integer(,| or) .*got {bad!r}$"):
        cls(*fields)


def test_fields_that_take_more_than_ints_say_so():
    with pytest.raises(TypeError, match=r"^level must be an integer or Point, got 1\.5$"):
        StandardSlope(0, 1.5)
    with pytest.raises(TypeError, match=r"^K must be an integer or inf or -inf, got 1\.5$"):
        StandardCut(0, 1.5)
    with pytest.raises(TypeError, match=r"^p must be an integer or inf, got -inf$"):
        ExceptionalP1(0, -INF)
    assert StandardSlope(0, X).level is X and StandardCut(0, INF).K == INF
    assert TorsionPair(-INF).line_threshold == -INF and ExceptionalCut(INF, -INF).a == INF


# --- the witnesses that built before --------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: CoarseSlope(True), lambda: CoarseSlope(0.5), lambda: StandardSlope(0.5, 1),
    lambda: StandardSlope(0, 1.5), lambda: EllipticSlope(0.5, S),
    lambda: Window(max_degree=1.5), lambda: Window(samples=1.5), lambda: Window(seed=True),
    lambda: ExtendedRational(1.5, 2), lambda: ExtendedRational(True, 2),
], ids=["coarse-True", "coarse-0.5", "std-shift", "std-level", "ell-shift", "max_degree",
        "samples", "seed", "rational-1.5", "rational-True"])
def test_a_field_that_is_no_int_is_refused(build):
    with pytest.raises(TypeError, match="must be an integer"):
        build()


O0, O3 = ShiftedIndec(Line(0)), ShiftedIndec(Line(3))


@pytest.mark.parametrize("terms, error", [
    (((O3, 1), (O0, 1)), ValueError),   # rendered O(3) + O(0), unequal to its normal form
    (((O0, 1), (O0, 2)), ValueError),   # unequal to 3*O(0)
    (((O0, 0),), ValueError),           # rendered 0*O(0), not zero
    (((O0, -1),), ValueError),          # of K0 (-1, 0)
    (((O0, 2.0),), TypeError),          # read by `head_before` as the int 2
    (((O0, True),), TypeError),
], ids=["unsorted", "repeated", "zero", "negative", "float", "bool"])
def test_a_sum_out_of_normal_form_is_refused(terms, error):
    for curve in (DerivedObject, EllipticObject):
        with pytest.raises(error):
            curve(terms)
    with pytest.raises(error):
        DerivedObject(list(terms))


def test_a_sum_in_normal_form_builds_and_equals_its_normalization():
    pairs = ((O0, 1), (O3, 2), (ShiftedIndec(Torsion(X, 1), 1), 1))
    assert DerivedObject(pairs) == normalize(reversed(pairs)) == line(0) + 2 * line(3) \
        + normalize([(pairs[2][0], 1)])
    assert DerivedObject() == DerivedObject(()) and DerivedObject().is_zero
    assert EllipticObject(((ShiftedIndec(S, 1), 2),)) == stable(1, 0, "x", 1, 2)


def test_a_float_multiplicity_no_longer_reaches_the_tail_test():
    """Once, `DerivedObject(((O(2), 2.0),))` was taken as the tail of a term
    ending in 2*O(2), so `to_json` wrote `2.0*O(2)` and `verify_hn` passed."""
    o1, o2 = ShiftedIndec(Line(1)), ShiftedIndec(Line(2))
    with pytest.raises(TypeError, match=r"^multiplicity must be an integer, got 2\.0$"):
        DerivedObject(((o2, 2.0),))
    x = DerivedObject(((o1, 1), (o2, 2)))
    filt = StandardP1().hn(x)
    assert filt.to_json()["terms"] == ["O(1) + 2*O(2)", "2*O(2)", "0"]
    assert verify_hn(x, filt, StandardP1()).ok


def test_pickle_and_copy_go_through_the_checking_constructor():
    import copy
    import pickle
    x = line(0) + 2 * line(3, 1)
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert round_trip(x) == x
        assert round_trip(ExtendedRational(-3, 2)) == ExtendedRational(-3, 2)
    with pytest.raises(ValueError):
        copy.copy(DerivedObject._raw(((O3, 1), (O0, 1))))


# --- the exact slope ---------------------------------------------------------------------

@pytest.mark.parametrize("fields", [(2, 4), (0, 0), (-1, 0), (2, 0), (1, -2), (0, 2)], ids=repr)
def test_extended_rational_refuses_fields_out_of_lowest_terms(fields):
    """Once built: {(2,4), (1,2)} was a set of two equal values, (0,0) equalled
    5 and +inf alike, and (-1,0) equalled +inf yet sorted below 3."""
    with pytest.raises(ValueError, match=r"must be coprime with r > 0, or \(1, 0\), got"):
        ExtendedRational(*fields)


def test_extended_rational_fields_in_lowest_terms_build():
    assert {ExtendedRational(1, 2), ExtendedRational.reduced(2, 4)} == {ExtendedRational(1, 2)}
    assert ExtendedRational(1, 0) == PLUS_INFINITY and ExtendedRational(0, 1) < PLUS_INFINITY
    assert ExtendedRational.reduced(-1, 0) is PLUS_INFINITY
    assert [(q.d, q.r) for q in (ExtendedRational(-3, 2), ExtendedRational(0, 1))] == \
        [(-3, 2), (0, 1)]
    assert StableClass(0, 1, X).mu() == PLUS_INFINITY and S.mu() == ExtendedRational(0, 1)
