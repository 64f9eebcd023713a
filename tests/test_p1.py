"""Tests for the P1 object model and its Hom rule table."""

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tstab.elliptic import ELLIPTIC_ZERO, EllipticObject, StableClass, normalize_elliptic, stable
from tstab.errors import ObjectParseError
from tstab.p1 import (DerivedObject, HomProfile, Line, Point, ShiftedIndec, Torsion, ZERO,
                      ext_dim, euler_form, hom_dim, hom_profile, line, normalize,
                      point_resolver, torsion)
from tstab.slopes import K0Class
from tstab.value import FrozenInstanceError, Value


X, Y = Point("x"), Point("y")


def _all_indecs(max_degree=6, max_length=3, points=(X, Y)):
    for n in range(-max_degree, max_degree + 1):
        yield Line(n)
    for pt in points:
        for d in range(1, max_length + 1):
            yield Torsion(pt, d)


# --- normal forms -------------------------------------------------------------

def test_normalize_merges_equal_terms():
    assert line(1) + line(1) == 2 * line(1)


def test_normalize_keeps_distinct_shifts():
    obj = torsion(X, 2) + torsion(X, 2, shift=1)
    assert len(obj.terms) == 2


def test_normalize_empty_is_zero():
    assert normalize([]) == ZERO
    assert ZERO.is_zero


def test_normalize_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        normalize([(ShiftedIndec(Line(0)), -1)])


def test_scalar_multiples_refuse_negatives_and_zero_gives_the_curves_zero():
    x = line(1) + torsion(X, 2, shift=1)
    with pytest.raises(ValueError):
        -1 * x
    assert 0 * x == ZERO and type(0 * x) is type(ZERO)
    ell = normalize_elliptic([(ShiftedIndec(StableClass(1, 0, X)), 2)])
    assert 0 * ell == ELLIPTIC_ZERO and type(0 * ell) is EllipticObject


def test_torsion_length_positive():
    with pytest.raises(ValueError):
        Torsion(X, 0)


def test_canonical_sort_order():
    obj = torsion(X, 1) + line(5) + line(-2) + line(0, shift=-1)
    rendered = [t.render() for t, _ in obj.summands()]
    assert rendered == ["O(0)[-1]", "O(-2)", "O(5)", "T(x,1)"]


def test_shift_involution_and_zero():
    obj = 2 * line(0, -1) + torsion(X, 1)
    assert obj.shift(2).shift(-2) == obj
    assert ZERO.shift(5) == ZERO
    assert obj.shift(2) == 2 * line(0, 1) + torsion(X, 1, shift=2)


def test_point_default_order_is_lexicographic():
    assert Point("a").key() < Point("b").key()
    resolve = point_resolver(("z", "a"))
    assert resolve("z").key() < resolve("a").key()
    with pytest.raises(ValueError):
        point_resolver(("a", "a"))
    with pytest.raises(ObjectParseError):
        resolve("q")


def _label_accepted(label) -> bool:
    try:
        Point(label)
    except ValueError:
        return False
    return True


@given(st.one_of(st.text(max_size=4),
                 st.sampled_from(["", "a\n", "x\n", "\n", "é", "xé", "ß", "Ⅻ", "١", "²",
                                  "x y", "x_1", "P1", "abcXYZ09"])))
def test_point_labels_are_the_former_pattern(label):
    """ASCII letters and digits, one or more: what `[A-Za-z0-9]+\\Z` matched."""
    assert _label_accepted(label) == bool(re.match(r"[A-Za-z0-9]+\Z", label))


def test_point_label_must_be_text():
    with pytest.raises(ValueError, match="letters/digits"):
        Point(7)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, Fraction(1), "1", None], ids=repr)
def test_point_order_index_must_be_an_int(bad):
    """Once built: `Point("x", 0.5)` sorted on (0.5, "x"), and `Point("x", True)` equalled
    `Point("x", 1)`, so its torsion sheaf would have found the other point's atom."""
    with pytest.raises(TypeError, match="order_index must be an integer"):
        Point("x", bad)
    assert Point("x", 1).key() == (1, "x") and Point("x", -2).order_index == -2


# --- K0 ------------------------------------------------------------------------

def test_k0_examples():
    assert line(2).k0() == K0Class((1, 2))
    assert line(2, shift=1).k0() == K0Class((-1, -2))
    assert (torsion(X, 3) + line(0)).k0() == K0Class((1, 3))


@given(st.integers(-4, 4), st.integers(-6, 6), st.integers(1, 5))
def test_k0_additive_and_shift_parity(i, n, m):
    obj = m * line(n, i)
    assert (obj + obj).k0() == obj.k0() + obj.k0()
    sign = -1 if i % 2 else 1
    assert obj.k0().components == (sign * m, sign * m * n)
    assert obj.shift(1).k0() == -obj.k0()


# --- Hom rule table -------------------------------------------------------------

def euler_by_table(a: ShiftedIndec, b: ShiftedIndec) -> int:
    """Independent oracle: alternating sum of the full Hom profile."""
    total = 0
    for q in range(-10, 11):
        total += (1 if q % 2 == 0 else -1) * hom_dim(a, b, q)
    return total


def test_hom_dim_examples():
    o0, o2 = ShiftedIndec(Line(0)), ShiftedIndec(Line(2))
    # Euler oracle first: chi((1,0),(1,2)) = 3 and the rule forces ext1 = 0
    assert euler_form(K0Class((1, 0)), K0Class((1, 2))) == 3
    assert hom_dim(o0, o2, 1) == 0
    assert hom_dim(o0, o2, 0) == 3
    assert hom_dim(o0, o0, 0) == 1  # exceptional: endomorphisms are scalars
    assert euler_form(K0Class((1, 2)), K0Class((1, 0))) == -1
    assert hom_dim(o2, o0, 0) == 0
    assert hom_dim(o2, o0, 1) == 1
    tx1 = ShiftedIndec(Torsion(X, 1))
    assert euler_form(K0Class((0, 1)), K0Class((1, 0))) == -1
    assert hom_dim(tx1, o0, 1) == 1
    assert hom_dim(ShiftedIndec(Torsion(X, 2)), ShiftedIndec(Torsion(Y, 3)), 0) == 0


def test_hom_profile_examples():
    assert hom_profile(2 * line(0), line(1)).as_dict() == {0: 4}
    assert hom_profile(ZERO, line(3)).is_zero
    # Hom^q(O[0], O[1]) = Ext^(q+1)(O, O): the identity sits in degree -1
    assert hom_profile(line(0), line(0, 1)).as_dict() == {-1: 1}
    assert hom_profile(line(0, 1), line(0)).as_dict() == {1: 1}


def test_euler_form_examples():
    assert euler_form(K0Class((1, 0)), K0Class((1, 2))) == 3
    assert euler_form(K0Class((1, 0)), K0Class((1, 0))) == 1
    assert euler_form(K0Class((0, 2)), K0Class((0, 3))) == 0


def test_euler_compatibility_on_window():
    shifts = (-2, 0, 1)
    indecs = [ShiftedIndec(base, i) for base in _all_indecs(4, 2) for i in shifts]
    for a, b in itertools.product(indecs, indecs):
        assert euler_by_table(a, b) == euler_form(a.k0(), b.k0()), (a, b)


def test_serre_duality_symmetry_for_line_bundles():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert ext_dim(Line(a), Line(b), 1) == ext_dim(Line(b), Line(a - 2), 0)


def test_profile_support_bounds():
    rng = random.Random(3)
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 5)):
            base = Line(rng.randint(-5, 5)) if rng.random() < 0.7 else \
                Torsion(X, rng.randint(1, 3))
            terms.append((ShiftedIndec(base, rng.randint(-3, 3)), rng.randint(1, 2)))
        x = normalize(terms)
        y = normalize([(t.shifted(rng.randint(-2, 2)), m) for t, m in terms])
        profile = hom_profile(x, y)
        if profile.is_zero:
            continue
        gaps = [tx.shift - ty.shift for tx, _ in x.summands() for ty, _ in y.summands()]
        degrees = [q for q, _ in profile.items()]
        assert min(degrees) >= min(gaps)
        assert max(degrees) <= max(gaps) + 1


def test_bilinearity_of_profile():
    a, b, c = line(2), torsion(X, 2), line(-1, 1)
    left = hom_profile(a + b, c)
    assert left.as_dict() == {
        q: hom_profile(a, c)[q] + hom_profile(b, c)[q]
        for q in set(dict(hom_profile(a, c).items()) | dict(hom_profile(b, c).items()))
    }


def test_homprofile_euler_helper():
    profile = HomProfile.from_dict({0: 3, 1: 1, -2: 2})
    assert profile.euler() == 3 - 1 + 2
    assert not profile.vanishes_at_and_below(0)
    assert HomProfile.from_dict({1: 4}).vanishes_at_and_below(0)


def test_render_and_direct_sum():
    obj = line(3) + 2 * line(-1, 2) + torsion(X, 2)
    assert obj.render() == "O(3) + T(x,2) + 2*O(-1)[2]"
    assert ZERO.render() == "0"


_NOT_INTS = (1.5, 2.0, True, Fraction(2))


@pytest.mark.parametrize("mult", _NOT_INTS, ids=repr)
def test_normalize_refuses_a_multiplicity_that_is_not_an_int(mult):
    on_p1 = ShiftedIndec(Line(1)), ShiftedIndec(Line(3))
    on_elliptic = ShiftedIndec(StableClass(1, 0, X)), ShiftedIndec(StableClass(1, 3, X))
    for build, (first, atom) in ((normalize, on_p1), (normalize_elliptic, on_elliptic),
                                 (DerivedObject.from_pairs, on_p1)):
        with pytest.raises(TypeError) as err:
            build([(first, 1), (atom, mult)])
        assert str(err.value) == f"multiplicity must be an integer, got {mult!r}"


@pytest.mark.parametrize("mult", _NOT_INTS, ids=repr)
def test_single_refuses_a_multiplicity_that_is_not_an_int(mult):
    for curve, atom in ((DerivedObject, ShiftedIndec(Line(3))),
                        (EllipticObject, ShiftedIndec(StableClass(1, 0, X)))):
        with pytest.raises(TypeError, match="multiplicity must be an integer"):
            curve.single(atom, mult)


@pytest.mark.parametrize("mult", _NOT_INTS, ids=repr)
def test_scaling_refuses_a_multiplicity_that_is_not_an_int(mult):
    for x in (line(3), ZERO, ELLIPTIC_ZERO):
        with pytest.raises(TypeError, match="multiplicity must be an integer"):
            mult * x


def test_int_multiplicities_and_the_raw_constructor_are_unchanged():
    atom = ShiftedIndec(Line(3))
    assert 2 * line(3) == DerivedObject.single(atom, 2) == normalize([(atom, 2)])
    assert 0 * line(3) == DerivedObject.single(atom, 0) == ZERO
    for build in (lambda: -1 * line(3), lambda: DerivedObject.single(atom, -1)):
        with pytest.raises(ValueError, match="multiplicities must be >= 0"):
            build()
    with pytest.raises(TypeError, match="multiplicity must be an integer, got 1.5"):
        DerivedObject(((atom, 1.5),))  # tests build tampered objects through `_raw`
    assert DerivedObject._raw(((atom, 1.5),)).render() == "1.5*O(3)"


# --- derived slots --------------------------------------------------------------

DERIVED = ("_hash", "_key", "_rd", "_text")
_ATOMS = (ShiftedIndec(Line(-3), 1), ShiftedIndec(Torsion(Point("y", 2), 2), -2),
          ShiftedIndec(StableClass(3, -2, Point("z", 1)), 3),
          ShiftedIndec(StableClass(0, 1, X)))


@pytest.mark.parametrize("atom", _ATOMS, ids=repr)
def test_derived_slots_survive_copy_and_pickle(atom):
    assert ShiftedIndec._fields == ShiftedIndec._compare == ("base", "shift")
    assert Value.__repr__(atom) == f"ShiftedIndec(base={atom.base!r}, shift={atom.shift!r})"
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        again = round_trip(atom)
        assert again is atom  # the table's atom, its derived slots with it


@pytest.mark.parametrize("build, field", [
    (lambda: Line(True), "n"), (lambda: Line(1.0), "n"), (lambda: Torsion(X, True), "d"),
    (lambda: StableClass(1.0, 0, X), "r"), (lambda: Point("x", False), "order_index"),
    (lambda: ShiftedIndec(Line(1), True), "shift")], ids=repr)
def test_an_equal_value_that_is_no_int_finds_no_interned_sheaf(build, field):
    """True == 1.0 == 1 hash alike, so each is refused before the table is read,
    though the sheaf (or point) of the int is already in it."""
    held = Line(1), Torsion(X, 1), StableClass(1, 0, X), Point("x", 0), ShiftedIndec(Line(1), 1)
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
        build()
    assert (Line(1), Torsion(X, 1), StableClass(1, 0, X), Point("x", 0),
            ShiftedIndec(Line(1), 1)) == held


def test_interned_values_fill_in_defaults_and_keep_the_field_hash():
    assert Point("x") is Point("x", 0) is X
    assert ShiftedIndec(Line(3)) is ShiftedIndec(Line(3), 0)
    assert hash(Line(3)) == hash((3,)) and hash(X) == hash(("x", 0))
    assert hash(Torsion(X, 2)) == hash((X, 2)) and hash(StableClass(1, 0, X)) == hash((1, 0, X))
    assert (Line(3) == Line(3)) and Line(3) != Line(4) and Line(3) != 3
    with pytest.raises(TypeError):
        Torsion(X)  # too few fields, as before


@pytest.mark.parametrize("name", DERIVED)
def test_derived_slots_are_refused_assignment_and_deletion(name):
    atom = _ATOMS[0]
    before = getattr(atom, name)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(atom, name, 0)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(atom, name)
    assert getattr(atom, name) == before


def test_a_bad_atom_raises_when_built():
    with pytest.raises(AttributeError, match="'int' object has no attribute"):
        ShiftedIndec(5, 1)
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        ShiftedIndec([Line(1)])
    with pytest.raises(TypeError):
        ShiftedIndec(Line(2), "1")  # a text shift
    with pytest.raises(TypeError):
        ShiftedIndec(Line("a"), 1)  # a sheaf of a bad field
    with pytest.raises(AttributeError, match="'str' object has no attribute"):
        ShiftedIndec(Torsion("x", 2))  # a label, not a Point


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, Fraction(2), "1"], ids=repr)
def test_an_atom_refuses_an_int_field_that_is_not_an_int(bad):
    for build in (lambda: Line(bad), lambda: Torsion(X, bad), lambda: ShiftedIndec(Line(1), bad),
                  lambda: StableClass(bad, 1, X), lambda: StableClass(1, bad, X)):
        with pytest.raises(TypeError, match="must be an integer"):
            build()


def test_atoms_of_non_int_fields_are_not_built():
    """Once built: `line(1, 0.5)` passed `verify_hn` and did not read back from its
    document, `line(1.5)` was `O(1.5)`, and the others rendered as they were given."""
    for build, text in ((lambda: line(1, 0.5), "0.5"), (lambda: line(1.5), "1.5"),
                        (lambda: torsion("x", 1.5), "1.5"), (lambda: stable(True, 0, "x"), "True")):
        with pytest.raises(TypeError, match=f"must be an integer, got .*{text}"):
            build()
    assert [x.render() for x in (line(-1, -2), torsion("x", 3, 1), stable(0, 1, "x", 2))] == \
        ["O(-1)[-2]", "T(x,3)[1]", "S(0,1,x)[2]"]
