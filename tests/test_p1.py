"""Tests for the P1 object model and its Hom rule table."""

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from tstab.errors import ObjectParseError
from tstab.p1 import (HomProfile, Line, Point, ShiftedIndec, Torsion, ZERO,
                      direct_sum, ext_dim, euler_form, hom_dim, hom_profile,
                      line, normalize, point_resolver, torsion)
from tstab.slopes import K0Class


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
    obj = direct_sum(line(3), 2 * line(-1, 2), torsion(X, 2))
    assert obj.render() == "O(3) + T(x,2) + 2*O(-1)[2]"
    assert ZERO.render() == "0"
