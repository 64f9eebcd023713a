"""Tests for the exact slope machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tstab.errors import ArityMismatchError, NotPositiveError, ZeroClassError
from tstab import slopes
from tstab.slopes import (ExtendedRational, K0Class, Ordering, PLUS_INFINITY, PositiveSystem,
                          RANK_DEGREE, _nonzero_cascade_violation, check_positive,
                          compare_slopes, gamma_slope, k0, mu_bar, seesaw_check)


def test_check_positive_accepts_good_samples():
    samples = [k0(1, 0), k0(0, 3), k0(2, -5)]
    assert check_positive(RANK_DEGREE, samples) == []


def test_check_positive_flags_zero_rank_negative_degree():
    violations = check_positive(RANK_DEGREE, [k0(0, -1)])
    assert len(violations) == 1
    assert violations[0].cls == k0(0, -1)


def test_check_positive_base_flags_zero_vector():
    assert check_positive(RANK_DEGREE, [k0(0, 0)]) != []
    non_base = PositiveSystem(("rk", "deg"), is_base=False)
    assert check_positive(non_base, [k0(0, 0)]) == []


def test_check_positive_negative_rank():
    assert len(check_positive(RANK_DEGREE, [k0(-1, 5)])) == 1


def test_check_positive_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        check_positive(RANK_DEGREE, [K0Class((1, 2, 3))])


@pytest.mark.parametrize("components", [(1.7, 2), (True, 2), (1, 2.0), ("1", 2)])
def test_k0_class_refuses_components_that_are_not_ints(components):
    """Neither truncated (1.7 -> 1) nor coerced (True -> 1)."""
    with pytest.raises(TypeError, match="K0 component must be an integer"):
        K0Class(components)


def test_k0_class_takes_any_iterable_of_ints():
    assert K0Class([1, 2]) == K0Class(iter((1, 2))) == k0(1, 2)
    assert K0Class([1, 2]).components == (1, 2)


def test_gamma_slope_positive_rank():
    assert gamma_slope(RANK_DEGREE, k0(1, 2)) == (ExtendedRational(2, 1),)
    assert gamma_slope(RANK_DEGREE, k0(4, -6)) == (ExtendedRational(-3, 2),)


def test_gamma_slope_torsion_class_is_maximal():
    assert gamma_slope(RANK_DEGREE, k0(0, 3)) == (PLUS_INFINITY,)


def test_gamma_slope_zero_class_rejected():
    with pytest.raises(ZeroClassError):
        gamma_slope(RANK_DEGREE, k0(0, 0))


def test_gamma_slope_rejects_negative_rank():
    with pytest.raises(NotPositiveError):
        gamma_slope(RANK_DEGREE, k0(-1, 3))


def test_gamma_leading_ones_match_leading_zeros():
    """Each leading zero gives +inf (once the component `One`), each later value
    its quotient by the first nonzero one."""
    system = PositiveSystem(("x0", "x1", "x2"))
    assert gamma_slope(system, K0Class((0, 2, -7))) == (PLUS_INFINITY, ExtendedRational(-7, 2))
    assert gamma_slope(system, K0Class((0, 0, 5))) == (PLUS_INFINITY, PLUS_INFINITY)
    assert gamma_slope(system, K0Class((3, 0, 6))) == (ExtendedRational(0, 1),
                                                       ExtendedRational(2, 1))


def test_compare_slopes_follows_rational_order():
    a = (ExtendedRational(2, 1),)
    b = (ExtendedRational(1, 1),)
    assert compare_slopes(a, b) == Ordering.GREATER
    assert compare_slopes((PLUS_INFINITY, ExtendedRational(-7, 2)),
                          (PLUS_INFINITY, ExtendedRational(-3, 1))) == Ordering.LESS


def test_compare_slopes_infinity_is_maximal():
    for q in (-100, 0, 999999):
        assert compare_slopes((PLUS_INFINITY,), (ExtendedRational(q, 1),)) == Ordering.GREATER


def test_compare_slopes_equal_and_mismatch():
    a = (ExtendedRational(1, 3),)
    assert compare_slopes(a, a) == Ordering.EQUAL
    with pytest.raises(ArityMismatchError):
        compare_slopes(a, (PLUS_INFINITY, PLUS_INFINITY))


def test_mu_bar_values():
    assert mu_bar(k0(1, 2)) == ExtendedRational.finite(2)
    assert mu_bar(k0(0, 5)) == PLUS_INFINITY
    assert mu_bar(k0(2, -3)) == ExtendedRational.finite(Fraction(-3, 2))
    with pytest.raises(ZeroClassError):
        mu_bar(k0(0, 0))
    for rank, degree in ((0, -5), (-1, 3)):
        with pytest.raises(NotPositiveError):
            mu_bar(k0(rank, degree))


def test_extended_rational_order():
    assert ExtendedRational.finite(5) < PLUS_INFINITY
    assert not PLUS_INFINITY < PLUS_INFINITY
    assert ExtendedRational.finite(Fraction(1, 2)) < ExtendedRational.finite(1)


def test_extended_rational_fields_and_text():
    assert (PLUS_INFINITY.d, PLUS_INFINITY.r) == (1, 0) and PLUS_INFINITY.is_infinite
    assert ExtendedRational.finite(Fraction(-6, 4)) == ExtendedRational(-3, 2)
    third = ExtendedRational.finite(Fraction(2, 6))
    assert (third.d, third.r) == (1, 3)
    assert (ExtendedRational.finite(7).d, ExtendedRational.finite(7).r) == (7, 1)
    assert [repr(q) for q in (PLUS_INFINITY, ExtendedRational(-4, 1), ExtendedRational(-3, 2))] \
        == ["+inf", "-4", "-3/2"]
    assert not ExtendedRational(0, 1).is_infinite
    assert ExtendedRational(1, 2) >= ExtendedRational(1, 2) > ExtendedRational(-3, 7)


def test_extended_rational_reduces_to_lowest_terms():
    for (d, r), fields in (((6, -4), (-3, 2)), ((-6, -4), (3, 2)), ((0, -5), (0, 1)),
                           ((5, 0), (1, 0)), ((-5, 0), (1, 0))):
        q = ExtendedRational.reduced(d, r)
        assert (q.d, q.r) == fields and q == ExtendedRational(*fields)
    with pytest.raises(ZeroClassError, match="the zero class has no slope"):
        ExtendedRational.reduced(0, 0)


@pytest.mark.parametrize("q", [0.1, True, "1/2", None, 0.5])
def test_extended_rational_takes_only_an_int_or_a_fraction(q):
    """A float, a bool or a string is not coerced into an exact slope."""
    with pytest.raises(TypeError, match="a slope must be an int or a Fraction"):
        ExtendedRational.finite(q)


def test_extended_rational_does_not_compare_with_other_types():
    half = ExtendedRational(1, 2)
    for other in (Fraction(1, 2), 0.5, 0, "1/2"):
        assert half != other and other != half
        for compare in (lambda: half < other, lambda: half <= other,
                        lambda: half > other, lambda: half >= other):
            with pytest.raises(TypeError):
                compare()


def test_classes_of_another_arity_are_refused():
    three = K0Class((1, 2, 3))
    for call in (lambda: k0(1, 2) + three, lambda: gamma_slope(RANK_DEGREE, three),
                 lambda: mu_bar(three)):
        with pytest.raises(ArityMismatchError):
            call()


def test_k0_class_subtraction():
    assert k0(3, 1) - k0(1, 4) == k0(2, -3)
    assert K0Class((0, 2, -7)) - K0Class((0, 2, -7)) == K0Class((0, 0, 0))


def test_the_cascade_gives_no_reason_for_the_zero_vector():
    """Callers handle the zero vector first; the cascade finds no leading entry in it."""
    assert _nonzero_cascade_violation(K0Class((0, 0, 0))) is None
    assert _nonzero_cascade_violation(K0Class((0, -1, 2))) == \
        "x_1 = -1 must be >= 0 once x_0..x_0 vanish"


def test_slope_values_and_violations_print_their_parts():
    value = gamma_slope(PositiveSystem(("x0", "x1", "x2")), K0Class((0, 2, -7)))
    assert repr(value) == "(+inf, -7/2)"
    violation, = check_positive(RANK_DEGREE, [k0(0, -1)])
    assert str(violation) == "K0(0, -1): x_1 = -1 must be > 0 once x_0..x_0 vanish"


nonzero_classes = st.tuples(st.integers(0, 30), st.integers(-30, 30)).filter(
    lambda rd: rd[0] > 0 or rd[1] > 0).map(lambda rd: k0(*rd))


def _slope_or_error(slope, cls):
    try:
        return slope(cls)
    except (NotPositiveError, ZeroClassError) as exc:
        return type(exc), str(exc)


@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(lambda rd: k0(*rd)))
def test_gamma_agrees_with_mu_bar(a):
    """On the rank/degree system gamma_slope is (mu_bar,), and mu_bar refuses the
    zero class and every class that is not positive with gamma_slope's error."""
    gamma = _slope_or_error(lambda cls: gamma_slope(RANK_DEGREE, cls), a)
    mu = _slope_or_error(mu_bar, a)
    assert gamma == (mu if isinstance(mu, tuple) else (mu,))


def test_gamma_agrees_with_mu_bar_bulk():
    import random
    rng = random.Random(123)

    def draw():
        while True:
            rk, deg = rng.randint(0, 20), rng.randint(-20, 20)
            if rk > 0 or deg > 0:
                return k0(rk, deg)

    for _ in range(1000):
        a, b = draw(), draw()
        assert compare_slopes(gamma_slope(RANK_DEGREE, a), gamma_slope(RANK_DEGREE, b)) \
            == Ordering.of(mu_bar(a), mu_bar(b))


@given(nonzero_classes, nonzero_classes)
def test_seesaw_never_mixed(a, c):
    result = seesaw_check(RANK_DEGREE, a, c)
    assert result.ok
    assert result.alternative in ("increasing", "decreasing", "equal")


def test_seesaw_reports_mixed_for_a_slope_that_is_not_additive(monkeypatch):
    """A slope that no additive system gives, rank mod 3, breaks the seesaw:
    gamma(a) < gamma(a + c) while gamma(a) = gamma(c)."""
    monkeypatch.setattr(slopes, "gamma_slope",
                        lambda system, cls: (ExtendedRational(cls.rank % 3, 1),))
    result = seesaw_check(RANK_DEGREE, k0(1, 0), k0(1, 0))
    assert (result.ab, result.ac, result.bc) == (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)
    assert result.alternative == "mixed" and not result.ok


def test_seesaw_examples():
    assert seesaw_check(RANK_DEGREE, k0(1, 0), k0(1, 2)).alternative == "increasing"
    assert seesaw_check(RANK_DEGREE, k0(1, 1), k0(0, 2)).alternative == "increasing"
    assert seesaw_check(RANK_DEGREE, k0(1, 1), k0(1, 1)).alternative == "equal"
    assert seesaw_check(RANK_DEGREE, k0(1, 2), k0(1, 0)).alternative == "decreasing"


def _random_positive_class(rng, arity):
    s = rng.randrange(arity)
    comps = [0] * s + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(arity - s - 1)]
    return K0Class(tuple(comps))


def test_gamma_length_and_leading_ones_general_arity():
    import random
    rng = random.Random(7)
    for arity in (2, 3, 4):
        system = PositiveSystem(tuple(f"x{i}" for i in range(arity)))
        for _ in range(200):
            cls = _random_positive_class(rng, arity)
            value = gamma_slope(system, cls)
            assert len(value) == arity - 1
            zeros = next(i for i, c in enumerate(cls.components) if c != 0)
            assert all(c == PLUS_INFINITY for c in value[:zeros])
            assert not any(c.is_infinite for c in value[zeros:])


def test_seesaw_general_arity_never_mixed():
    import random
    rng = random.Random(11)
    system = PositiveSystem(("x0", "x1", "x2"))
    for _ in range(300):
        a = _random_positive_class(rng, 3)
        c = _random_positive_class(rng, 3)
        assert seesaw_check(system, a, c).ok
