"""Differential tests: the fast HN engine, Hom rule and K0 sums against reference versions.

The references below are the straightforward implementations the engine
used to run: a merge that rebuilds every filtration term as a fresh
direct sum of all sources, the Hom rule for stable classes decided by
comparing Fraction slopes, and K0 summed one K0Class per summand.  They
are kept here only, as oracles, and every result must agree bit for bit.
"""

import math

from hypothesis import given, settings, strategies as st

from tstab.elliptic import (EllipticStandard, ShiftedClass, StableClass, hom_dim_stable,
                            normalize_elliptic)
from tstab.families import (INF, CoarseZ, ExceptionalP1, StandardP1, by_shift_partition,
                            coarsen, column_partition)
from tstab.p1 import Line, Point, ShiftedIndec, Torsion, normalize
from tstab.slopes import K0Class, Ordering
from tstab.stability import HNFiltration, Window, merge_towers, shuffle_merge


# --- oracles ------------------------------------------------------------------------

def oracle_merge_towers(family, sources):
    """Merge filtration towers by ascending slope, coalescing equal slopes.

    Each source is (quotients, terms) with strictly ascending slopes and
    len(terms) == len(quotients) + 1.  The merged term after each step
    is the direct sum of every source's current term, which realises
    the filtration of the direct sum of the source objects.
    """
    pointers = [0] * len(sources)

    def current_term():
        total = family.zero
        for (_, terms), p in zip(sources, pointers):
            total = total + terms[p]
        return total

    quotients: list[tuple[object, object]] = []
    merged_terms = [current_term()]
    while True:
        active = [(idx, sources[idx][0][pointers[idx]][0])
                  for idx in range(len(sources))
                  if pointers[idx] < len(sources[idx][0])]
        if not active:
            break
        best = active[0][1]
        for _, slope in active[1:]:
            if family.compare(slope, best) == Ordering.LESS:
                best = slope
        obj = family.zero
        for idx, slope in active:
            if family.compare(slope, best) == Ordering.EQUAL:
                obj = obj + sources[idx][0][pointers[idx]][1]
                pointers[idx] += 1
        quotients.append((best, obj))
        merged_terms.append(current_term())
    return HNFiltration(family, tuple(quotients), tuple(merged_terms))


def summand_towers(family, x):
    """The per-summand (quotients, terms) sources that `hn` merges."""
    sources = []
    for term, mult in x.summands():
        rewrite = family.term_filtration(term, mult)
        whole = family.single_term_object(term, mult)
        sources.append((rewrite.quotients, rewrite.term_tower(whole, family.zero)))
    return sources


def oracle_hn(family, x):
    if x.is_zero:
        return HNFiltration.empty(family)
    return oracle_merge_towers(family, summand_towers(family, x))


def fraction_hom_dim_stable(e, f, ext_degree):
    """dim Ext^i(e, f) with the slope order decided on Fraction slopes."""
    if ext_degree not in (0, 1):
        return 0
    if e == f:
        return 1
    chi = e.r * f.d - e.d * f.r
    mu_e, mu_f = e.mu(), f.mu()
    if mu_e < mu_f:
        return chi if ext_degree == 0 else 0
    if mu_f < mu_e:
        return 0 if ext_degree == 0 else -chi
    return 0


def per_summand_k0(x):
    total = K0Class((0, 0))
    for t, m in x.summands():
        total = total + m * t.k0()
    return total


# --- strategies ---------------------------------------------------------------------

LABELS = ("x", "y", "z")
ORDERS = (("x", "y", "z"), ("z", "x", "y"), ("y", "z", "x"), ("z", "y", "x"))


def _points(order):
    """Points as the family orders them, and unordered label points."""
    return st.sampled_from([Point(lbl, order.index(lbl)) for lbl in order]
                           + [Point(lbl) for lbl in LABELS])


def p1_objects(order=LABELS, max_size=12):
    bases = st.one_of(st.integers(-6, 6).map(Line),
                      st.builds(Torsion, _points(order), st.integers(1, 3)))
    summands = st.tuples(bases, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(summands, max_size=max_size).map(
        lambda triples: normalize([(ShiftedIndec(b, sh), m) for b, sh, m in triples]))


def _coprime(rd):
    r, d = rd
    return math.gcd(r, d) == 1 and (r > 0 or d == 1)


def stable_classes(order=LABELS, max_rank=4, max_degree=8):
    pairs = st.tuples(st.integers(0, max_rank),
                      st.integers(-max_degree, max_degree)).filter(_coprime)
    return st.builds(lambda rd, pt: StableClass(rd[0], rd[1], pt), pairs, _points(order))


def elliptic_objects(order=LABELS, max_size=12):
    summands = st.tuples(stable_classes(order), st.integers(-3, 3), st.integers(1, 3))
    return st.lists(summands, max_size=max_size).map(
        lambda triples: normalize_elliptic([(ShiftedClass(c, sh), m) for c, sh, m in triples]))


def _exceptional():
    return st.builds(ExceptionalP1, st.sampled_from((-1, 0, 1)), st.sampled_from((0, 1, INF)))


@st.composite
def family_and_object(draw):
    """A family of every kind, with an object of its object model."""
    kind = draw(st.sampled_from(("coarse", "std", "exc", "ell", "std-by-shift", "exc-columns")))
    order = draw(st.sampled_from(ORDERS))
    if kind == "ell":
        return EllipticStandard(order), draw(elliptic_objects(order))
    if kind == "coarse":
        family = CoarseZ()
    elif kind == "std":
        family = StandardP1(order)
    elif kind == "exc":
        family = draw(_exceptional())
    elif kind == "std-by-shift":
        family = coarsen(StandardP1(order), by_shift_partition())
    else:
        family = coarsen(ExceptionalP1(draw(st.sampled_from((-1, 0, 1))), INF),
                         column_partition())
    return family, draw(p1_objects(order))


def _assert_same(filt, ref):
    assert filt.quotients == ref.quotients
    assert filt.terms == ref.terms
    assert filt.to_json() == ref.to_json()


# --- merge ----------------------------------------------------------------------------

@settings(max_examples=300)
@given(family_and_object())
def test_hn_matches_oracle_merge(case):
    family, x = case
    _assert_same(family.hn(x), oracle_hn(family, x))


@settings(max_examples=150)
@given(family_and_object(), st.data())
def test_shuffle_merge_by_slope_matches_oracle(case, data):
    family, x = case
    if isinstance(family, EllipticStandard):
        y = data.draw(elliptic_objects(family.point_labels))
    else:
        y = data.draw(p1_objects(getattr(family, "point_labels", None) or LABELS))
    fa, fb = family.hn(x), family.hn(y)
    ref = oracle_merge_towers(family, [(fa.quotients, fa.terms), (fb.quotients, fb.terms)])
    _assert_same(shuffle_merge(fa, fb), ref)


@settings(max_examples=100)
@given(st.sampled_from(ORDERS), st.lists(p1_objects(max_size=3), min_size=1, max_size=4),
       st.data())
def test_merge_of_unsorted_towers_matches_oracle(order, objects, data):
    """Steps agree even on towers whose slopes are not ascending."""
    family = StandardP1(order)
    sources = []
    for obj in objects:
        quotients = data.draw(st.permutations(family.hn(obj).quotients))
        filt = HNFiltration.from_quotients(family, quotients)
        sources.append((filt.quotients, filt.terms))
    _assert_same(merge_towers(family, sources), oracle_merge_towers(family, sources))


# --- Hom rule -------------------------------------------------------------------------

def test_integer_hom_rule_matches_fraction_rule_on_window_classes():
    window = Window(points=tuple(Point(lbl, i) for i, lbl in enumerate(LABELS)))
    classes = EllipticStandard(LABELS).window_classes(window, max_rank=3)
    assert any(c.is_skyscraper for c in classes)
    for e in classes:
        for f in classes:
            for i in (-1, 0, 1, 2):
                assert hom_dim_stable(e, f, i) == fraction_hom_dim_stable(e, f, i), (e, f, i)


@given(stable_classes(max_rank=40, max_degree=100), stable_classes(max_rank=40, max_degree=100),
       st.integers(-1, 2))
def test_integer_hom_rule_matches_fraction_rule(e, f, i):
    assert hom_dim_stable(e, f, i) == fraction_hom_dim_stable(e, f, i)


# --- K0 -------------------------------------------------------------------------------

@given(p1_objects())
def test_k0_matches_per_summand_sum_p1(x):
    assert x.k0() == per_summand_k0(x)


@given(elliptic_objects())
def test_k0_matches_per_summand_sum_elliptic(x):
    assert x.k0() == per_summand_k0(x)
