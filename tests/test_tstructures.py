"""Tests for cuts, hearts, torsion pairs, the catalog and the classifier."""

import itertools
import random

import pytest

from tstab.elliptic import EllipticStandard
from tstab.errors import (BadParamsError, HomViolationError, InvalidCutError,
                          NotSlopeDescribableError, UnboundedError, UnsupportedFamilyError)
from tstab.families import INF, CoarseZ, ExceptionalP1, StandardP1
from tstab.p1 import Line, Point, Torsion, ZERO, hom_profile, line, point_resolver, torsion
from tstab.slopes import Ordering
from tstab.stability import CheckItem, Window
from tstab.tstructures import (CoarseCut, EllipticCut, ExceptionalCut, HeartDescription,
                               StandardCut, TorsionPair, apply_twist_shift, catalog,
                               catalog_entries, classify_bounded_cut, diagram,
                               heart_contains, heart_slopes, is_bounded,
                               torsion_pair_cut, truncate, validate_cut)

STD3 = StandardP1(("x", "y", "z"))
STD3_POINTS = tuple(map(point_resolver(STD3.point_labels), STD3.point_labels))
WINDOW = Window(max_degree=5, max_shift=2, samples=20)


# --- cut validity ---------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: StandardCut(0, 2.5), lambda: StandardCut(0, True), lambda: StandardCut(0.5, 2),
    lambda: StandardCut(INF), lambda: StandardCut(False, INF, {"x"}),
    lambda: ExceptionalCut(1.5, 0), lambda: ExceptionalCut(float("nan"), 0),
    lambda: ExceptionalCut(0, True), lambda: CoarseCut(0.5), lambda: CoarseCut(-INF),
    lambda: EllipticCut(0.5, 0), lambda: EllipticCut(True, 0), lambda: TorsionPair(1.5),
    lambda: TorsionPair(True),
], ids=["std-K-2.5", "std-K-True", "std-m-0.5", "std-m-inf", "std-m-False", "exc-a-1.5",
        "exc-a-nan", "exc-b-True", "coarse-0.5", "coarse-inf", "ell-m-0.5", "ell-m-True",
        "pair-1.5", "pair-True"])
def test_a_cut_refuses_a_threshold_that_is_not_an_int_or_inf(build):
    """Before: `StandardCut(0, 2.5)` and `StandardCut(0, True)` were built and
    checked, `ExceptionalCut(1.5, 0)` failed with "b must be 0 or 0, got 0", and
    the nan and 0.5 thresholds raised inside `validate_cut`."""
    with pytest.raises(TypeError, match="must be an integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: validate_cut(StandardCut(0, INF, {1, None}), StandardP1(("x", "y"))),
    lambda: StandardCut(0, INF, {1}).spec(), lambda: StandardCut(0, 0, {"x", 2}),
    lambda: EllipticCut(0, 0, {"x", None}), lambda: TorsionPair(0, {b"x"}),
], ids=["std-validate", "std-spec", "std-finite-K", "ell", "pair"])
def test_a_cut_refuses_a_point_label_that_is_not_a_str(build):
    """Before: the first raised a TypeError in `_point_set_reason`'s `sorted`,
    the second one in `spec`'s `join`, and both cuts were built."""
    with pytest.raises(TypeError, match="must hold point labels"):
        build()


def test_validate_cut_reports_on_every_cut_that_was_built():
    bounds = (-INF, -2, 0, 1, INF)
    families = (STD3, StandardP1(), CoarseZ(), *(ExceptionalP1(0, p) for p in (0, 1, INF)))
    cuts = [*(StandardCut(m, K, P) for m in (-1, 0, 2) for K in bounds
              for P in (None, {"x"}, {"y", "z"}, ())),
            *(ExceptionalCut(a, b) for a in bounds for b in bounds),
            *(CoarseCut(m) for m in (-1, 0, 3))]
    for cut, family in itertools.product(cuts, families):
        report = validate_cut(cut, family, radius=2)  # raises for no built cut
        assert report.checks[0].ok == (cut.validity_reason(family) is None), (cut, family)

def test_exceptional_cut_validity_analytic():
    # realizing the bounded entries: b in {a-p-2, a-p-1}
    for p in (0, 1, 2):
        fam = ExceptionalP1(0, p)
        assert ExceptionalCut(0, -p - 2).validity_reason(fam) is None
        assert ExceptionalCut(0, -p - 1).validity_reason(fam) is None
        assert ExceptionalCut(0, -p).validity_reason(fam) is not None
        assert ExceptionalCut(0, -p - 3).validity_reason(fam) is not None
    # the E(p) cut is valid under the interleaving orders p and p+1
    for p in (0, 1, 3):
        cut = ExceptionalCut(p, -2)
        assert cut.validity_reason(ExceptionalP1(0, p)) is None
        assert cut.validity_reason(ExceptionalP1(0, p + 1)) is None
        assert validate_cut(cut, ExceptionalP1(0, p + 1)).ok


def test_half_infinite_exceptional_cuts():
    g_cut = ExceptionalCut(0, -INF)
    for p in (0, 1, 2):
        assert g_cut.validity_reason(ExceptionalP1(0, p)) is not None
        assert not validate_cut(g_cut, ExceptionalP1(0, p)).ok
    assert g_cut.validity_reason(ExceptionalP1(0, INF)) is None
    assert validate_cut(g_cut, ExceptionalP1(0, INF)).ok
    assert ExceptionalCut(INF, 0).validity_reason(ExceptionalP1(0, INF)) is None
    assert ExceptionalCut(INF, -INF).validity_reason(ExceptionalP1(0, INF)) is None
    assert ExceptionalCut(-INF, 4).validity_reason(ExceptionalP1(0, 1)) is not None


def test_standard_cut_validity_and_window_check():
    assert validate_cut(StandardCut(0, 0, None), STD3).ok
    assert validate_cut(StandardCut(0, INF, frozenset({"z"})), STD3).ok
    assert validate_cut(StandardCut(0, INF, frozenset({"y", "z"})), STD3).ok
    # {y} is not up-closed when z sits above y
    assert not validate_cut(StandardCut(0, INF, frozenset({"y"})), STD3).ok
    assert not validate_cut(StandardCut(0, INF, frozenset({"q"})), STD3).ok
    # a proper point set needs a declared universe
    assert not validate_cut(StandardCut(0, INF, frozenset({"x"})), StandardP1()).ok


def test_cut_family_mismatch():
    assert not validate_cut(StandardCut(0, 0, None), ExceptionalP1(0, 0)).ok
    with pytest.raises(InvalidCutError):
        truncate(line(0), ExceptionalCut(0, -2), STD3)


def test_a_coarse_cut_needs_the_coarse_family():
    report = validate_cut(CoarseCut(0), StandardP1())
    assert not report.ok
    assert report.checks[0] == CheckItem("cut_constraints", False,
                                         "a coarse cut needs the coarse family")


def test_standard_cut_canonicalisation():
    assert StandardCut(0, 3, frozenset({"x"})).P is None
    empty = StandardCut(0, INF, frozenset())
    assert (empty.m, empty.K, empty.P) == (1, -INF, None)


def _window_up_closed(cut, family, slopes) -> bool:
    """Brute-force up-closure of the cut's up-set on a slope window."""
    members = [s for s in slopes if cut.in_plus(s)]
    return all(cut.in_plus(t) for s in members for t in slopes
               if family.compare(t, s) == Ordering.GREATER)


def test_exceptional_validity_matches_brute_force_up_closure():
    # the brute-force window must overshoot the thresholds by p+2, or the
    # up-closure witnesses of near-boundary cuts fall outside it
    from tstab.stability import ExceptionalSlope
    slopes = [ExceptionalSlope(i, c) for i in range(-12, 13) for c in (0, 1)]
    for p in (0, 1, 2, 3):
        fam = ExceptionalP1(0, p)
        for a in list(range(-5, 6)) + [INF, -INF]:
            for b in list(range(-5, 6)) + [INF, -INF]:
                cut = ExceptionalCut(a, b)
                valid = cut.validity_reason(fam) is None
                assert valid == _window_up_closed(cut, fam, slopes), (a, b, p)


def test_standard_validity_matches_brute_force_up_closure():
    from tstab.stability import StandardSlope
    slopes = [StandardSlope(i, n) for i in range(-2, 4) for n in range(-6, 7)]
    slopes += [StandardSlope(i, pt) for i in range(-2, 4) for pt in STD3_POINTS]
    subsets = [frozenset(s) for r in range(4)
               for s in itertools.combinations(STD3.point_labels, r)]
    for m in (-1, 0, 1):
        for K in [-2, 0, 2, INF, -INF]:
            for P in subsets + [None]:
                cut = StandardCut(m, K, P)
                valid = cut.validity_reason(STD3) is None
                assert valid == _window_up_closed(cut, STD3, slopes), (m, K, P)


# --- truncation -----------------------------------------------------------------

def test_truncate_splits_by_shift_at_constant_threshold():
    x = line(1) + line(2, -1)
    le0, ge1 = truncate(x, StandardCut(0, -INF, None), StandardP1())
    assert (le0, ge1) == (line(1), line(2, -1))


def test_truncate_exceptional_whole_object_above():
    le0, ge1 = truncate(line(3), ExceptionalCut(1, 0), ExceptionalP1(0, 0))
    assert (le0, ge1) == (line(3), ZERO)


def test_truncate_semistable_below_cut():
    x = 2 * line(4, -3)
    le0, ge1 = truncate(x, StandardCut(0, -INF, None), StandardP1())
    assert (le0, ge1) == (ZERO, x)


def test_truncate_mixed_summand_uses_mid_term():
    # O(3) over (O, O(1)) splits across the cut between its two quotients
    fam = ExceptionalP1(0, 0)
    cut = ExceptionalCut(0, -1)  # (1,0) in the up-set iff 1 >= 0; (0,1) iff 0 >= -1
    le0, ge1 = truncate(line(3), cut, fam)
    assert (le0, ge1) == (line(3), ZERO)
    cut = ExceptionalCut(2, 0)  # now (1,0) falls below, (0,1) stays above
    le0, ge1 = truncate(line(3), cut, fam)
    assert le0 == 3 * line(1)
    assert ge1 == 2 * line(0, 1)
    assert le0.k0() + ge1.k0() == line(3).k0()
    assert hom_profile(le0, ge1).vanishes_at_and_below(0)


def test_truncate_matches_hn_tower_oracle():
    # independent route: the lower truncation is the filtration term at the
    # boundary, i.e. the first term whose remaining quotients all sit in the
    # up-set (everything below has been quotiented away)
    rng = random.Random(60)
    std = STD3
    window = Window(max_degree=5, max_shift=2, points=STD3_POINTS)
    cases = [(StandardCut(0, 0, None), std),
             (StandardCut(-1, INF, frozenset({"z"})), std),
             (ExceptionalCut(1, -1), ExceptionalP1(0, 0)),
             (ExceptionalCut(0, -3), ExceptionalP1(0, 1)),
             (CoarseCut(0), CoarseZ())]
    for cut, fam in cases:
        for _ in range(50):
            x = fam.random_object(rng, window)
            filt = fam.hn(x)
            boundary = len(filt.quotients)
            for idx, (slope, _) in enumerate(filt.quotients):
                if cut.in_plus(slope):
                    boundary = idx
                    break
            le0, _ = truncate(x, cut, fam)
            assert le0 == filt.terms[boundary]


def test_truncation_contract_random():
    rng = random.Random(51)
    std = STD3
    window = Window(max_degree=5, max_shift=2, points=STD3_POINTS)
    cases = []
    for m in (-1, 0, 1):
        cases.append((StandardCut(m, 0, None), std))
        cases.append((StandardCut(m, INF, frozenset({"z"})), std))
        cases.append((StandardCut(m, -INF, None), std))
    for p in (0, 1):
        fam = ExceptionalP1(0, p)
        cases.append((ExceptionalCut(1, -p - 1), fam))
        cases.append((ExceptionalCut(0, -p - 2), fam))
    cases.append((CoarseCut(0), CoarseZ()))
    for cut, fam in cases:
        for _ in range(30):
            x = fam.random_object(rng, window)
            le0, ge1 = truncate(x, cut, fam)
            assert fam.k0(le0) + fam.k0(ge1) == fam.k0(x)
            assert fam.hom_profile(le0, ge1).vanishes_at_and_below(0)
            assert truncate(le0, cut, fam) == (le0, ZERO)
            assert truncate(ge1, cut, fam) == (ZERO, ge1)
            for s in fam.hn(le0).slopes:
                assert cut.in_plus(s)
            for s in fam.hn(ge1).slopes:
                assert not cut.in_plus(s)


# --- hearts ---------------------------------------------------------------------

def test_heart_generators_examples():
    e1 = catalog("E", p=1)
    assert e1.heart.generators() == ["O[1]", "O(1)[-2]"]
    a = catalog("A")
    assert a.heart.generators() == ["O(n)[0] (n in Z)", "O_x[0] (x in P1)"]
    i_entry = catalog("I")
    assert i_entry.heart.generators() == []
    assert heart_slopes(CoarseCut(2), CoarseZ()).generators() == ["Coh[2]"]
    # a point set covering the declared universe is P = all
    xyz = StandardP1(("x", "y", "z"))
    assert heart_slopes(StandardCut(0, INF, {"x", "y", "z"}), xyz).generators() == \
        heart_slopes(StandardCut(0, INF), xyz).generators()
    # only exceptional hearts have finitely many generator objects
    heart = heart_slopes(ExceptionalCut(1, -1), ExceptionalP1(0, 0))
    assert heart.generator_objects() == [line(0, 1), line(1, -1)]
    for cut, family in ((StandardCut(0, 0), StandardP1()), (CoarseCut(0), CoarseZ())):
        with pytest.raises(NotSlopeDescribableError, match="only exceptional hearts"):
            heart_slopes(cut, family).generator_objects()


def test_heart_contains_examples():
    b = catalog("B")
    assert heart_contains(line(5), b.cut, b.family)
    assert heart_contains(line(-1, 1), b.cut, b.family)
    assert not heart_contains(line(-1), b.cut, b.family)
    c = catalog("C")
    assert heart_contains(torsion(Point("x"), 2), c.cut, c.family)
    assert not heart_contains(line(0), c.cut, c.family)
    assert heart_contains(ZERO, c.cut, c.family)


def test_heart_membership_matches_truncation():
    rng = random.Random(8)
    cases = [(catalog("B").cut, catalog("B").family),
             (ExceptionalCut(1, -2), ExceptionalP1(0, 1))]
    for cut, fam in cases:
        heart = heart_slopes(cut, fam)
        for _ in range(60):
            x = fam.random_object(rng, WINDOW)
            member = heart_contains(x, cut, fam)
            truncates_whole = truncate(x, cut, fam) == (x, ZERO)
            tau_cond = all(not cut.in_plus(fam.tau(s, -1)) for s in fam.hn(x).slopes)
            assert member == (truncates_whole and tau_cond)
            assert member == all(heart.contains_slope(s) for s in fam.hn(x).slopes)


def test_is_bounded_flags():
    for name in ("A", "B", "C"):
        entry = catalog(name)
        assert is_bounded(entry.cut, entry.family)
    entry = catalog("D", P={"z"})
    assert is_bounded(entry.cut, entry.family)
    for p in (0, 1, 2):
        for name in ("E", "F"):
            entry = catalog(name, p=p)
            assert is_bounded(entry.cut, entry.family)
    for name in ("G", "H", "I"):
        entry = catalog(name)
        assert not is_bounded(entry.cut, entry.family)
    assert is_bounded(CoarseCut(7), CoarseZ())


# --- torsion pairs -----------------------------------------------------------------

def test_torsion_pair_cut_examples():
    assert torsion_pair_cut(TorsionPair(0, None)) == StandardCut(0, 0, None)
    assert torsion_pair_cut(TorsionPair(INF, None)) == StandardCut(0, INF, None)
    cut = torsion_pair_cut(TorsionPair(INF, frozenset({"z"})), STD3)
    assert cut == StandardCut(0, INF, frozenset({"z"}))


def test_torsion_pair_hom_violation():
    # lines in the first part together with a line in the second of higher degree
    with pytest.raises(HomViolationError):
        torsion_pair_cut(TorsionPair(0, frozenset()))


def test_torsion_pair_not_describable_when_points_misordered():
    with pytest.raises(NotSlopeDescribableError):
        torsion_pair_cut(TorsionPair(INF, frozenset({"x"})), STD3)


def test_torsion_pair_from_predicates():
    pair = TorsionPair.from_predicates(
        lambda base: base.n >= 2 if isinstance(base, Line) else True,
        degrees=range(-5, 6), points=(Point("x"), Point("y")))
    assert pair == TorsionPair(2, None)
    every_line = TorsionPair.from_predicates(lambda base: isinstance(base, Line),
                                             degrees=range(-3, 4), points=(Point("x"),))
    assert every_line == TorsionPair(-INF, frozenset())
    with pytest.raises(NotSlopeDescribableError):
        TorsionPair.from_predicates(
            lambda base: isinstance(base, Line) and base.n == 0,
            degrees=range(-3, 4), points=(Point("x"),))
    with pytest.raises(NotSlopeDescribableError):
        TorsionPair.from_predicates(
            lambda base: isinstance(base, Torsion) and base.d > 1,
            degrees=range(-3, 4), points=(Point("x"),))


# --- catalog -------------------------------------------------------------------------

def test_catalog_heart_lists_match_golden_lists():
    entries = {e.name: e for e in catalog_entries(points=("x", "y", "z"), p=0)}
    assert entries["A"].heart.generators() == ["O(n)[0] (n in Z)", "O_x[0] (x in P1)"]
    assert entries["B"].heart.generators() == [
        "O(n)[0] (n >= 0)", "O_x[0] (x in P1)", "O(n)[1] (n < 0)"]
    assert entries["C"].heart.generators() == ["O_x[0] (x in P1)", "O(n)[1] (n in Z)"]
    assert entries["D"].heart.generators() == [
        "O_x[0] (x in {z})", "O(n)[1] (n in Z)", "O_x[1] (x not in {z})"]
    assert entries["E"].heart.generators() == ["O[0]", "O(1)[-2]"]
    assert entries["F"].heart.generators() == ["O[0]", "O(1)[-1]"]
    assert entries["G"].heart.generators() == ["O[0]"]
    assert entries["H"].heart.generators() == ["O(1)[0]"]
    assert entries["I"].heart.generators() == []


def test_catalog_param_validation():
    with pytest.raises(BadParamsError):
        catalog("D")
    with pytest.raises(BadParamsError):
        catalog("D", P=set())
    with pytest.raises(BadParamsError):
        catalog("D", P={"x", "y", "z"})
    with pytest.raises(BadParamsError):
        catalog("D", P={"x"})  # not up-closed under x < y < z
    with pytest.raises(BadParamsError):
        catalog("E")
    with pytest.raises(BadParamsError):
        catalog("F", p=-1)
    for p in (True, False, 1.0):  # True was a TypeError from ExceptionalP1
        for name in ("E", "F"):
            with pytest.raises(BadParamsError, match="nonnegative integer parameter p"):
                catalog(name, p=p)
    with pytest.raises(BadParamsError):
        catalog("Z")


def test_catalog_quiver_heart_hom_dimensions():
    f0 = catalog("F", p=0)
    assert f0.quiver_heart
    g1, g2 = f0.heart.generator_objects()
    assert (g1, g2) == (line(0, 0), line(1, -1))
    assert hom_profile(g1, g2)[0] == 0
    assert hom_profile(g2, g1)[0] == 0
    assert hom_profile(g1, g2.shift(1))[0] == 2  # the two arrows of the quiver
    assert not catalog("F", p=1).quiver_heart
    assert not catalog("E", p=0).quiver_heart


def test_catalog_torsion_pairs_produce_their_cuts():
    for name in ("B", "C"):
        entry = catalog(name)
        assert torsion_pair_cut(entry.torsion_pair, entry.family) == entry.cut
    entry = catalog("D", P={"z"})
    assert torsion_pair_cut(entry.torsion_pair, entry.family) == entry.cut


def test_catalog_json_schema_example():
    data = catalog("E", p=2).to_json()
    assert data == {"name": "E", "params": {"p": 2}, "twist": 0, "shift": 0,
                    "heart": ["O[2]", "O(1)[-2]"], "bounded": True}


# --- classification --------------------------------------------------------------------

def test_classify_examples():
    cl = classify_bounded_cut(StandardCut(0, 0, None), STD3)
    assert (cl.name, cl.twist, cl.shift) == ("B", 0, 0)
    cl = classify_bounded_cut(StandardCut(3, -INF, None), STD3)
    assert (cl.name, cl.twist, cl.shift) == ("A", 0, 3)
    cl = classify_bounded_cut(ExceptionalCut(2, -2), ExceptionalP1(0, 2))
    assert (cl.name, cl.params_dict(), cl.shift) == ("E", {"p": 2}, 0)


def test_classification_to_json():
    cl = classify_bounded_cut(StandardCut(2, INF, {"z", "y"}), STD3)
    assert cl.to_json() == {"name": "D", "params": {"P": ["y", "z"]}, "twist": 0, "shift": 2}
    cl = classify_bounded_cut(ExceptionalCut(3, 0), ExceptionalP1(1, 1))
    assert cl.to_json() == {"name": "E", "params": {"p": 1}, "twist": 1, "shift": 2}


_ELL_CUT, _ELL = EllipticCut(0, 0), EllipticStandard()


@pytest.mark.parametrize("operation", [
    lambda: classify_bounded_cut(_ELL_CUT, _ELL),
    lambda: apply_twist_shift(_ELL_CUT, 1, 1),
    lambda: diagram(_ELL_CUT, _ELL),
    lambda: HeartDescription(_ELL, _ELL_CUT).generators(),
    lambda: HeartDescription(_ELL, _ELL_CUT).generator_objects(),
], ids=["classify_bounded_cut", "apply_twist_shift", "diagram", "generators",
        "generator_objects"])
def test_p1_only_functions_refuse_an_elliptic_cut(operation):
    assert validate_cut(_ELL_CUT, _ELL).ok and is_bounded(_ELL_CUT, _ELL)
    with pytest.raises(UnsupportedFamilyError, match="P1 cuts only"):
        operation()


def test_classify_rejects_unbounded_and_invalid():
    with pytest.raises(UnboundedError):
        classify_bounded_cut(ExceptionalCut(0, -INF), ExceptionalP1(0, INF))
    with pytest.raises(InvalidCutError):
        classify_bounded_cut(ExceptionalCut(0, 0), ExceptionalP1(0, 0))


def test_classification_window_round_trip():
    points = ("x", "y", "z")
    std = StandardP1(points)
    upsets = [None, frozenset({"z"}), frozenset({"y", "z"}), frozenset()]
    seen = set()
    for m in range(-2, 3):
        for K in list(range(-4, 5)) + [INF, -INF]:
            for P in (upsets if K == INF else [None]):
                cut = StandardCut(m, K, P)
                if cut.validity_reason(std) is not None:
                    continue
                cl = classify_bounded_cut(cut, std)
                assert cl.name in ("A", "B", "C", "D")
                entry = catalog(cl.name, P=cl.params_dict().get("P"), points=points)
                rebuilt = apply_twist_shift(entry.cut, cl.twist, cl.shift)
                assert rebuilt == cut
                seen.add(cl.name)
    assert seen == {"A", "B", "C", "D"}
    for p in (0, 1, 2):
        fam = ExceptionalP1(0, p)
        names = set()
        for a in range(-6, 7):
            for b in range(-6, 7):
                cut = ExceptionalCut(a, b)
                if cut.validity_reason(fam) is not None:
                    continue
                cl = classify_bounded_cut(cut, fam)
                assert cl.name in ("E", "F")
                assert cl.params_dict() == {"p": p}
                entry = catalog(cl.name, p=p)
                assert apply_twist_shift(entry.cut, cl.twist, cl.shift) == cut
                names.add(cl.name)
        assert names == {"E", "F"}


def test_classify_with_twisted_family():
    fam = ExceptionalP1(2, 1)
    cut = ExceptionalCut(4, 1)  # b = a - p - 2
    cl = classify_bounded_cut(cut, fam)
    assert (cl.name, cl.twist, cl.shift) == ("E", 2, 3)
    entry = catalog("E", p=1)
    assert apply_twist_shift(entry.cut, cl.twist, cl.shift) == cut
    assert ExceptionalP1(entry.family.k + cl.twist, entry.family.p) == fam


def test_classify_coarse_cut():
    cl = classify_bounded_cut(CoarseCut(-2), CoarseZ())
    assert (cl.name, cl.shift) == ("A", -2)
    assert apply_twist_shift(CoarseCut(0), cl.twist, cl.shift) == CoarseCut(-2)
    assert apply_twist_shift(CoarseCut(0), 5, 1).spec() == "coarse:m=1"


# --- diagram ---------------------------------------------------------------------------

def test_diagram_marks_cut_and_heart():
    entry = catalog("E", p=1)
    text = diagram(entry.cut, entry.family)
    assert "][" in text
    assert "^" in text
    lines = text.splitlines()
    assert len(lines) == 2
    # heart generators appear left of the markers
    assert "O[1]" in lines[0] and "O(1)[-2]" in lines[0]
    b = catalog("B")
    text = diagram(b.cut, b.family, radius=1)
    assert "][" in text and "O_x[0]" in text
    assert diagram(CoarseCut(2), CoarseZ(), radius=1).splitlines() == [
        "...  Coh[1]  ][  Coh[2]  Coh[3]  Coh[4]  ...", "                 ^"]
    # no slope of the window is in the up-set: the cut sits at the top, the heart is empty
    text = diagram(ExceptionalCut(INF, INF), ExceptionalP1(0, 0), radius=0)
    assert text.endswith("O(1)[2]  O(1)[3]  ][  ...\n")
