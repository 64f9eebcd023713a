"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything here is exact (integer and rational arithmetic);
there are no tolerances to calibrate.
"""

import itertools
import math
import random
import re
from fractions import Fraction

from tstab.elliptic import (ELLIPTIC_ZERO, EllipticStandard, StableClass, hom_dim_stable,
                            normalize_elliptic)
from tstab.errors import InvalidPartitionError
from tstab.families import (INF, CoarseZ, ExceptionalP1, StandardP1, coarsen,
                            column_partition, exceptional_rewrite, finest_check, is_finer)
from tstab.p1 import (Line, Point, ShiftedIndec, Torsion, ZERO, euler_form, hom_profile,
                      line, point_resolver)
from tstab.slopes import PLUS_INFINITY
from tstab.stability import (ExceptionalSlope, HNFiltration, StandardSlope, Window,
                             validate_stability, verify_hn)
from tstab.tstructures import (CoarseCut, EllipticCut, ExceptionalCut, StandardCut,
                               apply_twist_shift, catalog, classify_bounded_cut,
                               heart_contains, is_bounded, truncate)

WINDOW = Window(max_degree=8, max_shift=3, max_length=4, max_summands=6)
EXC_PARAMS = [(k, p) for k in (-1, 0, 1) for p in (0, 1, 2, INF)]


def _report(number: int, ok: bool, label: str):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number}: {label}"


# --- 1: triangle families -----------------------------------------------------------

def _tower_mid(term, k):
    """The summand's tower term above its lowest quotient (zero if semistable)."""
    return ExceptionalP1(k, 0).summand_tower(term, 1)[1][1]


def test_criterion_1_triangle_family_exactness():
    ok = True
    for n in range(-10, 11):
        for k in range(-3, 4):
            for i in (0, -2):
                term = ShiftedIndec(Line(n), i)
                rw = exceptional_rewrite(term, k)
                if n == k:
                    expected = ((ExceptionalSlope(i, 0), line(k, i)),)
                    mid = ZERO
                elif n == k + 1:
                    expected = ((ExceptionalSlope(i, 1), line(k + 1, i)),)
                    mid = ZERO
                elif n > k + 1:
                    expected = ((ExceptionalSlope(i + 1, 0), (n - k - 1) * line(k, i + 1)),
                                (ExceptionalSlope(i, 1), (n - k) * line(k + 1, i)))
                    mid = (n - k) * line(k + 1, i)
                else:
                    expected = ((ExceptionalSlope(i, 0), (k - n + 1) * line(k, i)),
                                (ExceptionalSlope(i - 1, 1), (k - n) * line(k + 1, i - 1)))
                    mid = (k - n) * line(k + 1, i - 1)
                ok = ok and rw == expected and _tower_mid(term, k) == mid
    pt = Point("x")
    for d in range(1, 6):
        for k in range(-3, 4):
            for i in (0, 1):
                term = ShiftedIndec(Torsion(pt, d), i)
                rw = exceptional_rewrite(term, k)
                expected = ((ExceptionalSlope(i + 1, 0), d * line(k, i + 1)),
                            (ExceptionalSlope(i, 1), d * line(k + 1, i)))
                ok = ok and rw == expected and _tower_mid(term, k) == d * line(k + 1, i)
    _report(1, ok, "exceptional rewrite reproduces the three triangle families exactly")


# --- 2: HN verifier suite ------------------------------------------------------------

def test_criterion_2_hn_verifier_suite():
    rng = random.Random(20240)
    std = StandardP1()
    objects = [std.random_object(rng, WINDOW) for _ in range(1000)]
    families = [std] + [ExceptionalP1(k, p) for k, p in EXC_PARAMS]
    failures = 0
    for fam in families:
        for x in objects:
            if not verify_hn(x, fam.hn(x), fam).ok:
                failures += 1
    _report(2, failures == 0,
            f"verify_hn on 1000 random objects x {len(families)} families: "
            f"{failures} failures")


# --- 3: uniqueness surrogate -----------------------------------------------------------

def _mutations(filt: HNFiltration, fam):
    """Order perturbations and quotient merges of a filtration."""
    quots = list(filt.quotients)
    n = len(quots)
    for i in range(n - 1):
        swapped = list(quots)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        yield HNFiltration(fam, tuple(swapped), filt.terms)
    for i in range(n - 1):
        merged = quots[:i] + [(quots[i][0], quots[i][1] + quots[i + 1][1])] + quots[i + 2:]
        terms = filt.terms[:i + 1] + filt.terms[i + 2:]
        yield HNFiltration(fam, tuple(merged), terms)
    for i in range(n):
        bumped = list(quots)
        bumped[i] = (fam.tau(bumped[i][0]), bumped[i][1])
        yield HNFiltration(fam, tuple(bumped), filt.terms)
    for i in range(n):
        dropped = quots[:i] + quots[i + 1:]
        terms = filt.terms[:i + 1] + filt.terms[i + 2:]
        yield HNFiltration(fam, tuple(dropped), terms)


def test_criterion_3_uniqueness_surrogate():
    rng = random.Random(777)
    std = StandardP1()
    families = [std, ExceptionalP1(0, 1)]
    ok = True
    surviving = 0
    for idx in range(200):
        fam = families[idx % 2]
        x = std.random_object(rng, WINDOW)
        filt = fam.hn(x)
        assert verify_hn(x, filt, fam).ok
        for mutant in _mutations(filt, fam):
            if verify_hn(x, mutant, fam).ok:
                surviving += 1
                ok = False
    _report(3, ok, f"every mutation of 200 computed filtrations fails verify_hn "
                   f"({surviving} survived)")


# --- 4: Hom/Euler equivalence ------------------------------------------------------------

def test_criterion_4_hom_euler_equivalence():
    from tstab.p1 import DerivedObject
    points = (Point("x"), Point("y"))
    bases = [Line(n) for n in range(-10, 11)]
    bases += [Torsion(pt, d) for pt in points for d in range(1, 6)]
    indecs = [ShiftedIndec(b, i) for b in bases for i in range(-3, 4)]
    singles = [DerivedObject(((t, 1),)) for t in indecs]
    ok = True
    for a, xa in zip(indecs, singles):
        for b, xb in zip(indecs, singles):
            if hom_profile(xa, xb).euler() != euler_form(a.k0(), b.k0()):
                ok = False
    _report(4, ok, f"alternating Hom sums match the Euler form on {len(indecs)}^2 pairs")


# --- 5: axiom windows ----------------------------------------------------------------------

class _TorsionBelowLines(StandardP1):
    def slope_key(self, s):
        if isinstance(s.level, int):
            return (s.i, 1, (s.level, ""))
        return (s.i, 0, s.level.key())


def test_criterion_5_axiom_windows():
    window = Window(max_degree=5, max_shift=2, max_length=3, samples=25)
    ok = validate_stability(StandardP1(), window).ok
    for k, p in EXC_PARAMS:
        ok = ok and validate_stability(ExceptionalP1(k, p), window).ok
    bad = validate_stability(_TorsionBelowLines(), window)
    inverted_fails = not bad.ok
    witness_ok = False
    for item in bad.failures():
        if item.name == "hom_vanishing" and "O(" in item.detail and "T(" in item.detail:
            witness_ok = True
    _report(5, ok and inverted_fails and witness_ok,
            "axioms hold on windows; inverted torsion/line order fails with a "
            "line-onto-torsion witness")


# --- 6: catalog goldens ---------------------------------------------------------------------

def _golden_heart_predicates(points):
    """Independently encoded membership rules for the nine hearts, as
    predicates on standard slopes (i, n)/(i, x) and exceptional slopes."""
    x, y, z = points

    def std_pred(lines_rule, points_rule):
        def pred(s):
            if isinstance(s.level, int):
                return lines_rule(s.i, s.level)
            return points_rule(s.i, s.level.label)
        return pred

    return {
        "A": std_pred(lambda i, n: i == 0, lambda i, lbl: i == 0),
        "B": std_pred(lambda i, n: (i == 0 and n >= 0) or (i == 1 and n < 0),
                      lambda i, lbl: i == 0),
        "C": std_pred(lambda i, n: i == 1, lambda i, lbl: i == 0),
        "D": std_pred(lambda i, n: i == 1,
                      lambda i, lbl: (i == 0 and lbl == z) or (i == 1 and lbl != z)),
        "E": lambda s, p: (s.col == 0 and s.i == p) or (s.col == 1 and s.i == -2),
        "F": lambda s, p: (s.col == 0 and s.i == p) or (s.col == 1 and s.i == -1),
        "G": lambda s, p: s.col == 0 and s.i == 0,
        "H": lambda s, p: s.col == 1 and s.i == 0,
        "I": lambda s, p: False,
    }


def test_criterion_6_catalog_golden():
    points = ("x", "y", "z")
    golden_strings = {
        "A": ["O(n)[0] (n in Z)", "O_x[0] (x in P1)"],
        "B": ["O(n)[0] (n >= 0)", "O_x[0] (x in P1)", "O(n)[1] (n < 0)"],
        "C": ["O_x[0] (x in P1)", "O(n)[1] (n in Z)"],
        "D": ["O_x[0] (x in {z})", "O(n)[1] (n in Z)", "O_x[1] (x not in {z})"],
        # the O[p]-for-O(p) reading of the two finite exceptional hearts
        "E": ["O[2]", "O(1)[-2]"],
        "F": ["O[2]", "O(1)[-1]"],
        "G": ["O[0]"],
        "H": ["O(1)[0]"],
        "I": [],
    }
    bounded_golden = {"A": True, "B": True, "C": True, "D": True, "E": True,
                      "F": True, "G": False, "H": False, "I": False}
    preds = _golden_heart_predicates(points)
    p = 2
    ok = True
    for name in "ABCDEFGHI":
        entry = catalog(name, p=(p if name in ("E", "F") else None),
                        P=({"z"} if name == "D" else None), points=points)
        ok = ok and entry.heart.generators() == golden_strings[name]
        ok = ok and is_bounded(entry.cut, entry.family) == bounded_golden[name]
        ok = ok and entry.bounded == bounded_golden[name]
        heart = entry.heart
        if name in "ABCD":
            slopes = [StandardSlope(i, n) for i in range(-2, 4) for n in range(-6, 7)]
            resolve = point_resolver(entry.family.point_labels)
            slopes += [StandardSlope(i, resolve(lbl))
                       for i in range(-2, 4) for lbl in points]
            for s in slopes:
                ok = ok and heart.contains_slope(s) == preds[name](s)
        else:
            param = p if name in ("E", "F") else None
            slopes = [ExceptionalSlope(i, c) for i in range(-8, 9) for c in (0, 1)]
            for s in slopes:
                ok = ok and heart.contains_slope(s) == preds[name](s, param)
    _report(6, ok, "all nine catalog hearts match the golden generator lists; "
                   "boundedness flags match bounded(E,F)/unbounded(G,H,I)")


# --- 7: classification window ------------------------------------------------------------------

def test_criterion_7_classification_window():
    points = ("x", "y", "z")
    std = StandardP1(points)
    ok = True
    classified = 0
    all_subsets = [frozenset(s) for r in range(4)
                   for s in itertools.combinations(points, r)]
    for m in range(-2, 3):
        for K in list(range(-4, 5)) + [INF, -INF]:
            candidates = all_subsets + [None] if K == INF else [None]
            for P in candidates:
                cut = StandardCut(m, K, P)
                if cut.validity_reason(std) is not None:
                    ok = ok and K == INF and P is not None  # only bad point sets fail
                    continue
                if not is_bounded(cut, std):
                    ok = False  # standard cuts are always bounded
                    continue
                cl = classify_bounded_cut(cut, std)
                ok = ok and cl.name in ("A", "B", "C", "D")
                entry = catalog(cl.name, P=cl.params_dict().get("P"), points=points)
                rebuilt = apply_twist_shift(entry.cut, cl.twist, cl.shift)
                # a point set covering the whole universe classifies as P = all
                ok = ok and rebuilt == (StandardCut(m, K, None) if P == set(points) else cut)
                classified += 1
    for p in (0, 1, 2):
        fam = ExceptionalP1(0, p)
        valid = 0
        for a in range(-6, 7):
            for b in range(-6, 7):
                cut = ExceptionalCut(a, b)
                if cut.validity_reason(fam) is not None:
                    ok = ok and b not in (a - p - 2, a - p - 1)
                    continue
                valid += 1
                cl = classify_bounded_cut(cut, fam)
                ok = ok and cl.name in ("E", "F") and cl.params_dict() == {"p": p}
                entry = catalog(cl.name, p=p)
                ok = ok and apply_twist_shift(entry.cut, cl.twist, cl.shift) == cut
                classified += 1
        ok = ok and valid > 0
    _report(7, ok, f"{classified} valid bounded cuts each classify into exactly one "
                   f"of A..F(p) with verified twist/shift round trip")


# --- 8: truncation contract ----------------------------------------------------------------------

def test_criterion_8_truncation_contract():
    rng = random.Random(4242)
    points = ("x", "y", "z")
    std = StandardP1(points)
    window = Window(max_degree=8, max_shift=3, max_length=4, max_summands=6,
                    points=tuple(map(point_resolver(points), points)))
    upsets = [None, frozenset({"z"}), frozenset({"y", "z"})]
    cuts = []
    for m in range(-2, 3):
        for K in list(range(-4, 5)) + [INF, -INF]:
            for P in (upsets if K == INF else [None]):
                cuts.append((StandardCut(m, K, P), std))
    for p in (0, 1, 2):
        fam = ExceptionalP1(0, p)
        for a in range(-6, 7):
            for b in (a - p - 2, a - p - 1):
                if -6 <= b <= 6:
                    cuts.append((ExceptionalCut(a, b), fam))
    coarse = CoarseZ()
    for m in range(-2, 3):
        cuts.append((CoarseCut(m), coarse))
    ok = True
    for case in range(1000):
        cut, fam = cuts[case % len(cuts)]
        x = fam.random_object(rng, window)
        le0, ge1 = truncate(x, cut, fam)
        ok = ok and fam.k0(le0) + fam.k0(ge1) == fam.k0(x)
        ok = ok and fam.hom_profile(le0, ge1).vanishes_at_and_below(0)
        ok = ok and truncate(le0, cut, fam) == (le0, fam.zero)
    _report(8, ok, "1000 random truncations: K0 additive, Hom^(<=0) vanishing, idempotent")


# --- 9: refinement order --------------------------------------------------------------------------

def test_criterion_9_refinement_order():
    window = Window(max_degree=8, max_shift=2, max_length=3, samples=20)
    ok = is_finer(StandardP1(), CoarseZ(), window).holds

    two_block = coarsen(ExceptionalP1(0, INF), column_partition(), window)
    ok = ok and is_finer(ExceptionalP1(0, INF), two_block, window).holds
    for p in (0, 1, 2):
        try:
            coarsen(ExceptionalP1(0, p), column_partition(), window)
            ok = False  # interleaved columns must be rejected at finite p
        except InvalidPartitionError:
            pass

    for k in (0, 1):
        forward = is_finer(StandardP1(), ExceptionalP1(k, 0), window)
        ok = ok and not forward.holds and forward.condition == "semistable"
        ok = ok and f"O({k + 2})" in forward.witnesses
        if k == 0:
            ok = ok and "O(3)" in forward.witnesses
        backward = is_finer(ExceptionalP1(k, 0), StandardP1(), window)
        ok = ok and not backward.holds and backward.condition == "order"

    ok = ok and finest_check(StandardP1(), window).ok
    ok = ok and finest_check(ExceptionalP1(0, 0), window).ok
    coarse_report = finest_check(CoarseZ(), window)
    ok = ok and not coarse_report.ok
    detail = coarse_report.failures()[0].detail if coarse_report.failures() else ""
    # the witness is a pair of line bundles at one shift with no map downwards,
    # the same phenomenon as the documented pair (O(1), O(0))
    match = re.match(r"Hom\^0\(O\((-?\d+)\)\[(-?\d+)\], O\((-?\d+)\)\[(-?\d+)\]\) = 0", detail)
    ok = ok and match is not None
    if match:
        ok = ok and int(match.group(1)) > int(match.group(3)) \
            and match.group(2) == match.group(4)
    coarse = CoarseZ()
    ok = ok and coarse.semistable_slope(line(1)) == coarse.semistable_slope(line(0)) \
        and hom_profile(line(1), line(0))[0] == 0
    _report(9, ok, "refinement certificates, incomparability witnesses and finest checks")


# --- 10: elliptic suite ----------------------------------------------------------------------------

def _elliptic_classes(points, max_rank=5, max_degree=7):
    classes = []
    for pt in points:
        classes.append(StableClass(0, 1, pt))
        for r in range(1, max_rank + 1):
            for d in range(-max_degree, max_degree + 1):
                if math.gcd(r, d) == 1:
                    classes.append(StableClass(r, d, pt))
    return classes


def test_criterion_10_elliptic_suite():
    points = (Point("l"), Point("m"), Point("n"))
    classes = _elliptic_classes(points)
    ok = True
    for e, f in itertools.product(classes, classes):
        chi = e.r * f.d - e.d * f.r
        ok = ok and hom_dim_stable(e, f, 0) - hom_dim_stable(e, f, 1) == chi
        ok = ok and hom_dim_stable(e, f, 1) == hom_dim_stable(f, e, 0)

    rng = random.Random(99)
    qs = [Fraction(0), Fraction(1, 2), "inf"]
    point_sets = [frozenset(), frozenset({"l"}), frozenset({"l", "n"})]
    fam = EllipticStandard(("l", "n", "m"))  # each point set is down-closed in this order

    def tilt(q, P):
        return EllipticCut(0, PLUS_INFINITY if q == "inf" else q, P)

    for q in qs:
        for P in point_sets:
            for _ in range(60):
                picks = [rng.choice(classes) for _ in range(rng.randint(1, 5))]
                x = ELLIPTIC_ZERO
                for cls in picks:
                    x = x + normalize_elliptic([(ShiftedIndec(cls, 0), rng.randint(1, 2))])
                first, second = truncate(x, tilt(q, P), fam)
                ok = ok and (first + second == x)
                ok = ok and hom_profile(first, second)[0] == 0

    def rule_second(cls, q, P):
        if isinstance(q, str):  # q = inf: everything of finite slope drops below
            return True if cls.r > 0 else cls.x.label in P
        if cls.r == 0:
            return False  # mu = inf sits above every finite q
        mu = Fraction(cls.d, cls.r)
        return mu < q or (mu == q and cls.x.label in P)

    window = Window(points=points, max_degree=5, max_shift=2, max_summands=4)
    checked = 0
    for q in qs:
        for P in point_sets:
            for _ in range(170):
                x = fam.random_object(rng, window)
                expected = all(
                    (t.shift == 0 and not rule_second(t.base, q, P))
                    or (t.shift == 1 and rule_second(t.base, q, P))
                    for t, _ in x.summands())
                ok = ok and heart_contains(x, tilt(q, P), fam) == expected
                checked += 1
    _report(10, ok, f"elliptic Euler/Serre identities, tilting Hom-vanishing, and "
                    f"{checked} heart membership checks")
