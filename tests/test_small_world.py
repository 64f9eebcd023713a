"""Small-world oracles for the coarse and elliptic cuts: every cut of a small
parameter range, checked against the definitions on an exhaustive world.

For each cut, `validity_reason` must be None exactly when a brute-force
pairwise up-closure holds over the cut's own window of slopes, and
`heart_contains` must agree with the heart's definition, x in D<=0 and
D>=0, read off the slopes of the summands' towers, on every object of at
most two summands over a small world of atoms.  Each test asserts a floor
on its case count, so an empty enumeration cannot pass.  The standard and
exceptional kinds are checked the same way in `test_tstructures.py`.
"""

import itertools
from fractions import Fraction

import pytest

from tstab.elliptic import EllipticStandard, StableClass
from tstab.errors import InvalidCutError
from tstab.families import CoarseZ
from tstab.p1 import Line, ShiftedIndec, Torsion, point_universe
from tstab.slopes import PLUS_INFINITY
from tstab.tstructures import CoarseCut, EllipticCut, heart_contains, validate_cut

ORDER = ("b", "a", "c")  # a declared point order, not the lexicographic one
ELL = EllipticStandard(ORDER)
COARSE = CoarseZ()
SHIFTS = range(-2, 3)

COARSE_CUTS = [CoarseCut(m) for m in range(-2, 3)]
ELLIPTIC_CUTS = [EllipticCut(m, q, P) for m in (-1, 0, 1)
                 for q in (0, Fraction(1, 2), Fraction(1, 3), PLUS_INFINITY)
                 for r in range(len(ORDER) + 1) for P in itertools.combinations(ORDER, r)]


def up_closed(cut, family, slopes) -> bool:
    """Whether no slope of the up-set lies below one outside it, pair by pair."""
    keyed = [(family.slope_key(s), cut.in_plus(s)) for s in slopes]
    return not any(k1 < k2 for k1, up1 in keyed if up1 for k2, up2 in keyed if not up2)


def world(family, bases):
    """Every object of at most two distinct summands over `bases` at `SHIFTS`,
    zero included, each summand of multiplicity 1 or 2."""
    atoms = [ShiftedIndec(base, i) for base in bases for i in SHIFTS]
    make = type(family.zero).from_pairs
    yield family.zero
    for atom in atoms:
        yield make([(atom, 2)])
    yield from (make([(a, 1), (b, 1)]) for a, b in itertools.combinations(atoms, 2))


def in_heart_by_definition(x, cut, family) -> bool:
    """x in D<=0 (every tower slope in the up-set) and in D>=0 (no tower slope's
    tau-preimage in the up-set), over the slopes of the summands' towers."""
    slopes = [s for term, mult in x.summands() for s, _ in family.summand_tower(term, mult)[0]]
    return (all(cut.in_plus(s) for s in slopes)
            and not any(cut.in_plus(family.tau(s, -1)) for s in slopes))


def in_tilted_heart(atom, cut) -> bool:
    """The elliptic heart in closed form: S[m] with mu(S) > q, or mu(S) = q at a
    point outside P; S[m+1] with mu(S) < q, or mu(S) = q at a point of P."""
    mu, in_p = atom.base.mu(), atom.base.x.label in cut.P
    if atom.shift == cut.m:
        return mu > cut.q or mu == cut.q and not in_p
    return atom.shift == cut.m + 1 and (mu < cut.q or mu == cut.q and in_p)


@pytest.mark.parametrize("cuts, family", [(COARSE_CUTS, COARSE), (ELLIPTIC_CUTS, ELL)],
                         ids=["coarse", "elliptic"])
def test_validity_matches_brute_force_up_closure_over_the_cut_window(cuts, family):
    valid = 0
    for cut in cuts:
        slopes = cut.window(family, 2)
        assert len(slopes) >= 5
        closed = up_closed(cut, family, slopes)
        assert (cut.validity_reason(family) is None) == closed, cut
        assert validate_cut(cut, family, radius=2).ok == closed, cut
        valid += closed
    assert len(cuts) == {COARSE: 5, ELL: 96}[family]
    # every coarse cut; of the elliptic ones, the down-closed P: {}, {b}, {b, a}, all
    assert valid == {COARSE: 5, ELL: 48}[family]


def test_coarse_heart_contains_matches_the_definition():
    bases = (Line(-1), Line(0), Line(1), *(Torsion(pt, d) for pt in point_universe()[:2]
                                          for d in (1, 2)))
    objects = list(world(COARSE, bases))
    cases = members = 0
    for cut in COARSE_CUTS:
        for x in objects:
            expected = in_heart_by_definition(x, cut, COARSE)
            assert heart_contains(x, cut, COARSE) == expected, (cut, x)
            # the coarse heart is Coh[m]: every summand at shift m
            assert expected == all(t.shift == cut.m for t, _ in x.summands())
            cases += 1
            members += expected
    assert cases >= 5 * 600 and members >= 5 * 20


def test_elliptic_heart_contains_matches_the_definition():
    points = point_universe(ORDER)
    types = ((0, 1), (1, 0), (3, 1), (2, 1), (1, -1))  # mu = inf, 0, 1/3, 1/2, -1
    bases = [StableClass(r, d, pt) for r, d in types for pt in points]
    objects = list(world(ELL, bases))
    cases = members = refused = 0
    for cut in ELLIPTIC_CUTS:
        if cut.validity_reason(ELL) is not None:
            with pytest.raises(InvalidCutError):
                heart_contains(objects[1], cut, ELL)
            refused += 1
            continue
        for x in objects:
            expected = in_heart_by_definition(x, cut, ELL)
            assert heart_contains(x, cut, ELL) == expected, (cut, x)
            assert expected == all(in_tilted_heart(t, cut) for t, _ in x.summands())
            cases += 1
            members += expected
    assert refused == 48 and cases >= 48 * 2800 and members >= 48 * 20
