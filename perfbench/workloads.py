"""The four benchmark workloads: input generators, ops, checks and replays.

Inputs are expression strings in the README grammar, cut objects and
family descriptors, all drawn from a seeded `random.Random`; the library
only ever sees those.  Each workload produces rounds of ops.  A round has
a fixed composition (which families, sizes and commands) and seeded
contents, so throughput does not depend on where a time budget happens
to end.

Per op a workload offers:

* `execute(op, tr)`: the timed call sequence, with a span around each
  call into a library layer (spans are free when `tr` is a NullTracer);
* `check(op, result)`: correctness checks outside the timed region;
  returns (problems, rendered output for the digest);
* `replay(op, result, tr)`: traced runs only; sibling calls into lower
  layers on the same data, plus exact counts derived from the outputs.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tstab
from tstab import (INF, CoarseCut, ExceptionalCut, StandardCut, Window, apply_twist_shift,
                   by_shift_partition, catalog, classify_bounded_cut, coarsen, column_partition,
                   family_from_descriptor, finest_check, heart_contains, is_finer, normalize,
                   parse_object, truncate, validate_cut, validate_stability, verify_hn)
from tstab.cli import filtration_from_json
from tstab.elliptic import normalize_elliptic

POINTS = ("x", "y", "z")
# Point orders other than the lexicographic one: the standard and elliptic
# families order torsion strata by them, and ROADMAP item 3 tracks a bug in
# how that order reaches objects parsed without a resolver.
NONLEX_ORDERS = (("z", "x", "y"), ("y", "z", "x"), ("z", "y", "x"), ("x", "z", "y"),
                 ("y", "x", "z"))
FAMILIES = ("std", "coarse", "exc-p0", "exc-pinf", "ell")


# --- expression generators ------------------------------------------------------

class Expr(NamedTuple):
    text: str
    k0: tuple[int, int]  # (rank, degree), computed here, independently of the library


def _term(atom: str, shift: int, mult: int) -> str:
    text = atom if shift == 0 else f"{atom}[{shift}]"
    return text if mult == 1 else f"{mult}*{text}"


def _summands_expr(draw, rng, count: int, max_shift: int, distinct: bool) -> Expr:
    """Sum of `count` drawn atoms; `draw(rng)` returns (atom text, (rank, degree))."""
    seen = set()
    parts, rank, degree = [], 0, 0
    while len(parts) < count:
        shift = rng.randint(-max_shift, max_shift)
        atom, (r, d) = draw(rng)
        if distinct:
            if (atom, shift) in seen:
                continue
            seen.add((atom, shift))
        mult = rng.randint(1, 3)
        parts.append(_term(atom, shift, mult))
        sign = -mult if shift % 2 else mult
        rank += sign * r
        degree += sign * d
    return Expr(" + ".join(parts), (rank, degree))


def p1_expr(rng, count: int, max_degree: int, max_shift: int, max_length: int,
            distinct: bool) -> Expr:
    """Lines O(n) (70%) and torsion T(p,d) at x/y/z, shifted, multiplicity 1-3."""
    def draw(rng):
        if rng.random() < 0.7:
            n = rng.randint(-max_degree, max_degree)
            return f"O({n})", (1, n)
        d = rng.randint(1, max_length)
        return f"T({rng.choice(POINTS)},{d})", (0, d)
    return _summands_expr(draw, rng, count, max_shift, distinct)


def elliptic_classes(max_rank: int, max_degree: int) -> list[tuple[int, int]]:
    """Coprime (rank, degree) pairs, skyscraper (0, 1) included."""
    return [(0, 1)] + [(r, d) for r in range(1, max_rank + 1)
                       for d in range(-max_degree, max_degree + 1) if math.gcd(r, d) == 1]


def ell_expr(rng, count: int, classes: list[tuple[int, int]], max_shift: int,
             distinct: bool) -> Expr:
    """Stable classes S(r,d,p) at x/y/z, shifted, multiplicity 1-3."""
    def draw(rng):
        r, d = rng.choice(classes)
        return f"S({r},{d},{rng.choice(POINTS)})", (r, d)
    return _summands_expr(draw, rng, count, max_shift, distinct)


def window_expr(rng, fam: str) -> Expr:
    """A random object as `Window()` bounds them: 1-6 summands, shifts +-2,
    degrees +-8, torsion length 1-3, elliptic rank 0-3."""
    count = rng.randint(1, 6)
    if fam == "ell":
        return ell_expr(rng, count, WINDOW_CLASSES, 2, distinct=False)
    return p1_expr(rng, count, 8, 2, 3, distinct=False)


WINDOW_CLASSES = elliptic_classes(3, 8)
LARGE_CLASSES = elliptic_classes(4, 20)


def descriptor(fam: str, k: int = 0, points: tuple[str, ...] = ()) -> dict:
    """The README's JSON family descriptor for a workload family tag."""
    if fam == "std":
        return {"family": "standard", "point_order": list(points)}
    if fam == "coarse":
        return {"family": "coarse"}
    if fam == "exc-p0":
        return {"family": "exceptional", "k": k, "p": 0}
    if fam == "exc-pinf":
        return {"family": "exceptional", "k": k, "p": "inf"}
    if fam == "ell":
        return {"family": "elliptic", "point_order": list(points)}
    raise ValueError(f"unknown family tag {fam!r}")


class FamilyTable:
    """Family instances by descriptor, built once as a user would."""

    def __init__(self):
        self._by_key: dict[str, object] = {}

    def get(self, desc: dict):
        key = json.dumps(desc, sort_keys=True)
        family = self._by_key.get(key)
        if family is None:
            family = self._by_key[key] = family_from_descriptor(desc)
        return family


# --- cut generators ---------------------------------------------------------------

def std_cut(rng, points: tuple[str, ...]) -> StandardCut:
    """A valid standard cut; P, when proper, is a suffix of the point order."""
    m = rng.randint(-2, 2)
    r = rng.random()
    if r < 0.2:
        return StandardCut(m, -INF)
    if r < 0.7:
        return StandardCut(m, rng.randint(-8, 8))
    j = rng.randint(0, len(points) - 1)
    return StandardCut(m, INF, None if j == 0 else frozenset(points[j:]))


def exc_cut(rng, p) -> ExceptionalCut:
    """A valid exceptional cut for interleaving p; bounded when p is finite
    unless the draw picks one of the two constant cuts."""
    if p == INF:
        a = rng.randint(-3, 3)
        return rng.choice((ExceptionalCut(a, -INF), ExceptionalCut(INF, a),
                           ExceptionalCut(INF, INF), ExceptionalCut(INF, -INF),
                           ExceptionalCut(-INF, -INF)))
    if rng.random() < 0.1:
        return rng.choice((ExceptionalCut(INF, INF), ExceptionalCut(-INF, -INF)))
    a = rng.randint(-3, 3)
    return ExceptionalCut(a, a - p - rng.choice((1, 2)))


def bounded_cut(rng) -> tuple[object, dict]:
    """A valid bounded cut of a standard, coarse or finite-p exceptional family."""
    kind = rng.choice(("std", "coarse", "exc"))
    if kind == "std":
        points = rng.choice((POINTS,) + NONLEX_ORDERS)
        return std_cut(rng, points), descriptor("std", points=points)
    if kind == "coarse":
        return CoarseCut(rng.randint(-2, 2)), descriptor("coarse")
    p = rng.randint(0, 2)
    a = rng.randint(-3, 3)
    return (ExceptionalCut(a, a - p - rng.choice((1, 2))),
            {"family": "exceptional", "k": rng.randint(-1, 1), "p": p})


# --- shared op steps --------------------------------------------------------------

def _k0(family, obj) -> tuple[int, int]:
    k = family.k0(obj)
    return k.rank, k.degree


def _sum_k0(family, objs) -> tuple[int, int]:
    rank = degree = 0
    for obj in objs:
        r, d = _k0(family, obj)
        rank += r
        degree += d
    return rank, degree


def _category(fam: str) -> str:
    return "elliptic" if fam == "ell" else "p1"


def _parse(tr, text: str, category: str):
    with tr.span("cli.parse_object"):
        x = parse_object(text, category)
    tr.count("cli.parse_object.calls", 1)
    return x


def _hn_verify(tr, fam: str, family, x):
    with tr.span(f"stability.hn.{fam}"):
        filt = family.hn(x)
    with tr.span("stability.verify_hn"):
        report = verify_hn(x, filt, family)
    q = len(filt.quotients)
    tr.count("stability.verify_hn.hom_pairs", q * (q - 1) // 2)
    return filt, report


def _filtration_problems(family, x, filt, report, expected_k0, label: str) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"{label}: verify_hn failed "
                        + ", ".join(c.name for c in report.failures()))
    if _k0(family, x) != expected_k0:
        problems.append(f"{label}: k0 of the parsed object {_k0(family, x)} != {expected_k0}")
    quotient_sum = _sum_k0(family, filt.quotient_objects)
    if quotient_sum != expected_k0:
        problems.append(f"{label}: sum of quotient k0 {quotient_sum} != {expected_k0}")
    return problems


def _replay_filtration(tr, family, fam: str, x, filt) -> None:
    """Sibling calls into the layers under `hn`, on the same data, plus exact counts."""
    summands = list(x.summands())
    with tr.span("families.term_filtration"):
        for term, mult in summands:
            family.term_filtration(term, mult)
    tr.count("families.term_filtration.calls", len(summands))
    with tr.span("elliptic.normalize" if fam == "ell" else "p1.normalize"):
        (normalize_elliptic if fam == "ell" else normalize)(summands)
    quotients = filt.quotients
    pairs = [(j, i) for j in range(len(quotients)) for i in range(j)]
    with tr.span("families.hom_profile"):
        for j, i in pairs:
            family.hom_profile(quotients[j][1], quotients[i][1])
    tr.count("families.hom_profile.calls", len(pairs))
    with tr.span("families.compare"):
        for j, i in pairs:
            family.compare(quotients[i][0], quotients[j][0])
    tr.count("families.compare.calls", len(pairs))
    with tr.span("slopes.k0"):
        for term in filt.terms:
            family.k0(term)
        for _, obj in quotients:
            family.k0(obj)
    tr.count("slopes.k0.calls", len(filt.terms) + len(quotients))
    tr.count("stability.hn.summands_in", len(summands))
    tr.count("stability.hn.quotients_out", len(quotients))
    tr.count("stability.hn.term_summands_out",
             sum(sum(1 for _ in term.summands()) for term in filt.terms))


def _replay_generator_pairs(tr, family, window, limit: int = 40) -> None:
    """hom_profile and compare over pairs of (a spread of) window generators."""
    gens = family.window_generators(window)
    gens = gens[::max(1, len(gens) // limit)]
    slopes = [family.semistable_slope(g) for g in gens]
    with tr.span("families.hom_profile"):
        for a in gens:
            for b in gens:
                family.hom_profile(a, b)
    tr.count("families.hom_profile.calls", len(gens) ** 2)
    with tr.span("families.compare"):
        for s in slopes:
            for t in slopes:
                family.compare(s, t)
    tr.count("families.compare.calls", len(slopes) ** 2)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# --- large-hn -----------------------------------------------------------------------

P1_FAMILIES = ("std", "coarse", "exc-p0", "exc-pinf")


class LargeOp(NamedTuple):
    k: int           # twist of the exceptional families
    p1: Expr         # an object on the line, run under the four P1 families
    ell: Expr        # an elliptic object of the same size


class LargeHN:
    """Objects with many distinct summands: the merge rebuild and the Hom check.

    One op takes an N-summand object on the line through all four P1
    families and an N-summand elliptic object through the elliptic one, so
    each op's latency sums five filtrations of one size.
    """

    name = "large-hn"

    def __init__(self, smoke: bool):
        self.sizes = (4, 8) if smoke else (25, 50, 100)
        self.digest_sizes = (4,) if smoke else (25,)
        self.families = FamilyTable()

    def descriptors(self, op: LargeOp) -> list[tuple[str, dict, Expr]]:
        return [(fam, descriptor(fam, op.k), op.p1) for fam in P1_FAMILIES] + \
            [("ell", descriptor("ell"), op.ell)]

    def make_round(self, rng, sizes=None) -> list[LargeOp]:
        ops = []
        for n in sizes or self.sizes:
            op = LargeOp(rng.randint(-1, 1), p1_expr(rng, n, 40, 3, 4, distinct=True),
                         ell_expr(rng, n, LARGE_CLASSES, 3, distinct=True))
            for _, desc, _ in self.descriptors(op):
                self.families.get(desc)
            ops.append(op)
        return ops

    def digest_round(self, rng) -> list[LargeOp]:
        return self.make_round(rng, self.digest_sizes)

    def execute(self, op: LargeOp, tr) -> list:
        x = _parse(tr, op.p1.text, "p1")
        y = _parse(tr, op.ell.text, "elliptic")
        return [self._filtration(tr, fam, self.families.get(desc), y if fam == "ell" else x)
                for fam, desc, _ in self.descriptors(op)]

    def _filtration(self, tr, fam: str, family, x):
        filt, report = _hn_verify(tr, fam, family, x)
        with tr.span("stability.to_json"):
            doc = filt.to_json()
        with tr.span("cli.filtration_from_json"):
            x2, filt2 = filtration_from_json(doc)
        with tr.span("stability.verify_hn"):
            report2 = verify_hn(x2, filt2, filt2.family)
        q = len(filt2.quotients)
        tr.count("stability.verify_hn.hom_pairs", q * (q - 1) // 2)
        return x, filt, report, doc, x2, filt2, report2

    def check(self, op: LargeOp, results: list):
        problems, rendered = [], []
        for (fam, desc, expr), result in zip(self.descriptors(op), results):
            x, filt, report, doc, x2, filt2, report2 = result
            family = self.families.get(desc)
            problems += _filtration_problems(family, x, filt, report, expr.k0, f"hn {fam}")
            if not report2.ok:
                problems.append(f"round trip {fam}: verify_hn failed "
                                + ", ".join(c.name for c in report2.failures()))
            if x2 != x or filt2 != filt:
                problems.append(f"round trip {fam}: filtration_from_json(to_json) differs")
            elif filt2.to_json() != doc:
                problems.append(f"round trip {fam}: re-serialised JSON differs")
            rendered.append(_dump(doc))
        return problems, "\n".join(rendered)

    def replay(self, op: LargeOp, results: list, tr) -> None:
        for (fam, desc, _), result in zip(self.descriptors(op), results):
            _replay_filtration(tr, self.families.get(desc), fam, result[0], result[1])


# --- window-mix ---------------------------------------------------------------------

class WindowOp(NamedTuple):
    fam: str
    desc: dict
    expr: Expr
    cut: object       # a cut of `desc`'s family, None on the elliptic side
    bounded: object   # a bounded cut to classify ...
    bdesc: dict       # ... over this family


class WindowMix:
    """Small random window objects: per-call constant costs dominate."""

    name = "window-mix"

    def __init__(self, smoke: bool):
        self.per_family = 2 if smoke else 20
        self.families = FamilyTable()

    def make_round(self, rng) -> list[WindowOp]:
        ops = []
        for fam in FAMILIES:
            for _ in range(self.per_family):
                k = rng.randint(-1, 1)
                points = ()
                if fam in ("std", "ell"):
                    points = rng.choice((POINTS,) + NONLEX_ORDERS)
                desc = descriptor(fam, k, points)
                expr = window_expr(rng, fam)
                if fam == "std":
                    cut = std_cut(rng, points)
                elif fam == "coarse":
                    cut = CoarseCut(rng.randint(-2, 2))
                elif fam == "ell":
                    cut = None
                else:
                    cut = exc_cut(rng, 0 if fam == "exc-p0" else INF)
                bounded, bdesc = bounded_cut(rng)
                self.families.get(desc)
                self.families.get(bdesc)
                ops.append(WindowOp(fam, desc, expr, cut, bounded, bdesc))
        rng.shuffle(ops)
        return ops

    digest_round = make_round

    def execute(self, op: WindowOp, tr):
        family = self.families.get(op.desc)
        x = _parse(tr, op.expr.text, _category(op.fam))
        filt, report = _hn_verify(tr, op.fam, family, x)
        le0 = ge1 = inside = None
        if op.cut is not None:
            with tr.span("tstructures.truncate"):
                le0, ge1 = truncate(x, op.cut, family)
            with tr.span("tstructures.heart_contains"):
                inside = heart_contains(x, op.cut, family)
        with tr.span("tstructures.classify_bounded_cut"):
            cls = classify_bounded_cut(op.bounded, self.families.get(op.bdesc))
        return x, filt, report, le0, ge1, inside, cls

    def check(self, op: WindowOp, result):
        x, filt, report, le0, ge1, inside, cls = result
        family = self.families.get(op.desc)
        problems = _filtration_problems(family, x, filt, report, op.expr.k0, "hn")
        parts = [_dump(filt.to_json())]
        if op.cut is not None:
            if _sum_k0(family, (le0, ge1)) != op.expr.k0:
                problems.append("truncate: k0(le0) + k0(ge1) != k0(x)")
            # x is in the heart iff it lies in the aisle (nothing truncated off)
            # and x[-1] has no part in the aisle.
            below = truncate(x.shift(-1), op.cut, family)[0]
            if inside != (ge1.is_zero and below.is_zero):
                problems.append(f"heart_contains = {inside} disagrees with truncate")
            parts += [le0.render(), ge1.render(), str(inside)]
        problems += self._classification_problems(op, cls)
        parts.append(_dump(cls.to_json()))
        return problems, "\n".join(parts)

    def _classification_problems(self, op: WindowOp, cls) -> list[str]:
        """Applying the twist and shift to the catalog cut must give the input cut."""
        if op.bdesc["family"] == "coarse":
            if (cls.name, cls.twist, cls.shift) != ("A", 0, op.bounded.m):
                return [f"classify: coarse cut {op.bounded.spec()} gave {cls.to_json()}"]
            return []
        params = cls.params_dict()
        points = tuple(op.bdesc.get("point_order", ())) or POINTS
        entry = catalog(cls.name, p=params.get("p"), P=params.get("P"), points=points)
        problems = []
        if apply_twist_shift(entry.cut, cls.twist, cls.shift) != op.bounded:
            problems.append(f"classify: {cls.to_json()} does not reproduce {op.bounded.spec()}")
        if op.bdesc["family"] == "exceptional" and (cls.twist, params.get("p")) != \
                (op.bdesc["k"], op.bdesc["p"]):
            problems.append(f"classify: {cls.to_json()} misses the family {op.bdesc}")
        return problems

    def replay(self, op: WindowOp, result, tr) -> None:
        x, filt = result[0], result[1]
        _replay_filtration(tr, self.families.get(op.desc), op.fam, x, filt)


# --- checks --------------------------------------------------------------------------

class Call(NamedTuple):
    kind: str        # validate_stability, validate_cut, is_finer, coarsen, finest_check
    arg: object      # window, cut, (weak descriptor, window) or (partition, expression)
    expected: object


class CheckOp(NamedTuple):
    fam: str
    desc: dict
    calls: tuple[Call, ...]


class Checks:
    """The axiom checkers: quadratic read-only scans over window generators.

    One op checks one family the way a user validating it would: the
    stability axioms, cuts, refinement, coarsening and the finest
    criterion, as far as each applies to the family.
    """

    name = "checks"

    def __init__(self, smoke: bool):
        self.window_kw = dict(max_degree=2, max_shift=1, samples=3) if smoke else \
            dict(max_degree=6, max_shift=2, samples=30)
        self.families = FamilyTable()

    def window(self, rng) -> Window:
        return Window(max_length=3, seed=rng.randrange(1 << 30), **self.window_kw)

    def make_round(self, rng) -> list[CheckOp]:
        points = rng.choice(NONLEX_ORDERS)
        k = rng.randint(-1, 1)
        a = rng.randint(-3, 3)
        exc = descriptor("exc-p0", k)
        std = descriptor("std", points=points)
        coarse = descriptor("coarse")
        window = self.window
        ops = [
            CheckOp("std", std, (
                Call("validate_stability", window(rng), True),
                Call("validate_cut", std_cut(rng, points), True),
                # P = {lowest point} is not up-closed in the point order
                Call("validate_cut", StandardCut(rng.randint(-2, 2), INF, frozenset(points[:1])),
                     False),
                Call("is_finer", (coarse, window(rng)), (True, "")),
                Call("is_finer", (std, window(rng)), (True, "")),
                Call("coarsen", ("by-shift", window_expr(rng, "std")), True),
                Call("finest_check", window(rng), True))),
            CheckOp("coarse", coarse, (
                Call("validate_stability", window(rng), True),
                Call("validate_cut", CoarseCut(rng.randint(-2, 2)), True),
                Call("is_finer", (std, window(rng)), (False, "well_defined")),
                Call("finest_check", window(rng), False))),
            CheckOp("exc-p0", exc, (
                Call("validate_stability", window(rng), True),
                Call("validate_cut", ExceptionalCut(a, a - rng.choice((1, 2))), True),
                # at p = 0, b must be a-2 or a-1
                Call("validate_cut", ExceptionalCut(a, a - rng.choice((0, 3))), False),
                Call("finest_check", window(rng), True))),
            CheckOp("exc-pinf", descriptor("exc-pinf", k), (
                Call("validate_stability", window(rng), True),
                Call("validate_cut", exc_cut(rng, INF), True),
                Call("is_finer", (coarse, window(rng)), (False, "order")),
                Call("coarsen", ("columns", window_expr(rng, "exc-pinf")), True))),
            CheckOp("ell", descriptor("ell", points=rng.choice((POINTS,) + NONLEX_ORDERS)), (
                Call("validate_stability", window(rng), True),
                Call("finest_check", window(rng), True))),
        ]
        for op in ops:
            self.families.get(op.desc)
        return ops

    digest_round = make_round

    def execute(self, op: CheckOp, tr) -> list:
        family = self.families.get(op.desc)
        return [self._call(family, op.fam, call, tr) for call in op.calls]

    def _call(self, family, fam: str, call: Call, tr):
        if call.kind == "validate_stability":
            with tr.span(f"stability.validate_stability.{fam}"):
                return validate_stability(family, call.arg)
        if call.kind == "validate_cut":
            with tr.span("tstructures.validate_cut"):
                return validate_cut(call.arg, family)
        if call.kind == "is_finer":
            weak_desc, window = call.arg
            weak = self.families.get(weak_desc)
            with tr.span("families.is_finer"):
                return is_finer(family, weak, window)
        if call.kind == "coarsen":
            partition_name, expr = call.arg
            partition = by_shift_partition() if partition_name == "by-shift" else column_partition()
            with tr.span("families.coarsen"):
                coarse = coarsen(family, partition)
            x = _parse(tr, expr.text, "p1")
            with tr.span("stability.hn.coarsened"):
                filt = coarse.hn(x)
            with tr.span("stability.verify_hn"):
                report = verify_hn(x, filt, coarse)
            return coarse, x, filt, report
        with tr.span("families.finest_check"):
            return finest_check(family, call.arg)

    def check(self, op: CheckOp, results: list):
        problems, rendered = [], []
        for call, result in zip(op.calls, results):
            if call.kind == "coarsen":
                coarse, x, filt, report = result
                problems += _filtration_problems(coarse, x, filt, report, call.arg[1].k0,
                                                 "coarsened hn")
                rendered.append(_dump([coarse.descriptor(), filt.to_json()]))
                continue
            if call.kind == "is_finer":
                got = (result.holds, result.condition)
                text = _dump([result.holds, result.condition, result.witness,
                              list(result.witnesses)])
                ok = got == call.expected
            else:
                text = _dump(result.to_json())
                ok = result.ok == call.expected
                if ok and call.kind == "validate_cut" and not result.ok:
                    ok = "cut_constraints" in [c.name for c in result.failures()]
            if not ok:
                problems.append(f"{call.kind}({op.fam}) gave {text}, expected {call.expected}")
            rendered.append(text)
        return problems, "\n".join(rendered)

    def replay(self, op: CheckOp, results: list, tr) -> None:
        family = self.families.get(op.desc)
        for call, result in zip(op.calls, results):
            if call.kind in ("validate_stability", "finest_check"):
                _replay_generator_pairs(tr, family, call.arg)
            elif call.kind == "is_finer":
                _replay_generator_pairs(tr, family, call.arg[1])
            elif call.kind == "coarsen":
                coarse, x, filt, _ = result
                _replay_filtration(tr, coarse, "coarsened", x, filt)


# --- cli -----------------------------------------------------------------------------

SRC = Path(tstab.__file__).resolve().parent.parent
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import tstab; "
                "print((time.perf_counter() - t0) * 1e3)")


class Child(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def _reap(proc: subprocess.Popen) -> tuple[int, int]:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def spawn(args: list[str], stdin_text: str | None = None) -> Child:
    """Run `python -m tstab *args` (or `python *args` for `-c`) to completion."""
    cmd = [sys.executable] + (args if args[0] == "-c" else ["-m", "tstab", *args])
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
                          text=True) as proc:
        if stdin_text is not None:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
        out, err = proc.stdout.read(), proc.stderr.read()
        code, rss = _reap(proc)
    return Child(code, out, err, rss)


def spawn_pipe(first: list[str], second: list[str]) -> Child:
    """`tstab *first | tstab *second`; both run at once, like a shell pipe."""
    read_end, write_end = os.pipe()
    with subprocess.Popen([sys.executable, "-m", "tstab", *first], stdin=subprocess.DEVNULL,
                          stdout=write_end, stderr=subprocess.PIPE, env=CHILD_ENV,
                          text=True) as head:
        os.close(write_end)
        with subprocess.Popen([sys.executable, "-m", "tstab", *second], stdin=read_end,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
                              text=True) as tail:
            os.close(read_end)
            out, err = tail.stdout.read(), tail.stderr.read()
            err = head.stderr.read() + err
            code_tail, rss_tail = _reap(tail)
        code_head, rss_head = _reap(head)
    return Child(code_head or code_tail, out, err, max(rss_head, rss_tail))


class CliOp(NamedTuple):
    argv: tuple[str, ...]
    pipe_from: tuple[str, ...] | None = None  # argv whose stdout feeds this one


def in_process(argv, stdin_text: str | None = None) -> tuple[int, str]:
    """`tstab.cli.run` on the same argv, stdout captured."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = tstab.cli.run(list(argv), out=out)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Cli:
    """One `python -m tstab` process per op: start-up, import and emit."""

    name = "cli"
    in_children = True  # ops run in child processes

    def __init__(self, smoke: bool):
        self.reference: dict[CliOp, tuple[int, str]] = {}
        self.max_child_rss_kb = 0

    def make_round(self, rng) -> list[CliOp]:
        def p1():
            return window_expr(rng, "std").text

        def fmt():
            return ["--format", "json"] if rng.random() < 0.3 else []

        def points():
            # a non-lexicographic order half of the time
            return ["--points", ",".join(rng.choice(NONLEX_ORDERS))] if rng.random() < 0.5 else []

        k, p = str(rng.randint(-1, 1)), rng.choice(("0", "1", "inf"))
        a = rng.randint(-3, 3)
        exc_spec = f"exc:a={a},b={a - 1 - rng.randint(0, 1)}"  # valid at p = 0
        std_points = rng.choice(NONLEX_ORDERS)
        std_spec = f"std:m={rng.randint(-2, 2)},K=inf,P={';'.join(std_points[1:])}"
        return [
            CliOp(("normalize", p1(), *fmt())),
            CliOp(("hom", p1(), p1(), *fmt())),
            CliOp(("hn", p1(), "--stability", "std", *points(), *fmt())),
            CliOp(("hn", p1(), "--stability", "coarse", *fmt())),
            CliOp(("hn", p1(), "--stability", "exc", "--k", k, "--p", p, *fmt())),
            CliOp(("hn", window_expr(rng, "ell").text, "--stability", "ell", *points(), *fmt())),
            CliOp(("truncate", p1(), "--cut", std_spec, "--points", ",".join(std_points), *fmt())),
            CliOp(("heart", "--cut", exc_spec, "--contains", p1(), "--k", k, "--p", "0", *fmt())),
            CliOp(("catalog", "--format", "json")),
            CliOp(("catalog", "F", "--params", f"p={rng.randint(0, 3)}", "--diagram")),
            CliOp(("check", "cut", "--cut", exc_spec, "--k", "0", "--p", "0", *fmt())),
            CliOp(("check", "hn", *fmt()),
                  pipe_from=("hn", p1(), "--stability", "exc", "--k", k, "--p", p,
                             "--format", "json")),
            CliOp(("compare", "--fine", "std", "--weak", "coarse", *fmt())),
        ]

    digest_round = make_round

    def execute(self, op: CliOp, tr) -> Child:
        if op.pipe_from is None:
            child = spawn(list(op.argv))
        else:
            child = spawn_pipe(list(op.pipe_from), list(op.argv))
        self.max_child_rss_kb = max(self.max_child_rss_kb, child.maxrss_kb)
        return child

    def expected(self, op: CliOp) -> tuple[int, str]:
        ref = self.reference.get(op)
        if ref is None:
            stdin_text = None
            if op.pipe_from is not None:
                code, stdin_text = self.expected(CliOp(op.pipe_from))
                if code != 0:
                    return code, stdin_text
            ref = self.reference[op] = in_process(op.argv, stdin_text)
        return ref

    def check(self, op: CliOp, child: Child):
        code, out = self.expected(op)
        problems = []
        if code != 0:
            problems.append(f"in-process run of {' '.join(op.argv)} exited {code}: {out.strip()}")
        if child.returncode != 0:
            problems.append(f"tstab {' '.join(op.argv)} exited {child.returncode}: "
                            f"{child.stderr.strip()[-300:]}")
        elif child.stdout != out:
            problems.append(f"tstab {' '.join(op.argv)}: stdout differs from cli.run")
        return problems, out

    def digest_output(self, op: CliOp):
        """Digest rounds run in-process; subprocess output is checked against it per op."""
        code, out = self.expected(op)
        problems = [] if code == 0 else [f"in-process {' '.join(op.argv)} exited {code}"]
        return problems, out

    def replay(self, op: CliOp, child: Child, tr) -> None:
        stdin_text = None
        if op.pipe_from is not None:
            stdin_text = self.expected(CliOp(op.pipe_from))[1]
        with tr.span("cli.run"):
            in_process(op.argv, stdin_text)

    def probe_round(self) -> dict[str, float]:
        """Interpreter start-up (`python -c pass`) and `import tstab` as a child times it."""
        t0 = time.perf_counter()
        bare = spawn(["-c", "pass"])
        start_ms = (time.perf_counter() - t0) * 1e3
        probe = spawn(["-c", IMPORT_PROBE])
        if bare.returncode or probe.returncode:
            raise RuntimeError(f"probe failed: {bare.stderr}{probe.stderr}")
        return {"cli.interp_start_ms": start_ms, "cli.import_ms": float(probe.stdout)}


WORKLOADS = {cls.name: cls for cls in (LargeHN, WindowMix, Checks, Cli)}
