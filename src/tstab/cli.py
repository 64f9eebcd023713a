"""Command-line front end: expression parser, subcommands, emitters.

Object expressions follow the grammar

    expr := term ("+" term)*
    term := [nat "*"] atom ["[" int "]"]
    atom := "O(" int ")" | "T(" label "," nat ")" | "S(" int "," int "," label ")" | "0"

with arbitrary whitespace.  O/T atoms build objects on the projective
line, S atoms build elliptic objects; the two kinds cannot be mixed.

Cut specifications: ``std:m=M,K=<int|inf|-inf>,P=<lbl;lbl|all|none>``,
``exc:a=<int|inf|-inf>,b=<int|inf|-inf>`` and ``coarse:m=M``.  Family
specifications: ``std``, ``coarse``, ``exc:k=K,p=<nat|inf>``, ``ell``.

Session configuration is a plain ``key = value`` file (``points = x,y,z``
fixes the point order; ``k``, ``p``, ``format``, ``seed`` supply
defaults); command-line flags override the file.

Exit codes: 0 success (checks passed), 1 domain error or failed check,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections.abc import Sequence

from .elliptic import EllipticObject, ShiftedClass, StableClass, normalize_elliptic
from .errors import (FiltrationFormatError, InvalidLengthError, NonCoprimeError,
                     ObjectParseError, TStabError)
from .families import INF, family_from_descriptor, is_finer
from .p1 import (DEFAULT_POINTS, DerivedObject, Line, Point, ShiftedIndec, Torsion,
                 hom_profile, normalize, point_resolver)
from .stability import (INT_TEXT, HNFiltration, Report, StabilityFamily, Window,
                        validate_stability, verify_hn)
from .tstructures import (CATALOG_NAMES, CoarseCut, ExceptionalCut, SlopeCut, StandardCut,
                          catalog, catalog_entries, diagram, heart_contains, heart_slopes,
                          is_bounded, truncate, validate_cut)
from .value import Value, assign


# --- expression parser ---------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str):
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ObjectParseError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ObjectParseError("expected a natural number", start)
        return int(self.text[start:self.pos])

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] in ("+", "-"):
            raise ObjectParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def label(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise ObjectParseError("expected a point label", start)
        return self.text[start:self.pos]


# One summand with the scanner's whitespace rules: optional multiplicity,
# an atom, an optional shift, then "+" or the end.  ASCII digits and
# labels only, so every match is also accepted by `_Scanner`.  A shifted
# zero atom is left to the scanner, which reads (and range-checks) its shift.
# Compiled on first use, through `re`'s own cache, so commands that parse no
# expression do not pay for it at import.
_SUMMAND = r"""
    \s*(?:(?P<mult>[0-9]+)\s*\*\s*)?
    (?P<atom>
        O\s*\(\s*(?P<n>[+-]?[0-9]+)\s*\)
      | T\s*\(\s*(?P<tx>[A-Za-z0-9]+)\s*,\s*(?P<td>[0-9]+)\s*\)
      | S\s*\(\s*(?P<r>[+-]?[0-9]+)\s*,\s*(?P<d>[+-]?[0-9]+)\s*,\s*(?P<sx>[A-Za-z0-9]+)\s*\)
      | 0(?!\s*\[)
    )
    (?:\s*\[\s*(?P<shift>[+-]?[0-9]+)\s*\])?
    \s*(?:(?P<more>\+)|\Z)
"""


def parse_object(text: str, category: str = "auto", resolve_point=None
                 ) -> DerivedObject | EllipticObject:
    """Parse an object expression into its normal form.

    `category` is "auto", "p1" or "elliptic"; in auto mode the atoms
    decide (S builds elliptic objects, O/T build objects on the line,
    a bare 0 is the zero object of the requested side, defaulting to
    the line).  `resolve_point` maps labels to Points and defaults to
    label-ordered points.
    """
    return _parse_object(text, category, resolve_point or Point, {})


def _parse_object(text: str, category: str, resolve_point, atoms: dict
                  ) -> DerivedObject | EllipticObject:
    """`parse_object` with `atoms`, a memo from atom text to (side, atom, key).

    Well-formed text is read a summand at a time by `_SUMMAND`.  Text
    it does not match, or whose values fail a check, goes to `_scan_object`,
    which raises the parse error.  The memo may be shared by calls with the
    same category and resolver.
    """
    if not isinstance(text, str):
        return _scan_object(text, category, resolve_point)
    match = re.compile(_SUMMAND, re.VERBOSE).match
    side, pairs = None, []
    pos, more, last, ascending = 0, True, None, True
    while more:
        m = match(text, pos)
        if m is None:
            return _scan_object(text, category, resolve_point)
        pos = m.end()
        mult, atom_text, shift_text, more = m.group("mult", "atom", "shift", "more")
        mult = 1 if mult is None else int(mult)
        if atom_text == "0":
            continue  # the zero object contributes nothing
        entry = atoms.get((atom_text, shift_text))
        if entry is None:
            entry = _memo_atom(m, resolve_point)
            if entry is None:
                return _scan_object(text, category, resolve_point)
            atoms[atom_text, shift_text] = entry
        atom_side, atom, key = entry
        if side is None:
            side = atom_side
        elif atom_side != side:
            return _scan_object(text, category, resolve_point)
        ascending = ascending and mult > 0 and (last is None or last < key)
        last = key
        pairs.append((atom, mult))
    if side is None:
        side = "elliptic" if category == "elliptic" else "p1"
    elif category in ("p1", "elliptic") and category != side:
        return _scan_object(text, category, resolve_point)
    # Summands in strictly ascending key order with positive multiplicities
    # (as `render` writes them) are already a normal form.
    if side == "elliptic":
        return EllipticObject(tuple(pairs)) if ascending else normalize_elliptic(pairs)
    return DerivedObject(tuple(pairs)) if ascending else normalize(pairs)


def _memo_atom(m: re.Match, resolve_point) -> tuple[str, object, tuple] | None:
    """(side, shifted atom, sort key) of a matched summand; None if a value
    check fails.  Values are read in the scanner's order, so a conversion
    or resolver error is the one the scanner would raise."""
    if m.group("n") is not None:
        base = Line(int(m.group("n")))
        atom = ShiftedIndec(base, int(m.group("shift") or 0))
        return "p1", atom, atom.key()
    if m.group("td") is not None:
        d = int(m.group("td"))
        if d == 0:
            return None
        base = Torsion(resolve_point(m.group("tx")), d)
        atom = ShiftedIndec(base, int(m.group("shift") or 0))
        return "p1", atom, atom.key()
    r, d = int(m.group("r")), int(m.group("d"))
    if r < 0 or math.gcd(r, d) != 1:
        return None
    cls = StableClass(r, d, resolve_point(m.group("sx")))
    atom = ShiftedClass(cls, int(m.group("shift") or 0))
    return "elliptic", atom, atom.key()


def _scan_object(text: str, category: str, resolve_point
                 ) -> DerivedObject | EllipticObject:
    """Parse character by character, raising the error of malformed text."""
    sc = _Scanner(text)
    p1_terms: list[tuple[ShiftedIndec, int]] = []
    ell_terms: list[tuple[ShiftedClass, int]] = []

    while True:
        sc.skip_ws()
        mult = 1
        if sc.peek().isdigit():
            pos = sc.pos
            mult = sc.nat()
            if sc.peek() == "*":
                sc.take("*")
            elif mult == 0 and sc.peek() in ("", "+", "["):
                # a bare 0 atom (possibly shifted): the zero object
                if sc.peek() == "[":
                    sc.take("[")
                    sc.integer()
                    sc.take("]")
                mult = None  # marker: contributed nothing
            else:
                raise ObjectParseError("expected '*' after a multiplicity", sc.pos)
        if mult is None:
            pass
        else:
            atom_pos = sc.pos
            head = sc.peek()
            if head == "0":
                sc.take("0")
                _opt_shift(sc)  # the zero object contributes nothing
            elif head == "O":
                sc.take("O")
                sc.take("(")
                n = sc.integer()
                sc.take(")")
                base = Line(n)
                shift = _opt_shift(sc)
                p1_terms.append((ShiftedIndec(base, shift), mult))
            elif head == "T":
                sc.take("T")
                sc.take("(")
                lbl = sc.label()
                sc.take(",")
                d = sc.nat()
                sc.take(")")
                if d == 0:
                    raise InvalidLengthError("torsion length must be >= 1", atom_pos)
                base = Torsion(resolve_point(lbl), d)
                shift = _opt_shift(sc)
                p1_terms.append((ShiftedIndec(base, shift), mult))
            elif head == "S":
                sc.take("S")
                sc.take("(")
                r = sc.integer()
                sc.take(",")
                d = sc.integer()
                sc.take(",")
                lbl = sc.label()
                sc.take(")")
                if r < 0 or math.gcd(r, d) != 1:
                    raise NonCoprimeError(
                        f"stable classes need coprime rank >= 0 and degree, got ({r},{d})",
                        atom_pos)
                cls = StableClass(r, d, resolve_point(lbl))
                shift = _opt_shift(sc)
                ell_terms.append((ShiftedClass(cls, shift), mult))
            else:
                raise ObjectParseError("expected an atom O(...), T(...), S(...) or 0", sc.pos)
        if sc.at_end():
            break
        sc.take("+")

    if p1_terms and ell_terms:
        raise ObjectParseError("cannot mix O/T atoms with S atoms", 0)
    if category == "p1" and ell_terms:
        raise ObjectParseError("an object on the line was expected", 0)
    if category == "elliptic" and p1_terms:
        raise ObjectParseError("an elliptic object was expected", 0)
    if ell_terms or category == "elliptic":
        return normalize_elliptic(ell_terms)
    return normalize(p1_terms)


def _opt_shift(sc: _Scanner) -> int:
    if sc.peek() == "[":
        sc.take("[")
        n = sc.integer()
        sc.take("]")
        return n
    return 0


# --- session configuration -------------------------------------------------------

class SessionConfig(Value):
    """Resolved session settings: point order, family defaults, output mode."""

    __slots__ = ("points", "k", "p", "fmt", "seed")

    def __init__(self, points: tuple[str, ...] = (), k: int = 0, p: int | float = 0,
                 fmt: str = "text", seed: int = 0):
        assign(self, locals())


def _int_field(text: str, name: str, where: str, infinite: tuple[str, ...] = ()) -> int | float:
    """An integer field of a spec, flag or config line, or one of the
    `infinite` spellings ("inf", "-inf"); anything else raises TStabError
    naming the field and where it was given."""
    if text in infinite:
        return -INF if text == "-inf" else INF
    if not re.match(INT_TEXT, text):
        allowed = " or ".join(("an integer", *infinite))
        raise TStabError(f"{name} must be {allowed}, got {text!r} in {where!r}")
    return int(text)


def _parse_p(text: str, where: str) -> int | float:
    value = _int_field(text, "p", where, ("inf",))
    if value < 0:
        raise ValueError("p must be nonnegative or inf")
    return value


def load_config(path: str) -> dict:
    settings: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise TStabError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key == "points":
                settings["points"] = tuple(part.strip() for part in value.split(",") if part.strip())
            elif key == "k":
                settings["k"] = _int_field(value, "k", f"{path}:{lineno}")
            elif key == "p":
                settings["p"] = _parse_p(value, f"{path}:{lineno}")
            elif key == "format":
                if value not in ("text", "json"):
                    raise TStabError(f"{path}:{lineno}: format must be text or json")
                settings["fmt"] = value
            elif key == "seed":
                settings["seed"] = _int_field(value, "seed", f"{path}:{lineno}")
            else:
                raise TStabError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def make_session(args: argparse.Namespace) -> SessionConfig:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(load_config(args.config))
    if getattr(args, "points", None):
        settings["points"] = tuple(part.strip() for part in args.points.split(",") if part.strip())
    if getattr(args, "k", None) is not None:
        settings["k"] = args.k
    if getattr(args, "p", None) is not None:
        settings["p"] = _parse_p(args.p, "--p")
    if getattr(args, "format", None):
        settings["fmt"] = args.format
    if getattr(args, "seed", None) is not None:
        settings["seed"] = args.seed
    return SessionConfig(**settings)


# --- cut and family specifications -------------------------------------------------

# The fields each kind of spec takes; any other field is an error.
_CUT_FIELDS = {"std": ("m", "K", "P"), "exc": ("a", "b"), "coarse": ("m",)}
_FAMILY_FIELDS = {"std": (), "coarse": (), "exc": ("k", "p"), "ell": ()}
_CATALOG_FIELDS = {**dict.fromkeys(CATALOG_NAMES, ()), "D": ("P",), "E": ("p",), "F": ("p",)}
_BOUND = ("inf", "-inf")


def _spec_fields(spec: str, what: str, allowed: dict) -> tuple[str, dict]:
    """Split ``kind:key=value,...`` into the kind and its fields.

    A field without "=", a repeated field and, for a known kind, a field
    the kind does not take are errors; an unknown kind is left to the caller.
    """
    kind, _, body = spec.partition(":")
    fields: dict = {}
    for part in body.split(",") if body else ():
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise TStabError(f"bad {what} field {part!r} in {spec!r}")
        if key in fields:
            raise TStabError(f"repeated {what} field {key!r} in {spec!r}")
        if kind in allowed and key not in allowed[kind]:
            raise TStabError(f"unknown {what} field {key!r} in {spec!r}")
        fields[key] = value.strip()
    return kind, fields


def parse_cutspec(spec: str, session: SessionConfig) -> tuple[SlopeCut, StabilityFamily]:
    """Parse a cut specification and build the matching family."""
    kind, fields = _spec_fields(spec, "cut", _CUT_FIELDS)
    if kind == "std":
        m = _int_field(fields.get("m", "0"), "m", spec)
        K = _int_field(fields.get("K", "-inf"), "K", spec, _BOUND)
        p_field = fields.get("P", "all")
        if p_field == "all":
            P = None
        elif p_field == "none":
            P = frozenset()
        else:
            P = frozenset(lbl for lbl in p_field.split(";") if lbl)
        cut = StandardCut(m, K, P)
    elif kind == "exc":
        if "a" not in fields or "b" not in fields:
            raise TStabError("an exceptional cut needs a and b")
        cut = ExceptionalCut(_int_field(fields["a"], "a", spec, _BOUND),
                             _int_field(fields["b"], "b", spec, _BOUND))
    elif kind == "coarse":
        cut = CoarseCut(_int_field(fields.get("m", "0"), "m", spec))
    else:
        raise TStabError(f"unknown cut kind {kind!r} (use std:, exc: or coarse:)")
    return cut, parse_famspec(kind, session)


def parse_famspec(spec: str, session: SessionConfig) -> StabilityFamily:
    """Build the family a spec names, through its README descriptor.

    `exc` takes k and p from the spec's fields, else from the session.
    """
    kind, fields = _spec_fields(spec, "family", _FAMILY_FIELDS)
    if kind == "std":
        desc = {"family": "standard", "point_order": list(session.points)}
    elif kind == "coarse":
        desc = {"family": "coarse"}
    elif kind == "exc":
        k = _int_field(fields["k"], "k", spec) if "k" in fields else session.k
        p = _parse_p(fields["p"], spec) if "p" in fields else session.p
        desc = {"family": "exceptional", "k": k, "p": "inf" if p == INF else p}
    elif kind == "ell":
        desc = {"family": "elliptic", "point_order": list(session.points)}
    else:
        raise TStabError(f"unknown family {spec!r} (use std, coarse, exc:k=..,p=.. or ell)")
    return family_from_descriptor(desc)


# --- output helpers -----------------------------------------------------------------

def _emit(payload: dict, text: str, session: SessionConfig, out) -> None:
    if session.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(text, file=out)


def _filtration_text(filt: HNFiltration) -> str:
    fam = filt.family
    lines = [f"object: {filt.object.render()}"]
    lines.append("quotients:")
    for slope, obj in filt.quotients:
        lines.append(f"  {fam.render_slope(slope)}: {obj.render()}")
    lines.append("terms: " + " -> ".join(t.render() for t in filt.terms))
    return "\n".join(lines)


def filtration_from_json(data: dict) -> tuple[object, HNFiltration]:
    """Rebuild (object, filtration) from the serialised form.

    The document comes from outside: a missing field or one of the wrong
    type raises FiltrationFormatError naming it.
    """
    try:
        family = family_from_descriptor(data["family"])
        category = _category(family)
        resolver = point_resolver(family.point_labels)
        atoms: dict = {}  # terms are suffix sums: most of their atoms repeat

        def parse(text):
            return _parse_object(text, category, resolver, atoms)

        obj = parse(data["object"])
        quotients = tuple((family.slope_from_json(q["slope"]), parse(q["object"]))
                          for q in data["quotients"])
        terms = tuple(parse(t) for t in data["terms"])
    except KeyError as exc:
        raise FiltrationFormatError(f"filtration JSON lacks the field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise FiltrationFormatError(f"malformed filtration JSON: {exc}") from None
    return obj, HNFiltration(family, quotients, terms)


def _category(family: StabilityFamily) -> str:
    """The `parse_object` category of the family's objects."""
    return "elliptic" if isinstance(family.zero, EllipticObject) else "p1"


# --- subcommand handlers --------------------------------------------------------------

def _cmd_normalize(args, session, out) -> int:
    obj = parse_object(args.expr, "auto", point_resolver(session.points))
    _emit({"object": obj.render()}, obj.render(), session, out)
    return 0


def _cmd_hom(args, session, out) -> int:
    resolver = point_resolver(session.points)
    x = parse_object(args.x, "auto", resolver)
    y = parse_object(args.y, "auto", resolver)
    if type(x) is not type(y):
        raise TStabError("both objects must live on the same curve")
    profile = hom_profile(x, y)
    if args.degree is not None:
        dim = profile[args.degree]
        _emit({"dim": dim}, str(dim), session, out)
        return 0
    payload = {"profile": {str(q): n for q, n in profile.items()}}
    text = "\n".join(f"{q}: {n}" for q, n in profile.items()) or "0"
    _emit(payload, text, session, out)
    return 0


def _cmd_hn(args, session, out) -> int:
    family = parse_famspec(args.stability, session)
    obj = parse_object(args.expr, _category(family), point_resolver(session.points))
    filt = family.hn(obj)
    _emit(filt.to_json(), _filtration_text(filt), session, out)
    return 0


def _cmd_truncate(args, session, out) -> int:
    cut, family = parse_cutspec(args.cut, session)
    obj = parse_object(args.expr, "p1", point_resolver(session.points))
    le0, ge1 = truncate(obj, cut, family)
    _emit({"le0": le0.render(), "ge1": ge1.render()},
          f"le0: {le0.render()}\nge1: {ge1.render()}", session, out)
    return 0


def _cmd_heart(args, session, out) -> int:
    cut, family = parse_cutspec(args.cut, session)
    gens = heart_slopes(cut, family).generators()
    bounded = is_bounded(cut, family)
    payload: dict = {"generators": gens, "bounded": bounded}
    lines = ["heart generators:"] + [f"  {g}" for g in gens]
    if not gens:
        lines = ["heart generators: (none)"]
    lines.append(f"bounded: {str(bounded).lower()}")
    if args.contains is not None:
        obj = parse_object(args.contains, "p1", point_resolver(session.points))
        member = heart_contains(obj, cut, family)
        payload["contains"] = member
        lines.append(f"contains {obj.render()}: {str(member).lower()}")
    _emit(payload, "\n".join(lines), session, out)
    return 0


def _cmd_catalog(args, session, out) -> int:
    points = session.points or DEFAULT_POINTS
    if not args.name:
        entries = catalog_entries(points=points, p=0)
        payload = {"entries": [e.to_json() for e in entries]}
        text = "\n".join(f"{e.name:<2} bounded={str(e.bounded).lower():<5} "
                         f"heart: {'; '.join(e.heart.generators()) or '(none)'}"
                         for e in entries)
        _emit(payload, text, session, out)
        return 0
    spec = f"{args.name}:{','.join(args.params)}"
    _, params = _spec_fields(spec, "parameter", _CATALOG_FIELDS)
    p = _parse_p(params["p"], spec) if "p" in params else None
    P = frozenset(lbl for lbl in params["P"].split(";") if lbl) if "P" in params else None
    entry = catalog(args.name, p=p, P=P, points=points)
    if args.diagram:
        text = diagram(entry.cut, entry.family)
        _emit({**entry.to_json(), "diagram": text}, text, session, out)
        return 0
    gens = "; ".join(entry.heart.generators()) or "(none)"
    text = (f"{entry.name}{_fmt_params(entry.params_dict())}: bounded={str(entry.bounded).lower()}"
            f"\nheart: {gens}\ncut: {entry.cut.spec()}")
    _emit(entry.to_json(), text, session, out)
    return 0


def _fmt_params(params: dict) -> str:
    if not params:
        return ""
    inner = ", ".join(f"{k}={sorted(v) if isinstance(v, frozenset) else v}"
                      for k, v in params.items())
    return f"({inner})"


class UsageError(Exception):
    """A command-line value is out of range (exit code 2)."""


def _nonnegative(args, name: str) -> int:
    value = getattr(args, name)
    if value < 0:
        raise UsageError(f"--{name} must be >= 0, got {value}")
    return value


def _window_from_args(args, session) -> Window:
    samples = _nonnegative(args, "samples") if hasattr(args, "samples") else 30
    return Window(max_degree=_nonnegative(args, "window"), max_shift=2, max_length=3,
                  samples=samples, seed=session.seed)


def _report_exit(report: Report, session, out) -> int:
    _emit(report.to_json(), report.summary(), session, out)
    return 0 if report.ok else 1


def _cmd_check(args, session, out) -> int:
    if args.what == "stability":
        family = parse_famspec(args.stability, session)
        window = _window_from_args(args, session)
        return _report_exit(validate_stability(family, window), session, out)
    if args.what == "cut":
        if not args.cut:
            raise TStabError("check cut needs --cut")
        cut, family = parse_cutspec(args.cut, session)
        radius = _nonnegative(args, "window")
        return _report_exit(validate_cut(cut, family, radius=radius), session, out)
    if args.what == "hn":
        try:
            if args.input and args.input != "-":
                with open(args.input, encoding="utf-8") as handle:
                    data = json.load(handle)
            else:
                data = json.load(sys.stdin)
            obj, filt = filtration_from_json(data)
        except RecursionError:
            raise FiltrationFormatError("malformed filtration JSON: nested too deeply") from None
        return _report_exit(verify_hn(obj, filt, filt.family), session, out)
    raise TStabError(f"unknown check {args.what!r}")


def _cmd_compare(args, session, out) -> int:
    fine = parse_famspec(args.fine, session)
    weak = parse_famspec(args.weak, session)
    window = _window_from_args(args, session)
    verdict = is_finer(fine, weak, window)
    payload = {"finer": verdict.holds, "condition": verdict.condition,
               "witness": verdict.witness, "witnesses": list(verdict.witnesses)}
    if verdict.holds:
        text = "finer: true"
    else:
        text = f"finer: false ({verdict.condition}: {verdict.witness})"
    _emit(payload, text, session, out)
    return 0


# --- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=None)
    common.add_argument("--config", default=None, help="session config file")
    common.add_argument("--points", default=None, help="comma-separated point order")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--k", type=int, default=None, help="twist of the exceptional pair")
    common.add_argument("--p", default=None, help="interleaving parameter (nat or inf)")

    parser = argparse.ArgumentParser(prog="tstab",
                                     description="stability data and t-structures on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", parents=[common], help="normal form of an object")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("hom", parents=[common], help="graded Hom dimensions")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.add_argument("--degree", type=int, default=None)
    sp.set_defaults(func=_cmd_hom)

    sp = sub.add_parser("hn", parents=[common], help="Harder-Narasimhan filtration")
    sp.add_argument("expr")
    sp.add_argument("--stability", required=True, choices=("std", "exc", "coarse", "ell"))
    sp.set_defaults(func=_cmd_hn)

    sp = sub.add_parser("truncate", parents=[common], help="truncation at a cut")
    sp.add_argument("expr")
    sp.add_argument("--cut", required=True)
    sp.set_defaults(func=_cmd_truncate)

    sp = sub.add_parser("heart", parents=[common], help="heart of a cut")
    sp.add_argument("--cut", required=True)
    sp.add_argument("--contains", default=None)
    sp.set_defaults(func=_cmd_heart)

    sp = sub.add_parser("catalog", parents=[common], help="named t-structures")
    sp.add_argument("name", nargs="?", default=None, choices=CATALOG_NAMES + (None,))
    sp.add_argument("--params", action="append", default=[])
    sp.add_argument("--diagram", action="store_true")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("check", parents=[common], help="axiom and contract checks")
    sp.add_argument("what", choices=("stability", "cut", "hn"))
    sp.add_argument("--stability", default="std", choices=("std", "exc", "coarse", "ell"))
    sp.add_argument("--cut", default=None)
    sp.add_argument("--window", type=int, default=6)
    sp.add_argument("--samples", type=int, default=30)
    sp.add_argument("--input", default=None, help="filtration JSON (default: stdin)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("compare", parents=[common], help="refinement order of families")
    sp.add_argument("--fine", required=True)
    sp.add_argument("--weak", required=True)
    sp.add_argument("--window", type=int, default=6)
    sp.set_defaults(func=_cmd_compare)

    return parser


def run(argv: Sequence[str], out=None) -> int:
    """Execute one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        session = make_session(args)
    except (TStabError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}) if getattr(args, "format", None) == "json"
              else f"error: {exc}", file=out)
        return 1
    try:
        return args.func(args, session, out)
    except UsageError as exc:
        _emit({"error": str(exc)}, f"error: {exc}", session, out)
        return 2
    except TStabError as exc:
        _emit({"error": str(exc)}, f"error: {exc}", session, out)
        return 1
    except ValueError as exc:
        _emit({"error": str(exc)}, f"error: {exc}", session, out)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
