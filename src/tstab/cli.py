"""Command-line front end: session, specifications, subcommands, emitters.

Cut specifications: ``std:m=M,K=<int|inf|-inf>,P=<lbl;lbl|all|none>``
(a P other than ``all`` needs ``K=inf``), ``exc:a=<int|inf|-inf>,b=<int|inf|-inf>``
and ``coarse:m=M``.  Family specifications: ``std``, ``coarse``,
``exc:k=K,p=<nat|inf>``, ``ell``.

Session configuration is a plain ``key = value`` file (``points = x,y,z``
fixes the point order; ``k``, ``p``, ``format``, ``seed`` supply
defaults); command-line flags override the file.

Exit codes: 0 success (checks passed), 1 domain error or failed check,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Sequence

from .errors import FiltrationFormatError, TStabError
from .p1 import DEFAULT_POINTS, hom_profile, point_resolver, point_universe
from .slopes import INF
from .syntax import _category, filtration_from_json, parse_object
from .value import INT_TEXT, Value, assign

# `stability`, `families`, `tstructures` and `elliptic` are imported where
# they are used, so that each command compiles only the modules it needs;
# annotations name their types without importing them.


# --- session configuration -------------------------------------------------------

class SessionConfig(Value):
    """Resolved session settings: point order, family defaults, output mode."""

    __slots__ = ("points", "k", "p", "format", "seed")

    def __init__(self, points: tuple[str, ...] = (), k: int = 0, p: int | float = 0,
                 format: str = "text", seed: int = 0):
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


def _format(text: str, where: str) -> str:
    if text not in ("text", "json"):
        raise TStabError(f"{where}: format must be text or json")
    return text


_SETTINGS = {  # each session setting and its reader (text, where) -> value
    "points": lambda text, where: tuple(part.strip() for part in text.split(",") if part.strip()),
    "k": lambda text, where: _int_field(text, "k", where),
    "p": _parse_p,
    "format": _format,
    "seed": lambda text, where: _int_field(text, "seed", where),
}


def _read(path: str) -> str:
    """The text of a file named on the command line; an OSError (missing
    file, directory, no permission) or text that is not UTF-8 is a
    TStabError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise TStabError(f"cannot read {path!r}: {reason}") from None


def load_config(path: str, settings: dict | None = None) -> dict:
    """The settings of a config file, read line by line into `settings`."""
    settings = {} if settings is None else settings
    for lineno, raw in enumerate(_read(path).split("\n"), 1):
        stripped, where = raw.strip(), f"{path}:{lineno}"
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in stripped.partition("="))
        if not eq:
            raise TStabError(f"{where}: expected 'key = value'")
        if key not in _SETTINGS:
            raise TStabError(f"{where}: unknown key {key!r}")
        settings[key] = _SETTINGS[key](value, where)
    return settings


def make_session(args: argparse.Namespace, settings: dict | None = None) -> SessionConfig:
    """The config file's settings, overridden by each setting flag given;
    `settings` receives each setting as it is read."""
    settings = {} if settings is None else settings
    if getattr(args, "config", None):
        load_config(args.config, settings)
    for key, read in _SETTINGS.items():
        text = getattr(args, key, None)
        if text is not None:
            settings[key] = read(text, f"--{key}")
    return SessionConfig(**settings)


# --- cut and family specifications -------------------------------------------------

# Each family spec kind and the README descriptor it names.
_FAMILIES = {"std": "standard", "coarse": "coarse", "exc": "exceptional", "ell": "elliptic"}
_BOUND = ("inf", "-inf")
# Each cut kind: its `tstructures` class and its fields in reading order, as (name,
# default, infinite spellings); a field without a default is required, P is a point set.
_CUTS = {"std": ("StandardCut", (("m", "0", ()), ("K", "-inf", _BOUND), ("P", "all", ()))),
         "exc": ("ExceptionalCut", (("a", None, _BOUND), ("b", None, _BOUND))),
         "coarse": ("CoarseCut", (("m", "0", ()),))}
# The fields each kind of spec takes; any other field is an error.
_FAMILY_FIELDS = {kind: ("k", "p") if kind == "exc" else () for kind in _FAMILIES}
_CUT_FIELDS = {kind: tuple(name for name, _, _ in fields) for kind, (_, fields) in _CUTS.items()}
# The names `tstructures.catalog` knows, and the parameters each takes.
CATALOG_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "I")
_CATALOG_FIELDS = {**dict.fromkeys(CATALOG_NAMES, ()), "D": ("P",), "E": ("p",), "F": ("p",)}


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


def _point_set(text: str, everything: frozenset[str] | None = None) -> frozenset[str] | None:
    """The point set of a ``P=`` field: `all` is `everything`, `none` the empty set."""
    labels = () if text == "none" else text.split(";")
    return everything if text == "all" else frozenset(lbl for lbl in labels if lbl)


def parse_cutspec(spec: str, session: SessionConfig) -> tuple[SlopeCut, StabilityFamily]:
    """Parse a cut specification and build the matching family."""
    from . import tstructures
    kind, fields = _spec_fields(spec, "cut", _CUT_FIELDS)
    if kind not in _CUTS:
        raise TStabError(f"unknown cut kind {kind!r} (use std:, exc: or coarse:)")
    cls_name, table = _CUTS[kind]
    required = [name for name, default, _ in table if default is None]
    if any(name not in fields for name in required):
        raise TStabError(f"an {_FAMILIES[kind]} cut needs {' and '.join(required)}")
    values = [_point_set(fields.get(name, default)) if name == "P"
              else _int_field(fields.get(name, default), name, spec, infinite)
              for name, default, infinite in table]
    if kind == "std" and values[1] != INF and fields.get("P", "all") != "all":
        raise TStabError(f"P must be all unless K = inf, got {fields['P']!r} in {spec!r}")
    return getattr(tstructures, cls_name)(*values), parse_famspec(kind, session)


def parse_famspec(spec: str, session: SessionConfig) -> StabilityFamily:
    """Build the family a spec names, through its README descriptor.

    `exc` takes k and p from the spec's fields, else from the session.
    """
    from .families import family_from_descriptor
    kind, fields = _spec_fields(spec, "family", _FAMILY_FIELDS)
    if kind not in _FAMILIES:
        raise TStabError(f"unknown family {spec!r} (use std, coarse, exc:k=..,p=.. or ell)")
    k = _int_field(fields["k"], "k", spec) if "k" in fields else session.k
    p = _parse_p(fields["p"], spec) if "p" in fields else session.p
    return family_from_descriptor({"family": _FAMILIES[kind], "point_order": list(session.points),
                                   "k": k, "p": "inf" if p == INF else p})


# --- output helpers -----------------------------------------------------------------

def _emit(payload: dict, text: str, session: SessionConfig, out) -> None:
    if session.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(text, file=out)


def _filtration_text(filt: HNFiltration, doc: dict) -> str:
    """The text form of `filt`, with the object texts of its document `doc`."""
    render = filt.family.render_slope
    lines = [f"object: {doc['object']}", "quotients:"]
    lines += [f"  {render(s)}: {q['object']}" for s, q in zip(filt.slopes, doc["quotients"])]
    lines.append("terms: " + " -> ".join(doc["terms"]))
    return "\n".join(lines)


# --- subcommand handlers --------------------------------------------------------------

def _cmd_normalize(args, session, out) -> int:
    obj = parse_object(args.expr, "auto", point_resolver(session.points))
    _emit({"object": obj.render()}, obj.render(), session, out)
    return 0


def _cmd_hom(args, session, out) -> int:
    resolver = point_resolver(session.points)
    x = parse_object(args.x, "auto", resolver)
    y = parse_object(args.y, "auto", resolver)
    if type(x) is not type(y) and x.terms and y.terms:  # a zero lives on either curve
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
    doc = filt.to_json()
    _emit(doc, _filtration_text(filt, doc), session, out)
    return 0


def _cmd_truncate(args, session, out) -> int:
    from .tstructures import truncate
    cut, family = parse_cutspec(args.cut, session)
    obj = parse_object(args.expr, "p1", point_resolver(session.points))
    le0, ge1 = truncate(obj, cut, family)
    _emit({"le0": le0.render(), "ge1": ge1.render()},
          f"le0: {le0.render()}\nge1: {ge1.render()}", session, out)
    return 0


def _cmd_heart(args, session, out) -> int:
    from .tstructures import heart_contains, heart_slopes, is_bounded
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
    from .tstructures import catalog, catalog_entries, diagram
    points = session.points or DEFAULT_POINTS
    if not args.name:
        if args.params or args.diagram:
            raise UsageError(f"{'--params' if args.params else '--diagram'} needs a catalog NAME")
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
    P = _point_set(params["P"], frozenset(points)) if "P" in params else None
    entry = catalog(args.name, p=p, P=P, points=points)
    doc = entry.to_json()
    if args.diagram:
        text = diagram(entry.cut, entry.family)
        _emit({**doc, "diagram": text}, text, session, out)
        return 0
    named = ", ".join(f"{k}={v}" for k, v in doc["params"].items())
    text = (f"{entry.name}{f'({named})' if named else ''}: bounded={str(entry.bounded).lower()}"
            f"\nheart: {'; '.join(doc['heart']) or '(none)'}\ncut: {entry.cut.spec()}")
    _emit(doc, text, session, out)
    return 0


class UsageError(Exception):
    """A command line that does not parse, or a value out of range (exit code 2)."""


def _nonnegative(args, name: str) -> int:
    value = getattr(args, name)
    if value < 0:
        raise UsageError(f"--{name} must be >= 0, got {value}")
    return value


def _window_from_args(args, session) -> Window:
    from .stability import Window
    samples = _nonnegative(args, "samples") if hasattr(args, "samples") else 30
    return Window(max_degree=_nonnegative(args, "window"), max_shift=2, max_length=3,
                  points=point_universe(session.points), samples=samples, seed=session.seed)


def _report_exit(report: Report, session, out) -> int:
    _emit(report.to_json(), report.summary(), session, out)
    return 0 if report.ok else 1


def _cmd_check(args, session, out) -> int:
    if args.what == "stability":
        from .stability import validate_stability
        family = parse_famspec(args.stability, session)
        window = _window_from_args(args, session)
        return _report_exit(validate_stability(family, window), session, out)
    if args.what == "cut":
        if not args.cut:
            raise TStabError("check cut needs --cut")
        from .tstructures import validate_cut
        cut, family = parse_cutspec(args.cut, session)
        radius = _nonnegative(args, "window")
        return _report_exit(validate_cut(cut, family, radius=radius), session, out)
    from .stability import verify_hn  # args.what is "hn", the last of the parser's choices
    try:
        if args.input and args.input != "-":
            data = json.loads(_read(args.input))
        else:
            data = json.load(sys.stdin)
        obj, filt = filtration_from_json(data)
    except RecursionError:
        raise FiltrationFormatError("malformed filtration JSON: nested too deeply") from None
    return _report_exit(verify_hn(obj, filt, filt.family), session, out)


def _cmd_compare(args, session, out) -> int:
    from .families import is_finer
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

def _int_arg(text: str) -> int:
    """The argparse type of a subcommand's integer option: INT_TEXT only."""
    if not re.match(INT_TEXT, text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through `add_subparsers`, subparser) whose
    errors raise UsageError, which `run` prints like any other error."""

    def error(self, message):
        raise UsageError(message)


def _flag_format(argv: Sequence[str]) -> str | None:
    """The format a `--format` flag in `argv` names, read apart from the
    rest of the command line, which may not parse."""
    flag = _Parser(add_help=False)
    flag.add_argument("--format", choices=("text", "json"))
    try:
        return flag.parse_known_args(list(argv))[0].format
    except UsageError:
        return None


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=None)
    common.add_argument("--config", default=None, help="session config file")
    common.add_argument("--points", default=None, help="comma-separated point order")
    common.add_argument("--seed", default=None)
    common.add_argument("--k", default=None, help="twist of the exceptional pair")
    common.add_argument("--p", default=None, help="interleaving parameter (nat or inf)")

    parser = _Parser(prog="tstab", description="stability data and t-structures on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", parents=[common], help="normal form of an object")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("hom", parents=[common], help="graded Hom dimensions")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.add_argument("--degree", type=_int_arg, default=None)
    sp.set_defaults(func=_cmd_hom)

    sp = sub.add_parser("hn", parents=[common], help="Harder-Narasimhan filtration")
    sp.add_argument("expr")
    sp.add_argument("--stability", required=True, choices=tuple(_FAMILIES))
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
    sp.add_argument("--stability", default="std", choices=tuple(_FAMILIES))
    sp.add_argument("--cut", default=None)
    sp.add_argument("--window", type=_int_arg, default=6)
    sp.add_argument("--samples", type=_int_arg, default=30)
    sp.add_argument("--input", default=None, help="filtration JSON (default: stdin)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("compare", parents=[common], help="refinement order of families")
    sp.add_argument("--fine", required=True)
    sp.add_argument("--weak", required=True)
    sp.add_argument("--window", type=_int_arg, default=6)
    sp.set_defaults(func=_cmd_compare)

    return parser


def run(argv: Sequence[str], out=None) -> int:
    """Execute one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    args = None
    settings: dict = {}  # as read so far: an error is shown in the format they name
    try:
        args = build_parser().parse_args(list(argv))
        return args.func(args, make_session(args, settings), out)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, TStabError, ValueError) as exc:
        fmt = args.format if args is not None else _flag_format(argv)
        session = SessionConfig(format=fmt or settings.get("format", "text"))
        _emit({"error": str(exc)}, f"error: {exc}", session, out)
        return 2 if isinstance(exc, UsageError) else 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader is gone: keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
