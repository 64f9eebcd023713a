"""Object and document text: `parse_object`, and `filtration_from_json` for `to_json`'s documents.

Object expressions follow the grammar

    expr := term ("+" term)*
    term := [nat "*"] atom ["[" int "]"]
    atom := "O(" int ")" | "T(" label "," nat ")" | "S(" int "," int "," label ")" | "0"

with arbitrary whitespace.  O/T atoms build objects on the projective
line, S atoms build elliptic objects; the two kinds cannot be mixed.
Text as `render` writes it, summands joined by ``" + "``, is read piece
by piece: one lookup in the summand memo that every call with the same
point resolver shares (`_MEMOS`), else one `_SUMMAND` match.  `_Scanner`
reads any other text whole, and raises the errors of malformed text.
"""

from __future__ import annotations

import math
import re

from .errors import FiltrationFormatError, InvalidLengthError, NonCoprimeError, ObjectParseError
from .p1 import DerivedObject, Line, Point, ShiftedIndec, Torsion, point_resolver


class _Scanner:
    """Reads a text one character at a time, from position 0 to the end:
    every text that is not `render`'s own, and the error of malformed text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str):
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ObjectParseError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def run(self, what: str, test: str, signs: tuple = ()) -> str:
        """The characters from here on whose string method `test` holds, after
        one of `signs`; none, or a sign alone, raises "expected `what`"."""
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in signs:
            self.pos += 1
        while self.pos < len(self.text) and getattr(self.text[self.pos], test)():
            self.pos += 1
        if self.text[start:self.pos] in ("", *signs):
            raise ObjectParseError(f"expected {what}", start)
        return self.text[start:self.pos]

    def nat(self) -> int:
        return int(self.run("a natural number", "isdigit"))

    def integer(self) -> int:
        return int(self.run("an integer", "isdigit", ("+", "-")))

    def label(self) -> str:
        return self.run("a point label", "isalnum")

    def shift(self) -> int:
        if self.peek() != "[":
            return 0
        self.take("[")
        n = self.integer()
        self.take("]")
        return n

    def summands(self, resolve_point) -> list[tuple]:
        """The memo entries of the text's summands, in text order."""
        entries = [self.summand(resolve_point)]
        while self.peek():  # more text: a "+" and the next summand
            self.take("+")
            entries.append(self.summand(resolve_point))
        return entries

    def summand(self, resolve_point) -> tuple:
        """Read one summand: its memo entry, empty for a zero atom."""
        mult, head = 1, ""
        if self.peek().isdigit():
            mult = self.nat()
            if self.peek() == "*":
                self.take("*")
            elif mult == 0 and self.peek() in ("", "+", "["):
                head = "0"  # the digits were the zero atom
            else:
                raise ObjectParseError("expected '*' after a multiplicity", self.pos)
        pos = self.pos
        if not head:
            head = self.peek()
            if head not in ("0", "O", "T", "S"):
                raise ObjectParseError("expected an atom O(...), T(...), S(...) or 0", self.pos)
            self.take(head)
        if head == "0":
            self.shift()
            return ()
        reads = {"O": (self.integer,), "T": (self.label, self.nat),
                 "S": (self.integer, self.integer, self.label)}[head]
        args = []
        for sep, read in zip("(,,", reads):  # the arguments in grammar order
            self.take(sep)
            args.append(read())
        self.take(")")
        return _atom(head, args, mult, pos, resolve_point, self.shift)


# One summand as `render` writes it: ASCII only, so that the scanner reads
# every match alike, and no shifted zero, whose error is the scanner's.
# Compiled on first use, through `re`'s cache: commands that parse no
# expression do not pay for it.
_SUMMAND = r"""
    (?:(?P<mult>[0-9]+)\*)?
    (?P<atom>
        O\((?P<n>[+-]?[0-9]+)\)
      | T\((?P<tx>[A-Za-z0-9]+),(?P<td>[0-9]+)\)
      | S\((?P<r>[+-]?[0-9]+),(?P<d>[+-]?[0-9]+),(?P<sx>[A-Za-z0-9]+)\)
      | 0(?!\[)
    )
    (?:\[(?P<shift>[+-]?[0-9]+)\])?
"""


def parse_object(text: str, category: str = "auto", resolve_point=None
                 ) -> DerivedObject | EllipticObject:
    """Parse an object expression into its normal form.

    `category` is "auto", "p1" or "elliptic"; in auto mode the atoms
    decide (S builds elliptic objects, O/T build objects on the line,
    a bare 0 is the zero object of the requested side, defaulting to
    the line).  `resolve_point` maps labels to Points and defaults to
    label-ordered points; it must be hashable and give the same Point
    for a label on every call, as its summands are kept in a memo (`_MEMOS`).
    """
    resolve_point = resolve_point or Point
    return _read_object(text, category, resolve_point, _memo(resolve_point))[0]


# The summand memo, one per point resolver, shared by every `parse_object` and
# `filtration_from_json` call: summand text -> `_atom`'s entry.  An entry depends
# on the text and the resolver alone, never on the category or the text position,
# and a piece that raises is never stored.  A call that finds more than
# _MEMO_SUMMANDS entries in the table, or _MEMO_RESOLVERS resolvers and not its
# own, empties the table before it reads, so a document never evicts its own
# entries; a call running meanwhile keeps the memo it holds.
_MEMO_SUMMANDS = 1024
_MEMO_RESOLVERS = 8
_MEMOS: dict = {}


def _memo(resolve_point) -> dict:
    """The shared memo of `resolve_point`, within the table's bounds."""
    if sum(map(len, _MEMOS.values())) > _MEMO_SUMMANDS or (
            resolve_point not in _MEMOS and len(_MEMOS) >= _MEMO_RESOLVERS):
        _MEMOS.clear()
    return _MEMOS.setdefault(resolve_point, {})


def _read_object(text: str, category: str, resolve_point, memo: dict) -> tuple[object, bool]:
    """`parse_object`'s object, read through `memo` (summand text -> (curve, (atom, mult),
    key)), and whether it was read piece by piece, one summand per piece (no zero, no merge).

    Two paths.  `render`'s own text is read piece by piece, cut at ``" + "``:
    a memo lookup, or one `_SUMMAND` match that the memo stores.  Any other
    text (``0[1]``, whitespace, non-ASCII digits, malformed text, a
    non-string) goes whole to `_Scanner`, which alone raises syntax errors.
    Either raises in text order; the curve checks, which need every
    summand, run last.  An entry depends on the text and the resolver
    alone, so the memo may be shared by every call with that resolver.
    """
    summands, piecewise = None, False
    if isinstance(text, str):
        fullmatch, lookup = re.compile(_SUMMAND, re.VERBOSE).fullmatch, memo.get
        summands, offset = [], 0  # where the piece starts in the text
        for piece in text.split(" + "):
            if (summand := lookup(piece)) is None:
                if (m := fullmatch(piece)) is None:
                    summands = None
                    break
                summand = memo[piece] = _matched_summand(m, offset, resolve_point)
            summands.append(summand)
            offset += len(piece) + 3
        piecewise = summands is not None
    if summands is None:
        summands = _Scanner(text).summands(resolve_point)
    curve, mixed, pairs, last, ascending = None, False, [], (), True
    for summand in summands:
        if not summand:
            continue  # the zero object contributes nothing
        atom_curve, pair, key = summand
        if atom_curve is not curve:
            if curve is not None:
                mixed, ascending = True, False  # keys of the two curves do not compare
            curve = curve or atom_curve
        ascending = ascending and pair[1] > 0 and last < key
        last = key
        pairs.append(pair)
    if mixed:
        raise ObjectParseError("cannot mix O/T atoms with S atoms", 0)
    if curve is None:  # zeros only: the zero object of the curve asked for
        curve = DerivedObject
        if category == "elliptic":
            from .elliptic import EllipticObject as curve
    elif category in ("p1", "elliptic") and (category == "p1") != (curve is DerivedObject):
        raise ObjectParseError("an object on the line was expected" if category == "p1"
                               else "an elliptic object was expected", 0)
    # Summands in strictly ascending key order with positive multiplicities
    # (as `render` writes them) are already a normal form.
    return ((curve._raw(tuple(pairs)), piecewise and len(pairs) == len(summands)) if ascending
            else (curve.from_pairs(pairs), False))


def _matched_summand(m: re.Match, offset: int, resolve_point) -> tuple:
    """The memo entry of a piece at `offset` in the text that `_SUMMAND` matched,
    its values read in the scanner's order, so that it raises the scanner's error."""
    mult, atom, n, tx, td, r, d, sx, shift = m.groups()  # in pattern order
    if atom == "0":
        return ()
    head, args = (("O", (int(n),)) if n is not None else ("T", (tx, int(td))) if td is not None
                  else ("S", (int(r), int(d), sx)))
    return _atom(head, args, 1 if mult is None else int(mult), offset + m.start("atom"),
                 resolve_point, lambda: int(shift or 0))


def _atom(head: str, args, mult: int, pos: int, resolve_point, read_shift
          ) -> tuple[type, tuple, tuple]:
    """The memo entry (curve, (shifted atom, mult), sort key) of `mult` copies of
    atom `head` with its arguments in grammar order, where curve is the object
    type of the atom's curve.  The arguments must first pass the checks the
    grammar cannot state and the label its resolver, all of which raise at
    `pos`; only then is the shift read."""
    if head == "O":
        curve, base = DerivedObject, Line(*args)
    else:
        if head == "T":
            label, d = args
            if d == 0:
                raise InvalidLengthError("torsion length must be >= 1", pos)
        else:
            r, d, label = args
            if r < 0 or math.gcd(r, d) != 1:
                raise NonCoprimeError(
                    f"stable classes need coprime rank >= 0 and degree, got ({r},{d})", pos)
        try:
            point = resolve_point(label)
        except ObjectParseError as exc:  # a resolver knows no position: the atom's is taken
            raise ObjectParseError(exc.message, pos) from None
        if head == "T":
            curve, base = DerivedObject, Torsion(point, d)
        else:
            from .elliptic import EllipticObject, StableClass
            curve, base = EllipticObject, StableClass(r, d, point)
    atom = ShiftedIndec(base, read_shift())
    return curve, (atom, mult), atom.key()


def filtration_from_json(data: dict) -> tuple[object, HNFiltration]:
    """Rebuild (object, filtration) from the serialised form.

    The document comes from outside: a missing field or one of the wrong
    type raises FiltrationFormatError naming it.  A term whose text ends the
    text of the term before, after a ``" + "``, is that term's last summands
    if it was read as one summand per piece: the same pieces and memo entries.
    """
    from .families import family_from_descriptor
    from .stability import HNFiltration
    try:
        family = family_from_descriptor(data["family"])
        category = _category(family)
        resolver = point_resolver(family.point_labels)
        memo = _memo(resolver)  # terms are suffix sums: most of their summands repeat
        obj = _read_object(data["object"], category, resolver, memo)[0]
        quotients = tuple((family.slope_from_json(q["slope"]),
                           _read_object(q["object"], category, resolver, memo)[0])
                          for q in data["quotients"])
        terms, prev, exact = [], "", False
        for text in data["terms"]:
            if exact and isinstance(text, str) and prev.endswith(text) \
                    and prev.endswith(" + ", 0, len(prev) - len(text)):
                term = term._raw(term.terms[-1 - text.count(" + "):])
            else:
                term, exact = _read_object(text, category, resolver, memo)
            terms.append(term)
            prev = text
    except KeyError as exc:
        raise FiltrationFormatError(f"filtration JSON lacks the field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise FiltrationFormatError(f"malformed filtration JSON: {exc}") from None
    return obj, HNFiltration(family, quotients, tuple(terms))


def _category(family: StabilityFamily) -> str:
    """The `parse_object` category of the family's objects."""
    return "p1" if isinstance(family.zero, DerivedObject) else "elliptic"
