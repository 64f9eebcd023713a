"""Timings of one large HN filtration and its JSON round trip, stdlib only.

For each size N, builds the object of N distinct shifted lines
O(n)[n mod 5 - 2], n = N .. 2N-1 (so two sizes share no summand), which
`StandardP1` splits into N quotients and N(N+1)/2 term summands.  Times, in
this process, once each and after a full garbage collection, `hn`,
`verify_hn`, `to_json`, `filtration_from_json` of that document, `verify_hn`
of the filtration read back (as each `large-hn` benchmark op does) and `==`
of the two filtrations.  `hn` of `StandardP1` reads the summands' runs of
equal slope; `merge_ms` times the same filtration built by `merge_towers` of
the summand towers, the engine of every other object.  Under
`ExceptionalP1(0, 0)` the same object takes the merge (`exc_hn_ms`) and has a
few quotients whose terms mostly do not end with the next term, so they are
rendered, read and summed in full: `exc_round_trip_ms` times its `to_json`,
`filtration_from_json` and `verify_hn` of what that reads back.  Prints one
JSON line: each N with its timings in ms, whether every filtration
verified, equals its `merge_towers` build, and reads back equal and holding
the original's atom objects (atoms are hash-consed, one object per sheaf and
shift), and the size of each intern table once N is done (`tables`), which
only grows.

    python tools/roundtrip_scale.py [N ...]        (default: 400 1600)

Exits 1 if a filtration fails to verify, differs from its `merge_towers`
build, or reads back unequal or holding other atom objects.
Timings on a machine shared with other work move between runs: compare two
checkouts in paired runs, not single figures.
"""

from __future__ import annotations

import gc
import json
import operator
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tstab import ExceptionalP1, StandardP1, normalize, verify_hn  # noqa: E402
from tstab.stability import merge_towers  # noqa: E402
from tstab.syntax import filtration_from_json  # noqa: E402
from tstab.elliptic import StableClass  # noqa: E402
from tstab.p1 import Line, Point, ShiftedIndec, Torsion  # noqa: E402

INTERNED = (Point, Line, Torsion, StableClass, ShiftedIndec)


def timed(call):
    """(result of `call()`, its wall time in ms), timed after a full collection,
    so that no step pays for the garbage of the one before."""
    gc.collect()
    start = time.perf_counter()
    result = call()
    return result, round((time.perf_counter() - start) * 1e3, 2)


def same_atoms(x, filt, x2, filt2) -> bool:
    """Whether object and filtration read back hold the very atom objects of the
    originals, summand by summand."""
    def atoms(obj, f):
        return [a for part in (obj, *(q for _, q in f.quotients), *f.terms) for a, _ in part.terms]
    read, held = atoms(x2, filt2), atoms(x, filt)
    return len(read) == len(held) and all(map(operator.is_, read, held))


def merged(family, x):
    """The filtration of x that `merge_towers` builds from the summand towers."""
    return merge_towers(family, [family.summand_tower(t, m) for t, m in x.summands()])


def measure(n: int) -> dict:
    family, exc_family = StandardP1(), ExceptionalP1(0, 0)
    x = normalize([(ShiftedIndec(Line(d), d % 5 - 2), 1) for d in range(n, 2 * n)])
    filt, hn_ms = timed(lambda: family.hn(x))
    report, verify_ms = timed(lambda: verify_hn(x, filt, family))
    doc, to_json_ms = timed(filt.to_json)
    (x2, filt2), from_json_ms = timed(lambda: filtration_from_json(doc))
    report2, verify_read_ms = timed(lambda: verify_hn(x2, filt2, filt2.family))
    equal, eq_ms = timed(lambda: filt2 == filt)
    exc, exc_hn_ms = timed(lambda: exc_family.hn(x))

    def exc_round_trip():
        x3, filt3 = filtration_from_json(exc.to_json())
        return x3, filt3, verify_hn(x3, filt3, filt3.family)
    (x3, filt3, report3), exc_ms = timed(exc_round_trip)
    # last, so that the steps above run with the same live objects as without it
    merge, merge_ms = timed(lambda: merged(family, x))
    return {"quotients": len(filt.quotients), "hn_ms": hn_ms, "merge_ms": merge_ms,
            "verify_hn_ms": verify_ms, "to_json_ms": to_json_ms, "from_json_ms": from_json_ms,
            "verify_read_ms": verify_read_ms, "eq_ms": eq_ms, "exc_hn_ms": exc_hn_ms,
            "exc_round_trip_ms": exc_ms,
            "ok": report.ok and report2.ok and equal and x2 == x
            and merge == filt and merged(exc_family, x) == exc
            and report3.ok and filt3 == exc and x3 == x
            and same_atoms(x, filt, x2, filt2) and same_atoms(x, exc, x3, filt3),
            "tables": {cls.__name__: len(cls._table) for cls in INTERNED}}


def main(argv: list[str]) -> int:
    sizes = [int(arg) for arg in argv] or [400, 1600]
    results = {str(n): measure(n) for n in sizes}
    print(json.dumps({"python": platform.python_version(), "sizes": results}))
    return 0 if all(r["ok"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
