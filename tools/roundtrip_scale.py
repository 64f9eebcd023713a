"""Timings of one large HN filtration and its JSON round trip, stdlib only.

For each size N, builds the object of N distinct shifted lines
O(n)[n mod 5 - 2], n = N .. 2N-1 (so two sizes share no summand), which
`StandardP1` splits into N quotients and N(N+1)/2 term summands.  Times, in
this process, once each and after a full garbage collection, `hn`,
`verify_hn`, `to_json`, `filtration_from_json` of that document and `==` of
the filtration and the one read back, and prints one JSON line: each N with
its timings in ms, and whether the filtration verified and read back equal.

    python tools/roundtrip_scale.py [N ...]        (default: 400 1600)

Exits 1 if a filtration fails to verify or to read back equal.  Timings on a
machine shared with other work move between runs: compare two checkouts in
paired runs, not single figures.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tstab import StandardP1, normalize, verify_hn  # noqa: E402
from tstab.cli import filtration_from_json  # noqa: E402
from tstab.p1 import Line, ShiftedIndec  # noqa: E402


def timed(call):
    """(result of `call()`, its wall time in ms), timed after a full collection,
    so that no step pays for the garbage of the one before."""
    gc.collect()
    start = time.perf_counter()
    result = call()
    return result, round((time.perf_counter() - start) * 1e3, 2)


def measure(n: int) -> dict:
    family = StandardP1()
    x = normalize([(ShiftedIndec(Line(d), d % 5 - 2), 1) for d in range(n, 2 * n)])
    filt, hn_ms = timed(lambda: family.hn(x))
    report, verify_ms = timed(lambda: verify_hn(x, filt, family))
    doc, to_json_ms = timed(filt.to_json)
    (x2, filt2), from_json_ms = timed(lambda: filtration_from_json(doc))
    equal, eq_ms = timed(lambda: filt2 == filt)
    return {"quotients": len(filt.quotients), "hn_ms": hn_ms, "verify_hn_ms": verify_ms,
            "to_json_ms": to_json_ms, "from_json_ms": from_json_ms, "eq_ms": eq_ms,
            "ok": report.ok and equal and x2 == x}


def main(argv: list[str]) -> int:
    sizes = [int(arg) for arg in argv] or [400, 1600]
    results = {str(n): measure(n) for n in sizes}
    print(json.dumps({"python": platform.python_version(), "sizes": results}))
    return 0 if all(r["ok"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
