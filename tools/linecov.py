"""Line coverage of `src/tstab` under the tier-1 tests, stdlib only.

Runs the tier-1 suite in this process through `pytest.main`, with a
`sys.settrace` collector that traces only frames of code under
`src/tstab`.  A module's executable lines are the lines of its code
objects (`co_lines`), nested ones included.  Prints, for each file, the
covered and total counts and the uncovered lines, then the total.

    python tools/linecov.py [pytest arguments]

Exits with pytest's exit code.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tstab"


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from `path`."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def collect(run):
    """Call `run()` under the collector; (its result, {file: lines executed})."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for frames outside the package
        hits.setdefault(filename, set()).add(frame.f_lineno)  # a `def` line runs on call
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def report(hits: dict[str, set[int]]) -> str:
    rows, covered_total, lines_total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        covered_total += len(lines) - len(missed)
        lines_total += len(lines)
        rows.append(f"{path.relative_to(ROOT)}: {len(lines) - len(missed)}/{len(lines)}"
                    + (f" uncovered: {_ranges(missed)}" if missed else ""))
    percent = 100 * covered_total / lines_total if lines_total else 100.0
    rows.append(f"total: {covered_total}/{lines_total} lines ({percent:.1f}%)")
    return "\n".join(rows)


def _ranges(lines: list[int]) -> str:
    """`3-5, 9` for [3, 4, 5, 9]."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    # The tests import tstab under the collector, so its top-level lines count.
    sys.path.insert(0, str(ROOT / "src"))
    code, hits = collect(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *argv,
                                              str(ROOT / "tests")]))
    print(report(hits))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
