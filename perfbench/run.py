"""tstab benchmark: closed-loop workloads, checked outputs, metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload large-hn --seed 1 --seconds 20 --trace 0

Workloads: large-hn, window-mix, checks, cli (see perfbench/DESIGN.md).  One
client drives each workload in a closed loop: the next op starts when the
previous one has returned and been checked.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json; --trace 1
measures the per-layer metrics from spans recorded around the benchmark's own
calls into each layer.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}.  A run record (Python version,
nproc, commit, source hash, output digest, tracing overhead) and, for traced
runs, the span dump are written to perfbench/out/.

--write-digests recomputes perfbench/digests.json, the recorded digest of each
workload's fixed output corpus; a run whose digest differs is not correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from random import Random

from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7
DIGEST_SEED = 0  # the digest corpus is the same for every --seed

# The host is shared.  Over spells of seconds, other tenants slow a
# pure-Python loop by 10-50%, and even the fastest of many repeats of a
# 1-s op moves by up to 35% from run to run.  The end-to-end timings therefore
# divide each op's wall time by the host's slowdown around it, measured
# by a fixed probe run between ops (see DESIGN.md, "Reference speed").
PROBE_LOOPS = 1150      # one probe loop: about 1 ms on an idle 2.1 GHz Xeon vCPU, CPython 3.11
PROBE_REF_S = 1e-3      # the loop time that defines the reference speed
PROBE_SHARE = 0.02      # loops per probe: this share of the time since the last probe,
PROBE_BATCH = (3, 50)   # clamped to this range
PROBE_GAP_S = 0.02      # least wall time between probes; probes run at op boundaries
# A child's start-up and import slow down about half as much as a loop in
# the parent does, so ops in child processes and the set-up processes are
# probed with interpreter start-up instead.
STARTUP_REF_S = 0.04    # `python -c pass` on the same idle VM


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("large-hn", "window-mix", "checks", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the harness smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import tstab from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "tstab" / "__init__.py").is_file():
        sys.exit(f"error: no tstab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tstab
    if Path(tstab.__file__).resolve().parent != (SRC / "tstab").resolve():
        sys.exit(f"error: imported tstab from {tstab.__file__}, not from {SRC}")
    import workloads
    return workloads


# --- running ops ---------------------------------------------------------------------

class Tally:
    """Ops attempted and failed; keeps the first few problem reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems)


def run_op(wl, op, tr, tally: Tally) -> tuple[float, object]:
    """Execute one op (timed) and check it; returns (seconds, result or None)."""
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            result = wl.execute(op, tr)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        elapsed = time.perf_counter() - t0
        tally.add([f"{wl.name}: {op!r} raised {type(exc).__name__}: {exc}"])
        return elapsed, None
    elapsed = time.perf_counter() - t0
    try:
        problems, _ = wl.check(op, result)
    except Exception as exc:
        problems = [f"{wl.name}: checking {op!r} raised {type(exc).__name__}: {exc}"]
    tally.add(problems)
    return elapsed, result


def digest(wl, tally: Tally) -> str:
    """sha256 over the rendered outputs of the fixed digest corpus."""
    h = hashlib.sha256()
    null = NullTracer()
    for op in wl.digest_round(Random(DIGEST_SEED)):
        try:
            if hasattr(wl, "digest_output"):
                problems, text = wl.digest_output(op)
            else:
                problems, text = wl.check(op, wl.execute(op, null))
        except Exception as exc:
            problems, text = [f"{wl.name}: digest op raised {type(exc).__name__}: {exc}"], ""
        tally.add(problems)
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def time_setup(args, repeats: int) -> list[float]:
    """Reference times of fresh processes that import tstab and build the inputs.

    Each process's wall time is divided by the slowdown of `python -c pass`
    measured just before it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(repeats):
        slowdown = probe_startup()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append((time.perf_counter() - t0) / slowdown)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed: {proc.stderr.strip()}")
    return times


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int

    def weight(self) -> int:
        return 3 * self.a + self.b


def _cell_cmp(x: _Cell, y: _Cell) -> int:
    return (x.weight() > y.weight()) - (x.weight() < y.weight())


def probe_loop() -> int:
    """Fixed pure-Python work of the kinds the library does: dict and tuple
    work, frozen dataclass instances sorted through cmp_to_key, and Fraction
    sums.  It never calls tstab, so a change to the library leaves it alone."""
    table, acc = {}, 0
    for i in range(PROBE_LOOPS):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + 1
        acc += i * i % 13
    cells = sorted((_Cell(i % 17, i * 7 % 23) for i in range(PROBE_LOOPS // 7)),
                   key=cmp_to_key(_cell_cmp))
    total = sum((Fraction(i % 7 + 1, i % 5 + 2) for i in range(PROBE_LOOPS // 40)), Fraction(0))
    return acc + len(table) + len(cells) + total.numerator


def probe_in_process(gap_s: float) -> float:
    """The host's slowdown now: mean probe loop time over PROBE_REF_S.

    The more time has passed since the last probe, the more loops it runs.
    """
    low, high = PROBE_BATCH
    loops = max(low, min(high, round(PROBE_SHARE * gap_s / PROBE_REF_S)))
    probe_loop()  # untimed: brings back into cache what the op displaced
    t0 = time.perf_counter()
    for _ in range(loops):
        probe_loop()
    return (time.perf_counter() - t0) / loops / PROBE_REF_S


def probe_startup(gap_s: float = 0.0) -> float:
    """The host's slowdown for process start-up: `python -c pass` over STARTUP_REF_S.

    One start-up per probe, however long ago the last probe was (`gap_s`).
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - t0) / STARTUP_REF_S


def measure_end_to_end(wl, seed: int, seconds: float, tally: Tally) -> dict:
    """Whole seeded rounds, one op at a time, until `seconds` have passed.

    A probe measurement runs before the first op and after any op that ends
    PROBE_GAP_S or more after the previous one.  Each op's slowdown is the
    mean of the measurements on either side of it, and its reference time
    is its wall time divided by that slowdown.
    """
    rng = Random(seed)
    null = NullTracer()
    probe = probe_startup if getattr(wl, "in_children", False) else probe_in_process
    wall: list[float] = []
    slowdown: list[float] = []
    probes = [probe(0.0)]
    rounds: list[int] = []
    pending = 0  # ops since the last probe measurement
    last = time.perf_counter()
    deadline = last + seconds
    while time.perf_counter() < deadline:
        for op in wl.make_round(rng):
            wall.append(run_op(wl, op, null, tally)[0])
            pending += 1
            gap = time.perf_counter() - last
            if gap >= PROBE_GAP_S:
                probes.append(probe(gap))
                slowdown += [(probes[-2] + probes[-1]) / 2] * pending
                pending = 0
                last = time.perf_counter()
        rounds.append(len(wall))
    if pending:
        probes.append(probe(time.perf_counter() - last))
        slowdown += [(probes[-2] + probes[-1]) / 2] * pending
    ref = [w / s for w, s in zip(wall, slowdown)]
    if hasattr(wl, "max_child_rss_kb"):
        rss_kb = wl.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_ref_s": len(ref) / sum(ref),
        "op_p50_ref_ms": statistics.median(ref) * 1e3,
        "op_p90_ref_ms": percentile(ref, 90) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "ops": len(ref),
        "wall": {"ops_per_s": len(wall) / sum(wall),
                 "op_p50_ms": statistics.median(wall) * 1e3,
                 "op_p90_ms": percentile(wall, 90) * 1e3},
        "slowdown_median": statistics.median(probes),
        "probes": len(probes),
        "latencies_s": wall, "slowdowns": slowdown, "rounds": rounds,
    }


def measure_traced(wl, seed: int, seconds: float, tally: Tally, spans_path) -> dict:
    """Alternate untraced and traced passes over one seeded round until time is up.

    busy_ms metrics are the median over traced passes of a layer's self time
    per round; counts come from one pass (every pass runs the same ops).
    """
    ops = wl.make_round(Random(seed))
    null, tracer = NullTracer(), Tracer()
    untraced, traced, self_ms = [], [], defaultdict(list)
    samples, counts = defaultdict(list), {}
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        untraced.append(sum(run_op(wl, op, null, tally)[0] for op in ops))
        gc.collect()
        mark = tracer.mark()
        first_id = len(traced) * len(ops)
        total, results = 0.0, []
        for i, op in enumerate(ops):
            tracer.op_id = first_id + i
            elapsed, result = run_op(wl, op, tracer, tally)
            total += elapsed
            results.append(result)
        traced.append(total)
        # Replays run after the pass so that their garbage and cache traffic do
        # not land inside the traced ops and count as tracing overhead.
        for i, (op, result) in enumerate(zip(ops, results)):
            tracer.op_id = first_id + i
            if result is not None:
                try:
                    with tracer.span("replay"):
                        wl.replay(op, result, tracer)
                except Exception as exc:
                    tally.add([f"{wl.name}: replaying {op!r} raised {type(exc).__name__}: {exc}"])
        tracer.op_id = None
        layer_ms, round_counts = tracer.summary(mark)
        for name, ms in layer_ms.items():
            self_ms[name].append(ms)
        counts = counts or round_counts
        if round_counts != counts:
            tally.add([f"counts differ between passes over the same ops: {round_counts}"])
        for name, value in (wl.probe_round().items() if hasattr(wl, "probe_round") else ()):
            samples[name].append(value)
    for name, start, end, _, _ in tracer.spans:
        samples[name + "_ms"].append((end - start) * 1e3)
    tracer.write(spans_path)
    metrics = {name + ".busy_ms": statistics.median(v) for name, v in self_ms.items()}
    metrics.update({name: statistics.median(v) for name, v in samples.items()})
    metrics.update(counts)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["passes"] = len(traced)
    return metrics


# --- run record --------------------------------------------------------------------------

def commit_id() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tstab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "source_sha256": source_sha256(),
        "platform": platform.platform(),
    }


def write_digests(workloads) -> int:
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        for smoke in (False, True):
            tally = Tally()
            key = name + ("@smoke" if smoke else "")
            table[key] = digest(cls(smoke), tally)
            if tally.failed:
                print(f"{key}: {tally.problems}", file=sys.stderr)
                return 1
            print(f"{key}: {table[key]}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    if args.write_digests:
        return write_digests(workloads)
    wl = workloads.WORKLOADS[args.workload](args.smoke)
    if args.setup_only:
        wl.make_round(Random(args.seed))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tally = Tally()
    key = args.workload + ("@smoke" if args.smoke else "")
    got_digest = digest(wl, tally)  # also the warm-up before timing
    golden = json.loads(DIGESTS.read_text()).get(key) if DIGESTS.is_file() else None
    digest_ok = got_digest == golden

    OUT.mkdir(exist_ok=True)
    stem = f"{key}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        measured = measure_traced(wl, args.seed, args.seconds, tally,
                                  OUT / f"{stem}-spans.json")
    else:
        setup_times = time_setup(args, 1 if args.smoke else SETUP_REPEATS)
        measured = measure_end_to_end(wl, args.seed, args.seconds, tally)
        measured["setup_s"] = statistics.median(setup_times)
        measured["setup_samples_s"] = setup_times

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "clients": 1, "loop": "closed",
        "environment": environment(),
        "digest": got_digest, "digest_expected": golden,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / max(1, tally.attempted),
        "problems": tally.problems,
        "measured": measured,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not digest_ok:
        print(f"problem: output digest {got_digest} != recorded {golden} ({DIGESTS.name}); "
              "if the change in output is intended, rerun with --write-digests and say so",
              file=sys.stderr)
    overhead = f" trace_overhead={measured['trace.overhead_frac']:.4f}" if args.trace else ""
    print(f"# {args.workload} seed={args.seed} python={record['environment']['python']} "
          f"nproc={record['environment']['nproc']} digest={got_digest[:16]} "
          f"digest_ok={digest_ok}{overhead} record={OUT.name}/{stem}.json")
    print(json.dumps({"correct": tally.failed == 0 and digest_ok, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
