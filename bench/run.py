"""Benchmark of the suplat command line on generated structure files.

    python3 bench/run.py --workload ks-sets --seed 0 --seconds 25 --trace 0

Writes the workload's structure files from the seed, then calls
``suplat.cli.main(argv)`` in-process for every invocation of the workload,
so each call parses, checks and builds its structure exactly as a fresh
``suplat`` process does.  ``import suplat.cli`` is timed on its own in
fresh interpreters as ``setup_s``.

A pass runs every invocation once, in a fixed order.  After one warm-up
pass, passes repeat for about ``--seconds``.  Times are reported at a
fixed reference speed (see ``REFERENCE_S``).  Every invocation's exit
code, stderr and stdout are checked (see ``problems``).  With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the last
line reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import structures
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 25
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import suplat.cli; print(time.perf_counter() - t)"
)

# On a shared host the speed of CPU-bound Python drifts by up to 2x over tens
# of seconds, and every step of a run drifts with it.  So each timed step is
# bracketed by a fixed reference computation, the benchmark's own exact
# arithmetic (it imports nothing from suplat), and its wall time t is
# reported at the speed where the reference takes REFERENCE_S:
# t * REFERENCE_S / mean(reference before, reference after).
REFERENCE_S = 0.010
REFERENCE_SPEC = structures.cabello_3()


def reference_seconds() -> float:
    start = perf_counter()
    oracle.distinct_member_count(REFERENCE_SPEC)
    return perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REFERENCE_S / (before + after)


def measure_setup() -> float:
    """Median seconds for ``import suplat.cli`` in a fresh interpreter, at
    reference speed.  A first, unrecorded import writes the bytecode caches.

    Scaling each import by its own bracketing references left more spread
    than scaling the median import by the median reference, so the latter
    is used.  The interpreters run on the CPU the references run on.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        references = [reference_seconds()]
        imports = []
        for i in range(SETUP_SAMPLES + 1):
            done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=60, check=True)
            references.append(reference_seconds())
            if i:
                imports.append(float(done.stdout))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(imports) * REFERENCE_S / statistics.median(references)


def invoke(cli, argv: list) -> tuple:
    """Run one CLI call; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception is a traceback in a real process
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def problems(call: workloads.Invocation, code, out: str, err: str, digest) -> list:
    found = []
    if code != call.exit_code:
        found.append(f"exit code {code}, expected {call.exit_code}")
    if "Traceback" in err:
        found.append("traceback on stderr")
    if call.exit_code == 0 and err:
        found.append(f"stderr {err[:80]!r}")
    if call.exit_code == 1 and not any(
        line.startswith("error:") and call.error in line for line in err.splitlines()
    ):
        found.append(f"no 'error:' line naming {call.error!r} in {err[:120]!r}")
    found += call.check(out)
    if digest is not None and hashlib.sha256(out.encode()).hexdigest() != digest:
        found.append("stdout differs from the pinned digest")
    return found


class Bench:
    """Runs passes of one workload and keeps their times and failures."""

    def __init__(self, cli, calls: list, digests: dict) -> None:
        self.cli = cli
        self.calls = calls
        self.digests = digests
        self.attempted = 0
        self.failures: list = []

    def run_pass(self) -> dict:
        """One pass: seconds at reference speed per subcommand metric, their
        total as pass_s, and the pass's plain wall time as wall_s."""
        times = dict.fromkeys((c.metric for c in self.calls), 0.0)
        wall = 0.0
        gc.collect()
        before = reference_seconds()
        for call in self.calls:
            seconds, code, out, err = invoke(self.cli, call.argv)
            self.attempted += 1
            found = problems(call, code, out, err, self.digests.get(call.key))
            if found:
                self.failures.append(f"{call.key}: {'; '.join(found)}")
            del out, err
            gc.collect()
            after = reference_seconds()
            times[call.metric] += at_reference_speed(seconds, before, after)
            wall += seconds
            before = after
        times["pass_s"] = sum(times.values())
        times["wall_s"] = wall
        return times

    def run_for(self, seconds: float, after_pass=None) -> list:
        """Passes for about ``seconds`` (at least one): another pass starts
        only if it would end less than half a pass after the deadline."""
        passes = []
        start = last = perf_counter()
        while True:
            times = self.run_pass()
            if after_pass is not None:
                after_pass(times)
            passes.append(times)
            now = perf_counter()
            if now + (now - last) / 2 >= start + seconds:
                return passes
            last = now


def median_of(passes: list, key: str) -> float:
    return statistics.median(p.get(key, 0.0) for p in passes)


def tail(values: list) -> float:
    """The highest value with at least ten samples above it; with fewer than
    eleven samples, the maximum."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def end_to_end(passes: list, setup_s: float) -> dict:
    """Each metric as (value, unit, sample count)."""
    n = len(passes)
    metrics = {"setup_s": (setup_s, "s", SETUP_SAMPLES),
               "pass_s": (median_of(passes, "pass_s"), "s", n)}
    for metric in workloads.SUBCOMMANDS + (workloads.REJECT,):
        metrics[metric] = (median_of(passes, metric), "s", n)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return metrics


def per_layer(traced: list, untraced: list) -> dict:
    """Medians over traced passes of each pass's span and count totals, as
    (value, unit, sample count); the bench.* figures are over untraced passes."""
    n = len(traced)
    metrics = {}
    for module, qualname in tracer.TIMED:
        name = tracer.span_name(module, qualname)
        for i, (field, unit) in enumerate((("calls", "count"), ("total_s", "s"), ("self_s", "s"))):
            value = statistics.median(p["spans"].get(name, (0, 0.0, 0.0))[i] for p in traced)
            metrics[f"{name}.{field}"] = (value, unit, n)

    def count(key):
        return statistics.median(p["counts"].get(key, 0) for p in traced)

    for key in tracer.COUNT_NAMES:
        metrics[key] = (count(key), "count", n)
    subsets = count("contexts.lattice.subsets")
    tests = metrics["subspaces.Subspace.is_subspace_of.calls"][0]
    metrics["contexts.lattice.distinct_ratio"] = (
        count("contexts.lattice.members") / subsets if subsets else 0.0, "ratio", n)
    metrics["hasse.cover_ratio"] = (count("hasse.edges") / tests if tests else 0.0, "ratio", n)
    pass_times = [p["pass_s"] for p in untraced]
    metrics["bench.pass_tail_s"] = (tail(pass_times), "s", len(pass_times))
    metrics["bench.passes"] = (len(pass_times), "count", len(pass_times))
    metrics["trace.overhead_ratio"] = (
        median_of(traced, "pass_s") / statistics.median(pass_times), "ratio", n)
    return metrics


def run_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Untraced passes for half the time, then traced passes; the spans of
    the first traced pass are written to ``spans_path``."""
    untraced = bench.run_for(seconds / 2)
    trace = tracer.Tracer()
    kept: list = []

    def collect(times):
        spans, counts = trace.take()
        if not kept:
            kept.extend(spans)
        times["spans"] = tracer.aggregate(spans)
        times["counts"] = counts

    trace.install()
    try:
        traced = bench.run_for(seconds / 2, after_pass=collect)
    finally:
        trace.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as handle:
        for span in kept:
            handle.write(json.dumps(span) + "\n")
    return per_layer(traced, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "suplat" / "cli.py").is_file():
        print(f"error: no suplat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pinned = {}
    if args.seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]

    with tempfile.TemporaryDirectory(prefix=".bench-inputs-", dir=ROOT) as work:
        calls = workloads.build(args.workload, args.seed, Path(work))
        setup_s = None if args.trace else measure_setup()
        bench = Bench(importlib.import_module("suplat.cli"), calls, pinned)
        bench.run_pass()  # warm-up
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = run_traced(bench, args.seconds, spans_path)
        else:
            passes = bench.run_for(args.seconds)
            metrics = end_to_end(passes, setup_s)

    failed = len(bench.failures)
    for line in bench.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    shown = dict(metrics)
    if not args.trace:
        shown["failed_ratio"] = (failed / bench.attempted, "ratio", bench.attempted)
        shown["wall_pass_s"] = (median_of(passes, "wall_s"), "s", len(passes))
    for name, (value, unit, samples) in shown.items():
        print(f"{name:44s} {value:14.6f} {unit:6s} n={samples}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
