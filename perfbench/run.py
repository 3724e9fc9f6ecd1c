"""Benchmark of jacobiverma, end to end and per layer.

    python3 perfbench/run.py --workload g2_ladder --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
A run sets the program up several times (import, ``JacobiAlgebra(n)``,
inputs and frozen outputs) and then repeats passes over the
workload until ``--seconds`` have gone by, always at least one.
Every item's output is checked; a failure, timeout or mismatch counts
against ``ok_ratio``.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
runs one untraced pass and then the same pass twice more with every
layer boundary wrapped (see ``spans.py``), checks that the counters repeat
exactly, and prints the per-layer metrics.  The last line of stdout is the
result as one JSON object; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from typing import List

from spans import Tracer, summarize
from workloads import WORKLOADS, ItemTimeout, install_tracing, load_program

SETUPS = 5
TRACED_REPEATS = 2
# Items still pending after this many seconds of passes are recorded as
# timeouts, so that a run ends well inside 180 s.
RUN_BUDGET_S = 150.0

SPAN_NAMES = [
    "algebra.init",
    "cli.main",
    "textio.parse_weight",
    "singular.find_singular_vectors",
    "singular.enumerate_ansatz",
    "singular.assemble_system",
    "singular.solve_parametric",
    "singular.kernel_vector_to_verma",
    "verma.is_singular",
    "verma.act",
    "pbw.normal_order",
    "textio.report_to_json",
]
COUNTERS = ["singular.ansatz_size", "singular.rows", "singular.branches", "singular.kernel_dim"]
CALL_COUNTS = {
    "verma.act_calls": "verma.act",
    "pbw.normal_order_calls": "pbw.normal_order",
    "verma.is_singular_calls": "verma.is_singular",
}

TIMED_OUT = object()


class Raised:
    """The result of an item whose call raised."""

    def __init__(self, exc: Exception):
        self.exc = exc


def _on_alarm(signum, frame):
    raise ItemTimeout()


def call_with_limit(fn, arg, limit: float):
    """fn(arg), or TIMED_OUT if it has not returned after ``limit`` seconds."""
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return fn(arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        return TIMED_OUT


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.latencies: List[float] = []
        self.results: list = []


def run_pass(workload, prog, items, deadline: float) -> Pass:
    """Run every item once, in order, timing each item and the whole pass.

    An item still pending at the deadline is not started and counts as a
    timeout.
    """
    p = Pass()
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        limit = min(workload.item_limit, deadline - t0)
        if limit <= 0:
            result = TIMED_OUT
        else:
            try:
                result = call_with_limit(lambda it: workload.run_item(prog, it), item, limit)
            except Exception as exc:  # an item that raises is a failed item
                result = Raised(exc)
        p.latencies.append(time.perf_counter() - t0)
        p.results.append(result)
    p.wall = time.perf_counter() - start
    return p


def check_pass(workload, prog, items, p: Pass) -> List[str]:
    failures = []
    for item, result in zip(items, p.results):
        if result is TIMED_OUT:
            reason = "timeout"
        elif isinstance(result, Raised):
            reason = f"raised {result.exc!r}"
        else:
            try:
                reason = workload.check_item(prog, item, result)
            except Exception as exc:  # a malformed output is a failed item
                reason = f"checking the output raised {exc!r}"
        if reason is not None:
            failures.append(f"{workload.describe(item)}: {reason}")
    p.results = []
    return failures


def set_up(name: str):
    """Set up SETUPS times from a fresh import; keep the last set-up."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        prog = load_program()
        workload = WORKLOADS[name]()
        workload.setup(prog)
        times.append(time.perf_counter() - t0)
    return prog, workload, times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(name, prog, workload, setup_times, seed, seconds, deadline):
    """Passes, each on a fresh algebra, until ``seconds`` are up.

    The median pass keeps a burst of machine load inside one pass from
    moving wall_s; a fresh algebra per pass keeps a per-algebra cache from
    carrying work over from one pass to the next.
    """
    passes, failures, attempted = [], [], 0
    start = time.perf_counter()
    while True:
        items = workload.items(seed, len(passes))
        workload.new_algebra(prog)
        p = run_pass(workload, prog, items, deadline)
        failures += check_pass(workload, prog, items, p)
        attempted += len(items)
        passes.append(p)
        now = time.perf_counter()
        if now - start >= seconds or now >= deadline:
            break
    checked, check_failures = workload.final_checks(prog)
    attempted += checked
    failures += check_failures
    latencies = [t for p in passes for t in p.latencies]
    p99 = percentile(latencies, 0.99)
    print(
        f"{name}: {len(passes)} passes, {len(latencies)} operations, "
        f"{sum(t > p99 for t in latencies)} above op_ms_p99",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "op_ms_p50": metric(1000 * percentile(latencies, 0.5), "ms"),
        "op_ms_p99": metric(1000 * p99, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": metric(1 - len(failures) / attempted, "ratio"),
    }
    return attempted, failures, [], metrics


def traced_run(name, prog, workload, seed, deadline):
    """One untraced pass, then the same pass twice with every layer traced."""
    items = workload.items(seed, 0)
    workload.new_algebra(prog)
    base = run_pass(workload, prog, items, deadline)
    failures = check_pass(workload, prog, items, base)
    reps = []
    for _ in range(TRACED_REPEATS):
        tracer = Tracer()
        install_tracing(tracer, prog)
        try:
            with tracer.span("algebra.init"):
                workload.new_algebra(prog)
            p = run_pass(workload, prog, items, deadline)
        finally:
            tracer.restore()
        failures += check_pass(workload, prog, items, p)
        total, self_time, calls = summarize(tracer.spans)
        reps.append((p.wall, total, self_time, calls, tracer.counts))
    checked, check_failures = workload.final_checks(prog)
    attempted = len(items) * (1 + TRACED_REPEATS) + checked
    failures += check_failures

    problems = []
    signatures = [{**counts, **{f"calls:{k}": v for k, v in calls.items()}}
                  for _, _, _, calls, counts in reps]
    differing = sorted(k for k in set(signatures[0]) | set(signatures[1])
                       if signatures[0].get(k) != signatures[1].get(k))
    if differing:
        problems.append(f"counts differ between the two traced runs: {', '.join(differing)}")
    _, _, _, calls, counts = reps[0]
    checks = calls.get("verma.is_singular", 0)
    verified_ratio = counts.get("verma.verified", 0) / checks if checks else 0.0
    if verified_ratio != 1:
        problems.append(f"verified_ratio is {verified_ratio}, not 1")

    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}_s"] = metric(statistics.fmean(r[1].get(span, 0.0) for r in reps), "s")
        metrics[f"{span}_self_s"] = metric(statistics.fmean(r[2].get(span, 0.0) for r in reps), "s")
    for key in COUNTERS:
        metrics[key] = metric(counts.get(key, 0), "count")
    for key, span in CALL_COUNTS.items():
        metrics[key] = metric(calls.get(span, 0), "count")
    metrics["verma.verified_ratio"] = metric(verified_ratio, "ratio")
    traced_wall = statistics.fmean(r[0] for r in reps)
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - base.wall, "s")
    print(f"{name}: tracing overhead {traced_wall - base.wall:.3f} s on a {base.wall:.3f} s pass",
          file=sys.stderr)
    return attempted, failures, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        prog, workload, setup_times = set_up(args.workload)
    except (ImportError, OSError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    deadline = started + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        attempted, failures, problems, metrics = traced_run(
            args.workload, prog, workload, args.seed, deadline)
    else:
        attempted, failures, problems, metrics = timed_run(
            args.workload, prog, workload, setup_times, args.seed, args.seconds, deadline)
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
