"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import signal
import time

import pytest

from run import TIMED_OUT, Pass, Raised, _on_alarm, check_pass, run_pass
from spans import Span, Tracer, covered_time, summarize
from workloads import DEFAULT_SEED, TRACED, WORKLOADS, install_tracing, load_program


@pytest.fixture(scope="module")
def prog():
    return load_program()


@pytest.fixture
def g2_ladder(prog):
    ladder = WORKLOADS["g2_ladder"]()
    ladder.setup(prog)
    return ladder


def test_corrupted_frozen_output_counts_as_failure(prog, g2_ladder):
    items = ["d2", "2d2"]
    g2_ladder.new_algebra(prog)
    assert check_pass(g2_ladder, prog, items, run_pass(g2_ladder, prog, items, time.perf_counter() + 60)) == []

    g2_ladder.expected["2d2"] = g2_ladder.expected["2d2"].replace("L2", "L1", 1)
    failures = check_pass(g2_ladder, prog, items, run_pass(g2_ladder, prog, items, time.perf_counter() + 60))
    assert failures == ["g_2 weight 2d2: output differs from the frozen bytes"]


def test_failed_items_are_not_accepted(prog, g2_ladder):
    text = g2_ladder.expected["2d1"]
    unverified = text.replace('"verified": true', '"verified": false')
    assert unverified != text
    g2_ladder.expected["2d1"] = unverified
    assert g2_ladder.check_item(prog, "2d1", (0, unverified)) == "a branch is not verified"
    assert g2_ladder.check_item(prog, "2d1", (3, "")) == "exit code 3"
    p = Pass()
    p.results = [TIMED_OUT, Raised(ZeroDivisionError("x"))]
    assert check_pass(g2_ladder, prog, ["2d1", "d1"], p) == [
        "g_2 weight 2d1: timeout",
        "g_2 weight d1: raised ZeroDivisionError('x')",
    ]


def test_an_overrunning_item_times_out_and_the_next_one_runs(prog, g2_ladder):
    g2_ladder.item_limit = 0.05
    g2_ladder.new_algebra(prog)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        p = run_pass(g2_ladder, prog, ["4,4", "d2"], time.perf_counter() + 60)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert p.results[0] is TIMED_OUT
    assert p.latencies[0] < 1.0
    assert g2_ladder.check_item(prog, "d2", p.results[1]) is None


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("d", 2.0, 3.0, 1),
        Span("c", 3.0, 6.0, 0),  # overlaps b: the union of a's children is [1, 6] and [7, 9]
        Span("a", 7.0, 9.0, 0),  # nested in a span of the same name
        Span("x", 8.5, 12.0, 4),  # runs past its parent's end
    ]
    total, self_time, calls = summarize(spans)
    assert total == {"a": 10.0, "b": 3.0, "d": 1.0, "c": 3.0, "x": 3.5}
    assert self_time == {"a": (10.0 - 7.0) + (2.0 - 0.5), "b": 2.0, "d": 1.0, "c": 3.0, "x": 3.5}
    assert calls == {"a": 2, "b": 1, "d": 1, "c": 1, "x": 1}
    assert covered_time(0.0, 5.0, []) == 0.0
    assert covered_time(0.0, 5.0, [(4.0, 8.0), (-1.0, 1.0), (0.5, 2.0)]) == 3.0


def test_tracing_then_restoring_leaves_reports_byte_identical(prog):
    alg = prog.algebra.JacobiAlgebra(2)
    weight = prog.textio.parse_weight("3,1", 2)

    def report() -> str:
        found = prog.singular.find_singular_vectors(alg, weight)
        return json.dumps(prog.textio.report_to_json(alg, found), sort_keys=True)

    originals = {(m, a): getattr(getattr(prog, m), a) for m, a, _, _ in TRACED}
    before = report()
    tracer = Tracer()
    install_tracing(tracer, prog)
    try:
        during = report()
    finally:
        tracer.restore()
    after = report()

    assert before == during == after
    assert all(getattr(getattr(prog, m), a) is f for (m, a), f in originals.items())
    _, _, calls = summarize(tracer.spans)
    assert calls["singular.solve_parametric"] == 1
    assert calls["pbw.normal_order"] >= calls["verma.act"] > 0
    assert tracer.counts["singular.branches"] == 3


def test_action_mix_inputs_come_from_the_seed(prog):
    mix = WORKLOADS["action_mix"]()
    mix.setup(prog)

    def described(seed, pass_index):
        return [mix.describe(op) for op in mix.items(seed, pass_index)]

    assert described(5, 0) == described(5, 0)
    assert described(5, 0) != described(6, 0)
    assert described(5, 0) != described(5, 1)
    assert described(DEFAULT_SEED, 0) == [op["op"] for op in mix.expected["ops"]]
