#!/usr/bin/env python3
"""Interleaved A/B timing of the action layer on two checkouts.

Usage: python3 scripts/ab_ops.py PARENT_ROOT CHANGE_ROOT

The action-layer counterpart of ``scripts/ab_rungs.py``.  Both checkouts'
``src/`` are imported into this one process, each as its own set of
``jacobiverma`` modules (``ab_rungs.load_cli``), and each side sets up this
checkout's ``perfbench/workloads.ActionMix`` once.  Each of PASSES passes
draws the benchmark's operations for that pass from the default seed and
runs them on each side, on a fresh algebra, the side that goes first
alternating between passes so that both sides see the same machine load.
Each operation is timed alone and the times are summed per kind
(``normal_order``, ``act``, ``is_singular``) and pass.  Every operation
must render the same on both sides (``ActionMix.render``): the script
stops with exit status 1 at the first difference.  For each kind it prints
one JSON line: the median and quartiles of each side's per-pass sum in ms,
the relative change of the median, and how many passes each side was
faster.
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from ab_rungs import load_cli, quartiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, MODULES, ActionMix  # noqa: E402

PASSES = 30
KINDS = ("normal_order", "act", "is_singular")


def load_program(root: str) -> SimpleNamespace:
    """The modules of ``root/src`` that the workload reads, imported afresh."""
    load_cli(root)
    return SimpleNamespace(**{m: sys.modules[f"jacobiverma.{m}"] for m in MODULES})


def timed_pass(prog, mix, pass_index):
    """(time per kind in s, rendered results) of one pass."""
    ops = mix.items(DEFAULT_SEED, pass_index)
    mix.new_algebra(prog)
    times = dict.fromkeys(KINDS, 0.0)
    results = []
    for op in ops:
        start = time.perf_counter()
        result = mix.run_item(prog, op)
        times[op[0]] += time.perf_counter() - start
        results.append(result)
    return times, [mix.render(prog, op, r) for op, r in zip(ops, results)]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = {}
    for side, root in zip(("parent", "change"), sys.argv[1:]):
        prog = load_program(root)
        mix = ActionMix()
        mix.prepare(prog)
        sides[side] = (prog, mix)
    times = {side: {kind: [] for kind in KINDS} for side in sides}
    wins = {kind: {side: 0 for side in sides} for kind in KINDS}
    for p in range(PASSES):
        order = ["parent", "change"] if p % 2 == 0 else ["change", "parent"]
        got = {side: timed_pass(*sides[side], p) for side in order}
        if got["parent"][1] != got["change"][1]:
            print(f"action_mix pass {p}: outputs differ", file=sys.stderr)
            return 1
        for kind in KINDS:
            for side in sides:
                times[side][kind].append(got[side][0][kind])
            wins[kind][min(sides, key=lambda side: got[side][0][kind])] += 1
    for kind in KINDS:
        parent, change = quartiles(times["parent"][kind]), quartiles(times["change"][kind])
        print(json.dumps({
            "kind": kind,
            "passes": PASSES,
            "parent_ms": parent,
            "change_ms": change,
            "median_change": round(change[1] / parent[1] - 1, 4),
            "parent_wins": wins[kind]["parent"],
            "change_wins": wins[kind]["change"],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
