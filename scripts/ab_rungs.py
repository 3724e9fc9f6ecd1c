#!/usr/bin/env python3
"""Interleaved A/B timing of ``jv singular --format json`` on two checkouts.

Usage: python3 scripts/ab_rungs.py [--rounds R] PARENT_ROOT CHANGE_ROOT N WEIGHT [WEIGHT ...]

Both checkouts' ``src/`` are imported into this one process, each as its own
set of ``jacobiverma`` modules, the way ``perfbench/workloads.load_program``
imports one.  Rung by rung, each of R rounds (default 30) times one
in-process ``cli.main`` call of each side, the side that goes first
alternating between rounds, so that both sides see the same machine load.
Each call's stdout must be byte-identical between the sides: the script
stops with exit status 1 at the first difference.  For each weight it
prints one JSON line: the median and quartiles of each side in ms, the
relative change of the median, and how many rounds each side was faster.

Sequential runs of one tree after the other cannot resolve a 10% change on
a loaded machine; the interleaving can.
"""

import argparse
import importlib
import json
import statistics
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path


def load_cli(root: str):
    """``jacobiverma.cli`` imported afresh from ``root/src``."""
    for name in [m for m in sys.modules if m == "jacobiverma" or m.startswith("jacobiverma.")]:
        del sys.modules[name]
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("jacobiverma")
        if Path(package.__file__).resolve().parent != src / "jacobiverma":
            raise ImportError(f"jacobiverma was imported from {package.__file__}, not from {src}")
        return importlib.import_module("jacobiverma.cli")
    finally:
        sys.path.remove(str(src))


def timed_run(cli, argv):
    out = StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return round(q1 * 1e3, 3), round(q2 * 1e3, 3), round(q3 * 1e3, 3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("n")
    parser.add_argument("weights", nargs="+")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sides = {"parent": load_cli(args.parent_root), "change": load_cli(args.change_root)}
    for weight in args.weights:
        argv = ["singular", "--n", args.n, "--format", "json", f"--weight={weight}"]
        times = {side: [] for side in sides}
        wins = {side: 0 for side in sides}
        for r in range(args.rounds):
            order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
            got = {side: timed_run(sides[side], argv) for side in order}
            if got["parent"][1:] != got["change"][1:]:
                print(f"g_{args.n} weight {weight}: outputs differ in round {r}", file=sys.stderr)
                return 1
            for side in sides:
                times[side].append(got[side][0])
            wins[min(sides, key=lambda side: got[side][0])] += 1
        parent, change = quartiles(times["parent"]), quartiles(times["change"])
        print(json.dumps({
            "n": int(args.n),
            "weight": weight,
            "rounds": args.rounds,
            "parent_ms": parent,
            "change_ms": change,
            "median_change": round(change[1] / parent[1] - 1, 4),
            "parent_wins": wins["parent"],
            "change_wins": wins["change"],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
