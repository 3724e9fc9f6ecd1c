#!/usr/bin/env python3
"""Per-stage times of one ``find_singular_vectors`` call, as JSON.

Usage: python3 scripts/stage_times.py N WEIGHT [WEIGHT ...]

For each weight, builds a fresh ``JacobiAlgebra(N)`` and runs one
``find_singular_vectors`` call, both with the benchmark's layer wrappers
installed (``perfbench/spans.py`` and ``perfbench/workloads.py``), and
prints one JSON object per line.  Times are in seconds, totals of the spans
of each stage:

* ``init``: the ``JacobiAlgebra(N)`` construction that every ``jv singular``
  call makes before the search; ``total`` does not include it;
* ``assemble``: ``assemble_system``, enumeration included;
* ``solve``: ``solve_parametric``, which contains the next two stages;
* ``eliminate``: ``_eliminate``, the two-phase elimination of every case
  the solver explores;
* ``kernel``: ``_kernel_from_pivots``, the fraction-free back-substitution
  of every case with a kernel;
* ``lift``: lifting the sp(n) kernel vectors into g_N;
* ``verify``: ``is_singular`` on every reported vector;
* ``act`` and ``normal_order``: every call of the action layer, whichever
  stage made it, with their call counts.

The program is imported from this checkout's ``src/``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer, summarize  # noqa: E402
from workloads import install_tracing, load_program  # noqa: E402

STAGES = {
    "init": "algebra.init",
    "total": "singular.find_singular_vectors",
    "assemble": "singular.assemble_system",
    "solve": "singular.solve_parametric",
    "eliminate": "singular.eliminate",
    "kernel": "singular.kernel",
    "lift": "singular.lift",
    "verify": "verma.is_singular",
    "act": "verma.act",
    "normal_order": "pbw.normal_order",
}


def stage_times(prog, n: int, weight: str) -> dict:
    w = prog.textio.parse_weight(weight, n)
    tracer = Tracer()
    install_tracing(tracer, prog)
    tracer.wrap(prog.singular, "_lift_kernel_vector", "singular.lift")
    tracer.wrap(prog.singular, "_eliminate", "singular.eliminate")
    tracer.wrap(prog.singular, "_kernel_from_pivots", "singular.kernel")
    try:
        alg = prog.cli.JacobiAlgebra(n)
        prog.cli.find_singular_vectors(alg, w)
    finally:
        tracer.restore()
    total, _, calls = summarize(tracer.spans)
    out = {"n": n, "weight": weight}
    out.update({f"{k}_s": round(total.get(name, 0.0), 4) for k, name in STAGES.items()})
    out["act_calls"] = calls.get("verma.act", 0)
    out["normal_order_calls"] = calls.get("pbw.normal_order", 0)
    return out


def main(argv) -> int:
    if len(argv) < 2 or not argv[0].isdigit():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    prog = load_program()
    n = int(argv[0])
    for weight in argv[1:]:
        print(json.dumps(stage_times(prog, n, weight)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
