#!/usr/bin/env python3
"""Per-stage times of one ``find_singular_vectors`` call, as JSON.

Usage: python3 scripts/stage_times.py [--repeat K] N WEIGHT [WEIGHT ...]

For each weight, builds a fresh ``JacobiAlgebra(N)`` and runs one
``find_singular_vectors`` call, both with the benchmark's layer wrappers
installed (``perfbench/spans.py`` and ``perfbench/workloads.py``), and
prints one JSON object per line.  With ``--repeat K`` it does so K times
per weight, each time on a fresh algebra, and prints the median of each
stage over the K runs, with ``"repeat": K``; the default, 1, prints the
single run.  Times are in seconds, totals of the spans of each stage:

* ``init``: the ``JacobiAlgebra(N)`` construction that every ``jv singular``
  call makes before the search; ``total`` does not include it;
* ``assemble``: ``assemble_system``, which includes the next stage;
* ``enumerate``: ``enumerate_ansatz``, the listing of the ansatz;
* ``solve``: ``solve_parametric``, which contains the next two stages;
* ``eliminate``: ``_eliminate``, the fraction-free elimination on integer
  rows of every case the solver explores;
* ``kernel``: ``_kernel_from_pivots``, the fraction-free back-substitution
  on the integer pivot rows of every case with a kernel;
* ``lift``: lifting the sp(n) kernel vectors into g_N: the closed-form
  table of the lifted columns (``_lift_table``, once per weight with a
  branch) and the integer sums of each branch's kernel vector over it;
* ``print``: making each lifted vector primitive (``_primitive``) and
  dividing it by its last nonzero coordinate for the printed kernel
  (``_ratios``);
* ``reduce``: ``_reduce_poly``, the reduction of every matrix entry of each
  explored case and of every lifted coordinate modulo the constraints;
* ``factor``: ``_split_factors``, the vanishing-locus factors of every
  non-constant pivot;
* ``verify``: ``is_singular`` on every reported vector, which acts with
  every element of n- through the module kernel of ``verma``;
* ``rewrite``: every call of the module kernel's integer rewrite
  ``verma._v0_sums``, once per word that ``assemble_system`` and
  ``is_singular`` apply to v0, with the call count (``pbw._normal_sums``
  is wrapped too, but no stage calls ``act`` or ``normal_order``, so no
  stage reaches it);
* ``render``: ``textio.report_to_json`` on the report, the JSON view that
  ``jv singular --format json`` prints; it runs after the search and is not
  part of ``total``.

The program is imported from this checkout's ``src/``.
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer, summarize  # noqa: E402
from workloads import install_tracing, load_program  # noqa: E402

STAGES = {
    "init": "algebra.init",
    "total": "singular.find_singular_vectors",
    "assemble": "singular.assemble_system",
    "enumerate": "singular.enumerate_ansatz",
    "solve": "singular.solve_parametric",
    "eliminate": "singular.eliminate",
    "kernel": "singular.kernel",
    "lift": "singular.lift",
    "print": "singular.print",
    "verify": "verma.is_singular",
    "rewrite": "pbw.rewrite",
    "reduce": "singular.reduce",
    "factor": "singular.factor",
    "render": "textio.report_to_json",
}

# (module, attribute, span name) wrapped on top of the benchmark's layers.
WRAPPED = [
    ("singular", "_lift_table", "singular.lift"),
    ("singular", "_lift_kernel_vector", "singular.lift"),
    ("singular", "_printed", "singular.print"),
    ("singular", "_eliminate", "singular.eliminate"),
    ("singular", "_kernel_from_pivots", "singular.kernel"),
    ("singular", "_reduce_poly", "singular.reduce"),
    ("singular", "_split_factors", "singular.factor"),
    ("pbw", "_normal_sums", "pbw.rewrite"),
    ("verma", "_v0_sums", "pbw.rewrite"),
]


def stage_times(prog, n: int, weight: str) -> dict:
    w = prog.textio.parse_weight(weight, n)
    tracer = Tracer()
    install_tracing(tracer, prog)
    for module, attr, name in WRAPPED:
        tracer.wrap(getattr(prog, module), attr, name)
    try:
        alg = prog.cli.JacobiAlgebra(n)
        report = prog.cli.find_singular_vectors(alg, w)
        prog.cli.report_to_json(alg, report)
    finally:
        tracer.restore()
    total, _, calls = summarize(tracer.spans)
    out = {f"{k}_s": total.get(name, 0.0) for k, name in STAGES.items()}
    out["rewrite_calls"] = calls.get("pbw.rewrite", 0)
    return out


def median_stage_times(prog, n: int, weight: str, repeat: int) -> dict:
    runs = [stage_times(prog, n, weight) for _ in range(repeat)]
    out = {"n": n, "weight": weight}
    if repeat > 1:
        out["repeat"] = repeat
    for key in runs[0]:
        value = statistics.median(run[key] for run in runs)
        out[key] = round(value, 5) if key.endswith("_s") else value
    return out


def main(argv) -> int:
    argv = list(argv)
    repeat = 1
    if argv[:1] == ["--repeat"] and len(argv) > 1 and argv[1].isdigit():
        repeat = int(argv[1])
        argv = argv[2:]
    if len(argv) < 2 or not argv[0].isdigit() or repeat < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    prog = load_program()
    n = int(argv[0])
    for weight in argv[1:]:
        print(json.dumps(median_stage_times(prog, n, weight, repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
