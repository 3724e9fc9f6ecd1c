#!/usr/bin/env python3
"""Freeze ``jv`` outputs as golden files.

Each ``jv singular --format json`` report is written to
``tests/golden/reports/<name>.json``, and each ``jv bracket``/``jv normal-order``/
``jv act`` output, ``jv singular`` in the formats that render vectors,
``jv verify`` in text and json and LaTeX with ``--short-names``, to
``tests/golden/cli/<name>.<format>``, as the exact bytes the command
prints on stdout, so later versions can be diffed against them byte for byte
(``tests/test_golden_reports.py``).  The arguments of every CLI file are
recorded in ``tests/golden/cli/argv.json``.  For the weight sweep (``SWEEP``)
only the sha256 digests of the ``jv singular`` output in json and text are
kept, in ``tests/golden/sweep.json``.

Usage: PYTHONPATH=src python scripts/freeze_reports.py
"""

import hashlib
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from itertools import product
from pathlib import Path

from jacobiverma.cli import main as jv_main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
REPORTS = GOLDEN / "reports"
CLI = GOLDEN / "cli"
SWEEP_FILE = GOLDEN / "sweep.json"

# The seven worked g_2 cases, four heavier g_2 weights and four g_3 weights.
CASES = {
    "g2_2d1": (2, "2d1"),
    "g2_2d2": (2, "2d2"),
    "g2_d1+d2": (2, "d1+d2"),
    "g2_d1-d2": (2, "d1-d2"),
    "g2_d1": (2, "d1"),
    "g2_d2": (2, "d2"),
    "g2_3d2": (2, "3d2"),
    "g2_4,4": (2, "4,4"),
    "g2_5,3": (2, "5,3"),
    "g2_7,1": (2, "7,1"),
    "g2_8,0": (2, "8,0"),
    "g3_2,0,0": (3, "2,0,0"),
    "g3_2,1,1": (3, "2,1,1"),
    "g3_2,2,0": (3, "2,2,0"),
    "g3_3,1,0": (3, "3,1,0"),
}

# g_2 and g_3 words and one action whose outputs have negative and fractional
# coefficients; each is frozen in every output format.
CLI_CASES = {
    "g2_word1": ["normal-order", "c- d+ b+2 a+2"],
    "g2_word2": ["normal-order", "d- d+ c+"],
    "g2_word3": ["normal-order", "h1 d- c+ b+1"],
    "g2_word4": ["normal-order", "d- a+1 a-2"],
    "g3_word1": ["normal-order", "--n", "3", "K-[1,3] K+[1,2] a+[3] K0[3,1]"],
    "g3_word2": ["normal-order", "--n", "3", "K0[3,2] K-[1,3] K+[1,2] K0[2,1]"],
    "g2_act1": ["act", "d-", "(2 L1 - 3/2) a+1 a+2 - 1/3 c+"],
}
FORMATS = ("text", "latex", "json")

# Words with runs of equal letters: a letter before a run, which the rewrite
# moves through the whole run in one step, and a run before a letter.
RUN_CASES = {
    "g2_run1": ["normal-order", "--n", "2", "K-[1,1] a+1^4 K+[1,1]^2"],
    "g2_run2": ["normal-order", "--n", "2", "K-[1,1]^3 a+1"],
    "g2_run3": ["normal-order", "--n", "2", "K-[1,1]^3 K+[1,1]^2"],
}
RUN_FORMATS = ("json",)

# Brackets with a scalar, a generator, several Cartan terms, and at n = 3 a
# raising-lowering pair, each frozen in every output format.
BRACKET_CASES = {
    "g2_bracket_dd": ["bracket", "d-", "d+"],
    "g2_bracket_aa": ["bracket", "a-1", "a+1"],
    "g3_bracket_kk": ["bracket", "--n", "3", "K-[1,2]", "K+[1,2]"],
    "g3_bracket_ka": ["bracket", "--n", "3", "K0[2,1]", "a+[1]"],
}

# LaTeX output with ``--short-names``, frozen as ``<name>.short.latex``; the
# short names exist for n = 2 only, so a g_3 word keeps its K names.
SHORT_CASES = {
    "g2_word1": CLI_CASES["g2_word1"],
    "g2_word2": CLI_CASES["g2_word2"],
    "g2_word3": CLI_CASES["g2_word3"],
    "g2_act1": CLI_CASES["g2_act1"],
    "g2_singular_5,3": ["singular", "--n", "2", "--weight", "5,3"],
    "g3_word3": ["normal-order", "--n", "3", "K+[1,3] K+[1,2] K0[1,3] K0[1,2]"],
}

# Reports in the formats that render the singular vectors themselves; the
# JSON form of the same report is under ``reports/``.
VECTOR_CASES = {
    "g2_singular_5,3": ["singular", "--n", "2", "--weight", "5,3"],
}
VECTOR_FORMATS = ("text", "latex")

# ``jv verify`` verdicts: a singular vector under a fixed value, a vector whose
# coefficients mention the variable a relation solves for, the same vector
# under a constraint that leaves some generators failing, a nonlinear
# constraint set that cannot be verified, and a g_3 vector under a relation.
VERIFY_CASES = {
    "g2_verify_fixed": ["verify", "(a+2)^2 - 2 b+2", "--constraints", "L2 = 1/4"],
    "g2_verify_relation": [
        "verify",
        "(4 L2 - 3) c+ - 2 b+2 d+ + (3/2 - 2 L2) a+1 a+2 + (a+2)^2 d+",
        "--constraints",
        "L2 + L1 = 3/2",
    ],
    "g2_verify_partial": [
        "verify",
        "(4 L2 - 3) c+ - 2 b+2 d+ + (3/2 - 2 L2) a+1 a+2 + (a+2)^2 d+",
        "--constraints",
        "L1 = 1/2",
    ],
    "g2_verify_nonlinear": ["verify", "(a+2)^2 - 2 b+2", "--constraints", "L2^2 = 1/16"],
    "g3_verify_relation": [
        "verify",
        "--n",
        "3",
        "(L2 - L3) K0[1,3] - K0[1,2] K0[2,3]",
        "--constraints",
        "L3 = L1 - 1/2",
    ],
}
VERIFY_FORMATS = ("text", "json")

# Every g_2 weight in [-1, 6]^2 with a + b <= 8 and every g_3 weight with
# |w|_1 <= 4: 54 + 129 = 183 reports, each frozen as the digest of its json
# and its text output.
SWEEP = [(2, f"{a},{b}") for a, b in product(range(-1, 7), repeat=2) if a + b <= 8] + [
    (3, ",".join(map(str, w))) for w in product(range(-4, 5), repeat=3) if sum(map(abs, w)) <= 4
]
SWEEP_FORMATS = ("json", "text")


def sweep_digests(n: int, weight: str) -> dict:
    """{format: sha256 hex digest of ``jv singular`` at (n, weight)}."""
    argv = ["singular", "--n", str(n), f"--weight={weight}", "--format"]
    return {fmt: hashlib.sha256(stdout_bytes(argv + [fmt])).hexdigest() for fmt in SWEEP_FORMATS}


def stdout_bytes(argv) -> bytes:
    out = StringIO()
    with redirect_stdout(out):
        code = jv_main(list(argv))
    if code != 0:
        raise RuntimeError(f"jv {' '.join(argv)} exited with {code}")
    return out.getvalue().encode("ascii")


def report_bytes(n: int, weight: str) -> bytes:
    return stdout_bytes(["singular", "--n", str(n), f"--weight={weight}", "--format", "json"])


def main() -> int:
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, (n, weight) in CASES.items():
        (REPORTS / f"{name}.json").write_bytes(report_bytes(n, weight))
        print(f"wrote reports/{name}.json")
    CLI.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for name, argv in CLI_CASES.items():
        for fmt in FORMATS:
            argvs[f"{name}.{fmt}"] = argv + ["--format", fmt]
    for name, argv in RUN_CASES.items():
        for fmt in RUN_FORMATS:
            argvs[f"{name}.{fmt}"] = argv + ["--format", fmt]
    for name, argv in VECTOR_CASES.items():
        for fmt in VECTOR_FORMATS:
            argvs[f"{name}.{fmt}"] = argv + ["--format", fmt]
    for name, argv in VERIFY_CASES.items():
        for fmt in VERIFY_FORMATS:
            argvs[f"{name}.{fmt}"] = argv + ["--format", fmt]
    for name, argv in BRACKET_CASES.items():
        for fmt in FORMATS:
            argvs[f"{name}.{fmt}"] = argv + ["--format", fmt]
    for name, argv in SHORT_CASES.items():
        argvs[f"{name}.short.latex"] = argv + ["--format", "latex", "--short-names"]
    for fname, argv in argvs.items():
        (CLI / fname).write_bytes(stdout_bytes(argv))
        print(f"wrote cli/{fname}")
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(argvs.items())]
    (CLI / "argv.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="ascii")
    rows = [json.dumps({"n": n, "weight": w, **sweep_digests(n, w)}) for n, w in SWEEP]
    SWEEP_FILE.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="ascii")
    print(f"wrote sweep.json ({len(rows)} weights)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
