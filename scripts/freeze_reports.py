#!/usr/bin/env python3
"""Freeze ``jv singular --format json`` reports as golden files.

Each case's report is written to ``tests/golden/reports/<name>.json`` as the
exact bytes the command prints on stdout, so later versions of the solver can
be diffed against it byte for byte (``tests/test_golden_reports.py``).

Usage: PYTHONPATH=src python scripts/freeze_reports.py
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from jacobiverma.cli import main as jv_main

REPORTS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "reports"

# The seven worked g_2 cases, two heavier g_2 weights and one g_3 weight.
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
    "g3_2,0,0": (3, "2,0,0"),
}


def report_bytes(n: int, weight: str) -> bytes:
    out = StringIO()
    with redirect_stdout(out):
        code = jv_main(["singular", "--n", str(n), f"--weight={weight}", "--format", "json"])
    if code != 0:
        raise RuntimeError(f"jv singular --n {n} --weight={weight} exited with {code}")
    return out.getvalue().encode("ascii")


def main() -> int:
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, (n, weight) in CASES.items():
        (REPORTS / f"{name}.json").write_bytes(report_bytes(n, weight))
        print(f"wrote {name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
