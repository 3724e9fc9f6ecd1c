"""Byte-for-byte comparison with frozen ``jv singular --format json`` reports.

Criterion 10 compares two runs of the same code; these files compare across
code versions.  Each file under ``golden/reports/`` holds the exact stdout of
one run, written by ``scripts/freeze_reports.py``; the weight to rerun is read
back from the report itself."""

import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from jacobiverma.cli import main as jv_main

REPORTS = Path(__file__).parent / "golden" / "reports"
GOLDEN = sorted(REPORTS.glob("*.json"))


def test_corpus_present():
    assert len(GOLDEN) == 10


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_report_matches_golden(path):
    expected = path.read_bytes()
    weight = json.loads(expected)["weight"]
    out = StringIO()
    with redirect_stdout(out):
        code = jv_main(
            ["singular", "--n", str(len(weight)), "--weight=" + ",".join(weight), "--format", "json"]
        )
    assert code == 0
    assert out.getvalue().encode("ascii") == expected
