"""Byte-for-byte comparison with frozen ``jv`` outputs.

Criterion 10 compares two runs of the same code; these files compare across
code versions.  Each file under ``golden/reports/`` holds the exact stdout of
one ``jv singular --format json`` run, and the weight to rerun is read back
from the report itself.  Each file under ``golden/cli/`` holds the exact
stdout of one ``jv normal-order``, ``jv act``, ``jv singular`` or ``jv verify``
run, whose arguments are listed in ``golden/cli/argv.json``.
``scripts/freeze_reports.py`` writes both."""

import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from jacobiverma.cli import main as jv_main

GOLDEN_DIR = Path(__file__).parent / "golden"
REPORTS = GOLDEN_DIR / "reports"
CLI = GOLDEN_DIR / "cli"
GOLDEN = sorted(REPORTS.glob("*.json"))
CLI_ARGV = json.loads((CLI / "argv.json").read_text(encoding="ascii"))

CASES = [pytest.param(p, None, id=p.stem) for p in GOLDEN] + [
    pytest.param(CLI / name, argv, id="cli/" + name) for name, argv in sorted(CLI_ARGV.items())
]


def test_corpus_present():
    assert len(GOLDEN) == 15
    assert len(CLI_ARGV) == 36
    assert sorted(p.name for p in CLI.iterdir() if p.name != "argv.json") == sorted(CLI_ARGV)


@pytest.mark.parametrize("path, argv", CASES)
def test_report_matches_golden(path, argv):
    expected = path.read_bytes()
    if argv is None:
        weight = json.loads(expected)["weight"]
        argv = ["singular", "--n", str(len(weight)), "--weight=" + ",".join(weight), "--format", "json"]
    out = StringIO()
    with redirect_stdout(out):
        code = jv_main(argv)
    assert code == 0
    assert out.getvalue().encode("ascii") == expected
