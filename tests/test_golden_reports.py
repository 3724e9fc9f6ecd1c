"""Byte-for-byte comparison with frozen ``jv`` outputs.

Criterion 10 compares two runs of the same code; these files compare across
code versions.  Each file under ``golden/reports/`` holds the exact stdout of
one ``jv singular --format json`` run, and the weight to rerun is read back
from the report itself.  Each file under ``golden/cli/`` holds the exact
stdout of one ``jv bracket``, ``jv normal-order``, ``jv act``, ``jv singular`` or
``jv verify`` run, whose arguments are listed in ``golden/cli/argv.json``.
``golden/sweep.json`` holds the sha256 digests of ``jv singular`` in json and
text at every weight of a sweep over g_2 and g_3.
``scripts/freeze_reports.py`` writes all three."""

import hashlib
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
SWEEP = json.loads((GOLDEN_DIR / "sweep.json").read_text(encoding="ascii"))

CASES = [pytest.param(p, None, id=p.stem) for p in GOLDEN] + [
    pytest.param(CLI / name, argv, id="cli/" + name) for name, argv in sorted(CLI_ARGV.items())
]


def test_corpus_present():
    assert len(GOLDEN) == 15
    assert len(CLI_ARGV) == 54
    assert sorted(p.name for p in CLI.iterdir() if p.name != "argv.json") == sorted(CLI_ARGV)
    assert len(SWEEP) == 183


@pytest.mark.parametrize("path, argv", CASES)
def test_report_matches_golden(path, argv):
    expected = path.read_bytes()
    if argv is None:
        weight = json.loads(expected)["weight"]
        argv = ["singular", "--n", str(len(weight)), "--weight=" + ",".join(weight), "--format", "json"]
    assert _stdout(argv) == expected


def test_sweep_matches_digests():
    changed = []
    for row in SWEEP:
        for fmt in ("json", "text"):
            argv = ["singular", "--n", str(row["n"]), "--weight=" + row["weight"], "--format", fmt]
            if hashlib.sha256(_stdout(argv)).hexdigest() != row[fmt]:
                changed.append(f"g_{row['n']} ({row['weight']}) {fmt}")
    assert not changed, f"{len(changed)} sweep outputs differ: " + ", ".join(changed)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--format", "json", "bracket", "a-1", "a+1"], "g2_bracket_aa.json"),
        (["--format", "latex", "--short-names", "normal-order", "d- d+ c+"], "g2_word2.short.latex"),
    ],
    ids=["bracket-json", "normal-order-short-latex"],
)
def test_flags_before_the_subcommand(argv, name):
    assert _stdout(argv) == (CLI / name).read_bytes()


def test_later_format_flag_wins():
    # each golden argument list gives --format after the sub-command, so a
    # different --format before it is overridden
    for name, argv in sorted(CLI_ARGV.items()):
        fmt = argv[argv.index("--format") + 1]
        other = "text" if fmt == "json" else "json"
        assert _stdout(["--format", other, *argv]) == (CLI / name).read_bytes(), name


def _stdout(argv) -> bytes:
    out = StringIO()
    with redirect_stdout(out):
        code = jv_main(argv)
    assert code == 0
    return out.getvalue().encode("ascii")
