"""Kac-Kazhdan checks on frozen reports; reads files only, runs no engine code.

The criterion and its checks (i)-(iv) are in ``kac_kazhdan.py``.  The
reports here are the golden corpus and the frozen benchmark ladders;
``test_singular.py`` runs the same checks on reports it computes.
"""

import json
from pathlib import Path

import pytest

from kac_kazhdan import check_kac_kazhdan

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden" / "reports").glob("*.json"))
LADDERS = ROOT / "perfbench" / "expected" / "ladders.json"


def _reports():
    out = [pytest.param(p.read_text(encoding="ascii"), id=p.stem) for p in GOLDEN]
    ladders = json.loads(LADDERS.read_text(encoding="ascii"))
    for ladder, rungs in sorted(ladders.items()):
        out += [pytest.param(text, id=f"{ladder}/{w}") for w, text in sorted(rungs.items())]
    return out


REPORTS = _reports()


@pytest.mark.parametrize("text", REPORTS)
def test_kac_kazhdan(text):
    check_kac_kazhdan(json.loads(text))
