"""The names that the benchmark and the stage timer wrap exist in the package,
``scripts/ab_rungs.py`` and ``scripts/ab_ops.py`` compare two checkouts, and
``scripts/emit_bracket_table.py`` prints the frozen g_2 bracket table.

``perfbench/run.py --trace 1`` wraps every ``(module, attr)`` of
``perfbench/workloads.TRACED`` with ``getattr``, and
``scripts/stage_times.py`` wraps its ``WRAPPED`` names on top, a dotted one
(a method) resolved with ``attrgetter``; a renamed or
deleted function would break them only when they run.  Neither file is
imported as the tools import it: ``workloads.py`` is loaded under a private
name without its ``load_program`` reload, and ``WRAPPED`` is read from the
script's source.
"""

import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stage_times_wrapped():
    tree = ast.parse((ROOT / "scripts" / "stage_times.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("scripts/stage_times.py defines no WRAPPED list")


WORKLOADS = _load_workloads()
TARGETS = [(module, attr) for module, attr, _, _ in WORKLOADS.TRACED] + [
    (module, attr) for module, attr, _ in _stage_times_wrapped()
]


def test_traced_modules_are_the_package_modules():
    assert {module for module, _ in TARGETS} <= set(WORKLOADS.MODULES)


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_wrapped_name_resolves(module, attr):
    assert callable(attrgetter(attr)(importlib.import_module(f"jacobiverma.{module}")))


def _ab_rungs(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_rungs.py"), "--rounds", "2", *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


def test_ab_rungs_reports_each_rung(tmp_path):
    run = _ab_rungs(ROOT, ROOT, 2, "2d1", "d1")
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [line["weight"] for line in lines] == ["2d1", "d1"]
    assert all(line["parent_wins"] + line["change_wins"] == 2 for line in lines)


def test_ab_rungs_stops_when_the_outputs_differ(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ring = tmp_path / "src" / "jacobiverma" / "ring.py"
    text = ring.read_text(encoding="utf-8")
    assert 'f"{num}/{den}"' in text
    ring.write_text(text.replace('f"{num}/{den}"', 'f"{num} / {den}"'), encoding="utf-8")
    run = _ab_rungs(ROOT, tmp_path, 2, "2d1")
    assert run.returncode == 1
    assert run.stdout == ""
    assert "outputs differ" in run.stderr


def _ab_ops(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )


def test_ab_ops_reports_each_kind():
    run = _ab_ops(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [line["kind"] for line in lines] == ["normal_order", "act", "is_singular"]
    assert all(line["parent_wins"] + line["change_wins"] == line["passes"] for line in lines)


def test_ab_ops_stops_when_the_outputs_differ(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ring = tmp_path / "src" / "jacobiverma" / "ring.py"
    text = ring.read_text(encoding="utf-8")
    assert 'f"{num}/{den}"' in text
    ring.write_text(text.replace('f"{num}/{den}"', 'f"{num} / {den}"'), encoding="utf-8")
    run = _ab_ops(ROOT, tmp_path)
    assert run.returncode == 1
    assert run.stdout == ""
    assert "outputs differ" in run.stderr


def test_emit_bracket_table_prints_the_frozen_table():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "emit_bracket_table.py")],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "golden" / "bracket_table_n2.json").read_bytes()
