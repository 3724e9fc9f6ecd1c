"""The names that the benchmark and the stage timer wrap exist in the package.

``perfbench/run.py --trace 1`` wraps every ``(module, attr)`` of
``perfbench/workloads.TRACED`` with ``getattr``, and
``scripts/stage_times.py`` wraps its ``WRAPPED`` names on top; a renamed or
deleted function would break them only when they run.  Neither file is
imported as the tools import it: ``workloads.py`` is loaded under a private
name without its ``load_program`` reload, and ``WRAPPED`` is read from the
script's source.
"""

import ast
import importlib
import importlib.util
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
    assert callable(getattr(importlib.import_module(f"jacobiverma.{module}"), attr))
