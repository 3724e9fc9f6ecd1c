#!/usr/bin/env python3
"""Which lines of ``src/jacobiverma`` a checked benchmark pass never runs.

Usage: python3 scripts/trace_paths.py

Under the standard library's ``trace`` line counter, runs:

* one pass of each ``perfbench`` workload (``g2_ladder``, ``g3_ladder``,
  ``action_mix``) with seed 1, set-up included, checking every item with
  the workload's own ``check_item`` and then its ``final_checks``;
* ``jv singular`` on the weight of every report under
  ``tests/golden/reports/`` and ``jv`` on every argument list in
  ``tests/golden/cli/argv.json``, comparing each output with its golden
  file.

Then it prints, for each function and method of ``src/jacobiverma`` (found
with ``ast``), the first lines of the statements of its body that never
ran, or ``never called``; functions whose every statement ran are not
listed.  A nested function is listed under ``outer.<locals>.inner`` and its
statements are not counted in the outer one.  The last line is a summary,
with the total line count of ``src/jacobiverma/*.py`` (as ``wc -l``).
Exits 1 if any check failed.  ``perfbench/workloads.py`` is imported
read-only, as in ``scripts/stage_times.py``, and the program from this
checkout's ``src/``.  About 13–18 s on a 2-vCPU VM (Python 3.11).
"""

import ast
import json
import sys
import trace
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jacobiverma"
GOLDEN = ROOT / "tests" / "golden"
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, load_program  # noqa: E402


def run_jv(prog, argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def checked_runs(prog) -> list:
    """Run everything once; return the failed checks."""
    failures = []
    for name, make in WORKLOADS.items():
        workload = make()
        workload.setup(prog)
        workload.new_algebra(prog)
        for item in workload.items(SEED, 0):
            reason = workload.check_item(prog, item, workload.run_item(prog, item))
            if reason is not None:
                failures.append(f"{name}: {workload.describe(item)}: {reason}")
        _, final = workload.final_checks(prog)
        failures += [f"{name}: {f}" for f in final]
    cases = []
    for path in sorted((GOLDEN / "reports").glob("*.json")):
        weight = json.loads(path.read_text(encoding="ascii"))["weight"]
        argv = ["singular", "--n", str(len(weight)), "--weight=" + ",".join(weight),
                "--format", "json"]
        cases.append((path, argv))
    argvs = json.loads((GOLDEN / "cli" / "argv.json").read_text(encoding="ascii"))
    cases += [(GOLDEN / "cli" / name, argv) for name, argv in sorted(argvs.items())]
    for path, argv in cases:
        code, text = run_jv(prog, argv)
        if code != 0 or text != path.read_text(encoding="ascii"):
            failures.append(f"jv {' '.join(argv)}: output differs from {path.name}")
    return failures


def _statement_lines(body, lines: set, nested: list, prefix: str) -> None:
    """First lines of the statements under ``body``; nested functions go to
    ``nested`` with their qualified names."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # the def or class statement runs in the enclosing body
            lines.add(node.decorator_list[0].lineno if node.decorator_list else node.lineno)
            nested.append((prefix, node))
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        lines.add(node.lineno)
        for field in ("body", "orelse", "finalbody"):
            _statement_lines(getattr(node, field, []), lines, nested, prefix)
        for handler in getattr(node, "handlers", []):
            lines.add(handler.lineno)
            _statement_lines(handler.body, lines, nested, prefix)
        for case in getattr(node, "cases", []):
            _statement_lines(case.body, lines, nested, prefix)


def functions(path: Path) -> list:
    """(qualified name, statement first lines) for every function in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    pending = [("", node) for node in tree.body]
    while pending:
        prefix, node = pending.pop(0)
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                pending.append((f"{prefix}{node.name}.", child))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            lines: set = set()
            nested: list = []
            name = prefix + node.name
            _statement_lines(body, lines, nested, f"{name}.<locals>.")
            out.append((name, sorted(lines)))
            pending.extend(nested)
    return out


def ranges(lines: list) -> str:
    """Sorted line numbers as runs: ``3, 7-9``."""
    runs = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    prog = load_program()
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix, str(ROOT / "perfbench")])
    failures = tracer.runfunc(checked_runs, prog)
    counts = tracer.results().counts
    total = never = partly = size = 0
    for path in sorted(PACKAGE.glob("*.py")):
        size += path.read_text(encoding="utf-8").count("\n")
        ran = {line for (fname, line) in counts if Path(fname).resolve() == path}
        for name, lines in functions(path):
            total += 1
            missed = [n for n in lines if n not in ran]
            if not missed:
                continue
            if len(missed) == len(lines):
                never += 1
                print(f"{path.name}:{name}: never called")
            else:
                partly += 1
                print(f"{path.name}:{name}: {ranges(missed)}")
    print(f"{size} lines, {total} functions: {never} never called, "
          f"{partly} with lines that never ran")
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
