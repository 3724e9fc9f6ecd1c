"""Write the frozen outputs that the benchmark compares against.

    python3 perfbench/freeze.py

``expected/ladders.json`` holds, for every ladder weight, the exact stdout of
``jv singular --format json``.  ``expected/action_mix.json`` holds the
rendered result of every operation in the first pass of ``action_mix`` on
the default seed.  Run it only to re-freeze on purpose: the files are the
reference that later versions of the program are compared with.
"""

from __future__ import annotations

import json
import sys

from workloads import DEFAULT_SEED, EXPECTED, WORKLOADS, load_program


def write(name: str, payload: dict) -> None:
    with open(EXPECTED / name, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    prog = load_program()
    EXPECTED.mkdir(exist_ok=True)
    ladders = {}
    for name in ("g2_ladder", "g3_ladder"):
        ladder = WORKLOADS[name]()
        ladders[name] = {}
        for weight in ladder.weights:
            code, text = ladder.run_item(prog, weight)
            if code != 0:
                print(f"{ladder.describe(weight)} exited with {code}", file=sys.stderr)
                return 1
            ladders[name][weight] = text
    write("ladders.json", ladders)

    mix = WORKLOADS["action_mix"]()
    mix.prepare(prog)
    ops = []
    for op in mix.items(DEFAULT_SEED, 0):
        result = mix.run_item(prog, op)
        ops.append({"op": mix.describe(op), "result": mix.render(prog, op, result)})
    write("action_mix.json", {"seed": DEFAULT_SEED, "ops": ops})
    return 0


if __name__ == "__main__":
    sys.exit(main())
