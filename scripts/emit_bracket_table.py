#!/usr/bin/env python3
"""Emit the full g_2 bracket table as JSON (frozen under tests/golden/).

Usage: PYTHONPATH=src python scripts/emit_bracket_table.py [OUT]

Prints the table, or writes it to OUT.
"""

import json
import sys
from pathlib import Path

from jacobiverma import JacobiAlgebra, PbwMonomial, PolyQ
from jacobiverma.textio import render_generator


def main() -> int:
    alg = JacobiAlgebra(2)
    unit = PbwMonomial.unit(alg)
    table = []
    for x in alg.generators:
        for y in alg.generators:
            br = alg.bracket(x, y)
            if br.is_zero:
                continue
            table.append(
                {
                    "x": render_generator(x, 2),
                    "y": render_generator(y, 2),
                    "scalar": br.terms.get(unit, PolyQ.zero(2)).to_text(),
                    "terms": {
                        render_generator(alg.generators[m.word()[0]], 2): c.to_text()
                        for m, c in br.terms.items()
                        if m != unit
                    },
                }
            )
    out = json.dumps(table, indent=1, sort_keys=True)
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(out + "\n")
    else:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
