"""The benchmark's workloads and the checks on their outputs.

``g2_ladder`` and ``g3_ladder`` run ``jv singular --format json`` on a fixed
ladder of weights, in-process through ``jacobiverma.cli.main`` with stdout
captured, and compare the captured text with the bytes frozen in
``expected/ladders.json``.  ``action_mix`` runs seeded, independent g_3
operations of the action layer (normal ordering, the action of one
generator, singularity checks) that share little structure.

Only ``perfbench/freeze.py`` writes the files under ``expected/``.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

MODULES = ("algebra", "ring", "pbw", "verma", "singular", "textio", "cli")

# g_2 (5,3) and g_3 (2,1,1), (2,2,0), (3,1,0), (4,0,0) take 55-700 s each at
# the seed commit, too slow for a workload that each comparison runs many times.
G2_WEIGHTS = ["2d1", "2d2", "d1+d2", "d1-d2", "d1", "d2", "3d2",
              "2,2", "3,1", "4,0", "3,3", "6,0", "4,4"]
G3_WEIGHTS = ["0,1,1", "1,0,1", "1,1,0", "2,0,0", "1,1,1", "2,1,0", "3,0,0"]

DEFAULT_SEED = 1
# Each pass of action_mix draws words of each length 4..8, actions of each
# raising and lowering generator on monomials of each degree 3..7, and one
# check of each g_3 ladder singular vector.  Fixed counts per stratum keep
# the cost of a pass from depending on how the seed mixes the kinds.
WORDS_PER_LENGTH = 48
ACTS_PER_CELL = 2
REPRESENTATION_TRIPLES = 64
REPRESENTATION_SEED = 20190814


class ItemTimeout(BaseException):
    """Raised by the interval timer when one item overruns its limit.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


def load_program() -> SimpleNamespace:
    """Import jacobiverma afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "jacobiverma" or m.startswith("jacobiverma.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("jacobiverma")
    if Path(package.__file__).resolve().parent != SRC / "jacobiverma":
        raise ImportError(f"jacobiverma was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"jacobiverma.{m}") for m in MODULES})


def load_expected(name: str) -> dict:
    with open(EXPECTED / name, encoding="ascii") as fh:
        return json.load(fh)


# -- tracing targets -----------------------------------------------------------


def _solve_counts(branches) -> dict:
    return {
        "singular.branches": len(branches),
        "singular.kernel_dim": sum(len(b.kernel) for b in branches),
    }


def _verified_count(report) -> dict:
    return {"verma.verified": int(report.singular)}


# (module, attribute, span name, counter).  singular and cli import their
# callees by name, so each importing module's attribute is wrapped as well.
TRACED = [
    ("cli", "main", "cli.main", None),
    ("cli", "JacobiAlgebra", "algebra.init", None),
    ("cli", "parse_weight", "textio.parse_weight", None),
    ("cli", "find_singular_vectors", "singular.find_singular_vectors", None),
    ("cli", "report_to_json", "textio.report_to_json", None),
    ("singular", "enumerate_ansatz", "singular.enumerate_ansatz",
     lambda r: {"singular.ansatz_size": len(r)}),
    ("singular", "assemble_system", "singular.assemble_system",
     lambda r: {"singular.rows": len(r.rows)}),
    ("singular", "solve_parametric", "singular.solve_parametric", _solve_counts),
    ("singular", "kernel_vector_to_verma", "singular.kernel_vector_to_verma", None),
    ("singular", "act", "verma.act", None),
    ("singular", "is_singular", "verma.is_singular", _verified_count),
    ("verma", "act", "verma.act", None),
    ("verma", "is_singular", "verma.is_singular", _verified_count),
    ("verma", "normal_order", "pbw.normal_order", None),
    ("pbw", "normal_order", "pbw.normal_order", None),
]


def install_tracing(tracer, prog) -> None:
    for module, attr, name, counter in TRACED:
        tracer.wrap(getattr(prog, module), attr, name, counter)


# -- ladders -------------------------------------------------------------------


class Ladder:
    """One ``jv singular --format json`` call per weight of the ladder."""

    item_limit = 90.0

    def __init__(self, name: str, n: int, weights: List[str]):
        self.name = name
        self.n = n
        self.weights = weights

    def new_algebra(self, prog) -> None:
        self.alg = prog.algebra.JacobiAlgebra(self.n)

    def setup(self, prog) -> None:
        self.new_algebra(prog)
        for w in self.weights:
            prog.textio.parse_weight(w, self.n)
        self.expected = load_expected("ladders.json")[self.name]

    def items(self, seed: int, pass_index: int) -> list:
        """The ladder in an order drawn from the seed, the same in every pass."""
        order = list(self.weights)
        random.Random(seed).shuffle(order)
        return order

    def run_item(self, prog, weight: str):
        argv = ["singular", "--n", str(self.n), "--weight", weight, "--format", "json"]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = prog.cli.main(argv)
        return code, out.getvalue()

    def check_item(self, prog, weight: str, result) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if text != self.expected[weight]:
            return "output differs from the frozen bytes"
        if not all(b["verified"] for b in json.loads(text)["branches"]):
            return "a branch is not verified"
        return None

    def final_checks(self, prog):
        return 0, []

    def describe(self, weight: str) -> str:
        return f"g_{self.n} weight {weight}"


# -- action mix ----------------------------------------------------------------


def _parse_coordinate(prog, text: str, n: int):
    """A kernel coordinate as rendered in a report: a polynomial, or
    ``(num) / (den)``."""
    ring, parse = prog.ring, prog.textio.parse_poly
    if " / " in text:
        num, den = text.split(" / ")
        return ring.RatFuncQ(parse(num, n), parse(den, n))
    return ring.RatFuncQ(parse(text, n))


def ladder_singular_vectors(prog, alg, report_text: str) -> list:
    """(vector, constraints) for each singular vector of a frozen report."""
    n = alg.n
    report = json.loads(report_text)
    monomials = [
        prog.pbw.PbwMonomial.from_generators(alg, prog.textio.parse_word(m, n))
        for m in report["monomials"]
    ]
    out = []
    for branch in report["branches"]:
        equations = [prog.textio.parse_poly(e, n) for e in branch["constraints"]]
        constraints = prog.verma.ConstraintSet.from_equations(n, equations)
        for coords in branch["vectors"]:
            kernel = [_parse_coordinate(prog, c, n) for c in coords]
            out.append((prog.singular.kernel_vector_to_verma(alg, monomials, kernel), constraints))
    return out


class ActionMix:
    """Seeded g_3 operations of the action layer; no solver work."""

    name = "action_mix"
    n = 3
    item_limit = 10.0

    def new_algebra(self, prog) -> None:
        self.alg = prog.algebra.JacobiAlgebra(self.n)

    def setup(self, prog) -> None:
        self.prepare(prog)
        self.expected = load_expected("action_mix.json")

    def prepare(self, prog) -> None:
        """The algebra and the singular vectors of the frozen g_3 ladder."""
        self.prog = prog
        self.new_algebra(prog)
        ladders = load_expected("ladders.json")["g3_ladder"]
        self.singular_vectors = [
            sv for w in G3_WEIGHTS for sv in ladder_singular_vectors(prog, self.alg, ladders[w])
        ]

    def _random_vector(self, rng: random.Random, degree: int):
        prog, alg = self.prog, self.alg
        exps = [0] * len(alg.generators)
        for _ in range(degree):
            exps[rng.randrange(alg.num_positive)] += 1
        coeff = prog.ring.PolyQ.zero(self.n)
        while coeff.is_zero:
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 1) for _ in range(self.n))
                c = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))
                coeff = coeff + prog.ring.PolyQ(self.n, {mono: c})
        return prog.verma.VermaVector.monomial(alg, prog.pbw.PbwMonomial(tuple(exps)), coeff)

    def items(self, seed: int, pass_index: int) -> list:
        """Fresh operations for every pass, drawn from the seed."""
        alg = self.alg
        rng = random.Random(seed * 1_000_003 + pass_index)
        ops = []
        for length in range(4, 9):
            for _ in range(WORDS_PER_LENGTH):
                word = tuple(rng.randrange(len(alg.generators)) for _ in range(length))
                ops.append(("normal_order", word))
        for x in alg.positive + alg.negative:
            for degree in range(3, 8):
                for _ in range(ACTS_PER_CELL):
                    ops.append(("act", x, self._random_vector(rng, degree)))
        for vector, constraints in self.singular_vectors:
            scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
            ops.append(("is_singular", vector.scale(scale), constraints))
        rng.shuffle(ops)
        return ops

    def run_item(self, prog, op):
        if op[0] == "normal_order":
            return prog.pbw.normal_order(self.alg, op[1])
        if op[0] == "act":
            return prog.verma.act(self.alg, op[1], op[2])
        return prog.verma.is_singular(self.alg, op[1], op[2])

    def render(self, prog, op, result):
        textio, alg = prog.textio, self.alg
        if op[0] == "normal_order":
            return textio.uelement_to_json(alg, result)
        if op[0] == "act":
            return textio.vector_to_json(alg, result)
        return {
            "singular": result.singular,
            "by_generator": [[textio.render_generator(g, self.n), ok] for g, ok in result.by_generator],
        }

    def describe(self, op) -> str:
        textio, alg = self.prog.textio, self.alg
        if op[0] == "normal_order":
            return "normal_order " + " ".join(
                textio.render_generator(alg.generators[i], self.n) for i in op[1]
            )
        if op[0] == "act":
            return f"act {textio.render_generator(op[1], self.n)} on {textio.render_vector(alg, op[2])}"
        return f"is_singular {textio.render_vector(alg, op[1])}"

    def check_item(self, prog, op, result) -> Optional[str]:
        """Invariants that hold on any seed: weight is conserved, and every
        ladder singular vector checks as singular."""
        alg = self.alg
        if op[0] == "is_singular":
            return None if result.singular else "a ladder singular vector did not check as singular"
        if op[0] == "normal_order":
            want = prog.algebra.Weight.zero(self.n)
            for i in op[1]:
                want = want + alg.weight(alg.generators[i])
        else:
            (m,) = op[2].terms
            want = alg.weight(op[1]) + prog.pbw.monomial_weight(alg, m)
        if any(prog.pbw.monomial_weight(alg, m) != want for m in result.terms):
            return "result is not of the weight of its input"
        return None

    def reference_failures(self, prog) -> list:
        """Re-run the default seed's first pass and compare it with the
        frozen rendered results."""
        ops = self.items(DEFAULT_SEED, 0)
        frozen = self.expected["ops"]
        if len(ops) != len(frozen):
            return [f"reference pass has {len(ops)} operations, frozen file {len(frozen)}"]
        failures = []
        for op, want in zip(ops, frozen):
            desc = self.describe(op)
            got = self.render(prog, op, self.run_item(prog, op))
            if desc != want["op"] or got != want["result"]:
                failures.append(f"frozen result differs: {desc}")
        return failures

    def representation_failures(self, prog) -> list:
        """x.(y.v) - y.(x.v) = [x,y].v on triples that do not depend on the seed."""
        alg, act = self.alg, prog.verma.act
        rng = random.Random(REPRESENTATION_SEED)
        failures = []
        for _ in range(REPRESENTATION_TRIPLES):
            x, y = rng.choice(alg.generators), rng.choice(alg.generators)
            v = self._random_vector(rng, rng.randint(2, 4))
            lhs = act(alg, x, act(alg, y, v)) - act(alg, y, act(alg, x, v))
            if lhs != prog.verma.act_of_bracket(alg, alg.bracket(x, y), v):
                failures.append(
                    f"representation property fails for [{x}, {y}] on "
                    f"{prog.textio.render_vector(alg, v)}"
                )
        return failures

    def final_checks(self, prog):
        """(items attempted, failures) of the checks run after the timed passes."""
        attempted = len(self.expected["ops"]) + REPRESENTATION_TRIPLES
        return attempted, self.reference_failures(prog) + self.representation_failures(prog)


WORKLOADS = {
    "g2_ladder": lambda: Ladder("g2_ladder", 2, G2_WEIGHTS),
    "g3_ladder": lambda: Ladder("g3_ladder", 3, G3_WEIGHTS),
    "action_mix": ActionMix,
}
