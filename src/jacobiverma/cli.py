"""Command-line surface.

Commands::

    jv bracket X Y              commutator of two basis generators
    jv normal-order WORD        PBW normal form of a word
    jv act X VECTOR             action of a generator on a module vector
    jv singular --n N --weight W [--branch-budget B]
                                singular-vector search report
    jv verify VECTOR --constraints C
                                check the lowest-weight conditions

Global flags: ``--format text|latex|json`` (default text), ``--short-names``
(use the short names b, c, d, h in LaTeX output; they exist for n = 2 only),
``--n`` where the dimension cannot be inferred from the input.

Exit status: 0 on success (including "no singular vector", which is a valid
answer), 2 on parse errors and invalid input (such as a branch budget below
1, or a vector to verify that is zero or vanishes on its constraints), 3
when the solver branch budget is exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .algebra import JacobiAlgebra
from .ring import PolyQ, frac_text
from .singular import BranchBudgetExceededError, display_factor_order, find_singular_vectors
from .textio import (
    ParseError,
    constraints_to_json,
    infer_dimension,
    parse_constraints,
    parse_generator,
    parse_vector,
    parse_weight,
    parse_word,
    render_generator,
    render_monomial,
    render_solved_form,
    render_vector,
    render_weight,
    report_to_json,
    vector_to_json,
)
from .verma import (
    ConstraintSet,
    InconsistentConstraintsError,
    InhomogeneousVectorError,
    act,
    is_singular,
    vector_weight,
)
from .pbw import PbwMonomial, UElement, monomial_weight, normal_order

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _dimension(args, *strings: str) -> int:
    """``--n`` when given, whatever its value, else the inferred dimension."""
    return args.n if args.n is not None else infer_dimension(*strings)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _print_element(args, alg: JacobiAlgebra, value, to_json=vector_to_json) -> int:
    """``to_json(alg, value)`` in JSON, else ``value`` rendered as text or LaTeX."""
    if args.format == "json":
        print(_json_dump(to_json(alg, value)))
    elif args.format == "latex":
        print(render_vector(alg, value, short=args.short_names, latex=True))
    else:
        print(render_vector(alg, value))
    return EXIT_OK


def _cmd_bracket(args) -> int:
    n = _dimension(args, args.x, args.y)
    alg = JacobiAlgebra(n)
    br = alg.bracket(parse_generator(args.x, n), parse_generator(args.y, n))
    # the bracket as the element scalar + sum c g of U(g_n)
    terms = {PbwMonomial.from_generators(alg, [g]): PolyQ.const(n, c) for g, c in br.terms.items()}
    value = UElement(n, {PbwMonomial.unit(alg): PolyQ.const(n, br.scalar), **terms})

    def to_json(alg, _value):
        terms = [
            {"generator": render_generator(g, n), "coeff": frac_text(br.terms[g])}
            for g in sorted(br.terms, key=lambda g: alg.index[g])
        ]
        return {"scalar": frac_text(br.scalar), "terms": terms}

    return _print_element(args, alg, value, to_json)


def _cmd_normal_order(args) -> int:
    n = _dimension(args, args.word)
    alg = JacobiAlgebra(n)
    return _print_element(args, alg, normal_order(alg, parse_word(args.word, n)))


def _cmd_act(args) -> int:
    n = _dimension(args, args.x, args.vector)
    alg = JacobiAlgebra(n)
    x = parse_generator(args.x, n)
    return _print_element(args, alg, act(alg, x, parse_vector(args.vector, alg)))


def _cmd_singular(args) -> int:
    alg = JacobiAlgebra(args.n)
    w = parse_weight(args.weight, args.n)
    report = find_singular_vectors(alg, w, branch_budget=args.branch_budget)
    if args.format == "json":
        print(_json_dump(report_to_json(alg, report)))
        return EXIT_OK
    latex = args.format == "latex"
    short = args.short_names if latex else None
    print(f"weight: {render_weight(report.weight)}")
    order = display_factor_order(alg)
    mono_text = ", ".join(
        render_monomial(alg, m, short=short, latex=latex, order=order)
        for m in report.monomials
    )
    print(f"ansatz monomials: {mono_text if mono_text else '(none)'}")
    if report.trivial:
        print("trivial: the lowest weight vector itself; excluded from singular vectors")
        return EXIT_OK
    if not report.branches:
        print("no singular vector")
        return EXIT_OK
    for k, br in enumerate(report.branches, start=1):
        print(f"branch {k}:")
        eqs = ", ".join(
            (p.to_latex() if latex else p.to_text()) + " = 0"
            for p in br.constraints.equations
        )
        print(f"  constraints: {eqs if eqs else '(none)'}")
        solved = render_solved_form(br.constraints, latex=latex)
        if solved:
            print(f"  solved form: {', '.join(solved)}")
        print(f"  singular vector: {render_vector(alg, br.vector, short=short, latex=latex)}")
        print(f"  verified: {'yes' if br.verified else 'no'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    n = _dimension(args, args.vector, args.constraints or "")
    alg = JacobiAlgebra(n)
    v = parse_vector(args.vector, alg)
    try:
        vector_weight(alg, v)  # a zero or mixed-weight vector is an input error
    except InhomogeneousVectorError as exc:
        first, second = (
            f"{render_monomial(alg, m)} (weight {render_weight(monomial_weight(alg, m))})"
            for m in exc.monomials
        )
        print(f"error: vector mixes weights: {first} and {second}", file=sys.stderr)
        return EXIT_PARSE
    eqs = parse_constraints(args.constraints, n) if args.constraints else []
    try:
        cs = ConstraintSet.from_equations(n, eqs)
    except InconsistentConstraintsError:
        print("constraints are inconsistent", file=sys.stderr)
        return EXIT_PARSE
    # a singular vector is nonzero, on the constraints too
    if cs.solved_form and all(cs.substitute(c).is_zero for c in v.terms.values()):
        print("error: vector vanishes on the constraints", file=sys.stderr)
        return EXIT_PARSE
    report = is_singular(alg, v, cs)
    if args.format == "json":
        payload = {
            "vector": vector_to_json(alg, v),
            "constraints": constraints_to_json(cs),
            "by_generator": [
                {"generator": render_generator(g, n), "annihilates": ok}
                for g, ok in report.by_generator
            ],
            "singular": report.singular,
            "unverifiable": report.unverifiable,
        }
        print(_json_dump(payload))
        return EXIT_OK
    if report.unverifiable:
        print(f"unverifiable: {report.message}")
        return EXIT_OK
    for g, ok in report.by_generator:
        print(f"{render_generator(g, n)}: {'annihilates' if ok else 'does not annihilate'}")
    print(f"singular: {'yes' if report.singular else 'no'}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``jv`` parser, built on the first call and shared by later ones."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "latex", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--short-names",
        action="store_true",
        help="use the n=2 short names (b,c,d,h) in LaTeX output",
    )
    parser = argparse.ArgumentParser(
        prog="jv",
        description="Exact Verma-module computations over the Jacobi algebra",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="commutator of two basis generators", parents=[common])
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("normal-order", help="PBW normal form of a word", parents=[common])
    p.add_argument("word")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("act", help="act with a generator on a module vector", parents=[common])
    p.add_argument("x")
    p.add_argument("vector")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser(
        "singular", help="search singular vectors of a given weight", parents=[common]
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--weight",
        required=True,
        help="target weight, e.g. 2d1, d1-d2 or 4,4; a weight that starts with '-' "
        "needs the --weight=W form, e.g. --weight=-1,3 or --weight=-d1+d2",
    )
    p.add_argument("--branch-budget", type=_positive_int, default=64)
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser(
        "verify", help="check the lowest-weight conditions on a vector", parents=[common]
    )
    p.add_argument("vector")
    p.add_argument("--constraints", default="")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BranchBudgetExceededError as exc:
        print(f"solver budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
