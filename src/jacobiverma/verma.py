"""Lowest-weight Verma module with a formal weight.

Vectors are combinations of raising-only PBW monomials applied to the lowest
weight vector v0, with coefficients polynomial in the formal weight values
L1..Ln (Li = value of the weight functional on h_i).  Acting with a basis
generator normal-orders the product, after which trailing lowering factors
annihilate v0 and Cartan factors h_i evaluate to Li, so that h^e multiplies a
coefficient by L^e.

The weight stays formal throughout; numeric weights are a matter of
evaluating the polynomial coefficients afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import BracketResult, Generator, JacobiAlgebra, Weight
from .pbw import PbwMonomial, UElement, monomial_weight, normal_order
from .ring import PolyQ, poly_sort_key, squarefree_part


VECTOR_JSON_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "monomial": {"type": "string"},
            "coeff": {"type": "string"},
        },
        "required": ["monomial", "coeff"],
        "additionalProperties": False,
    },
}

CONSTRAINTS_JSON_SCHEMA = {
    "type": "object",
    "properties": {
        "equations": {"type": "array", "items": {"type": "string"}},
        "solved_form": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["equations", "solved_form"],
    "additionalProperties": False,
}


class InhomogeneousVectorError(ValueError):
    def __init__(self, m1: PbwMonomial, m2: PbwMonomial):
        self.monomials = (m1, m2)
        super().__init__(f"vector mixes weights: monomials {m1.exps} and {m2.exps}")


class VermaVector:
    """Map from raising-only PBW monomials to PolyQ coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[PbwMonomial, PolyQ]] = None):
        self.nvars = nvars
        self.terms: Dict[PbwMonomial, PolyQ] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero:
                    self.terms[m] = c

    @classmethod
    def v0(cls, alg: JacobiAlgebra) -> "VermaVector":
        return cls(alg.n, {PbwMonomial.unit(alg): PolyQ.one(alg.n)})

    @classmethod
    def monomial(cls, alg: JacobiAlgebra, m: PbwMonomial, coeff: Optional[PolyQ] = None) -> "VermaVector":
        if coeff is None:
            coeff = PolyQ.one(alg.n)
        return cls(alg.n, {m: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "VermaVector") -> "VermaVector":
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, PolyQ.zero(self.nvars)) + c
            if v.is_zero:
                res.pop(m, None)
            else:
                res[m] = v
        return VermaVector(self.nvars, res)

    def __neg__(self) -> "VermaVector":
        return VermaVector(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-other)

    def scale(self, c) -> "VermaVector":
        if not isinstance(c, PolyQ):
            c = PolyQ.const(self.nvars, c)
        if c.is_zero:
            return VermaVector(self.nvars)
        return VermaVector(self.nvars, {m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, VermaVector)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if self.is_zero:
            return "VermaVector(0)"
        return "VermaVector(" + ", ".join(f"{m.exps}: {c.to_text()}" for m, c in self.terms.items()) + ")"


# Module vector under construction: raising part of a monomial's exponents
# -> L-exponent -> coefficient.
_Accumulator = Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]]


def _evaluate_on_v0(alg: JacobiAlgebra, u: UElement, coeff: Dict[Tuple[int, ...], Fraction],
                    acc: _Accumulator) -> None:
    """Add (u v0) times the polynomial with terms ``coeff`` into ``acc``: kill
    lowering tails, evaluate Cartan factors at L, keep the raising prefix.

    A Cartan factor h^e shifts the exponent of every term of ``coeff`` by e.
    """
    npos = alg.num_positive
    low = npos + alg.n
    for m, c in u.terms.items():
        exps = m.exps
        if any(exps[low:]):
            continue
        cartan = exps[npos:low]
        shift = any(cartan)
        slot = acc.setdefault(exps[:npos], {})
        for e, a in coeff.items():
            if shift:
                e = tuple(map(add, e, cartan))
            slot[e] = slot.get(e, 0) + c * a


def _to_vector(alg: JacobiAlgebra, acc: _Accumulator) -> VermaVector:
    lowering = (0,) * (len(alg.generators) - alg.num_positive)
    terms: Dict[PbwMonomial, PolyQ] = {}
    for raising, slot in acc.items():
        poly = PolyQ.__new__(PolyQ)  # slot holds Fractions already; drop the zeros only
        poly.nvars = alg.n
        poly.terms = {e: c for e, c in slot.items() if c}
        terms[PbwMonomial(raising + lowering)] = poly
    return VermaVector(alg.n, terms)


def act(alg: JacobiAlgebra, x: Generator, v: VermaVector) -> VermaVector:
    """Action of a basis generator on a module vector.

    One ``normal_order`` call per term of v.  Every call adds into one map
    from raising monomial to L-exponent to coefficient, in which a Cartan
    factor h^e of a normal-ordered term shifts the exponents of the input
    coefficient by e; the vector is built once, at the end.
    """
    ix = alg.index[alg._check(x)]
    acc: _Accumulator = {}
    for m, coeff in v.terms.items():
        _evaluate_on_v0(alg, normal_order(alg, (ix,) + m.word()), coeff.terms, acc)
    return _to_vector(alg, acc)


def apply_word_to_v0(alg: JacobiAlgebra, word: Sequence, coeff: Optional[PolyQ] = None) -> VermaVector:
    """The vector (product of the word's generators) v0, any input order."""
    if coeff is None:
        coeff = PolyQ.one(alg.n)
    acc: _Accumulator = {}
    _evaluate_on_v0(alg, normal_order(alg, word), coeff.terms, acc)
    return _to_vector(alg, acc)


def act_of_bracket(alg: JacobiAlgebra, br: BracketResult, v: VermaVector) -> VermaVector:
    """Extend act linearly over a bracket value; the scalar part multiplies."""
    out = v.scale(br.scalar) if br.scalar != 0 else VermaVector(alg.n)
    for g, c in br.terms.items():
        out = out + act(alg, g, v).scale(c)
    return out


def vector_weight(alg: JacobiAlgebra, v: VermaVector) -> Weight:
    """Common weight of the support monomials; raises if the vector mixes weights."""
    if v.is_zero:
        raise ValueError("zero vector has no weight")
    mons = list(v.terms)
    w = monomial_weight(alg, mons[0])
    for m in mons[1:]:
        if monomial_weight(alg, m) != w:
            raise InhomogeneousVectorError(mons[0], m)
    return w


class InconsistentConstraintsError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintSet:
    """Polynomial conditions on the formal weight, with an optional solved form.

    ``equations`` are canonical (monic, squarefree, sorted).  ``solved_form``
    is a triangular list of (variable index, affine PolyQ in the remaining
    variables), present exactly when every equation is affine and the system
    is consistent; substituting it reproduces the equations.
    """

    nvars: int
    equations: Tuple[PolyQ, ...] = ()
    solved_form: Optional[Tuple[Tuple[int, PolyQ], ...]] = None

    @classmethod
    def empty(cls, nvars: int) -> "ConstraintSet":
        return cls(nvars, (), ())

    @classmethod
    def from_equations(cls, nvars: int, eqs: Sequence[PolyQ]) -> "ConstraintSet":
        """Canonicalize equations and attempt an affine triangular solve.

        The affine subset is solved first and substituted into the remaining
        equations until a fixpoint: that detects contradictions hidden in
        mixed affine/nonlinear sets and keeps the stored nonlinear equations
        reduced modulo the affine part.
        """

        def canon(p: PolyQ) -> Optional[PolyQ]:
            if p.is_zero:
                return None
            if p.is_constant:
                raise InconsistentConstraintsError("constant nonzero equation")
            return squarefree_part(p).monic()

        affine: List[PolyQ] = []
        nonlinear: List[PolyQ] = []
        for p in eqs:
            q = canon(p)
            if q is None:
                continue
            (affine if q.total_degree() <= 1 else nonlinear).append(q)
        while True:
            solved = _affine_solve(nvars, affine)
            changed = False
            remaining: List[PolyQ] = []
            for q in nonlinear:
                q = canon(q.subs(dict(solved or ())))
                if q is None:
                    changed = True
                elif q.total_degree() <= 1:
                    affine.append(q)
                    changed = True
                else:
                    remaining.append(q)
            nonlinear = remaining
            if not changed:
                break
        equations = affine + nonlinear
        seen = set()
        unique = []
        for p in sorted(equations, key=poly_sort_key):
            k = poly_sort_key(p)
            if k not in seen:
                seen.add(k)
                unique.append(p)
        solved = _affine_solve(nvars, unique)
        return cls(nvars, tuple(unique), solved)

    def substitute(self, p: PolyQ) -> PolyQ:
        """Reduce a polynomial modulo the solved form (identity if unsolved).

        No solved expression mentions a solved variable, so one simultaneous
        substitution does it."""
        if not self.solved_form:
            return p
        return p.subs(dict(self.solved_form))

    def satisfied_at(self, point: Sequence) -> bool:
        return all(eq.eval_all(point) == 0 for eq in self.equations)


def _affine_solve(nvars: int, eqs: Sequence[PolyQ]) -> Optional[Tuple[Tuple[int, PolyQ], ...]]:
    """Triangular solve of affine equations: returns ((var, expr), ...) ordered so
    substituting left to right eliminates all solved variables, or None when a
    non-affine equation is present.  Raises on inconsistency."""
    pending = [p for p in eqs]
    if any(p.total_degree() > 1 for p in pending):
        return None
    solved: List[Tuple[int, PolyQ]] = []
    while pending:
        p = pending.pop(0)
        for var, expr in solved:
            p = p.subs({var: expr})
        if p.is_zero:
            continue
        if p.is_constant:
            raise InconsistentConstraintsError("constraints are inconsistent")
        target = max(p.variables())
        coeff = Fraction(0)
        rest = PolyQ.zero(nvars)
        for exps, c in p.terms.items():
            if exps[target] == 1:
                others = list(exps)
                others[target] = 0
                if any(others):
                    return None
                coeff = c
            else:
                rest = rest + PolyQ(nvars, {exps: c})
        expr = rest * PolyQ.const(nvars, Fraction(-1) / coeff)
        solved = [(v, e.subs({target: expr})) for v, e in solved]
        solved.append((target, expr))
        pending = [q.subs({target: expr}) for q in pending]
    solved.sort(key=lambda t: -t[0])
    return tuple(solved)


@dataclass
class SingularityReport:
    """Outcome of checking the lowest-weight conditions on a candidate vector."""

    by_generator: List[Tuple[Generator, bool]] = field(default_factory=list)
    unverifiable: bool = False
    message: str = ""

    @property
    def singular(self) -> bool:
        return not self.unverifiable and all(ok for _, ok in self.by_generator)


def is_singular(alg: JacobiAlgebra, v: VermaVector, constraints: ConstraintSet) -> SingularityReport:
    """Check that every lowering generator annihilates v modulo the constraints.

    Requires the constraints in solved (affine triangular) form, or empty; a
    constraint set with unsolved nonlinear equations yields an
    ``unverifiable`` report instead of a verdict.
    """
    if constraints.equations and constraints.solved_form is None:
        return SingularityReport(
            unverifiable=True,
            message="constraints have no affine solved form; cannot verify",
        )
    report = SingularityReport()
    for x in alg.negative:
        r = act(alg, x, v)
        ok = all(constraints.substitute(c).is_zero for c in r.terms.values())
        report.by_generator.append((x, ok))
    return report
