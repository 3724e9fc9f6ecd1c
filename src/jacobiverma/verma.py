"""Lowest-weight Verma module with a formal weight.

Vectors are combinations of raising-only PBW monomials applied to the lowest
weight vector v0, with coefficients polynomial in the formal weight values
L1..Ln (Li = value of the weight functional on h_i).  Acting with a basis
generator normal-orders the product, after which trailing lowering factors
annihilate v0 and Cartan factors h_i evaluate to Li, so that h^e multiplies a
coefficient by L^e.

One fraction-free kernel (``_apply_on_v0``) does this for ``act``,
``apply_word_to_v0``, ``is_singular`` and the solver's condition assembly
(``singular.assemble_system``).  It takes (index word, coefficient) pairs,
the coefficients integer polynomials over one common denominator, and the
values of the Cartan generators on v0 (``_CartanValues``).  Each word is
rewritten by the integer rewrite ``pbw._normal_sums``; a sorted word that
ends in a lowering letter kills v0 and is skipped before anything is built
for it, and in the others h^e multiplies the coefficient by the value's
product, so every term adds integers and no ``Fraction``, ``PbwMonomial``
or enveloping-algebra element is formed per term.  At the formal weight
the values are the variables L_i themselves, so h^e multiplies by L^e:
``act`` and ``apply_word_to_v0`` run the kernel there and make one reduced
``Fraction`` per term of the result.  ``is_singular`` runs it at a
branch's weight, the values of the branch's solved form, and tests the
integer sums for zero; the assembly runs it at the shifted values
L_i - 1/4.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import BracketResult, Generator, JacobiAlgebra, Weight
# ``normal_order`` is not called here any more; it stays importable from this
# module, where perfbench/workloads.py wraps it.
from .pbw import PbwMonomial, _index_word, _normal_sums, monomial_weight, normal_order  # noqa: F401
from .ring import IntTerms, PolyQ, _mul_int_terms, _numerators, poly_sort_key, squarefree_part


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


# Module vector under construction: raising word -> L-exponent -> integer
# numerator over the denominator of the call.
_Accumulator = Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]]


class _CartanValues:
    """Values of the Cartan generators on v0: h_i acts as ``values[i]``, a
    polynomial in L1..Ln given as integer terms over one denominator
    ``den`` (``_numerators`` makes them from ``PolyQ``s).  ``formal`` gives
    the variables L_i themselves, for ``act`` and ``apply_word_to_v0``;
    ``is_singular`` gives a branch's solved-form values of the L_i, and
    ``singular.assemble_system`` the shifted values L_i - 1/4 of the copy
    of sp(n) that commutes with the Heisenberg part.

    Products of the values are cached per Cartan exponent for the life of
    the object.
    """

    def __init__(self, values: Sequence[IntTerms], den: int):
        self.values = values
        self.den = den
        self._products: Dict[Tuple[int, ...], IntTerms] = {}

    @classmethod
    def formal(cls, n: int) -> "_CartanValues":
        return cls([{tuple(int(i == j) for j in range(n)): 1} for i in range(n)], 1)

    def cartan(self, exps: Tuple[int, ...]) -> IntTerms:
        """h^exps v0 as an integer polynomial over den ** sum(exps)."""
        out = self._products.get(exps)
        if out is None:
            out = {(0,) * len(exps): 1}
            for value, e in zip(self.values, exps):
                for _ in range(e):
                    out = _mul_int_terms(out, value)
            self._products[exps] = out
        return out


def _apply_on_v0(alg: JacobiAlgebra, products: Sequence[Tuple[Tuple[int, ...], IntTerms]],
                 weight: _CartanValues) -> Tuple[_Accumulator, int]:
    """The sum of c (w v0) over the pairs (index word w, integer polynomial
    c), fraction-free.

    One ``pbw._normal_sums`` call per word, and one pass over the sorted
    words it returns: a sorted word has its lowering letters last, so the
    words that end in one kill v0 and are skipped; in the others the Cartan
    letters are the run after the raising prefix, and h^e multiplies c by
    ``weight.cartan(e)``, while the raising prefix is kept as the key.  The
    rewrite's denominators are powers of 2, and the Cartan values' powers
    of ``weight.den``; both are brought to their largest power in the call,
    so every term adds integers.  Returns the sums and the denominator by
    which they are to be divided, besides that of the c.
    """
    npos = alg.num_positive
    low = npos + alg.n
    leaves = []
    top = 1
    depth = 0
    for word, coeff in products:
        for w, (num, den) in _normal_sums(alg, word).items():
            if w and w[-1] >= low:
                continue
            k = bisect_left(w, npos)
            cartan = [0] * alg.n
            for i in w[k:]:
                cartan[i - npos] += 1
            degree = len(w) - k
            leaves.append((w[:k], tuple(cartan), degree, num, den, coeff))
            if den > top:
                top = den
            if degree > depth:
                depth = degree
    acc: _Accumulator = {}
    for raising, cartan, degree, num, den, coeff in leaves:
        slot = acc.get(raising)
        if slot is None:
            slot = acc[raising] = {}
        f = num * (top // den) * weight.den ** (depth - degree)
        value = weight.cartan(cartan)
        for e1, a in coeff.items():
            for e2, b in value.items():
                e = tuple(map(add, e1, e2))
                slot[e] = slot.get(e, 0) + f * a * b
    return acc, top * weight.den ** depth


def _to_vector(alg: JacobiAlgebra, acc: _Accumulator, den: int) -> VermaVector:
    return VermaVector(alg.n, {
        PbwMonomial.from_word(alg, raising): PolyQ.from_int_terms(alg.n, slot, den)
        for raising, slot in acc.items()
    })


def act(alg: JacobiAlgebra, x: Generator, v: VermaVector) -> VermaVector:
    """Action of a basis generator on a module vector, at the formal weight.

    The coefficients of v are turned into integers over one common
    denominator, and the module kernel adds integers for x m v0 over the
    terms m of v, at Cartan values L_i; each term of the result becomes one
    reduced ``Fraction`` at the end.
    """
    ix = alg.index[alg._check(x)]
    coeffs, den = _numerators(list(v.terms.values()))
    products = [((ix,) + m.word(), c) for m, c in zip(v.terms, coeffs)]
    acc, scale = _apply_on_v0(alg, products, _CartanValues.formal(alg.n))
    return _to_vector(alg, acc, den * scale)


def apply_word_to_v0(alg: JacobiAlgebra, word: Sequence, coeff: Optional[PolyQ] = None) -> VermaVector:
    """The vector (product of the word's generators) v0, any input order;
    the word holds generators or their indices."""
    if coeff is None:
        coeff = PolyQ.one(alg.n)
    (ints,), den = _numerators([coeff])
    acc, scale = _apply_on_v0(alg, [(_index_word(alg, word), ints)], _CartanValues.formal(alg.n))
    return _to_vector(alg, acc, den * scale)


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
    """Check that every element of n- annihilates v modulo the constraints.

    Requires the constraints in solved (affine triangular) form, or empty; a
    constraint set with unsolved nonlinear equations yields an
    ``unverifiable`` report instead of a verdict.

    Each x v is built by the module kernel at the branch's weight: the
    coefficients of v are reduced by the solved form once, a Cartan factor
    h_i takes the solved form's value of L_i (L_i itself when there are no
    constraints), and the integer numerators of x v are tested for zero
    with no ``Fraction`` formed and nothing substituted afterwards.  One
    call of the integer rewrite ``pbw._normal_sums`` per term of v and per
    x; ``act`` is not called.
    """
    if constraints.equations and constraints.solved_form is None:
        return SingularityReport(
            unverifiable=True,
            message="constraints have no affine solved form; cannot verify",
        )
    nvars = constraints.nvars
    weight = _CartanValues(*_numerators([constraints.substitute(PolyQ.var(nvars, i)) for i in range(nvars)]))
    coeffs, _ = _numerators([constraints.substitute(c) for c in v.terms.values()])
    words = [m.word() for m in v.terms]
    report = SingularityReport()
    for x in alg.negative:
        ix = alg.index[x]
        acc, _ = _apply_on_v0(alg, [((ix,) + w, c) for w, c in zip(words, coeffs)], weight)
        ok = not any(c for slot in acc.values() for c in slot.values())
        report.by_generator.append((x, ok))
    return report
