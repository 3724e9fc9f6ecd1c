"""Lowest-weight Verma module with a formal weight.

Vectors are combinations of raising-only PBW monomials applied to the lowest
weight vector v0, with coefficients polynomial in the formal weight values
L1..Ln (Li = value of the weight functional on h_i).  Acting with a basis
generator normal-orders the product, after which trailing lowering factors
annihilate v0 and Cartan factors h_i evaluate to Li, so that h^e multiplies a
coefficient by L^e.

One fraction-free kernel (``_apply_on_v0``) does this for ``act``,
``apply_word_to_v0``, ``is_singular`` and the solver's condition assembly
(``singular.assemble_system``).  It takes the input coefficients as
integer numerators over one common denominator and the normal-ordered terms
with no lowering factor as leaves (raising key, Cartan exponents, numerator,
power-of-2 denominator), and adds integers for every leaf.  Two adapters
make the leaves: ``_uelement_leaves`` from a ``normal_order`` result, for
``act`` and ``apply_word_to_v0``, and ``_sums_leaves`` straight from the
integer rewrite ``pbw._normal_sums``, for ``is_singular``, which so forms no
``Fraction``, ``PbwMonomial`` or ``UElement`` per term and skips the words
that end in a lowering letter before building anything for them; the
assembly reads the rewrite the same way.  ``act`` makes one reduced
``Fraction`` per term of the result.  The weight stays formal in ``act``
and ``apply_word_to_v0``.  Otherwise the Cartan factors take given values
(``_CartanValues``): ``is_singular`` runs the kernel at a branch's weight,
the values of the branch's solved form, and tests the integer sums for
zero; the assembly runs it at the shifted values L_i - 1/4.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import BracketResult, Generator, JacobiAlgebra, Weight
from .pbw import PbwMonomial, UElement, _normal_sums, monomial_weight, normal_order
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


# Module vector under construction: raising key -> L-exponent -> integer
# numerator over the denominator of the call.
_Accumulator = Dict[tuple, Dict[Tuple[int, ...], int]]
# One normal-ordered term with no lowering factor: (raising key, Cartan
# exponents, numerator, denominator), the denominator a power of 2.
_Leaf = Tuple[tuple, Tuple[int, ...], int, int]


def _uelement_leaves(alg: JacobiAlgebra, u: UElement) -> List[_Leaf]:
    """The terms of ``u`` that survive on v0, keyed by their raising
    exponents (which ``_to_vector`` reads back)."""
    npos = alg.num_positive
    low = npos + alg.n
    out = []
    for m, c in u.terms.items():
        exps = m.exps
        if not any(exps[low:]):
            out.append((exps[:npos], exps[npos:low], c.numerator, c.denominator))
    return out


def _sums_leaves(alg: JacobiAlgebra, sums: Dict[Tuple[int, ...], Tuple[int, int]]) -> List[_Leaf]:
    """The words of a ``_normal_sums`` result that survive on v0, keyed by
    their raising prefix.

    A sorted word has its lowering letters last, so the words that end in
    one are skipped, and the Cartan letters are the run after the raising
    prefix.
    """
    npos = alg.num_positive
    low = npos + alg.n
    out = []
    for w, (num, den) in sums.items():
        if w and w[-1] >= low:
            continue
        k = bisect_left(w, npos)
        cartan = [0] * alg.n
        for i in w[k:]:
            cartan[i - npos] += 1
        out.append((w[:k], tuple(cartan), num, den))
    return out


class _CartanValues:
    """Values of the Cartan generators on v0: h_i acts as ``values[i]``, a
    polynomial in L1..Ln.  ``is_singular`` gives a branch's solved-form
    values of the L_i, and ``singular.assemble_system`` the shifted values
    L_i - 1/4 of the copy of sp(n) that commutes with the Heisenberg part.

    The values are kept as integer polynomials over one denominator ``den``;
    their products are cached per Cartan exponent for the life of the
    object.
    """

    def __init__(self, values: Sequence[PolyQ]):
        self.values, self.den = _numerators(values)
        self._products: Dict[Tuple[int, ...], IntTerms] = {}

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


def _apply_on_v0(products: Sequence[Tuple[List[_Leaf], IntTerms]],
                 weight: Optional[_CartanValues] = None) -> Tuple[_Accumulator, int]:
    """The sum of (u v0) times c over the pairs (leaves of u, c), fraction-free.

    The leaves are the terms of u with no lowering factor, as made by
    ``_uelement_leaves`` or ``_sums_leaves``; the raising part of each is
    kept under its key.  At the formal weight (``weight`` None) a Cartan
    factor h^e multiplies c by L^e, a shift of exponents; with given Cartan
    values it multiplies c by the polynomial ``weight.cartan(e)``.  The
    leaves have powers of 2 as denominators, and the Cartan values have
    powers of ``weight.den``; both are brought to their largest power in
    the call, so every term adds integers.  Returns the sums and
    the denominator by which they are to be divided, besides that of the c.
    """
    top = 1
    depth = 0
    for leaves, _ in products:
        for _, cartan, _, den in leaves:
            if den > top:
                top = den
            if weight is not None:
                depth = max(depth, sum(cartan))
    acc: _Accumulator = {}
    for leaves, coeff in products:
        for raising, cartan, num, den in leaves:
            slot = acc.get(raising)
            if slot is None:
                slot = acc[raising] = {}
            f = num * (top // den)
            if weight is not None:
                f *= weight.den ** (depth - sum(cartan))
                value = weight.cartan(cartan)
                for e1, a in coeff.items():
                    for e2, b in value.items():
                        e = tuple(map(add, e1, e2))
                        slot[e] = slot.get(e, 0) + f * a * b
            elif any(cartan):
                for e, a in coeff.items():
                    e = tuple(map(add, e, cartan))
                    slot[e] = slot.get(e, 0) + f * a
            else:
                for e, a in coeff.items():
                    slot[e] = slot.get(e, 0) + f * a
    scale = top * weight.den ** depth if weight is not None else top
    return acc, scale


def _to_vector(alg: JacobiAlgebra, acc: _Accumulator, den: int) -> VermaVector:
    lowering = (0,) * (len(alg.generators) - alg.num_positive)
    terms: Dict[PbwMonomial, PolyQ] = {}
    for raising, slot in acc.items():
        terms[PbwMonomial(raising + lowering)] = PolyQ.from_int_terms(alg.n, slot, den)
    return VermaVector(alg.n, terms)


def act(alg: JacobiAlgebra, x: Generator, v: VermaVector) -> VermaVector:
    """Action of a basis generator on a module vector, at the formal weight.

    One ``normal_order`` call per term of v.  The coefficients of v are
    turned into integers over one common denominator, every normal-ordered
    term adds integers into one map from raising monomial to L-exponent,
    with a Cartan factor h^e shifting the exponents by e, and each term of
    the result becomes one reduced ``Fraction`` at the end.
    """
    ix = alg.index[alg._check(x)]
    coeffs, den = _numerators(list(v.terms.values()))
    products = [
        (_uelement_leaves(alg, normal_order(alg, (ix,) + m.word())), c) for m, c in zip(v.terms, coeffs)
    ]
    acc, scale = _apply_on_v0(products)
    return _to_vector(alg, acc, den * scale)


def apply_word_to_v0(alg: JacobiAlgebra, word: Sequence, coeff: Optional[PolyQ] = None) -> VermaVector:
    """The vector (product of the word's generators) v0, any input order."""
    if coeff is None:
        coeff = PolyQ.one(alg.n)
    (ints,), den = _numerators([coeff])
    acc, scale = _apply_on_v0([(_uelement_leaves(alg, normal_order(alg, word)), ints)])
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

    Each x v is built at the branch's weight rather than at the formal one:
    the coefficients of v are reduced by the solved form once, a Cartan
    factor h_i takes the solved form's value of L_i, and the integer
    numerators of x v are tested for zero with no ``Fraction`` formed and
    nothing substituted afterwards.  One call of the integer rewrite
    ``pbw._normal_sums`` per term of v and per x; its sums go to the
    module kernel through ``_sums_leaves``, and neither ``normal_order``
    nor ``act`` is called.
    """
    if constraints.equations and constraints.solved_form is None:
        return SingularityReport(
            unverifiable=True,
            message="constraints have no affine solved form; cannot verify",
        )
    nvars = constraints.nvars
    weight = (
        _CartanValues([constraints.substitute(PolyQ.var(nvars, i)) for i in range(nvars)])
        if constraints.solved_form
        else None
    )
    coeffs, _ = _numerators([constraints.substitute(c) for c in v.terms.values()])
    words = [m.word() for m in v.terms]
    report = SingularityReport()
    for x in alg.negative:
        ix = alg.index[x]
        products = [(_sums_leaves(alg, _normal_sums(alg, (ix,) + w)), c) for w, c in zip(words, coeffs)]
        acc, _ = _apply_on_v0(products, weight)
        ok = not any(c for slot in acc.values() for c in slot.values())
        report.by_generator.append((x, ok))
    return report
