"""Lowest-weight Verma module with a formal weight.

Vectors are combinations of raising-only PBW monomials applied to the lowest
weight vector v0, with coefficients polynomial in the formal weight values
L1..Ln (Li = value of the weight functional on h_i).  Acting with a basis
generator normal-orders the product, after which trailing lowering factors
annihilate v0 and Cartan factors h_i evaluate to Li, so that h^e multiplies a
coefficient by L^e.  A vector is the package's one combination of PBW
monomials, ``pbw.UElement``, over raising monomials: ``VermaVector`` is
another name for that class, and ``VermaVector.unit`` is v0.

One fraction-free kernel (``_apply_on_v0``) does this for ``act``,
``apply_word_to_v0``, ``is_singular`` and the solver's condition assembly
(``singular.assemble_system``).  It takes (index word, coefficient) pairs,
the coefficients integer polynomials over one common denominator, and the
values of the Cartan generators on v0 (``_CartanValues``).  Each word is
rewritten by ``_v0_sums``, the integer rewrite of ``pbw._normal_sums``
(which serves U(g) normal forms) made for a word applied to v0 by three
exact rules:

* a word that ends in a lowering letter is dropped, sorted or not: it is
  u l with l in n-, and l v0 = 0.  Its normal form lies in U(g) n-, which
  by the PBW theorem is spanned by the sorted words that end in a
  lowering letter, so no word of the result loses a term;
* the letter x of the leftmost inversion is carried past every run it
  would meet next in one step, while the leftmost inversion would be x
  again: the moves, children and sums are those of one run at a time,
  with fewer agenda entries;
* in the kernel, a word with no Cartan tail adds c times its number with
  no Cartan product, as its Cartan value is 1, and a word whose sum is
  zero, which adds nothing, is skipped.

In the words that are kept the Cartan letters are the sorted tail after
the raising prefix, and the coefficient is multiplied by the product of
the values over that tail, which ``_CartanValues`` keeps per tail as
packed integer terms (``ring``) with its largest key: each monomial
product is one addition of keys, and one comparison of the largest keys
per product guards the degree limit.  Every term adds integers, and no
``Fraction``, ``PbwMonomial``, exponent tuple or enveloping-algebra
element is formed per term.  At the formal weight the values are the
variables L_i themselves, so h^e multiplies by L^e:
``act`` and ``apply_word_to_v0`` run the kernel there and make each
coordinate of the result one canonical ``PolyQ`` of its integer sums.
``is_singular`` runs it at a branch's weight, the values of the branch's
solved form, and tests the integer sums for zero; the assembly runs it at
the shifted values L_i - 1/4.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import BracketResult, Generator, JacobiAlgebra, Weight
# ``normal_order`` is not called here any more; it stays importable from this
# module, where perfbench/workloads.py wraps it.
from .pbw import PbwMonomial, UElement, _index_word, monomial_weight, normal_order  # noqa: F401
from .ring import (
    IntTerms,
    PolyQ,
    _check_degree,
    _exponent,
    _mul_int_terms,
    _numerators,
    _unit,
    poly_sort_key,
    squarefree_part,
)


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


# A module vector is a combination of raising monomials applied to v0.
VermaVector = UElement


# Module vector under construction: raising word -> packed L-monomial ->
# integer numerator over the denominator of the call.
_Accumulator = Dict[Tuple[int, ...], IntTerms]


class _CartanValues:
    """Values of the Cartan generators on v0: h_i acts as ``values[i]``, a
    polynomial in L1..Ln given as integer terms over one denominator
    ``den`` (``_numerators`` makes them from ``PolyQ``s).  ``formal`` gives
    the variables L_i themselves, for ``act`` and ``apply_word_to_v0``;
    ``is_singular`` gives a branch's solved-form values of the L_i, and
    ``singular.assemble_system`` the shifted values L_i - 1/4 of the copy
    of sp(n) that commutes with the Heisenberg part.

    The products are kept per Cartan tail, the sorted run of Cartan
    indices that ends a word of the normal form, each with its largest
    key, for the life of the object.  A tail's product is that of its
    longest kept prefix times the values of the remaining letters, one at a
    time; only the tails asked for are kept, so a long tail costs its own
    length in memory, not that of all its prefixes.  The formal values are
    one object per algebra.
    """

    def __init__(self, alg: JacobiAlgebra, values: Sequence[IntTerms], den: int):
        self.values = values
        self.den = den
        self.first = alg.num_positive
        self.nvars = alg.n
        self._products: Dict[Tuple[int, ...], Tuple[IntTerms, int]] = {(): ({0: 1}, 0)}

    @classmethod
    def formal(cls, alg: JacobiAlgebra) -> "_CartanValues":
        """The values L_i themselves.  Built on first use and kept on the
        algebra, so the products L^e are computed once per algebra."""
        values = alg._formal_cartan
        if values is None:
            values = cls(alg, [{_unit(alg.n, i): 1} for i in range(alg.n)], 1)
            alg._formal_cartan = values
        return values

    def cartan(self, tail: Tuple[int, ...]) -> Tuple[IntTerms, int]:
        """h^tail v0 as an integer polynomial over den ** len(tail), and its
        largest key (0 when it is zero)."""
        products = self._products
        out = products.get(tail)
        if out is None:
            k = len(tail) - 1
            while tail[:k] not in products:
                k -= 1
            terms = products[tail[:k]][0]
            for i in tail[k:]:
                terms = _mul_int_terms(terms, self.values[i - self.first], self.nvars)
            out = products[tail] = (terms, max(terms, default=0))
        return out


def _v0_sums(alg: JacobiAlgebra, idx_word: Tuple[int, ...]) -> Dict[Tuple[int, ...], Tuple[int, int]]:
    """The integer rewrite of ``pbw._normal_sums`` for a word applied to v0.

    Returns the sorted words of the normal form with their coefficients as
    an integer numerator and a power-of-2 denominator, except the words that
    end in a lowering letter; a word whose sum is zero may be returned.  The
    moves are those of ``_normal_sums``: the left letter x of the leftmost
    inversion passes the run y^b after it, with the terms of
    ``alg.run_bracket`` (``alg.integer_bracket`` when b = 1), and each
    child resumes its search one letter before the position where x stood.
    Two rules make it cheaper:

    * a word whose last letter is lowering is dropped, whether it is sorted
      or not, and the swap child in which a lowering x has passed the last
      letter is never built.  Such a word is u l with l in n-, so it kills
      v0; by the PBW theorem the normal form of an element of U(g) n- holds
      only sorted words that end in a lowering letter, so nothing that is
      dropped would have reached the words returned;
    * x is carried on in the same step.  After x has passed y^b, the
      leftmost inversion of the swap child is x again exactly when the
      letters before x are still in order (the letter before y is at most
      y, and each later run letter is larger than the one before) and the
      next letter is smaller than x.  While that holds, x passes the next
      run too, each run pushing its bracket terms with the position where
      x stood before it, and the one swap child, with x past every run, is
      pushed at the end.  The children and sums are those of one move at a
      time, with one agenda entry per step instead of one per run.

    The indices are not checked.
    """
    table, bracket, run_bracket = alg._integer_table, alg.integer_bracket, alg.run_bracket
    low = alg.num_positive + alg.n
    sums: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    agenda: List[Tuple[Tuple[int, ...], int, int, int]] = [(idx_word, 1, 1, 0)]
    push, pop = agenda.append, agenda.pop
    while agenda:
        w, num, den, k = pop()
        last = len(w) - 1
        if last >= 0 and w[last] >= low:
            continue
        while k < last and w[k] <= w[k + 1]:
            k += 1
        if k >= last:
            prev = sums.get(w)
            if prev is None:
                sums[w] = (num, den)
            elif prev[1] == den:
                sums[w] = (prev[0] + num, den)
            else:
                common = lcm(prev[1], den)
                sums[w] = (prev[0] * (common // prev[1]) + num * (common // den), common)
            continue
        x = w[k]
        prefix = w[:k]
        before = w[k - 1] if k else -1
        i = k + 1
        while True:
            y = w[i]
            j = i + 1
            while j <= last and w[j] == y:
                j += 1
            if j - i == 1:
                terms = table.get((x, y))
                if terms is None:
                    terms = bracket(x, y)
            else:
                terms = run_bracket(x, y, j - i)
            tail = w[j:]
            resume = len(prefix) - 1 if prefix else 0
            for replacement, p, q in terms:
                push((prefix + replacement + tail, num * p, den * q, resume))
            in_order = before <= y
            prefix += w[i:j]
            if not (in_order and j <= last and w[j] < x):
                break
            before = y
            i = j
        if tail or x < low:
            push((prefix + (x,) + tail, num, den, resume))
    return sums


def _apply_on_v0(alg: JacobiAlgebra, products: Sequence[Tuple[Tuple[int, ...], IntTerms]],
                 weight: _CartanValues) -> Tuple[_Accumulator, int]:
    """The sum of c (w v0) over the pairs (index word w, integer polynomial
    c), fraction-free.

    One ``_v0_sums`` call per word, and one pass over the sorted words it
    returns, none of which ends in a lowering letter; a word whose sum is
    zero is skipped.  In the others the Cartan letters are the tail after
    the raising prefix, and h^tail multiplies c by ``weight.cartan(tail)``,
    each monomial product one addition of keys, while the raising prefix is
    kept as the key; a word with no Cartan tail adds c times its number.
    The rewrite's denominators are powers of 2, and the Cartan values'
    powers of ``weight.den``; both are brought to their largest power in
    the call, so every term adds integers.  The degree limit is checked once
    per call, on the largest sum of a coefficient's leading key and that of
    a Cartan value of its own word.  Returns the sums and the denominator by
    which they are to be divided, besides that of the c.
    """
    npos = alg.num_positive
    cartan = weight.cartan
    leaves = []
    top = 1
    depth = 0
    reach = 0
    for word, coeff in products:
        # the largest key of a Cartan value of this word's leaves, -1 if none
        vmax = -1
        for w, (num, den) in _v0_sums(alg, word).items():
            if not num:
                continue
            k = bisect_left(w, npos)
            if k == len(w):
                leaves.append((w, 0, None, num, den, coeff))
                key = 0
            else:
                value, key = cartan(w[k:])
                leaves.append((w[:k], len(w) - k, value, num, den, coeff))
                if len(w) - k > depth:
                    depth = len(w) - k
            if key > vmax:
                vmax = key
            if den > top:
                top = den
        if vmax >= 0:
            reach = max(reach, max(coeff, default=0) + vmax)
    _check_degree(reach, alg.n)
    wden = weight.den
    powers = [wden ** (depth - length) for length in range(depth + 1)]
    acc: _Accumulator = {}
    for raising, length, value, num, den, coeff in leaves:
        slot = acc.get(raising)
        if slot is None:
            slot = acc[raising] = {}
        f = num * (top // den) * powers[length]
        get = slot.get
        if value is None:
            for e, a in coeff.items():
                slot[e] = get(e, 0) + a * f
            continue
        for e1, a in coeff.items():
            a *= f
            for e2, b in value.items():
                e = e1 + e2
                slot[e] = get(e, 0) + a * b
    return acc, top * powers[0]


def _to_vector(alg: JacobiAlgebra, acc: _Accumulator, den: int) -> VermaVector:
    return VermaVector(alg.n, {
        PbwMonomial.from_word(alg, raising): PolyQ.from_int_terms(alg.n, slot, den)
        for raising, slot in acc.items()
    })


def act(alg: JacobiAlgebra, x: Generator, v: VermaVector) -> VermaVector:
    """Action of a basis generator on a module vector, at the formal weight.

    The coefficients of v are turned into integers over one common
    denominator, and the module kernel adds integers for x m v0 over the
    terms m of v, at Cartan values L_i; each coordinate of the result
    becomes one canonical ``PolyQ`` at the end.
    """
    ix = alg.index[alg._check(x)]
    coeffs, den = _numerators(list(v.terms.values()))
    products = [((ix,) + m.word(), c) for m, c in zip(v.terms, coeffs)]
    acc, scale = _apply_on_v0(alg, products, _CartanValues.formal(alg))
    return _to_vector(alg, acc, den * scale)


def apply_word_to_v0(alg: JacobiAlgebra, word: Sequence, coeff: Optional[PolyQ] = None) -> VermaVector:
    """The vector (product of the word's generators) v0, any input order;
    the word holds generators or their indices."""
    if coeff is None:
        coeff = PolyQ.one(alg.n)
    (ints,), den = _numerators([coeff])
    acc, scale = _apply_on_v0(alg, [(_index_word(alg, word), ints)], _CartanValues.formal(alg))
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
        # p = (coeff L_target + rest) / den, so L_target = -rest / coeff
        coeff = next(c for k, c in p.num.items() if _exponent(k, target) == 1)
        expr = PolyQ.from_int_terms(nvars, {k: -c for k, c in p.num.items() if not _exponent(k, target)}, coeff)
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
    call of the module rewrite ``_v0_sums`` per term of v and per x;
    ``act`` is not called.
    """
    if constraints.equations and constraints.solved_form is None:
        return SingularityReport(
            unverifiable=True,
            message="constraints have no affine solved form; cannot verify",
        )
    nvars = constraints.nvars
    weight = _CartanValues(alg, *_numerators([constraints.substitute(PolyQ.var(nvars, i)) for i in range(nvars)]))
    coeffs, _ = _numerators([constraints.substitute(c) for c in v.terms.values()])
    words = [m.word() for m in v.terms]
    report = SingularityReport()
    for x in alg.negative:
        ix = alg.index[x]
        acc, _ = _apply_on_v0(alg, [((ix,) + w, c) for w, c in zip(words, coeffs)], weight)
        ok = not any(c for slot in acc.values() for c in slot.values())
        report.by_generator.append((x, ok))
    return report
