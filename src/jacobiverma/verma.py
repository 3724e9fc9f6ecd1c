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
``is_singular`` and the solver's condition assembly
(``singular.assemble_system``), and its one contract is one generator x
on a sorted raising word m.  For a raising x every word of x m is
raising.  Otherwise x m v0 = [x, m] v0 + m x v0, where m x v0 is zero for a
lowering x and m (L_i v0) for x = h_i, and each term of [x, m] holds one
letter of [x, n+] among raising letters, so at most one letter outside
n+.  Normal ordering keeps it so: that letter passes a raising y as
itself plus its bracket with y, again one letter, and raising letters
bracket to raising ones.  So every word of the normal form has at most
one letter outside n+, and it is the last.  The kernel takes (index word,
coefficient) pairs, the coefficients integer polynomials over one common
denominator, and the n values of the Cartan generators on v0 as integer
maps over one denominator of their own.  Each word is rewritten by
``_v0_sums``, the integer rewrite of ``pbw._normal_sums`` (which serves
U(g) normal forms) made for a word applied to v0 by two exact rules:

* a word that ends in a lowering letter is dropped, sorted or not: it is
  u l with l in n-, and l v0 = 0.  Its normal form lies in U(g) n-, which
  by the PBW theorem is spanned by the sorted words that end in a
  lowering letter, so no word of the result loses a term;
* the letter x of the leftmost inversion is carried past every run it
  would meet next in one step, while the leftmost inversion would be x
  again: the moves, children and sums are those of one run at a time,
  with fewer agenda entries.

A word whose sum is zero adds nothing and is skipped.  In the others, a
last letter h_i multiplies the coefficient by the value of h_i, each
monomial product one addition of packed keys (``ring``), and the raising
prefix is kept as the key; a word with no letter outside n+ multiplies it
by the values' denominator alone.  Every term adds integers, and no
``Fraction``, ``PbwMonomial``, exponent tuple or enveloping-algebra
element is formed per term.  At the formal weight the values are the
variables L_i themselves: ``act`` runs the kernel there and makes each
coordinate of the result one canonical ``PolyQ`` of its integer sums, and
``apply_word_to_v0`` runs it letter by letter, last letter first, keeping
the integer sums between letters.
``is_singular`` runs it at a branch's weight, the values of the branch's
solved form, and tests the integer sums for zero; the assembly runs it at
the shifted values L_i - 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Generator, JacobiAlgebra, Weight
# ``normal_order`` is not called here any more; it stays importable from this
# module, where perfbench/workloads.py wraps it.
from .pbw import PbwMonomial, UElement, _index_word, monomial_weight, normal_order  # noqa: F401
from .ring import (
    IntTerms,
    PolyQ,
    _check_degree,
    _exponent,
    _guard,
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


@lru_cache(maxsize=None)
def _formal_values(n: int) -> Tuple[IntTerms, ...]:
    """The values L_i of the h_i at the formal weight, over the denominator
    1.  One tuple per n; the maps are shared and never mutated."""
    return tuple({_unit(n, i): 1} for i in range(n))


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
                 values: Sequence[IntTerms], vden: int) -> Tuple[_Accumulator, int]:
    """The sum of c (x m v0) over the pairs ((x,) + m, c) of a generator
    index x, a sorted raising word m and an integer polynomial c,
    fraction-free; h_i acts on v0 as ``values[i]`` over ``vden``.

    One ``_v0_sums`` call per word, and one pass over the sorted words it
    returns, none of which ends in a lowering letter; a word whose sum is
    zero is skipped.  By the contract of the module docstring each other
    word has at most one letter outside n+, its last: a last letter h_i
    multiplies c by ``values[i]``, each monomial product one addition of
    keys, and the raising prefix is kept as the key; a word with no such
    letter multiplies c by ``vden``.  The rewrite's denominators are powers
    of 2 and are brought to the largest in the call, so every term adds
    integers.  The degree limit is checked once per call, on the largest
    sum of a coefficient's leading key and that of a value its word
    multiplies it by.  Returns the sums and the denominator by which they
    are to be divided, besides that of the c.
    """
    npos = alg.num_positive
    keys = [max(value, default=0) for value in values]
    leaves = []
    top = 1
    reach = 0
    for word, coeff in products:
        # the largest key of a Cartan value of this word's leaves, -1 if none
        vmax = -1
        for w, (num, den) in _v0_sums(alg, word).items():
            if not num:
                continue
            i = w[-1] - npos if w else -1
            if i < 0:
                leaves.append((w, None, num * vden, den, coeff))
            else:
                leaves.append((w[:-1], values[i], num, den, coeff))
                if keys[i] > vmax:
                    vmax = keys[i]
            if den > top:
                top = den
        if vmax >= 0:
            reach = max(reach, max(coeff, default=0) + vmax)
    _check_degree(reach, alg.n)
    acc: _Accumulator = {}
    for raising, value, num, den, coeff in leaves:
        slot = acc.get(raising)
        if slot is None:
            slot = acc[raising] = {}
        f = num * (top // den)
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
    return acc, top * vden


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
    acc, scale = _apply_on_v0(alg, products, _formal_values(alg.n), 1)
    return _to_vector(alg, acc, den * scale)


def apply_word_to_v0(alg: JacobiAlgebra, word: Sequence, coeff: Optional[PolyQ] = None) -> VermaVector:
    """The vector coeff (product of the word's generators) v0, any input
    order; the word holds generators or their indices.

    The letters act one at a time, last letter first, as ``act`` would, so
    that the module kernel only ever sees one generator on a sorted raising
    word.  The kernel's integer sums are kept between letters: each letter
    acts on them directly and multiplies their one denominator by its
    scale, and the vector is made once, at the end.
    """
    if coeff is None:
        coeff = PolyQ.one(alg.n)
    acc: _Accumulator = {(): coeff.num}
    den = coeff.den
    values = _formal_values(alg.n)
    for ix in reversed(_index_word(alg, word)):
        products = []
        for w, slot in acc.items():
            # cancelled terms are dropped, so the degree check sees real ones
            c = slot if all(slot.values()) else {e: a for e, a in slot.items() if a}
            if c:
                products.append(((ix,) + w, c))
        acc, scale = _apply_on_v0(alg, products, values, 1)
        den *= scale
    return _to_vector(alg, acc, den)


def act_of_bracket(alg: JacobiAlgebra, br: UElement, v: VermaVector) -> VermaVector:
    """The action on v of an element of U(g_n), such as the bracket
    ``alg.bracket(x, y)``: each term c m acts as c times the letters of m,
    last letter first, so the unit term multiplies v by c."""
    out = VermaVector(alg.n)
    for m, c in br.terms.items():
        u = v
        for i in reversed(m.word()):
            u = act(alg, alg.generators[i], u)
        out = out + u.scale(c)
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

        Each round solves the affine equations and substitutes the solution
        into the nonlinear ones, until none turns affine: that detects
        contradictions hidden in mixed sets and keeps the nonlinear equations
        reduced modulo the affine part.  The solve is the reduced echelon
        form, unique for their span, so the last round's is the solved form.
        A nonlinear equation whose division remainder by the others is a
        nonzero constant makes the set inconsistent (sound, not complete).
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
            if q is not None:
                (affine if q.total_degree() <= 1 else nonlinear).append(q)
        while True:
            solved = _affine_solve(nvars, affine)
            reduced = [q for q in (canon(p.subs(dict(solved))) for p in nonlinear) if q is not None]
            nonlinear = [q for q in reduced if q.total_degree() > 1]
            if len(nonlinear) == len(reduced):
                break
            affine += [q for q in reduced if q.total_degree() <= 1]
        keyed = {poly_sort_key(p): p for p in affine + nonlinear}
        equations = tuple(keyed[k] for k in sorted(keyed))
        for q in nonlinear:
            r = cls(nvars, tuple(p for p in equations if p is not q)).reduce(q)
            if r.is_constant and not r.is_zero:
                raise InconsistentConstraintsError("constraints are inconsistent")
        return cls(nvars, equations, None if nonlinear else solved)

    def reduce(self, p: PolyQ) -> PolyQ:
        """The normal form of p modulo the constraints: p itself for none, one
        simultaneous substitution of the solved form (no solved expression
        mentions a solved variable), else the division remainder by the
        equations, which differs from p by an element of their ideal."""
        if not self.equations:
            return p
        if self.solved_form is not None:
            return p.subs(dict(self.solved_form))
        guard = _guard(p.nvars)
        changed = True
        while changed and not p.is_zero:
            changed = False
            for eq in self.equations:
                d_key = max(eq.num)
                for key in sorted(p.num, reverse=True):
                    q_key = key - d_key
                    if not q_key & guard:
                        # the term of p over the leading term of eq
                        quotient = PolyQ.from_int_terms(p.nvars, {q_key: p.num[key] * eq.den}, p.den * eq.num[d_key])
                        p = p - quotient * eq
                        changed = True
                        break
                if changed:
                    break
        return p

    def satisfied_at(self, point: Sequence) -> bool:
        return all(eq.eval_all(point) == 0 for eq in self.equations)


def _affine_solve(nvars: int, eqs: Sequence[PolyQ]) -> Tuple[Tuple[int, PolyQ], ...]:
    """Triangular solve of affine equations: returns ((var, expr), ...), each
    solved variable the last one of its equation once the earlier ones are
    substituted, and no expr mentioning a solved variable.  Raises on
    inconsistency."""
    pending = list(eqs)
    solved: List[Tuple[int, PolyQ]] = []
    while pending:
        p = pending.pop(0)
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
    coefficients of v are reduced once by ``ConstraintSet.reduce``, the
    normal form that the solver and ``jv verify`` use, a Cartan factor
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
    values, vden = _numerators([constraints.reduce(PolyQ.var(nvars, i)) for i in range(nvars)])
    coeffs, _ = _numerators([constraints.reduce(c) for c in v.terms.values()])
    words = [m.word() for m in v.terms]
    report = SingularityReport()
    for x in alg.negative:
        ix = alg.index[x]
        acc, _ = _apply_on_v0(alg, [((ix,) + w, c) for w, c in zip(words, coeffs)], values, vden)
        ok = not any(c for slot in acc.values() for c in slot.values())
        report.by_generator.append((x, ok))
    return report
