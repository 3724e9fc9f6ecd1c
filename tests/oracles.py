"""Independent oracles used by the test suite.

Nothing here shares an algorithm with the package code it checks:

* ``WeylElement`` realizes the algebra inside the boson Weyl algebra
  (a+_i, a-_i with [a-_i, a+_j] = delta_ij) using the closed-form Wick
  product for normally ordered bilinears; commutators of realized
  generators certify the structure-constant table.
* ``insert_normal_order`` normal-orders words by right-to-left insertion
  (insertion sort with bracket remainders), a different strategy from the
  package's leftmost-swap agenda.
* ``oracle_act`` evaluates the module action through the insertion reducer;
  ``all_negative_rows`` builds from it the condition matrix of the full
  ansatz under every basis element of n-, not only under the sp(n)
  generators the solver uses, and ``oracle_lift`` the vectors m(K') v0 with
  K' = K minus its oscillator realization.
* ``fraction_kernel`` computes exact kernels of rational matrices by plain
  row-reduced Gaussian elimination.
* ``FracPoly`` is a polynomial kept as a plain map from exponent tuples to
  ``Fraction``s, with schoolbook arithmetic, substitution by expansion,
  long division over Q and its own rendering, the reference for the
  integer representation of ``PolyQ``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

from jacobiverma.algebra import (
    A_MINUS,
    A_PLUS,
    Generator,
    JacobiAlgebra,
    K_MINUS,
    K_PLUS,
)
from jacobiverma.pbw import PbwMonomial
from jacobiverma.ring import PolyQ
from jacobiverma.verma import VermaVector


# -- Weyl-algebra realization -------------------------------------------------


class WeylElement:
    """Normally ordered element of the boson Weyl algebra on n modes.

    terms: map (creation exponents, annihilation exponents) -> Fraction.
    """

    def __init__(self, n: int, terms: Dict[Tuple[tuple, tuple], Fraction] = None):
        self.n = n
        self.terms: Dict[Tuple[tuple, tuple], Fraction] = {}
        if terms:
            for k, c in terms.items():
                if c != 0:
                    self.terms[k] = self.terms.get(k, Fraction(0)) + c
            self.terms = {k: c for k, c in self.terms.items() if c != 0}

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        res = dict(self.terms)
        for k, c in other.terms.items():
            res[k] = res.get(k, Fraction(0)) + c
        return WeylElement(self.n, res)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "WeylElement":
        return WeylElement(self.n, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # Wick product per mode: a-^m a+^k = sum_j C(m,j) C(k,j) j! a+^{k-j} a-^{m-j}
        out: Dict[Tuple[tuple, tuple], Fraction] = {}
        for (A1, B1), c1 in self.terms.items():
            for (A2, B2), c2 in other.terms.items():
                contractions = [
                    range(0, min(B1[i], A2[i]) + 1) for i in range(self.n)
                ]
                stack = [((), Fraction(1))]
                for i in range(self.n):
                    new_stack = []
                    for js, w in stack:
                        for j in contractions[i]:
                            weight = comb(B1[i], j) * comb(A2[i], j) * factorial(j)
                            new_stack.append((js + (j,), w * weight))
                    stack = new_stack
                for js, w in stack:
                    A = tuple(A1[i] + A2[i] - js[i] for i in range(self.n))
                    B = tuple(B1[i] + B2[i] - js[i] for i in range(self.n))
                    key = (A, B)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2 * w
        return WeylElement(self.n, out)

    def commutator(self, other: "WeylElement") -> "WeylElement":
        return self * other - other * self

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"WeylElement({self.terms})"


def realize(n: int, g: Generator) -> WeylElement:
    """The oscillator realization: K+ = (1/2)a+a+, K- = (1/2)a-a-,
    K0_ij = (1/2)a+_i a-_j + (1/4)delta_ij."""
    zero = (0,) * n

    def unit(i: int) -> tuple:
        e = [0] * n
        e[i - 1] = 1
        return tuple(e)

    def add(u: tuple, v: tuple) -> tuple:
        return tuple(a + b for a, b in zip(u, v))

    if g.family == A_PLUS:
        return WeylElement(n, {(unit(g.i), zero): Fraction(1)})
    if g.family == A_MINUS:
        return WeylElement(n, {(zero, unit(g.i)): Fraction(1)})
    if g.family == K_PLUS:
        return WeylElement(n, {(add(unit(g.i), unit(g.j)), zero): Fraction(1, 2)})
    if g.family == K_MINUS:
        return WeylElement(n, {(zero, add(unit(g.i), unit(g.j))): Fraction(1, 2)})
    terms = {(unit(g.i), unit(g.j)): Fraction(1, 2)}
    if g.i == g.j:
        terms[(zero, zero)] = Fraction(1, 4)
    return WeylElement(n, terms)


def realize_bracket_result(n: int, br) -> WeylElement:
    out = WeylElement(n)
    if br.scalar != 0:
        out = out + WeylElement(n, {((0,) * n, (0,) * n): br.scalar})
    for g, c in br.terms.items():
        out = out + realize(n, g).scale(c)
    return out


# -- insertion-based normal ordering -------------------------------------------


def insert_normal_order(alg: JacobiAlgebra, word: Sequence[int]) -> Dict[tuple, Fraction]:
    """Normal order by inserting factors right to left into ordered tails.

    Returns a map from dense exponent tuples to rational coefficients.
    """
    total = len(alg.generators)

    def insert(idx: int, tail: tuple) -> Dict[tuple, Fraction]:
        # tail is an ordered word (tuple of generator indices)
        if not tail or idx <= tail[0]:
            return {(idx,) + tail: Fraction(1)}
        head, rest = tail[0], tail[1:]
        out: Dict[tuple, Fraction] = {}
        for w, c in insert(idx, rest).items():
            out[(head,) + w] = out.get((head,) + w, Fraction(0)) + c
        br = alg.bracket_by_index(idx, head)
        if br.scalar != 0:
            out[rest] = out.get(rest, Fraction(0)) + br.scalar
        for g, c in br.terms.items():
            for w, cc in insert(alg.index[g], rest).items():
                out[w] = out.get(w, Fraction(0)) + c * cc
        return out

    words: Dict[tuple, Fraction] = {(): Fraction(1)}
    for idx in reversed(list(word)):
        new: Dict[tuple, Fraction] = {}
        for w, c in words.items():
            for w2, c2 in insert(idx, w).items():
                new[w2] = new.get(w2, Fraction(0)) + c * c2
        words = {w: c for w, c in new.items() if c != 0}

    out: Dict[tuple, Fraction] = {}
    for w, c in words.items():
        exps = [0] * total
        for idx in w:
            exps[idx] += 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def oracle_act(alg: JacobiAlgebra, x: Generator, v: VermaVector) -> VermaVector:
    """Module action computed through the insertion reducer."""
    n = alg.n
    npos = alg.num_positive
    total = len(alg.generators)
    out: Dict[PbwMonomial, PolyQ] = {}
    for m, coeff in v.terms.items():
        word = (alg.index[x],) + m.word()
        for exps, c in insert_normal_order(alg, word).items():
            if any(exps[k] for k in range(npos + n, total)):
                continue
            poly = PolyQ.const(n, c)
            for k in range(n):
                if exps[npos + k]:
                    poly = poly * PolyQ.var(n, k) ** exps[npos + k]
            key = PbwMonomial(exps[:npos] + (0,) * (total - npos))
            prev = out.get(key, PolyQ.zero(n))
            new = prev + poly * coeff
            if new.is_zero:
                out.pop(key, None)
            else:
                out[key] = new
    return VermaVector(n, out)


def oracle_lift(alg: JacobiAlgebra, m: PbwMonomial) -> VermaVector:
    """m(K') v0 for a monomial m in the raising generators of sp(n), where each
    factor K acts as K minus its oscillator realization ``realize(n, K)``."""
    n = alg.n
    v = VermaVector.unit(alg)
    for idx in reversed(m.word()):
        g = alg.generators[idx]
        out = oracle_act(alg, g, v)
        for (creation, annihilation), c in realize(n, g).terms.items():
            u = v
            for family, exps in ((A_MINUS, annihilation), (A_PLUS, creation)):
                for i, e in enumerate(exps):
                    for _ in range(e):
                        u = oracle_act(alg, Generator(family, i + 1), u)
            out = out - u.scale(c)
        v = out
    return v


def all_negative_rows(alg: JacobiAlgebra, monomials: Sequence[PbwMonomial]) -> List[List[PolyQ]]:
    """Condition rows of the ansatz under every element of ``alg.negative``:
    one row per (x, result monomial), entry k the coefficient in x m_k v0."""
    rows: List[List[PolyQ]] = []
    for x in alg.negative:
        images = [oracle_act(alg, x, VermaVector.monomial(alg, m)) for m in monomials]
        for b in sorted({b for img in images for b in img.terms}, key=lambda m: m.exps):
            rows.append([img.terms.get(b, PolyQ.zero(alg.n)) for img in images])
    return rows


def evaluate_rows(rows: List[List[PolyQ]], point: Sequence[Fraction]) -> List[List[Fraction]]:
    return [[e.eval_all(point) for e in row] for row in rows]


# -- exact numeric kernel -------------------------------------------------------


def fraction_kernel(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Kernel basis of a rational matrix by row reduction (RREF)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, len(mat)):
            if mat[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for rr in range(len(mat)):
            if rr != r and mat[rr][c] != 0:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for prow, pc in zip(mat, pivots):
            v[pc] = -prow[f]
        basis.append(v)
    return basis


def in_span(vec: List[Fraction], basis: List[List[Fraction]]) -> bool:
    """Exact membership of vec in the span of basis vectors."""
    if all(x == 0 for x in vec):
        return True
    if not basis:
        return False
    ncols = len(vec)
    rows = [list(b) for b in basis]
    rank0 = len(fraction_kernel_transpose_rank(rows, ncols))
    rows.append(list(vec))
    rank1 = len(fraction_kernel_transpose_rank(rows, ncols))
    return rank1 == rank0


def fraction_kernel_transpose_rank(rows: List[List[Fraction]], ncols: int) -> List[int]:
    """Pivot column list (rank witnesses) of the row space."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, len(mat)):
            if mat[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for rr in range(len(mat)):
            if rr != r and mat[rr][c] != 0:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots


def same_span(basis_a: List[List[Fraction]], basis_b: List[List[Fraction]], ncols: int) -> bool:
    return all(in_span(v, basis_b) for v in basis_a) and all(
        in_span(v, basis_a) for v in basis_b
    )


# -- reference polynomials over Q ----------------------------------------------


def _grlex(exps: tuple) -> tuple:
    """Graded lex with the last variable most significant."""
    return (sum(exps), exps[::-1])


class FracPoly:
    """Polynomial over Q as a map exponent tuple -> nonzero ``Fraction``."""

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: Dict[tuple, Fraction] = {}
        for e, c in (terms or {}).items():
            self.terms[tuple(e)] = self.terms.get(tuple(e), Fraction(0)) + Fraction(c)
        self.terms = {e: c for e, c in self.terms.items() if c != 0}

    @classmethod
    def of(cls, p: PolyQ) -> "FracPoly":
        """The reference copy of a PolyQ, read through its exponent-tuple view."""
        return cls(p.nvars, p.terms)

    def __add__(self, other: "FracPoly") -> "FracPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FracPoly(self.nvars, out)

    def __neg__(self) -> "FracPoly":
        return FracPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        return self + (-other)

    def __mul__(self, other: "FracPoly") -> "FracPoly":
        out: Dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FracPoly(self.nvars, out)

    def __pow__(self, k: int) -> "FracPoly":
        out = FracPoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, FracPoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple:
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def subs(self, values: Dict[int, "FracPoly"]) -> "FracPoly":
        """Each substituted variable replaced by its value, term by term."""
        out = FracPoly(self.nvars)
        for e, c in self.terms.items():
            term = FracPoly(self.nvars, {tuple(0 if i in values else x for i, x in enumerate(e)): c})
            for i, v in values.items():
                term = term * v ** e[i]
            out = out + term
        return out

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                c *= Fraction(x) ** k
            total += c
        return total

    def divmod(self, divisor: "FracPoly") -> Tuple["FracPoly", "FracPoly"]:
        """Long division over Q by the leading term of the divisor: a term
        of the dividend it does not divide goes to the remainder."""
        d_exps, d_lc = divisor.leading()
        quo, rem, rest = FracPoly(self.nvars), FracPoly(self.nvars), self
        while not rest.is_zero():
            e, c = rest.leading()
            q = tuple(a - b for a, b in zip(e, d_exps))
            lead = FracPoly(self.nvars, {e: c})
            if min(q) < 0:
                rem, rest = rem + lead, rest - lead
            else:
                t = FracPoly(self.nvars, {q: c / d_lc})
                quo, rest = quo + t, rest - t * divisor
        return quo, rem

    def render(self, names: List[str], power: str, number) -> str:
        """Signed terms in descending order, a coefficient of absolute value
        1 left out before variables, the last variable first."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            factors = [
                names[i] if e[i] == 1 else power.format(names[i], e[i])
                for i in range(self.nvars - 1, -1, -1)
                if e[i]
            ]
            if factors and abs(c) == 1:
                body = " ".join(factors)
            else:
                body = " ".join([number(abs(c))] + factors)
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + body)
        return " ".join(parts)

    def to_text(self) -> str:
        names = [f"L{i + 1}" for i in range(self.nvars)]
        return self.render(names, "{}^{}", str)

    def to_latex(self) -> str:
        names = [f"\\Lambda(H_{i + 1})" for i in range(self.nvars)]
        return self.render(
            names,
            "{}^{{{}}}",
            lambda q: str(q) if q.denominator == 1 else f"\\tfrac{{{q.numerator}}}{{{q.denominator}}}",
        )
