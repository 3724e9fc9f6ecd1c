"""Enveloping-algebra elements as combinations of PBW-ordered monomials.

A monomial records the multiplicity of each basis generator; the underlying
word is the generators repeated in the algebra's global order (positives,
Cartan, negatives).  ``normal_order`` rewrites an arbitrary word into this
basis.  At the leftmost out-of-order adjacent pair x y it moves x through
the whole run y^b that starts there, in one step:

    x y^b = y^b x + sum_{t=1..b} C(b, t) y^(b-t) c_t,
    c_1 = [x, y],  c_t = [c_(t-1), y],

because right multiplication by y is left multiplication by y plus
ad y, and the two commute.  The chain c_t stops at a scalar or at zero;
b = 1 is the swap x y = y x + [x, y].  The first child has the same
length and b fewer inversions, and every other child is shorter, so the
rewriting terminates; by the PBW theorem the normal form is independent of
the strategy.

The structure constants are integer multiples of 1/2, so every coefficient
of a normal form is a rational with a power of 2 as denominator.  The
rewrite, ``_normal_sums``, works in integers only: each word carries an
integer numerator and denominator, multiplied by the lowest-terms
coefficients, over powers of 2, of ``JacobiAlgebra.integer_bracket``
(b = 1) or ``JacobiAlgebra.run_bracket`` (b >= 2), which read the integer
kernel ``algebra.half_bracket``, and the words that reach normal form are
summed into one (numerator, denominator) pair per sorted word.
``normal_order`` (and so ``multiply``) is that rewrite plus one constant
``PolyQ``, made canonical with one integer gcd, and one ``PbwMonomial`` per
word of the result: ``_normal_sums`` serves U(g) normal forms, which can
drop no word.  The module action (``verma``) has its own integer rewrite of
a word applied to v0, which drops the words that kill v0 and is tested
against this one.

``UElement`` is the one combination of PBW monomials in the package: a map
to nonzero ``PolyQ`` coefficients in L1..Ln.  An element of U(g_n) has
constant coefficients; a module vector of U(n+) v0 is the same data over
raising monomials, with coefficients polynomial in the formal weight, and
``verma.VermaVector`` is another name for this class.  Dependence on the
weight enters only when the module evaluates Cartan factors (``verma``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .algebra import Generator, JacobiAlgebra, Weight
from .ring import PolyQ, _poly


@dataclass(frozen=True)
class PbwMonomial:
    """Exponents over the algebra's ordered basis (dense tuple, hashable)."""

    exps: Tuple[int, ...]

    @classmethod
    def unit(cls, alg: JacobiAlgebra) -> "PbwMonomial":
        return cls((0,) * len(alg.generators))

    @classmethod
    def from_word(cls, alg: JacobiAlgebra, word: Sequence[int]) -> "PbwMonomial":
        """Monomial with the given generator indices as multiplicities.

        Only meaningful when the word is already sorted in the global order.
        """
        exps = [0] * len(alg.generators)
        for idx in word:
            exps[idx] += 1
        return cls(tuple(exps))

    @classmethod
    def from_generators(cls, alg: JacobiAlgebra, gens: Iterable[Generator]) -> "PbwMonomial":
        return cls.from_word(alg, [alg.index[g] for g in gens])

    def word(self) -> Tuple[int, ...]:
        out: Tuple[int, ...] = ()
        for idx, e in enumerate(self.exps):
            if e:
                out += (idx,) * e
        return out

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exps)


def monomial_weight(alg: JacobiAlgebra, m: PbwMonomial) -> Weight:
    w = Weight.zero(alg.n)
    for idx, e in enumerate(m.exps):
        if e:
            w = w + alg.weight(alg.generators[idx]).scale(e)
    return w


class UElement:
    """Finite combination of PBW monomials with nonzero ``PolyQ``
    coefficients: an element of U(g_n) (constant coefficients) or, over
    raising monomials applied to v0, a module vector (``verma.VermaVector``
    is this class)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[PbwMonomial, PolyQ]] = None):
        self.nvars = nvars
        self.terms: Dict[PbwMonomial, PolyQ] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero:
                    self.terms[m] = c

    @classmethod
    def unit(cls, alg: JacobiAlgebra) -> "UElement":
        """The unit of U(g_n); applied to v0, the vector v0."""
        return cls(alg.n, {PbwMonomial.unit(alg): PolyQ.one(alg.n)})

    @classmethod
    def monomial(cls, alg: JacobiAlgebra, m: PbwMonomial, coeff: Optional[PolyQ] = None) -> "UElement":
        if coeff is None:
            coeff = PolyQ.one(alg.n)
        return cls(alg.n, {m: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UElement") -> "UElement":
        res = dict(self.terms)
        for m, c in other.terms.items():
            prev = res.get(m)
            v = c if prev is None else prev + c
            if v.is_zero:
                del res[m]
            else:
                res[m] = v
        return UElement(self.nvars, res)

    def __neg__(self) -> "UElement":
        return UElement(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def scale(self, c: Union[int, Fraction, PolyQ]) -> "UElement":
        if not isinstance(c, PolyQ):
            c = PolyQ.const(self.nvars, c)
        return UElement(self.nvars, {m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, UElement)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if self.is_zero:
            return "UElement(0)"
        return "UElement(" + ", ".join(f"{m.exps}: {c.to_text()}" for m, c in self.terms.items()) + ")"


def _normal_sums(alg: JacobiAlgebra, idx_word: Tuple[int, ...]) -> Dict[Tuple[int, ...], Tuple[int, int]]:
    """PBW normal form of a word of generator indices, in integers.

    Returns a map from each sorted word of the normal form to its
    coefficient as an integer numerator and a power-of-2 denominator, not
    necessarily in lowest terms; words whose coefficient is zero are
    dropped.  Each step moves the left letter x of the leftmost inverted
    adjacent pair through the run y^b that starts after it: x y^b becomes
    y^b x, with b fewer inversions at the same length, plus the shorter
    words C(b, t) y^(b-t) c_t of ``alg.run_bracket`` (``alg.integer_bracket``
    when b = 1), so the rewrite ends.  Agenda entries carry an integer
    numerator and denominator, and the position where the search for an
    inversion resumes: after a rewrite at k the first k letters are still
    in order, so the next inversion is at k - 1 or later.  The indices are
    not checked.
    """
    bracket, run_bracket = alg.integer_bracket, alg.run_bracket
    sums: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    agenda: List[Tuple[Tuple[int, ...], int, int, int]] = [(idx_word, 1, 1, 0)]
    while agenda:
        w, num, den, k = agenda.pop()
        last = len(w) - 1
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
        x, y = w[k], w[k + 1]
        j = k + 2
        if j <= last and w[j] == y:
            while j <= last and w[j] == y:
                j += 1
            swapped = w[k + 1:j] + (x,)
            terms = run_bracket(x, y, j - k - 1)
        else:
            swapped = (y, x)
            terms = bracket(x, y)
        head, tail = w[:k], w[j:]
        resume = k - 1 if k else 0
        agenda.append((head + swapped + tail, num, den, resume))
        for replacement, p, q in terms:
            agenda.append((head + replacement + tail, num * p, den * q, resume))
    return {w: c for w, c in sums.items() if c[0]}


def _index_word(alg: JacobiAlgebra, word: Sequence[Union[int, Generator]]) -> Tuple[int, ...]:
    """The generator indices of a word of generators or of their indices.

    A generator that is not a basis element of ``alg`` raises
    ``DimensionMismatchError``, and an index out of range ``ValueError``.
    """
    out = []
    for g in word:
        idx = alg.index[alg._check(g)] if isinstance(g, Generator) else int(g)
        if not 0 <= idx < len(alg.generators):
            raise ValueError(f"generator index {idx} out of range")
        out.append(idx)
    return tuple(out)


def normal_order(alg: JacobiAlgebra, word: Sequence[Union[int, Generator]]) -> UElement:
    """PBW normal form of a word of generators (or of their indices).

    The integer rewrite ``_normal_sums`` does the work; each word it returns
    becomes one ``PbwMonomial`` with one constant ``PolyQ``, reduced by one
    integer gcd.  The result is supported on ordered monomials only.
    """
    n = alg.n
    result = {}
    for w, (num, den) in _normal_sums(alg, _index_word(alg, word)).items():
        g = gcd(num, den)
        result[PbwMonomial.from_word(alg, w)] = _poly(n, {0: num // g}, den // g)
    return UElement(n, result)


def multiply(alg: JacobiAlgebra, a: UElement, b: UElement) -> UElement:
    """Product in the enveloping algebra, returned in normal form."""
    out = UElement(alg.n)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + normal_order(alg, m1.word() + m2.word()).scale(c1 * c2)
    return out
