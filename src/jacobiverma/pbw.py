"""Enveloping-algebra elements as combinations of PBW-ordered monomials.

A monomial records the multiplicity of each basis generator; the underlying
word is the generators repeated in the algebra's global order (positives,
Cartan, negatives).  ``normal_order`` rewrites an arbitrary word into this
basis by repeatedly applying x*y = y*x + [x, y] to the leftmost out-of-order
adjacent pair.  Every swap either lowers the inversion count at fixed length
or hands off to strictly shorter words (the bracket remainder), so the
rewriting terminates; by the PBW theorem the normal form is independent of
the strategy.

The structure constants are integer multiples of 1/2, so every coefficient
of a normal form is a rational with a power of 2 as denominator.  The
rewrite, ``_normal_sums``, works in integers only: each word carries an
integer numerator and denominator, multiplied by the lowest-terms halves of
``JacobiAlgebra.integer_bracket``, which reads the integer kernel
``algebra.half_bracket``, and the words that reach normal form are summed
into one (numerator, denominator) pair per sorted word.  ``normal_order``
is that rewrite plus one ``fractions.Fraction`` and one ``PbwMonomial`` per
word of the result; the module action (``verma``) reads the integer sums
directly.  ``UElement`` coefficients are nonzero
``Fraction``s.  Dependence on the weight enters only when the module
evaluates Cartan factors (``verma``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .algebra import Generator, JacobiAlgebra, Weight


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
        out: List[int] = []
        for idx, e in enumerate(self.exps):
            out.extend([idx] * e)
        return tuple(out)

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
    """Finite combination of PBW monomials with nonzero rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[PbwMonomial, Fraction]] = None):
        self.nvars = nvars
        self.terms: Dict[PbwMonomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = c

    @classmethod
    def zero(cls, alg: JacobiAlgebra) -> "UElement":
        return cls(alg.n)

    @classmethod
    def unit(cls, alg: JacobiAlgebra) -> "UElement":
        return cls(alg.n, {PbwMonomial.unit(alg): Fraction(1)})

    @classmethod
    def of_generator(cls, alg: JacobiAlgebra, g: Generator) -> "UElement":
        m = PbwMonomial.from_generators(alg, [g])
        return cls(alg.n, {m: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UElement") -> "UElement":
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, 0) + c
            if v == 0:
                res.pop(m, None)
            else:
                res[m] = v
        return UElement(self.nvars, res)

    def __neg__(self) -> "UElement":
        return UElement(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def scale(self, c: Union[int, Fraction]) -> "UElement":
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
        return "UElement(" + ", ".join(f"{m.exps}: {c}" for m, c in self.terms.items()) + ")"


def _normal_sums(alg: JacobiAlgebra, idx_word: Tuple[int, ...]) -> Dict[Tuple[int, ...], Tuple[int, int]]:
    """PBW normal form of a word of generator indices, in integers.

    Returns a map from each sorted word of the normal form to its
    coefficient as an integer numerator and a power-of-2 denominator, not
    necessarily in lowest terms; words whose coefficient is zero are
    dropped.  Rewrites the leftmost inverted adjacent pair at each step.
    Agenda entries carry an integer numerator and denominator, and the
    position where the search for an inversion resumes: after a rewrite at
    k the first k letters are still in order, so the next inversion is at
    k - 1 or later.  The indices are not checked.
    """
    bracket = alg.integer_bracket
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
        head, tail = w[:k], w[k + 2:]
        resume = k - 1 if k else 0
        agenda.append((head + (y, x) + tail, num, den, resume))
        for replacement, p, q in bracket(x, y):
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
    becomes one ``PbwMonomial`` with one reduced ``Fraction``.  The result
    is supported on ordered monomials only.
    """
    result = {
        PbwMonomial.from_word(alg, w): Fraction(num, den)
        for w, (num, den) in _normal_sums(alg, _index_word(alg, word)).items()
    }
    return UElement(alg.n, result)


def multiply(alg: JacobiAlgebra, a: UElement, b: UElement) -> UElement:
    """Product in the enveloping algebra, returned in normal form."""
    out = UElement.zero(alg)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + normal_order(alg, m1.word() + m2.word()).scale(c1 * c2)
    return out
