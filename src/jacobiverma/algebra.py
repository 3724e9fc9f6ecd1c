"""The Jacobi algebra g_n = h_n (semidirect) sp(n): basis, brackets, weights.

Basis families:

* ``a+``/``a-``: boson creation/annihilation operators a^+_i, a^-_i
  with [a^-_i, a^+_j] = delta_ij (the central element acts as 1).
* ``K+``/``K-``: symmetric sp(n) raising/lowering generators K^{+-}_{ij},
  stored with i <= j.
* ``K0``: the mixed sp(n) generators K^0_{ij}; K^0_{ii} = h_i span the
  Cartan subalgebra, K^0_{ij} with i < j are raising, i > j lowering.

All structure constants are generated from the Kronecker-delta formulas for
the two defining families of relations (Heisenberg x sp crossing, sp x sp),
never entered per pair, so the implementation is uniform in n.

Weights are recorded in the delta-basis normalized by delta_i(h_j) =
(1/2) delta_ij; equivalently, the j-th weight coordinate of a generator g is
twice the eigenvalue of ad h_j on g.  With that convention a^+_i has weight
delta_i and K^+_{ij} has weight delta_i + delta_j, and gradings of lowering
generators are the negatives of their raising mirrors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

A_PLUS = "a+"
A_MINUS = "a-"
K_PLUS = "K+"
K_MINUS = "K-"
K_ZERO = "K0"

FAMILIES = (A_PLUS, A_MINUS, K_PLUS, K_MINUS, K_ZERO)


class InvalidDimensionError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    """One basis element; K+/K- are canonicalized to i <= j on construction."""

    family: str
    i: int
    j: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.i < 1:
            raise ValueError(f"index i={self.i} out of range")
        if self.family in (A_PLUS, A_MINUS):
            if self.j != 0:
                raise ValueError("a+/a- generators carry a single index")
        else:
            if self.j < 1:
                raise ValueError(f"index j={self.j} out of range")
            if self.family in (K_PLUS, K_MINUS) and self.i > self.j:
                lo, hi = self.j, self.i
                object.__setattr__(self, "i", lo)
                object.__setattr__(self, "j", hi)

    def __str__(self):
        if self.family in (A_PLUS, A_MINUS):
            return f"{self.family}[{self.i}]"
        return f"{self.family}[{self.i},{self.j}]"

    def max_index(self) -> int:
        return max(self.i, self.j)


def _canonical_kpm(family: str, i: int, j: int) -> Generator:
    if i > j:
        i, j = j, i
    return Generator(family, i, j)


class GenClass(enum.Enum):
    POSITIVE = "positive"
    CARTAN = "cartan"
    NEGATIVE = "negative"


def classify(g: Generator) -> GenClass:
    if g.family in (A_PLUS, K_PLUS):
        return GenClass.POSITIVE
    if g.family in (A_MINUS, K_MINUS):
        return GenClass.NEGATIVE
    if g.i == g.j:
        return GenClass.CARTAN
    return GenClass.POSITIVE if g.i < g.j else GenClass.NEGATIVE


def mirror(g: Generator) -> Generator:
    """The opposite-class partner: a+ <-> a-, K+ <-> K-, K0_ij <-> K0_ji."""
    if g.family == A_PLUS:
        return Generator(A_MINUS, g.i)
    if g.family == A_MINUS:
        return Generator(A_PLUS, g.i)
    if g.family == K_PLUS:
        return Generator(K_MINUS, g.i, g.j)
    if g.family == K_MINUS:
        return Generator(K_PLUS, g.i, g.j)
    return Generator(K_ZERO, g.j, g.i)


@dataclass(frozen=True)
class Weight:
    """Weight vector in the delta-basis, exact rational coordinates."""

    coords: Tuple[Fraction, ...]

    @classmethod
    def of(cls, *coords) -> "Weight":
        return cls(tuple(Fraction(c) for c in coords))

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls((Fraction(0),) * n)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def scale(self, k) -> "Weight":
        k = Fraction(k)
        return Weight(tuple(k * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return ",".join(str(c) for c in self.coords)


@dataclass
class BracketResult:
    """A bracket value: rational multiple of the identity plus a generator combination."""

    scalar: Fraction = Fraction(0)
    terms: Dict[Generator, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.scalar = Fraction(self.scalar)
        self.terms = {g: Fraction(c) for g, c in self.terms.items() if c != 0}

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0 and not self.terms

    def __neg__(self) -> "BracketResult":
        return BracketResult(-self.scalar, {g: -c for g, c in self.terms.items()})

    def __add__(self, other: "BracketResult") -> "BracketResult":
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms.get(g, Fraction(0)) + c
        return BracketResult(self.scalar + other.scalar, terms)

    def __sub__(self, other: "BracketResult") -> "BracketResult":
        return self + (-other)

    def scale(self, k) -> "BracketResult":
        k = Fraction(k)
        if k == 0:
            return BracketResult()
        return BracketResult(k * self.scalar, {g: k * c for g, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, BracketResult)
            and self.scalar == other.scalar
            and self.terms == other.terms
        )


# Integer form of a bracket, for fraction-free normal ordering: each triple
# (replacement word, numerator, denominator) is one term of [x, y].
IntegerBracket = Tuple[Tuple[Tuple[int, ...], int, int], ...]


def _delta(a: int, b: int) -> Fraction:
    return Fraction(1) if a == b else Fraction(0)


def _combine(*pairs) -> BracketResult:
    terms: Dict[Generator, Fraction] = {}
    for coeff, gen in pairs:
        if coeff == 0:
            continue
        terms[gen] = terms.get(gen, Fraction(0)) + coeff
        if terms[gen] == 0:
            del terms[gen]
    return BracketResult(Fraction(0), terms)


def bracket(x: Generator, y: Generator) -> BracketResult:
    """[x, y] as scalar + linear combination of basis generators.

    Implements the canonical commutation relations, the action of sp(n) on
    the Heisenberg ideal, and the sp(n) relations; every case is evaluated
    from the Kronecker-delta form, with K+/K- results re-canonicalized.
    """
    fx, fy = x.family, y.family

    # Heisenberg x Heisenberg
    if fx == A_MINUS and fy == A_PLUS:
        return BracketResult(_delta(x.i, y.i))
    if fx == A_PLUS and fy == A_MINUS:
        return BracketResult(-_delta(x.i, y.i))
    if fx in (A_PLUS, A_MINUS) and fy in (A_PLUS, A_MINUS):
        return BracketResult()

    # Heisenberg x sp crossings: [a+, K+] = [a-, K-] = 0
    if {fx, fy} == {A_PLUS, K_PLUS} or {fx, fy} == {A_MINUS, K_MINUS}:
        return BracketResult()

    # [a-_i, K+_{kj}] = 1/2 d_ik a+_j + 1/2 d_ij a+_k
    if fx == A_MINUS and fy == K_PLUS:
        i, k, j = x.i, y.i, y.j
        return _combine(
            (Fraction(1, 2) * _delta(i, k), Generator(A_PLUS, j)),
            (Fraction(1, 2) * _delta(i, j), Generator(A_PLUS, k)),
        )
    if fx == K_PLUS and fy == A_MINUS:
        return -bracket(y, x)

    # [K-_{kj}, a+_i] = 1/2 d_ik a-_j + 1/2 d_ij a-_k
    if fx == K_MINUS and fy == A_PLUS:
        k, j, i = x.i, x.j, y.i
        return _combine(
            (Fraction(1, 2) * _delta(i, k), Generator(A_MINUS, j)),
            (Fraction(1, 2) * _delta(i, j), Generator(A_MINUS, k)),
        )
    if fx == A_PLUS and fy == K_MINUS:
        return -bracket(y, x)

    # [K0_{ij}, a+_k] = 1/2 d_jk a+_i
    if fx == K_ZERO and fy == A_PLUS:
        i, j, k = x.i, x.j, y.i
        return _combine((Fraction(1, 2) * _delta(j, k), Generator(A_PLUS, i)))
    if fx == A_PLUS and fy == K_ZERO:
        return -bracket(y, x)

    # [a-_k, K0_{ij}] = 1/2 d_ik a-_j
    if fx == A_MINUS and fy == K_ZERO:
        k, i, j = x.i, y.i, y.j
        return _combine((Fraction(1, 2) * _delta(i, k), Generator(A_MINUS, j)))
    if fx == K_ZERO and fy == A_MINUS:
        return -bracket(y, x)

    # sp x sp
    if fx == fy and fx in (K_PLUS, K_MINUS):
        return BracketResult()

    # 2[K-_{ij}, K0_{kl}] = K-_{il} d_kj + K-_{jl} d_ki
    if fx == K_MINUS and fy == K_ZERO:
        i, j, k, l = x.i, x.j, y.i, y.j
        return _combine(
            (Fraction(1, 2) * _delta(k, j), _canonical_kpm(K_MINUS, i, l)),
            (Fraction(1, 2) * _delta(k, i), _canonical_kpm(K_MINUS, j, l)),
        )
    if fx == K_ZERO and fy == K_MINUS:
        return -bracket(y, x)

    # 2[K-_{ij}, K+_{kl}] = K0_{kj} d_li + K0_{lj} d_ki + K0_{ki} d_lj + K0_{li} d_kj
    if fx == K_MINUS and fy == K_PLUS:
        i, j, k, l = x.i, x.j, y.i, y.j
        return _combine(
            (Fraction(1, 2) * _delta(l, i), Generator(K_ZERO, k, j)),
            (Fraction(1, 2) * _delta(k, i), Generator(K_ZERO, l, j)),
            (Fraction(1, 2) * _delta(l, j), Generator(K_ZERO, k, i)),
            (Fraction(1, 2) * _delta(k, j), Generator(K_ZERO, l, i)),
        )
    if fx == K_PLUS and fy == K_MINUS:
        return -bracket(y, x)

    # 2[K+_{ij}, K0_{kl}] = -K+_{ik} d_jl - K+_{jk} d_li
    if fx == K_PLUS and fy == K_ZERO:
        i, j, k, l = x.i, x.j, y.i, y.j
        return _combine(
            (-Fraction(1, 2) * _delta(j, l), _canonical_kpm(K_PLUS, i, k)),
            (-Fraction(1, 2) * _delta(l, i), _canonical_kpm(K_PLUS, j, k)),
        )
    if fx == K_ZERO and fy == K_PLUS:
        return -bracket(y, x)

    # 2[K0_{ji}, K0_{kl}] = K0_{jl} d_ki - K0_{ki} d_lj  (left generator K0_{pq}: p=j, q=i)
    if fx == K_ZERO and fy == K_ZERO:
        j, i = x.i, x.j
        k, l = y.i, y.j
        return _combine(
            (Fraction(1, 2) * _delta(k, i), Generator(K_ZERO, j, l)),
            (-Fraction(1, 2) * _delta(l, j), Generator(K_ZERO, k, i)),
        )

    raise AssertionError(f"unhandled bracket case {fx}, {fy}")


def _ordered_basis(n: int) -> List[Generator]:
    pos: List[Generator] = [Generator(A_PLUS, i) for i in range(1, n + 1)]
    pos += [Generator(K_PLUS, i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    pos += [Generator(K_ZERO, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    cartan = [Generator(K_ZERO, i, i) for i in range(1, n + 1)]
    neg = [mirror(g) for g in pos]
    return pos + cartan + neg


class JacobiAlgebra:
    """The Jacobi algebra g_n with its canonical ordered basis and bracket table.

    The global order is positives, then Cartan, then negatives; positives run
    a+ (by index), K+ (index-lex), raising K0 (index-lex), and negatives
    mirror the positives in the same sequence.  This is the factor order used
    for PBW normal forms, chosen so that words acting on a lowest-weight
    vector end in annihilators.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InvalidDimensionError(f"algebra dimension parameter must be >= 1, got {n}")
        self.n = n
        self.generators: List[Generator] = _ordered_basis(n)
        self.index: Dict[Generator, int] = {g: k for k, g in enumerate(self.generators)}
        self.num_positive = (len(self.generators) - n) // 2
        self.positive = self.generators[: self.num_positive]
        self.cartan = self.generators[self.num_positive : self.num_positive + n]
        self.negative = self.generators[self.num_positive + n :]
        self._table: Dict[Tuple[int, int], BracketResult] = {}
        self._integer_table: Dict[Tuple[int, int], IntegerBracket] = {}
        self._weights: List[Weight] = []
        for g in self.generators:
            self._weights.append(self._weight_from_table(g))
        self.lowering_generators: List[Generator] = self._lie_generators_of_negative()

    # -- membership --------------------------------------------------------

    def _check(self, g: Generator) -> Generator:
        if g not in self.index:
            raise DimensionMismatchError(f"{g} is not a basis element of g_{self.n}")
        return g

    def __len__(self):
        return len(self.generators)

    # -- operations --------------------------------------------------------

    def bracket(self, x: Generator, y: Generator) -> BracketResult:
        ix, iy = self.index.get(x), self.index.get(y)
        if ix is None or iy is None:
            bad = x if ix is None else y
            raise DimensionMismatchError(f"{bad} is not a basis element of g_{self.n}")
        return self.bracket_by_index(ix, iy)

    def bracket_by_index(self, ix: int, iy: int) -> BracketResult:
        key = (ix, iy)
        cached = self._table.get(key)
        if cached is None:
            cached = bracket(self.generators[ix], self.generators[iy])
            self._table[key] = cached
        return cached

    def integer_bracket(self, ix: int, iy: int) -> IntegerBracket:
        """``bracket_by_index(ix, iy)`` as (replacement, numerator, denominator)
        triples: the scalar part replaces the pair x y by the empty word, a
        generator term by that generator's index alone."""
        key = (ix, iy)
        cached = self._integer_table.get(key)
        if cached is None:
            br = self.bracket_by_index(ix, iy)
            parts = [((), br.scalar)] if br.scalar != 0 else []
            parts += [((self.index[g],), c) for g, c in br.terms.items()]
            cached = tuple((word, c.numerator, c.denominator) for word, c in parts)
            self._integer_table[key] = cached
        return cached

    def classify(self, g: Generator) -> GenClass:
        self._check(g)
        return classify(g)

    def weight(self, g: Generator) -> Weight:
        return self._weights[self.index[self._check(g)]]

    def _weight_from_table(self, g: Generator) -> Weight:
        coords = []
        for j in range(1, self.n + 1):
            h_j = Generator(K_ZERO, j, j)
            br = bracket(h_j, g)
            if br.scalar != 0:
                raise RuntimeError(f"ad h_{j} produced a scalar on {g}")
            extra = {z for z in br.terms if z != g}
            if extra:
                raise RuntimeError(f"{g} is not an eigenvector of ad h_{j}")
            eigen = br.terms.get(g, Fraction(0))
            coords.append(2 * eigen)
        return Weight(tuple(coords))

    def _lie_generators_of_negative(self) -> List[Generator]:
        """The negatives outside [n-, n-], in ``negative`` order.

        Every root space of n- is spanned by one basis element, so [n-, n-] is
        spanned by the basis elements that occur in some bracket of two
        negatives.  The others lift a basis of n-/[n-, n-], and since n- is
        nilpotent they generate n- as a Lie algebra: a^-_n, K^-_{nn} and the
        K^0_{i+1,i}.  A vector killed by each of them is killed by all of n-.
        """
        derived = set()
        for x, y in combinations(self.negative, 2):
            derived.update(bracket(x, y).terms)
        return [g for g in self.negative if g not in derived]

    @property
    def sp_lowering_generators(self) -> List[Generator]:
        """``lowering_generators`` without a^-_n: K^-_{nn} and the K^0_{i+1,i},
        which generate the lowering part of sp(n)."""
        return [g for g in self.lowering_generators if g.family != A_MINUS]

    def bracket_linear(self, x: Generator, br: BracketResult) -> BracketResult:
        """[x, -] extended linearly over a BracketResult (scalars bracket to zero)."""
        out = BracketResult()
        for g, c in br.terms.items():
            out = out + self.bracket(x, g).scale(c)
        return out


def generators(n: int) -> List[Generator]:
    """The ordered basis of g_n: 2n Heisenberg, n(n+1) K+/K-, n^2 K0 elements."""
    return JacobiAlgebra(n).generators
