"""The Jacobi algebra g_n = h_n (semidirect) sp(n): basis, brackets, weights.

Basis families:

* ``a+``/``a-``: boson creation/annihilation operators a^+_i, a^-_i
  with [a^-_i, a^+_j] = delta_ij (the central element acts as 1).
* ``K+``/``K-``: symmetric sp(n) raising/lowering generators K^{+-}_{ij},
  stored with i <= j.
* ``K0``: the mixed sp(n) generators K^0_{ij}; K^0_{ii} = h_i span the
  Cartan subalgebra, K^0_{ij} with i < j are raising, i > j lowering.

All structure constants are integer multiples of 1/2, given by
Kronecker-delta formulas uniform in n (Heisenberg x Heisenberg, Heisenberg x
sp crossing, sp x sp).  They are written once, as the integer kernel
``half_bracket`` on (family, i, j) keys; ``JacobiAlgebra`` tabulates its
integer form lazily, pair by pair and run by run, for normal ordering,
and ``JacobiAlgebra.bracket`` reads that form as an element of U(g_n), a
``pbw.UElement`` with constant coefficients.

Weights are recorded in the delta-basis normalized by delta_i(h_j) =
(1/2) delta_ij; equivalently, the j-th weight coordinate of a generator g is
twice the eigenvalue of ad h_j on g.  With that convention a^+_i has weight
delta_i, K^+_{ij} has weight delta_i + delta_j and K^0_{ij} has weight
delta_i - delta_j, and gradings of lowering generators are the negatives of
their raising mirrors.  ``JacobiAlgebra`` states this grading, and the Lie
generators a^-_n, K^-_{nn}, K^0_{i+1,i} of n-, in closed form; the tests tie
both to ``half_bracket``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Tuple

from .ring import _poly

if TYPE_CHECKING:
    from .pbw import UElement

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


# Integer form of a bracket, for fraction-free normal ordering: each triple
# (replacement word, numerator, denominator) is one term of [x, y].
IntegerBracket = Tuple[Tuple[Tuple[int, ...], int, int], ...]

# A basis element as the plain tuple (family, i, j) of its Generator fields.
Key = Tuple[str, int, int]
# [x, y] in units of 1/2: (2 * scalar, ((key, 2 * coefficient), ...)).
HalfBracket = Tuple[int, Tuple[Tuple[Key, int], ...]]


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


def _kpm(family: str, i: int, j: int) -> Key:
    return (family, i, j) if i <= j else (family, j, i)


def _terms(*pairs) -> HalfBracket:
    """A bracket without scalar part; equal keys are merged, zeros dropped."""
    terms: Dict[Key, int] = {}
    for key, c in pairs:
        if c:
            total = terms.get(key, 0) + c
            if total:
                terms[key] = total
            else:
                del terms[key]
    return 0, tuple(terms.items())


# One orientation of every nonzero family pair, (i, j) of x then (k, l) of y,
# as twice the Kronecker-delta formula; the reversed pairs follow by
# antisymmetry, and the six pairs missing in both orientations bracket to 0:
# a+ a+, a- a-, a+ K+, a- K-, K+ K+, K- K-.
_HALF_FORMULAS = {
    # [a-_i, a+_k] = d_ik
    (A_MINUS, A_PLUS): lambda i, j, k, l: (2 * _delta(i, k), ()),
    # [a-_i, K+_kl] = 1/2 d_ik a+_l + 1/2 d_il a+_k
    (A_MINUS, K_PLUS): lambda i, j, k, l: _terms(
        ((A_PLUS, l, 0), _delta(i, k)), ((A_PLUS, k, 0), _delta(i, l))
    ),
    # [K-_ij, a+_k] = 1/2 d_ki a-_j + 1/2 d_kj a-_i
    (K_MINUS, A_PLUS): lambda i, j, k, l: _terms(
        ((A_MINUS, j, 0), _delta(k, i)), ((A_MINUS, i, 0), _delta(k, j))
    ),
    # [K0_ij, a+_k] = 1/2 d_jk a+_i
    (K_ZERO, A_PLUS): lambda i, j, k, l: _terms(((A_PLUS, i, 0), _delta(j, k))),
    # [a-_i, K0_kl] = 1/2 d_ki a-_l
    (A_MINUS, K_ZERO): lambda i, j, k, l: _terms(((A_MINUS, l, 0), _delta(k, i))),
    # 2[K-_ij, K0_kl] = K-_il d_kj + K-_jl d_ki
    (K_MINUS, K_ZERO): lambda i, j, k, l: _terms(
        (_kpm(K_MINUS, i, l), _delta(k, j)), (_kpm(K_MINUS, j, l), _delta(k, i))
    ),
    # 2[K-_ij, K+_kl] = K0_kj d_li + K0_lj d_ki + K0_ki d_lj + K0_li d_kj
    (K_MINUS, K_PLUS): lambda i, j, k, l: _terms(
        ((K_ZERO, k, j), _delta(l, i)),
        ((K_ZERO, l, j), _delta(k, i)),
        ((K_ZERO, k, i), _delta(l, j)),
        ((K_ZERO, l, i), _delta(k, j)),
    ),
    # 2[K+_ij, K0_kl] = -K+_ik d_jl - K+_jk d_li
    (K_PLUS, K_ZERO): lambda i, j, k, l: _terms(
        (_kpm(K_PLUS, i, k), -_delta(j, l)), (_kpm(K_PLUS, j, k), -_delta(l, i))
    ),
    # 2[K0_ij, K0_kl] = K0_il d_kj - K0_kj d_li
    (K_ZERO, K_ZERO): lambda i, j, k, l: _terms(
        ((K_ZERO, i, l), _delta(k, j)), ((K_ZERO, k, j), -_delta(l, i))
    ),
}


def half_bracket(x: Key, y: Key) -> HalfBracket:
    """[x, y] of two basis keys in units of 1/2, with plain ints only.

    The single source of the structure constants: every bracket of the
    package is read from here.  K+/K- keys in the result are canonical
    (i <= j), and a key occurs at most once.
    """
    formula = _HALF_FORMULAS.get((x[0], y[0]))
    if formula is not None:
        return formula(x[1], x[2], y[1], y[2])
    formula = _HALF_FORMULAS.get((y[0], x[0]))
    if formula is None:
        return 0, ()
    scalar, terms = formula(y[1], y[2], x[1], x[2])
    return -scalar, tuple((key, -c) for key, c in terms)


def _halved(word: Tuple[int, ...], num: int, t: int) -> Tuple[Tuple[int, ...], int, int]:
    """(word, num / 2^t) with the fraction in lowest terms; num is nonzero."""
    shift = min((num & -num).bit_length() - 1, t)
    return word, num >> shift, 1 << (t - shift)


def _ordered_basis(n: int) -> List[Generator]:
    pos: List[Generator] = [Generator(A_PLUS, i) for i in range(1, n + 1)]
    pos += [Generator(K_PLUS, i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    pos += [Generator(K_ZERO, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    cartan = [Generator(K_ZERO, i, i) for i in range(1, n + 1)]
    neg = [mirror(g) for g in pos]
    return pos + cartan + neg


def _raising_weight(g: Generator, n: int) -> Weight:
    """delta_i for a^+_i, delta_i + delta_j for K^+_{ij}, delta_i - delta_j
    for K^0_{ij}."""
    coords = [0] * n
    coords[g.i - 1] += 1
    if g.family == K_PLUS:
        coords[g.j - 1] += 1
    elif g.family == K_ZERO:
        coords[g.j - 1] -= 1
    return Weight.of(*coords)


class JacobiAlgebra:
    """The Jacobi algebra g_n with its canonical ordered basis.

    The global order is positives, then Cartan, then negatives; positives run
    a+ (by index), K+ (index-lex), raising K0 (index-lex), and negatives
    mirror the positives in the same sequence.  This is the factor order used
    for PBW normal forms, chosen so that words acting on a lowest-weight
    vector end in annihilators.  ``aplus``, ``kplus`` and ``kzero_raising``
    are the index ranges of the three positive blocks.

    The grading and the Lie generators of n- are closed forms, which the
    tests check against ``half_bracket``.  The integer bracket table and the
    run table of x y^b that normal ordering reads are filled from the kernel
    on first use of each pair or run, so an algebra costs only what its
    computation touches.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InvalidDimensionError(f"algebra dimension parameter must be >= 1, got {n}")
        self.n = n
        self.generators: List[Generator] = _ordered_basis(n)
        self.index: Dict[Generator, int] = {g: k for k, g in enumerate(self.generators)}
        self.num_positive = (len(self.generators) - n) // 2
        self.aplus = range(0, n)
        self.kplus = range(n, n + n * (n + 1) // 2)
        self.kzero_raising = range(self.kplus.stop, self.num_positive)
        self.positive = self.generators[: self.num_positive]
        self.cartan = self.generators[self.num_positive : self.num_positive + n]
        self.negative = self.generators[self.num_positive + n :]
        self._keys: List[Key] = [(g.family, g.i, g.j) for g in self.generators]
        self._key_index: Dict[Key, int] = {key: k for k, key in enumerate(self._keys)}
        self._integer_table: Dict[Tuple[int, int], IntegerBracket] = {}
        self._run_table: Dict[Tuple[int, int, int], IntegerBracket] = {}
        raising = [_raising_weight(g, n) for g in self.positive]
        self._weights: List[Weight] = raising + [Weight.zero(n)] * n + [-w for w in raising]
        # a^-_n, K^-_{nn} and the K^0_{i+1,i}, in ``negative`` order: n- has
        # one basis element per root space, and these are the ones no bracket
        # of two negatives reaches, so they lift a basis of n-/[n-, n-] and
        # generate the nilpotent n-.  A vector killed by each of them is
        # killed by all of n-.
        self.lowering_generators: List[Generator] = [
            Generator(A_MINUS, n),
            Generator(K_MINUS, n, n),
            *(Generator(K_ZERO, i + 1, i) for i in range(1, n)),
        ]

    # -- membership --------------------------------------------------------

    def _check(self, g: Generator) -> Generator:
        if g not in self.index:
            raise DimensionMismatchError(f"{g} is not a basis element of g_{self.n}")
        return g

    # -- operations --------------------------------------------------------

    def bracket(self, x: Generator, y: Generator) -> UElement:
        """[x, y] as an element of U(g_n): a constant on the unit monomial
        plus one-generator monomials, each with a constant ``PolyQ`` read
        from ``integer_bracket``, whose triples are in lowest terms."""
        # pbw imports this module, so its classes are imported on call
        from .pbw import PbwMonomial, UElement

        ix, iy = self.index[self._check(x)], self.index[self._check(y)]
        return UElement(self.n, {
            PbwMonomial.from_word(self, word): _poly(self.n, {0: p}, q)
            for word, p, q in self.integer_bracket(ix, iy)
        })

    def integer_bracket(self, ix: int, iy: int) -> IntegerBracket:
        """[x, y] of the generators of indices ix, iy as (replacement,
        numerator, denominator) triples in lowest terms: the scalar part
        replaces the pair x y by the empty word, a generator term by that
        generator's index alone.  Filled lazily from ``half_bracket``, one
        pair at a time."""
        key = (ix, iy)
        cached = self._integer_table.get(key)
        if cached is None:
            scalar, terms = half_bracket(self._keys[ix], self._keys[iy])
            parts = [((), scalar)] if scalar else []
            parts += [((self._key_index[k],), c) for k, c in terms]
            cached = tuple((word, c, 2) if c % 2 else (word, c // 2, 1) for word, c in parts)
            self._integer_table[key] = cached
        return cached

    def run_bracket(self, ix: int, iy: int, b: int) -> IntegerBracket:
        """x y^b - y^b x for a run y^b, b >= 2, as (replacement, numerator,
        denominator) triples in lowest terms: the terms C(b, t) y^(b-t) c_t
        for t = 1..b, where c_1 = [x, y] and c_t = [c_(t-1), y].  Right
        multiplication by y is left multiplication plus ad y, and the two
        commute, so x y^b is their b-th power on x; the b = 1 case is
        ``integer_bracket``.  The t = 1 term is ``integer_bracket`` times b;
        from t = 2 on, c_t is summed from the ``integer_bracket`` of each
        generator of c_(t-1) with y, with numerators over 2^t, until the
        chain reaches a scalar or zero.  Filled lazily, one (x, y, b) at a
        time, so the table holds the runs the algebra's rewrites meet."""
        key = (ix, iy, b)
        cached = self._run_table.get(key)
        if cached is not None:
            return cached
        pad = (iy,) * (b - 1)
        out = []
        # the generator terms of c_t as (index, numerator over 2^t)
        chain = []
        for word, p, q in self.integer_bracket(ix, iy):
            out.append((pad + word, b * p, q) if q == 1 or b % 2 else (pad + word, b // 2 * p, 1))
            if word:
                chain.append((word[0], 2 * p // q))
        binom = b
        for t in range(2, b + 1):
            if not chain:
                break
            sums: Dict[Tuple[int, ...], int] = {}
            for g, c in chain:
                for word, p, q in self.integer_bracket(g, iy):
                    sums[word] = sums.get(word, 0) + c * (2 * p // q)
            binom = binom * (b - t + 1) // t
            pad = pad[1:]
            out += [_halved(pad + word, binom * c, t) for word, c in sums.items() if c]
            chain = [(word[0], c) for word, c in sums.items() if word and c]
        cached = self._run_table[key] = tuple(out)
        return cached

    def weight(self, g: Generator) -> Weight:
        return self._weights[self.index[self._check(g)]]

    @property
    def sp_lowering_generators(self) -> List[Generator]:
        """``lowering_generators`` without a^-_n: K^-_{nn} and the K^0_{i+1,i},
        which generate the lowering part of sp(n)."""
        return [g for g in self.lowering_generators if g.family != A_MINUS]
