"""Exact coefficient arithmetic: multivariate polynomials over Q.

Polynomials live in Q[L1, ..., Ln] where Li stands for the formal lowest-weight
value on the i-th Cartan generator.  The monomial order used throughout
(leading terms, canonical rendering) is graded lexicographic with the *last*
variable most significant, so that e.g. ``L2 - L1`` is monic and prints with
``L2`` first.

A ``PolyQ`` is one integer numerator map ``num``, packed monomial key to
nonzero int, over one positive integer denominator ``den``, kept canonical:
the gcd of ``den`` and all the numerators is 1, and zero is the empty map
over 1.  Equal polynomials therefore store equal data, and equality and
hashing compare it directly.  Every operation runs on integers and makes its
result canonical with one gcd over its denominator and numerators: a sum
brings the two maps to the lcm of the denominators, a product multiplies the
maps (``_mul_int_terms``), and an exact division divides the numerators by
the primitive part of the divisor (``_div_int_terms``), which by Gauss's
lemma is exact in Z[L] whenever the division is exact in Q[L].  The
fraction-free loops elsewhere (the module action in ``verma``, the solver's
elimination, back-substitution and lift) read and make the same integer
maps: ``_numerators`` brings polynomials to one common denominator and
``PolyQ.from_int_terms`` makes a canonical polynomial of a map and a
denominator.

A monomial L1^e1 ... Ln^en is keyed by one int: the total degree in the top
field and, below it, the exponents from the last variable down in 32-bit
fields, en in bits 32(n-1) to 32n - 1 and e1 in bits 0 to 31.  Integer order
on keys is therefore the graded-lex order above, a product of monomials is
the sum of their keys, and the key of L_{i+1} is ``_unit(n, i)``.  Every
monomial's total degree is kept below 2^31 (``_DEGREE_LIMIT``), so each
field holds its exponent with its top bit clear: a difference of two keys
has none of those guard bits set (``_guard``) exactly when the first
monomial is divisible by the second, and it is then the key of the
quotient.  The constructor raises ``RingError`` on a monomial outside that
range, and so does every product whose leading keys add up to degree 2^31
or more: ``_check_degree``, one comparison per product, is the one test of
that limit, in this module and in the solver's and module kernel's loops.
Exponent tuples appear only at the edges: the constructor
``PolyQ(nvars, {exps: c})``, ``terms`` and ``leading``, and
``poly_sort_key``, which orders terms by tuple with the first variable most
significant.

The gcd machinery works on primitive integer polynomials only, since a gcd
over Q is one up to a unit: contents in the main variable are chains of
gcds that stop at the first constant, and the remainders of both the
univariate Euclid (on dense coefficient lists) and the multivariate one are
pseudo-remainders made primitive at every step (a primitive PRS).

``fractions.Fraction`` appears only where rationals enter or leave: the
constructor ``PolyQ(nvars, {exps: int | Fraction})`` and ``const`` read
parsed input; ``terms`` is a dict with one reduced ``Fraction`` per term,
built on each access, for readers outside the package; ``leading``,
``eval_all`` (of ``PolyQ`` and ``RatFuncQ``) and ``rational_roots``
return rationals; and the sort key of a polynomial with a denominator
compares its coefficients as rationals.  Rendering forms each
printed coefficient from its numerator and the denominator with one gcd.

``RatFuncQ`` is not a field of fractions: it is the reduced quotient num/den
that a report prints as a kernel coordinate, with no arithmetic of its own.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


class RingError(ValueError):
    pass


# -- packed monomials ---------------------------------------------------------

_FIELD = 32
_MASK = (1 << _FIELD) - 1
_DEGREE_LIMIT = 1 << (_FIELD - 1)

# Integer term map: packed monomial key -> nonzero int, a polynomial's
# numerators over a denominator its user keeps.
IntTerms = Dict[int, int]


def _pack(exps: Sequence[int]) -> int:
    """The key of an exponent tuple; ``RingError`` unless every exponent is
    nonnegative and the total degree is below 2^31."""
    key = sum(exps)
    if key >= _DEGREE_LIMIT or min(exps, default=0) < 0:
        raise RingError(f"exponent tuple {tuple(exps)} is out of range: exponents must be nonnegative "
                        f"with a total degree below 2^31")
    for e in reversed(exps):
        key = key << _FIELD | e
    return key


def _unpack(key: int, nvars: int) -> tuple:
    return tuple(key >> (_FIELD * i) & _MASK for i in range(nvars))


def _exponent(key: int, i: int) -> int:
    """The exponent of L_{i+1} in a key."""
    return key >> (_FIELD * i) & _MASK


def _degree(key: int, nvars: int) -> int:
    """The total degree of a key."""
    return key >> (_FIELD * nvars)


def _unit(nvars: int, i: int) -> int:
    """The key of L_{i+1}: each power of it adds this to a key."""
    return 1 << (_FIELD * nvars) | 1 << (_FIELD * i)


def _check_degree(key: int, nvars: int) -> None:
    """``RingError`` unless ``key`` has total degree below 2^31.  ``key`` may
    be a sum of keys, such as the sum of the largest keys of two factors,
    which is the largest key of their product."""
    if key >= _DEGREE_LIMIT << (_FIELD * nvars):
        raise RingError("total degree 2^31 or more")


def _guard(nvars: int) -> int:
    """The top bit of every exponent field."""
    return (1 << (_FIELD * nvars)) // _MASK << (_FIELD - 1)


def _mul_int_terms(t1: IntTerms, t2: IntTerms, nvars: int) -> IntTerms:
    """Product of two integer term maps, zero coefficients dropped."""
    _check_degree(max(t1, default=0) + max(t2, default=0), nvars)
    res: IntTerms = {}
    get = res.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = e1 + e2
            res[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in res.items() if c}


def _div_int_terms(num: IntTerms, den: IntTerms, nvars: int) -> IntTerms:
    """The quotient num/den in Z[L]; ``RingError`` unless it exists.

    Long division by the graded-lex leading term of ``den`` on one remainder
    map; it fails at the first leading term of the remainder that the
    leading term of ``den`` does not divide, as a monomial (a guard bit set
    in the difference of the keys) or over Z.  Every term a step adds is
    below the leading term it removes, so the remainder's keys wait negated
    in a min-heap, each pushed when it enters the map; one that has left it
    again is skipped when popped."""
    d_key = max(den)
    d_lc = den[d_key]
    rest = [(e, c) for e, c in den.items() if e != d_key]
    guard = _guard(nvars)
    rem = dict(num)
    heap = [-e for e in rem]
    heapify(heap)
    quo: IntTerms = {}
    while heap:
        r_key = -heappop(heap)
        c = rem.pop(r_key, 0)
        if not c:
            continue
        q_key = r_key - d_key
        q, r = divmod(c, d_lc)
        if r or q_key & guard:
            raise RingError("inexact division of integer polynomials")
        quo[q_key] = q
        for e, c in rest:
            e += q_key
            v = rem.get(e)
            if v is None:
                rem[e] = -q * c
                heappush(heap, -e)
            elif v == q * c:
                del rem[e]
            else:
                rem[e] = v - q * c
    return quo


def _content(terms: IntTerms) -> int:
    """The gcd of the coefficients, 0 for the empty map."""
    g = 0
    for c in terms.values():
        g = int_gcd(g, c)
        if g == 1:
            break
    return g


def _canonical(num: IntTerms, den: int) -> Tuple[IntTerms, int]:
    """num/den, num with nonzero values and den nonzero, as a canonical
    pair: den positive and coprime to the numerators (1 for zero)."""
    if den == 1:
        return num, 1
    if den < 0:
        den = -den
        num = {e: -c for e, c in num.items()}
    g = den
    for c in num.values():
        g = int_gcd(g, c)
        if g == 1:
            return num, den
    return {e: c // g for e, c in num.items()}, den // g


def _numerators(polys: Sequence["PolyQ"]) -> Tuple[List[IntTerms], int]:
    """The coefficients of ``polys`` as integers over one common
    denominator, the lcm of theirs; a map already over it is shared."""
    den = 1
    for p in polys:
        if den % p.den:
            den = lcm(den, p.den)
    return [p.num if p.den == den else {e: c * (den // p.den) for e, c in p.num.items()} for p in polys], den


def _poly(nvars: int, num: IntTerms, den: int = 1) -> "PolyQ":
    """A PolyQ over data that is already canonical.  No check is made."""
    out = PolyQ.__new__(PolyQ)
    out.nvars = nvars
    out.num = num
    out.den = den
    return out


def _make(nvars: int, num: IntTerms, den: int) -> "PolyQ":
    """num/den made canonical; num has no zero value and den is nonzero."""
    return _poly(nvars, *_canonical(num, den))


class PolyQ:
    """Sparse multivariate polynomial over Q with a fixed number of
    variables: integer numerators ``num`` over the denominator ``den``."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple, Scalar]] = None):
        coeffs = []
        den = 1
        if terms:
            for exps, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise RingError(f"exponent tuple {exps} has wrong length for {nvars} variables")
                coeffs.append((_pack(exps), c))
                if den % c.denominator:
                    den = lcm(den, c.denominator)
        num: IntTerms = {}
        for key, c in coeffs:
            num[key] = num.get(key, 0) + c.numerator * (den // c.denominator)
        self.nvars = nvars
        self.num, self.den = _canonical({e: c for e, c in num.items() if c}, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "PolyQ":
        return _poly(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "PolyQ":
        return _poly(nvars, {0: 1})

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "PolyQ":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return _poly(nvars, {})
        return _poly(nvars, {0: c.numerator}, c.denominator)

    @classmethod
    def from_int_terms(cls, nvars: int, terms: IntTerms, den: int = 1) -> "PolyQ":
        """The integer term map divided by ``den``, zero values dropped and
        made canonical, with no other check."""
        return _make(nvars, {e: c for e, c in terms.items() if c}, den)

    @classmethod
    def var(cls, nvars: int, i: int) -> "PolyQ":
        """The variable L_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise RingError(f"variable index {i} out of range for {nvars} variables")
        return _poly(nvars, {_unit(nvars, i): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Dict[tuple, Fraction]:
        """The coefficients as reduced ``Fraction``s, built on each access,
        for readers outside the package."""
        den, nvars = self.den, self.nvars
        return {_unpack(k, nvars): Fraction(c, den) for k, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        return _is_constant(self.num)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return _degree(max(self.num), self.nvars)

    def degree_in(self, i: int) -> int:
        if self.is_zero:
            return -1
        return max(_exponent(k, i) for k in self.num)

    def variables(self) -> tuple:
        """Indices of variables that actually occur."""
        return tuple(sorted(_variables(self.num, self.nvars)))

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise RingError("zero polynomial has no leading term")
        key = max(self.num)
        return _unpack(key, self.nvars), Fraction(self.num[key], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "PolyQ":
        if isinstance(other, PolyQ):
            if other.nvars != self.nvars:
                raise RingError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return PolyQ.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            k1 = k2 = 1
            res = dict(self.num)
        else:
            g = int_gcd(d1, d2)
            k1, k2 = d2 // g, d1 // g
            res = {e: c * k1 for e, c in self.num.items()}
        for e, c in other.num.items():
            c = res.get(e, 0) + c * k2
            if c:
                res[e] = c
            else:
                del res[e]
        return _make(self.nvars, res, d1 * k1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self.nvars, _mul_int_terms(self.num, other.num, self.nvars), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise RingError("negative power of a polynomial")
        # k times the largest key is the largest key of the power when that
        # has degree below 2^31, and has degree 2^31 or more otherwise
        _check_degree(max(self.num, default=0) * k, self.nvars)
        out = PolyQ.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, num: int, den: int = 1) -> "PolyQ":
        """The polynomial times num/den, for integers num and den != 0."""
        if not num:
            return PolyQ.zero(self.nvars)
        return _make(self.nvars, {e: c * num for e, c in self.num.items()}, self.den * den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(self.nvars, other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    def __repr__(self):
        return f"PolyQ({self.to_text()})"

    # -- substitution ------------------------------------------------------

    def subs(self, assignment: Mapping[int, Union[Scalar, "PolyQ"]]) -> "PolyQ":
        """Simultaneously substitute values (rationals or PolyQ) for variable indices.

        A polynomial free of every substituted variable is returned as is.
        Each term is expanded over the numerators of the values; a variable
        whose value has denominator d and occurs to the power e in a term,
        at most top times, multiplies it by d^(top - e) so that all terms
        are over one denominator."""
        nvars = self.nvars
        occurring = 0
        for k in self.num:
            occurring |= k
        top = {}
        for i in assignment:
            if not 0 <= i < nvars:
                raise RingError(f"variable index {i} out of range")
            if _exponent(occurring, i):
                top[i] = max(_exponent(k, i) for k in self.num)
        if not top:
            return self
        values = {i: v if isinstance(v, PolyQ) else PolyQ.const(nvars, v) for i, v in assignment.items() if i in top}
        powers = {i: [{0: 1}] for i in top}
        units = {i: _unit(nvars, i) for i in top}
        res: IntTerms = {}
        for key, c in self.num.items():
            exps = {i: _exponent(key, i) for i in top}
            term = {key - sum(e * units[i] for i, e in exps.items()): c}
            for i, t in top.items():
                e = exps[i]
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(_mul_int_terms(pw[-1], values[i].num, nvars))
                if e:
                    term = _mul_int_terms(term, pw[e], nvars)
                d = values[i].den
                if d != 1 and e < t:
                    term = {x: a * d ** (t - e) for x, a in term.items()}
            for e, a in term.items():
                a += res.get(e, 0)
                if a:
                    res[e] = a
                else:
                    del res[e]
        den = self.den
        for i, t in top.items():
            den *= values[i].den ** t
        return _make(self.nvars, res, den)

    def eval_all(self, point: Iterable[Scalar]) -> Fraction:
        """Evaluate at a full rational point, on integers: each coordinate
        p/q occurring at most top times multiplies a term with p^e q^(top - e)."""
        point = [Fraction(x) for x in point]
        if len(point) != self.nvars:
            raise RingError("point has wrong length")
        if self.is_zero:
            return Fraction(0)
        top = [max(_exponent(k, i) for k in self.num) for i in range(self.nvars)]
        total = 0
        for key, c in self.num.items():
            for x, e, t in zip(point, _unpack(key, self.nvars), top):
                if t:
                    c *= x.numerator ** e * x.denominator ** (t - e)
            total += c
        den = self.den
        for x, t in zip(point, top):
            den *= x.denominator ** t
        return Fraction(total, den)

    # -- normalization -----------------------------------------------------

    def monic(self) -> "PolyQ":
        """Divide by the graded-lex leading coefficient (zero stays zero)."""
        if self.is_zero:
            return self
        lc = self.num[max(self.num)]
        if lc == self.den:
            return self
        return _make(self.nvars, self.num, lc)

    # -- division ----------------------------------------------------------

    def try_divide(self, divisor: "PolyQ") -> Optional["PolyQ"]:
        """Exact multivariate division; None if the division is not exact.

        Scaling for a constant divisor; otherwise ``_div_int_terms`` of the
        numerators by the divisor's primitive part, which divides them in
        Z[L] exactly when the divisor divides in Q[L] (Gauss's lemma), and
        the quotient is scaled back."""
        if divisor.is_zero:
            raise RingError("division by zero polynomial")
        if self.is_zero:
            return PolyQ.zero(self.nvars)
        if divisor.is_constant:
            (c,) = divisor.num.values()
            return self.scale(divisor.den, c)
        content = _content(divisor.num)
        primitive = divisor.num if content == 1 else {e: v // content for e, v in divisor.num.items()}
        try:
            quo = _div_int_terms(self.num, primitive, self.nvars)
        except RingError:
            return None
        return _make(self.nvars, {e: v * divisor.den for e, v in quo.items()}, self.den * content)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        q = self.try_divide(other)
        if q is None:
            raise RingError(f"{other} does not divide {self} exactly")
        return q

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        names = [f"L{i + 1}" for i in range(self.nvars)]
        return self._render(names, "{}^{}", _ratio_text)

    def to_latex(self) -> str:
        names = [f"\\Lambda(H_{i + 1})" for i in range(self.nvars)]
        return self._render(names, "{}^{{{}}}", _ratio_latex)

    def _render(self, names: list, power: str, number) -> str:
        """The signed terms in descending order, each its absolute
        coefficient, numerator and denominator in lowest terms, as
        ``number`` renders them (left out when 1 before factors) and the
        variables from the last one down, a power as
        ``power.format(name, e)``."""
        if self.is_zero:
            return "0"
        den = self.den
        parts = []
        for key in sorted(self.num, reverse=True):
            c = self.num[key]
            factors = []
            for i in range(self.nvars - 1, -1, -1):
                e = _exponent(key, i)
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(power.format(names[i], e))
            a = abs(c)
            if factors and a == den:
                body = " ".join(factors)
            else:
                g = int_gcd(a, den)
                body = number(a // g, den // g)
                if factors:
                    body += " " + " ".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _ratio_text(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _ratio_latex(num: int, den: int) -> str:
    return str(num) if den == 1 else f"\\tfrac{{{num}}}{{{den}}}"


def frac_text(q: Fraction) -> str:
    return _ratio_text(q.numerator, q.denominator)


def frac_latex(q: Fraction) -> str:
    if q < 0 and q.denominator != 1:
        return "-" + _ratio_latex(-q.numerator, q.denominator)
    return _ratio_latex(q.numerator, q.denominator)


# -- gcd and squarefree machinery -------------------------------------------
#
# These work on nonzero integer term maps and give results up to a nonzero
# integer factor, primitive (content 1); the PolyQ functions make them monic.


def _variables(terms: IntTerms, nvars: int) -> set:
    # a field of the bitwise or of the keys is nonzero where some key's is
    occurring = 0
    for k in terms:
        occurring |= k
    return {i for i in range(nvars) if _exponent(occurring, i)}


def _is_constant(terms: IntTerms) -> bool:
    # the constant monomial is the key 0
    return not any(terms)


def _primitive_terms(terms: IntTerms) -> IntTerms:
    g = _content(terms)
    return terms if g == 1 else {e: c // g for e, c in terms.items()}


def _derivative(terms: IntTerms, i: int, nvars: int) -> IntTerms:
    unit = _unit(nvars, i)
    res: IntTerms = {}
    for k, c in terms.items():
        e = _exponent(k, i)
        if e:
            res[k - unit] = c * e
    return res


def _monic(nvars: int, terms: IntTerms) -> PolyQ:
    return _make(nvars, terms, terms[max(terms)])


def _in_x(terms: IntTerms, x: int, nvars: int) -> Dict[int, IntTerms]:
    """The map as a polynomial in variable x: degree -> coefficient, an
    integer map with the x exponent zeroed."""
    unit = _unit(nvars, x)
    out: Dict[int, IntTerms] = {}
    for k, c in terms.items():
        d = _exponent(k, x)
        out.setdefault(d, {})[k - d * unit] = c
    return out


def _from_x(coeffs: Mapping[int, IntTerms], x: int, nvars: int) -> IntTerms:
    unit = _unit(nvars, x)
    return {k + d * unit: c for d, t in coeffs.items() for k, c in t.items()}


def _gcd_chain(g: Optional[IntTerms], polys: Iterable[IntTerms], nvars: int) -> IntTerms:
    """A primitive gcd of g (when given) and the nonzero maps ``polys``,
    folded from the fewest terms up, stopping at the first constant."""
    for p in sorted(polys, key=len):
        g = _primitive_terms(p) if g is None else _gcd_terms(g, p, nvars)
        if _is_constant(g):
            return {0: 1}
    return g


def _content_in(terms: IntTerms, x: int, nvars: int) -> IntTerms:
    """A primitive gcd of the coefficients of the map viewed in x."""
    return _gcd_chain(None, _in_x(terms, x, nvars).values(), nvars)


def _gcd_terms(a: IntTerms, b: IntTerms, nvars: int) -> IntTerms:
    """A primitive gcd in Z[L] of two nonzero integer polynomials.

    The main variable x is the largest one that occurs.  When only one
    argument has it, the gcd divides the other argument and every
    coefficient of that one in x, and the chain starts at the other
    argument.  Otherwise the contents in x split off, their gcd recurses,
    and the primitive parts go through a primitive PRS in x."""
    va, vb = _variables(a, nvars), _variables(b, nvars)
    if not va or not vb:
        return {0: 1}
    x = max(va | vb)
    if x not in va:
        a, b, va, vb = b, a, vb, va
    if x not in vb:
        return _gcd_chain(b, _in_x(a, x, nvars).values(), nvars)
    if len(va) == 1 and len(vb) == 1:
        return _univariate_gcd(a, b, x, nvars)
    ca, cb = _content_in(a, x, nvars), _content_in(b, x, nvars)
    pa = a if _is_constant(ca) else _div_int_terms(a, ca, nvars)
    pb = b if _is_constant(cb) else _div_int_terms(b, cb, nvars)
    g = _from_x(_primitive_prs(_in_x(pa, x, nvars), _in_x(pb, x, nvars), nvars), x, nvars)
    if _is_constant(ca) or _is_constant(cb):
        return g
    return _mul_int_terms(_gcd_terms(ca, cb, nvars), g, nvars)


def _pseudo_rem(a: Dict[int, IntTerms], b: Dict[int, IntTerms], nvars: int) -> Dict[int, IntTerms]:
    """The pseudo-remainder of a by b, both degree -> coefficient maps in
    one variable, up to an integer factor: each step is lb a - la x^k b for
    the leading coefficients lb and la, with the integer content of the
    result divided out."""
    db = max(b)
    lb = b[db]
    rest = [(d, c) for d, c in b.items() if d != db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        out = {d: _mul_int_terms(lb, c, nvars) for d, c in r.items() if d != dr}
        for d, c in rest:
            d += dr - db
            t = out.setdefault(d, {})
            for e, v in _mul_int_terms(lr, c, nvars).items():
                v = t.get(e, 0) - v
                if v:
                    t[e] = v
                else:
                    del t[e]
        r = {d: c for d, c in out.items() if c}
        g = 0
        for c in r.values():
            g = int_gcd(g, _content(c))
            if g == 1:
                break
        if g > 1:
            r = {d: {e: v // g for e, v in c.items()} for d, c in r.items()}
    return r


def _primitive_prs(a: Dict[int, IntTerms], b: Dict[int, IntTerms], nvars: int) -> Dict[int, IntTerms]:
    """The gcd of two polynomials in one variable over Z[other variables],
    each primitive in that variable: the last nonzero term of the primitive
    PRS, made primitive over Z."""
    if max(b) > max(a):
        a, b = b, a
    while b:
        if not max(b):
            return {0: {0: 1}}
        r = _pseudo_rem(a, b, nvars)
        if r:
            content = _gcd_chain(None, r.values(), nvars)
            if not _is_constant(content):
                r = {d: _div_int_terms(c, content, nvars) for d, c in r.items()}
        a, b = b, r
    g = 0
    for c in a.values():
        g = int_gcd(g, _content(c))
    return {d: {e: v // g for e, v in c.items()} for d, c in a.items()}


def _univariate_gcd(a: IntTerms, b: IntTerms, x: int, nvars: int) -> IntTerms:
    """A primitive gcd of two nonzero integer polynomials in x alone, by the
    primitive PRS on dense coefficient lists indexed by degree."""

    def dense(t: IntTerms) -> list:
        out = [0] * (max(_exponent(k, x) for k in t) + 1)
        for k, c in t.items():
            out[_exponent(k, x)] = c
        return out

    def primitive(u: list) -> list:
        g = 0
        for c in u:
            g = int_gcd(g, c)
            if g == 1:
                return u
        return [c // g for c in u]

    u, v = primitive(dense(a)), primitive(dense(b))
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        lc = v[-1]
        dv = len(v) - 1
        while len(u) > dv:
            q = u.pop()
            if q:
                g = int_gcd(lc, q)
                if lc != g:
                    m = lc // g
                    u = [c * m for c in u]
                q //= g
                shift = len(u) - dv
                for k in range(dv):
                    u[shift + k] -= q * v[k]
            while u and not u[-1]:
                u.pop()
        if not u:
            break
        u, v = v, primitive(u)
    if len(v) == 1:
        v = [1]
    unit = _unit(nvars, x)
    return {d * unit: c for d, c in enumerate(v) if c}


def content_in(p: PolyQ, x: int) -> PolyQ:
    """gcd of the Q[rest]-coefficients of p viewed in the variable x, monic."""
    return _monic(p.nvars, _content_in(p.num, x, p.nvars))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """gcd up to unit, normalized monic under graded-lex.

    ``_gcd_terms`` on the numerators: a primitive gcd over Z[L] is a gcd
    over Q[L]."""
    if a.nvars != b.nvars:
        raise RingError("mixed variable counts")
    if a.is_zero and b.is_zero:
        raise RingError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant or b.is_constant:
        return PolyQ.one(a.nvars)
    return _monic(a.nvars, _gcd_terms(a.num, b.num, a.nvars))


def squarefree_part(p: PolyQ) -> PolyQ:
    """Product of the distinct irreducible factors of p, monic.  A
    polynomial of degree 1 is its own."""
    if p.is_zero:
        raise RingError("squarefree part of zero")
    if p.is_constant:
        return PolyQ.one(p.nvars)
    if p.total_degree() == 1:
        return p.monic()
    return _monic(p.nvars, _squarefree_terms(p.num, p.nvars))


def _squarefree_terms(terms: IntTerms, nvars: int) -> IntTerms:
    """The squarefree part of a nonconstant integer polynomial, primitive:
    in the largest variable x, the primitive part q over the content c
    divided by gcd(q, dq/dx), times the squarefree part of c."""
    x = max(_variables(terms, nvars))
    c = _content_in(terms, x, nvars)
    q = _primitive_terms(terms if _is_constant(c) else _div_int_terms(terms, c, nvars))
    g = _gcd_terms(q, _derivative(q, x, nvars), nvars)
    sf = q if _is_constant(g) else _div_int_terms(q, g, nvars)
    if _is_constant(c):
        return sf
    return _mul_int_terms(_squarefree_terms(c, nvars), sf, nvars)


def rational_roots(p: PolyQ) -> list:
    """All rational roots (with multiplicity collapsed) of a univariate PolyQ.

    Candidates are ±s/t for s dividing the lowest and t the leading
    coefficient of the numerators, tested on integers."""
    vs = p.variables()
    if len(vs) != 1:
        raise RingError("rational_roots needs a univariate polynomial")
    x = vs[0]
    coeffs = {_exponent(k, x): c for k, c in p.num.items()}
    deg = max(coeffs)
    low = min(coeffs)
    roots = [Fraction(0)] if low > 0 else []

    def divisors(m: int) -> list:
        m = abs(m)
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                out.append(m // d)
            d += 1
        return sorted(set(out))

    for s in divisors(coeffs[low]):
        for t in divisors(coeffs[deg]):
            for cand in (Fraction(s, t), Fraction(-s, t)):
                n, d = cand.numerator, cand.denominator
                if cand not in roots and not sum(c * n ** k * d ** (deg - k) for k, c in coeffs.items()):
                    roots.append(cand)
    return sorted(roots)


def poly_sort_key(p: PolyQ) -> tuple:
    """Total order on polynomials for canonical listings: the total degree,
    then the terms in ascending order of their exponent tuples (the first
    variable most significant, not the key order) with their rational
    coefficients."""
    den, nvars = p.den, p.nvars
    terms = sorted((_unpack(k, nvars), c if den == 1 else Fraction(c, den)) for k, c in p.num.items())
    return (p.total_degree(), tuple(terms))


class RatFuncQ:
    """A printed quotient num/den of polynomials, stored reduced with a monic
    denominator.

    The solver keeps polynomial vectors throughout and forms these only for
    the coordinates a report prints, each one divided by the vector's last
    nonzero coordinate; parsing a printed coordinate gives one back.  There
    is no field arithmetic: compute with ``num`` and ``den``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: Optional[PolyQ] = None):
        if den is None:
            den = PolyQ.one(num.nvars)
        if den.is_zero:
            raise RingError("zero denominator")
        if num.is_zero:
            den = PolyQ.one(num.nvars)
        else:
            if not den.is_constant and not num.is_constant:
                # g is primitive, so each quotient over the old
                # denominator is canonical
                nvars = num.nvars
                g = _gcd_terms(num.num, den.num, nvars)
                if not _is_constant(g):
                    num = _poly(nvars, _div_int_terms(num.num, g, nvars), num.den)
                    den = _poly(nvars, _div_int_terms(den.num, g, nvars), den.den)
            lc = den.num[max(den.num)]
            if lc != den.den:
                num = num.scale(den.den, lc)
                den = den.monic()
        self.num = num
        self.den = den

    def is_polynomial(self) -> bool:
        # den is monic, so a constant den is 1
        return self.den.is_constant

    def as_poly(self) -> PolyQ:
        if not self.is_polynomial():
            raise RingError(f"{self} is not polynomial")
        return self.num

    def __eq__(self, other):
        if not isinstance(other, RatFuncQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RatFuncQ({self.to_text()})"

    def eval_all(self, point: Iterable[Scalar]) -> Fraction:
        point = list(point)
        d = self.den.eval_all(point)
        if d == 0:
            raise RingError("denominator vanishes at evaluation point")
        return self.num.eval_all(point) / d

    def to_text(self) -> str:
        if self.is_polynomial():
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"
