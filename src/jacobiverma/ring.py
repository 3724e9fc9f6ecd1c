"""Exact coefficient arithmetic: multivariate polynomials over Q.

Polynomials live in Q[L1, ..., Ln] where Li stands for the formal lowest-weight
value on the i-th Cartan generator.  Terms are stored sparsely as a map from
exponent tuples to ``fractions.Fraction``.  The monomial order used throughout
(leading terms, canonical rendering) is graded lexicographic with the *last*
variable most significant, so that e.g. ``L2 - L1`` is monic and prints with
``L2`` first.

Rational numbers are plain ``fractions.Fraction``; the stdlib type already
maintains the reduced-form invariants we need.  The fraction-free loops (the
module action in ``verma``, the solver's elimination and back-substitution,
and the lift) work on integer term maps instead, exponent tuple to int, and
share one product, ``_mul_int_terms``, and one exact division,
``_div_int_terms``; ``_numerators`` and ``PolyQ.from_int_terms`` convert at
their boundaries.  ``PolyQ`` arithmetic runs on the same two: a product
brings each factor to integer numerators over one denominator and makes each
term of the result one reduced ``Fraction``, and ``PolyQ.try_divide`` divides
the numerators by the primitive part of the divisor, which by Gauss's lemma
is exact in Z[L] whenever the division is exact in Q[L].  ``RatFuncQ`` is
not a field of fractions: it is the reduced quotient num/den that a report
prints as a kernel coordinate, with no arithmetic of its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


class RingError(ValueError):
    pass


def _monomial_key(exps: tuple) -> tuple:
    # graded lex, later variables more significant
    return (sum(exps), tuple(reversed(exps)))


def _mul_terms(t1: dict, t2: dict) -> dict:
    """Product of two term maps, zero coefficients dropped.

    The coefficients are brought to integer numerators over one
    denominator per factor, the products of numerators are summed as
    integers, and each result term becomes one reduced ``Fraction``."""
    (n1,), d1 = _int_terms([t1])
    (n2,), d2 = _int_terms([t2])
    return _fraction_terms(_mul_int_terms(n1, n2), d1 * d2)


# Integer term map: exponent tuple -> nonzero int, a polynomial's
# numerators over a denominator its user keeps.
IntTerms = Dict[tuple, int]


def _mul_int_terms(t1: IntTerms, t2: IntTerms) -> IntTerms:
    """Product of two integer term maps, zero coefficients dropped."""
    res: IntTerms = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            res[e] = res.get(e, 0) + c1 * c2
    return {e: c for e, c in res.items() if c}


def _div_int_terms(num: IntTerms, den: IntTerms) -> IntTerms:
    """The quotient num/den in Z[L]; ``RingError`` unless it exists.

    Long division by the graded-lex leading term of ``den`` on one remainder
    map; it fails at the first leading term of the remainder that the
    leading term of ``den`` does not divide, as a monomial or over Z."""
    d_exps = max(den, key=_monomial_key)
    d_lc = den[d_exps]
    rest = [(e, c) for e, c in den.items() if e != d_exps]
    rem = dict(num)
    quo: IntTerms = {}
    while rem:
        r_exps = max(rem, key=_monomial_key)
        q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        q, r = divmod(rem.pop(r_exps), d_lc)
        if r or min(q_exps) < 0:
            raise RingError("inexact division of integer polynomials")
        quo[q_exps] = q
        for e, c in rest:
            e = tuple(map(add, q_exps, e))
            v = rem.get(e, 0) - q * c
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return quo


def _int_terms(term_maps: Sequence[dict]) -> Tuple[List[IntTerms], int]:
    """``Fraction`` term maps as integer numerators over one common
    denominator."""
    den = 1
    for t in term_maps:
        for c in t.values():
            d = c.denominator
            if den % d:
                den = lcm(den, d)
    return [{e: c.numerator * (den // c.denominator) for e, c in t.items()} for t in term_maps], den


def _fraction_terms(terms: IntTerms, den: int) -> dict:
    """The integer term map divided by ``den``: one reduced ``Fraction`` per
    nonzero coefficient."""
    if den == 1:
        return {e: Fraction(c) for e, c in terms.items() if c}
    return {e: Fraction(c, den) for e, c in terms.items() if c}


def _numerators(polys: Sequence["PolyQ"]) -> Tuple[List[IntTerms], int]:
    """The coefficients of ``polys`` as integers over one common denominator."""
    return _int_terms([p.terms for p in polys])


def _poly(nvars: int, terms: dict) -> "PolyQ":
    """A PolyQ over a term map that is already clean: exponent tuples of
    length ``nvars`` to nonzero ``Fraction``s.  No check is made."""
    out = PolyQ.__new__(PolyQ)
    out.nvars = nvars
    out.terms = terms
    return out


class PolyQ:
    """Sparse multivariate polynomial over Q with a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple, Scalar]] = None):
        self.nvars = nvars
        clean: dict = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise RingError(f"exponent tuple {exps} has wrong length for {nvars} variables")
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "PolyQ":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "PolyQ":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "PolyQ":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def from_int_terms(cls, nvars: int, terms: IntTerms, den: int = 1) -> "PolyQ":
        """The integer term map divided by ``den``: one reduced ``Fraction``
        per nonzero coefficient, with no other check."""
        return _poly(nvars, _fraction_terms(terms, den))

    @classmethod
    def var(cls, nvars: int, i: int) -> "PolyQ":
        """The variable L_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise RingError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise RingError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, i: int) -> int:
        if self.is_zero:
            return -1
        return max(exps[i] for exps in self.terms)

    def variables(self) -> tuple:
        """Indices of variables that actually occur."""
        seen = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    seen.add(i)
        return tuple(sorted(seen))

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise RingError("zero polynomial has no leading term")
        exps = max(self.terms, key=_monomial_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: _monomial_key(t[0]), reverse=True)

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
        res = dict(self.terms)
        for exps, c in other.terms.items():
            prev = res.get(exps)
            if prev is None:
                res[exps] = c
            else:
                c += prev
                if c:
                    res[exps] = c
                else:
                    del res[exps]
        return _poly(self.nvars, res)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise RingError("negative power of a polynomial")
        out = PolyQ.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(self.nvars, other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"PolyQ({self.to_text()})"

    # -- substitution ------------------------------------------------------

    def subs(self, assignment: Mapping[int, Union[Scalar, "PolyQ"]]) -> "PolyQ":
        """Simultaneously substitute values (rationals or PolyQ) for variable indices.

        A polynomial free of every substituted variable is returned as is."""
        values = {}
        for i, v in assignment.items():
            if not 0 <= i < self.nvars:
                raise RingError(f"variable index {i} out of range")
            values[i] = v if isinstance(v, PolyQ) else PolyQ.const(self.nvars, v)
        if not any(exps[i] for exps in self.terms for i in values):
            return self
        powers: dict = {}
        res: dict = {}
        for exps, c in self.terms.items():
            term = {tuple(0 if i in values else e for i, e in enumerate(exps)): c}
            for i, e in enumerate(exps):
                if e and i in values:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = (values[i] ** e).terms
                    term = _mul_terms(term, pw)
            for e, v in term.items():
                v += res.get(e, 0)
                if v:
                    res[e] = v
                else:
                    res.pop(e, None)
        return _poly(self.nvars, res)

    def eval_all(self, point: Iterable[Scalar]) -> Fraction:
        """Evaluate at a full rational point."""
        point = list(point)
        if len(point) != self.nvars:
            raise RingError("point has wrong length")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def derivative(self, i: int) -> "PolyQ":
        res: dict = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            de = list(exps)
            de[i] = e - 1
            res[tuple(de)] = c * e
        return PolyQ(self.nvars, res)

    # -- normalization -----------------------------------------------------

    def monic(self) -> "PolyQ":
        """Divide by the graded-lex leading coefficient (zero stays zero)."""
        if self.is_zero:
            return self
        _, lc = self.leading()
        if lc == 1:
            return self
        return _poly(self.nvars, {e: c / lc for e, c in self.terms.items()})

    def rational_content(self) -> Fraction:
        """gcd of the coefficients, signed like the leading coefficient."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, abs(c.numerator))
            den = den * c.denominator // int_gcd(den, c.denominator)
        content = Fraction(num, den)
        _, lc = self.leading()
        return content if lc > 0 else -content

    # -- division ----------------------------------------------------------

    def try_divide(self, divisor: "PolyQ") -> Optional["PolyQ"]:
        """Exact multivariate division; None if the division is not exact.

        Scaling for a constant divisor; otherwise ``_div_int_terms`` of the
        integer numerators by the divisor's primitive part, which divides
        them in Z[L] exactly when the divisor divides in Q[L] (Gauss's
        lemma), and the quotient is scaled back."""
        if divisor.is_zero:
            raise RingError("division by zero polynomial")
        if self.is_zero:
            return PolyQ.zero(self.nvars)
        if divisor.is_constant:
            c = divisor.constant_value()
            return PolyQ(self.nvars, {e: v / c for e, v in self.terms.items()})
        (num,), num_den = _int_terms([self.terms])
        (div,), div_den = _int_terms([divisor.terms])
        content = int_gcd(*div.values())
        try:
            quo = _div_int_terms(num, {e: v // content for e, v in div.items()})
        except RingError:
            return None
        return PolyQ.from_int_terms(self.nvars, {e: v * div_den for e, v in quo.items()}, num_den * content)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        q = self.try_divide(other)
        if q is None:
            raise RingError(f"{other} does not divide {self} exactly")
        return q

    # -- rendering ---------------------------------------------------------

    def to_text(self, varnames: Optional[list] = None) -> str:
        if varnames is None:
            varnames = [f"L{i + 1}" for i in range(self.nvars)]
        return self._render(varnames, "{}^{}", frac_text)

    def to_latex(self) -> str:
        names = [f"\\Lambda(H_{i + 1})" for i in range(self.nvars)]
        return self._render(names, "{}^{{{}}}", frac_latex)

    def _render(self, names: list, power: str, number) -> str:
        """The signed terms in descending order, each its absolute
        coefficient as ``number`` renders it (left out when 1 before
        factors) and the variables from the last one down, a power as
        ``power.format(name, e)``."""
        if self.is_zero:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for i in range(self.nvars - 1, -1, -1):
                e = exps[i]
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(power.format(names[i], e))
            if not factors:
                body = number(abs(c))
            elif abs(c) == 1:
                body = " ".join(factors)
            else:
                body = number(abs(c)) + " " + " ".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


# -- gcd and squarefree machinery -------------------------------------------


def _coeffs_in(p: PolyQ, x: int) -> dict:
    """View p as a univariate polynomial in variable x: degree -> PolyQ coefficient."""
    out: dict = {}
    for exps, c in p.terms.items():
        out.setdefault(exps[x], {})[exps[:x] + (0,) + exps[x + 1:]] = c
    return {e: _poly(p.nvars, t) for e, t in out.items()}


def content_in(p: PolyQ, x: int) -> PolyQ:
    """gcd of the Q[rest]-coefficients of p viewed in the variable x."""
    coeffs = list(_coeffs_in(p, x).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.is_constant:
            break
    return g.monic()


def _pseudo_rem(a: PolyQ, b: PolyQ, x: int) -> PolyQ:
    """Pseudo-remainder of a by b, both viewed as univariate in x.

    The result is only needed up to units, so the rational content is
    stripped after every reduction step to keep coefficients small.
    """
    db = b.degree_in(x)
    cb = _coeffs_in(b, x)
    lb = cb[db]
    r = a
    while not r.is_zero and r.degree_in(x) >= db:
        dr = r.degree_in(x)
        cr = _coeffs_in(r, x)
        lr = cr[dr]
        shift = PolyQ.var(a.nvars, x) ** (dr - db)
        r = lb * r - lr * shift * b
        if not r.is_zero:
            c = r.rational_content()
            if c != 1:
                r = PolyQ(r.nvars, {e: v / c for e, v in r.terms.items()})
    return r


def _euclid_gcd_univariate(a: PolyQ, b: PolyQ, x: int) -> PolyQ:
    """Monic Euclidean algorithm for univariate polynomials over Q, b nonzero.

    Runs on dense coefficient lists indexed by degree in x, with no
    trailing zero, and builds one PolyQ from the last divisor, which is
    monic, at the end."""

    def dense(p: PolyQ) -> list:
        out = [Fraction(0)] * (p.degree_in(x) + 1)
        for exps, c in p.terms.items():
            out[exps[x]] = c
        return out

    u, v = dense(a), dense(b)
    while v:
        lc = v[-1]
        v = [c / lc for c in v]
        dv = len(v) - 1
        while len(u) > dv:
            q = u.pop()
            if q:
                shift = len(u) - dv
                for k in range(dv):
                    u[shift + k] -= q * v[k]
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    terms = {}
    for d, c in enumerate(u):
        if c:
            exps = [0] * a.nvars
            exps[x] = d
            terms[tuple(exps)] = c
    return _poly(a.nvars, terms)


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """gcd up to unit, normalized monic under graded-lex.

    Recursive primitive-PRS algorithm; exact over Q for any degree, tuned for
    the low-degree constraint polynomials arising here.
    """
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
    avars, bvars = a.variables(), b.variables()
    x = max(max(avars), max(bvars))
    if x not in avars or x not in bvars:
        # x occurs in only one argument: gcd divides the other's x-content
        if x in avars:
            a, b = b, a
        return poly_gcd(a, content_in(b, x))
    if len(avars) == 1 and len(bvars) == 1:
        return _euclid_gcd_univariate(a, b, x)
    ca, cb = content_in(a, x), content_in(b, x)
    pa, pb = a // ca, b // cb
    cg = poly_gcd(ca, cb) if not (ca.is_constant and cb.is_constant) else PolyQ.one(a.nvars)
    if pb.degree_in(x) > pa.degree_in(x):
        pa, pb = pb, pa
    while not pb.is_zero:
        r = _pseudo_rem(pa, pb, x)
        if r.is_zero:
            pa, pb = pb, r
        else:
            pa, pb = pb, (r // content_in(r, x)).monic()
    if pa.degree_in(x) == 0:
        return cg.monic()
    return (cg * (pa // content_in(pa, x))).monic()


def squarefree_part(p: PolyQ) -> PolyQ:
    """Product of the distinct irreducible factors of p, monic."""
    if p.is_zero:
        raise RingError("squarefree part of zero")
    if p.is_constant:
        return PolyQ.one(p.nvars)
    x = max(p.variables())
    c = content_in(p, x)
    q = p // c
    g = poly_gcd(q, q.derivative(x))
    sf = q // g
    if c.is_constant:
        return sf.monic()
    return (squarefree_part(c) * sf).monic()


def rational_roots(p: PolyQ) -> list:
    """All rational roots (with multiplicity collapsed) of a univariate PolyQ."""
    vs = p.variables()
    if len(vs) != 1:
        raise RingError("rational_roots needs a univariate polynomial")
    x = vs[0]
    coeffs = _coeffs_in(p, x)
    deg = max(coeffs)
    ints = {}
    den = 1
    for e, c in coeffs.items():
        q = c.constant_value()
        den = den * q.denominator // int_gcd(den, q.denominator)
    for e, c in coeffs.items():
        ints[e] = int(c.constant_value() * den)
    roots = []
    # factor out x^k first
    low = min(ints)
    if low > 0:
        roots.append(Fraction(0))
    c0 = ints[low]
    cd = ints[deg]
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
    for pnum in divisors(c0):
        for qden in divisors(cd):
            for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                if cand not in roots and p.eval_all(_unit_point(p.nvars, x, cand)) == 0:
                    roots.append(cand)
    return sorted(roots)


def _unit_point(nvars: int, x: int, value: Fraction) -> list:
    pt = [Fraction(0)] * nvars
    pt[x] = value
    return pt


def poly_sort_key(p: PolyQ) -> tuple:
    """Total order on polynomials for canonical listings."""
    return (p.total_degree(), tuple(sorted(p.terms.items())))


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
                g = poly_gcd(num, den)
                if not g.is_constant:
                    num, den = num // g, den // g
            _, lc = den.leading()
            if lc != 1:
                num = num * PolyQ.const(num.nvars, Fraction(1) / lc)
                den = den.monic()
        self.num = num
        self.den = den

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den == PolyQ.one(self.nvars)

    def as_poly(self) -> PolyQ:
        if not self.is_polynomial():
            raise RingError(f"{self} is not polynomial")
        return self.num

    def __eq__(self, other):
        if not isinstance(other, RatFuncQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"RatFuncQ({self.to_text()})"

    def eval_all(self, point: Iterable[Scalar]) -> Fraction:
        point = list(point)
        d = self.den.eval_all(point)
        if d == 0:
            raise RingError("denominator vanishes at evaluation point")
        return self.num.eval_all(point) / d

    def to_text(self, varnames: Optional[list] = None) -> str:
        if self.is_polynomial():
            return self.num.to_text(varnames)
        return f"({self.num.to_text(varnames)}) / ({self.den.to_text(varnames)})"

    def to_latex(self) -> str:
        if self.is_polynomial():
            return self.num.to_latex()
        return f"\\frac{{{self.num.to_latex()}}}{{{self.den.to_latex()}}}"
