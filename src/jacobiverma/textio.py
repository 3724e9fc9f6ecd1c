"""Parsing and rendering of generators, monomials, weights, polynomials, vectors.

Text grammar (round-trips exactly):

* generators: ``a+[i]``, ``a-[i]``, ``K+[i,j]``, ``K-[i,j]``, ``K0[i,j]``;
  compact forms ``a+1``; ``K+[2,1]`` is ``K+[1,2]`` (K+ and K- are
  symmetric, K0 is not); for n = 2 also the short names ``b+1``, ``b+2``,
  ``c+``, ``d+``, ``h1`` and their minus mirrors.
* monomials/words: factors by juxtaposition with ``^`` powers,
  e.g. ``b+2 (d+)^2`` or ``(a+2)^2 (d+)^2``.
* polynomials: ``L1``, ``L2``, ... with ``+ - * ^`` and rational constants;
  juxtaposition multiplies, e.g. ``2 L2^2 - 4 L2 L1``.
* weights: rational vectors ``2,0`` / ``3/2,0`` or symbolic ``2d1``,
  ``d1+d2``, ``d1 - d2``, ``3d2``; every term after the first needs its
  sign, so ``d1d2`` is rejected.
* vectors: sum of terms ``[coefficient] monomial`` where a non-numeric
  coefficient is parenthesized, e.g. ``(a+2)^2 - 2 b+2`` or
  ``(2 L1 - 3/2) a+1 a+2``.

Rendering uses short names automatically when n = 2 (the notation of the
worked cases); LaTeX output uses the K notation by default and short names
on request.  Every spelling and name of a generator is in one table per n
(``_NameTable``); short names exist for n = 2 only.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .algebra import K_ZERO, Generator, JacobiAlgebra, Weight
from .pbw import PbwMonomial, UElement
from .ring import PolyQ, frac_latex, frac_text
from .singular import display_factor_order
from .verma import ConstraintSet, VermaVector, apply_word_to_v0


class ParseError(ValueError):
    """Malformed input; the message names the offending token."""


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<gen>a[+-]\[\d+\]|K[0+\-]\[\d+,\d+\]|a[+-]\d+|b[+-]\d+|c[+-]|d[+-]|h\d+)
  | (?P<lvar>L\d+)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<op>[+\-*^()=])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(s: str) -> List[Tuple[str, str]]:
    out = []
    for m in _TOKEN_RE.finditer(s):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in {s!r}")
        out.append((kind, m.group()))
    return out


class _Tokens:
    def __init__(self, s: str):
        self.items = _tokenize(s)
        self.pos = 0
        self.src = s

    def peek(self, ahead: int = 0) -> Optional[Tuple[str, str]]:
        k = self.pos + ahead
        return self.items[k] if k < len(self.items) else None

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.src!r}")
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r} but found {tok[1]!r} in {self.src!r}")

    def done(self) -> bool:
        return self.pos >= len(self.items)


# -- generators --------------------------------------------------------------

# The short names of the worked cases, defined for n = 2 only: (text, LaTeX)
# by long name.  a+ and a- keep their compact text and their LaTeX names.
_SHORT_NAMES = {
    "K+[1,1]": ("b+1", "b^+_1"),
    "K+[2,2]": ("b+2", "b^+_2"),
    "K+[1,2]": ("c+", "c^+"),
    "K-[1,1]": ("b-1", "b^-_1"),
    "K-[2,2]": ("b-2", "b^-_2"),
    "K-[1,2]": ("c-", "c^-"),
    "K0[1,2]": ("d+", "d^+"),
    "K0[2,1]": ("d-", "d^-"),
    "K0[1,1]": ("h1", "h_1"),
    "K0[2,2]": ("h2", "h_2"),
}


class _NameTable:
    """The basis of g_n; ``index`` maps every accepted spelling (the long
    name, ``a+i``, K+/K- with swapped indices, the short name) to a basis
    index, and four lists in basis order hold each element's text, short
    text, LaTeX and short LaTeX names, the short ones differing for n = 2
    only."""

    def __init__(self, n: int):
        self.basis = JacobiAlgebra(n).generators
        self.index = {}
        self.text, self.short_text, self.latex, self.short_latex = [], [], [], []
        for k, g in enumerate(self.basis):
            text, sign = str(g), g.family[1]
            if g.j:
                latex = f"K^{sign}_{{{g.i}{g.j}}}"
                alias = text if g.family == K_ZERO else f"{g.family}[{g.j},{g.i}]"
            else:
                latex = f"a^{sign}_{g.i}"
                alias = f"{g.family}{g.i}"
            # at n = 2 only a+ and a- miss _SHORT_NAMES
            short, short_latex = _SHORT_NAMES.get(text, (alias, latex)) if n == 2 else (text, latex)
            for spelling in (text, alias, short):
                self.index[spelling] = k
            self.text.append(text)
            self.short_text.append(short)
            self.latex.append(latex)
            self.short_latex.append(short_latex)

    def names(self, short: Optional[bool], latex: bool) -> List[str]:
        """Text names are short unless ``short`` is False, LaTeX names only
        when it is True."""
        if latex:
            return self.short_latex if short else self.latex
        return self.text if short is False else self.short_text

    def lookup(self, spelling: str) -> Optional[int]:
        """The basis index of a spelling; indices may have leading zeros."""
        k = self.index.get(spelling)
        if k is None:
            k = self.index.get(re.sub(r"\d+", lambda m: str(int(m.group())), spelling))
        return k


@functools.lru_cache(maxsize=None)
def _name_table(n: int) -> _NameTable:
    return _NameTable(n)


def _generator(text: str, n: int) -> Generator:
    table = _name_table(n)
    k = table.lookup(text)
    if k is None:
        short = any(text == name for name, _ in _SHORT_NAMES.values())
        hint = "; short names are for n = 2 only" if short else ""
        raise ParseError(f"{text!r} is not a generator of g_{n}{hint}")
    return table.basis[k]


def parse_generator(s: str, n: int) -> Generator:
    toks = _Tokens(s)
    kind, text = toks.next()
    if kind != "gen":
        raise ParseError(f"expected a generator, found {text!r}")
    if not toks.done():
        raise ParseError(f"trailing input after generator in {s!r}")
    return _generator(text, n)


def render_generator(g: Generator, n: int, short: Optional[bool] = None) -> str:
    """The text name of a basis element of g_n; short by default for n = 2."""
    table = _name_table(n)
    return table.names(short, False)[table.index[str(g)]]


def infer_dimension(*strings: str) -> int:
    """The smallest n whose generators and L variables cover the strings:
    the largest index mentioned, and at least 2 for a generator with no
    spelling in g_1 (a short name).  Characters outside the grammar are
    skipped, for the parser to report."""
    n = 1
    for s in strings:
        for m in _TOKEN_RE.finditer(s):
            if m.lastgroup in ("gen", "lvar"):
                n = max([n, *map(int, re.findall(r"\d+", m.group()))])
            if m.lastgroup == "gen" and n < 2 and _name_table(1).lookup(m.group()) is None:
                n = 2
    return n


# -- monomials and words -------------------------------------------------------


def parse_word(s: str, n: int) -> List[Generator]:
    """A juxtaposition of generator powers, expanded to a flat word."""
    toks = _Tokens(s)
    word = _parse_word_tokens(toks, n)
    if not toks.done():
        raise ParseError(f"trailing input after word in {s!r}")
    if not word:
        raise ParseError(f"empty word in {s!r}")
    return word


def _starts_word(toks: _Tokens) -> bool:
    """Whether a generator, bare or parenthesized, comes next."""
    tok = toks.peek()
    if tok is not None and tok[1] == "(":
        tok = toks.peek(1)
    return tok is not None and tok[0] == "gen"


def _parse_word_tokens(toks: _Tokens, n: int) -> List[Generator]:
    word: List[Generator] = []
    while _starts_word(toks):
        kind, text = toks.next()
        if kind == "gen":
            g = _generator(text, n)
        else:
            g = _generator(toks.next()[1], n)
            toks.expect(")")
        word.extend([g] * _maybe_power(toks))
    return word


def _maybe_power(toks: _Tokens) -> int:
    tok = toks.peek()
    if tok is not None and tok[1] == "^":
        toks.next()
        kind, text = toks.next()
        if kind != "num" or "/" in text:
            raise ParseError(f"expected integer exponent, found {text!r}")
        e = int(text)
        if e < 0:
            raise ParseError("negative exponent")
        return e
    return 1


def render_monomial(
    alg: JacobiAlgebra,
    m: PbwMonomial,
    short: Optional[bool] = None,
    latex: bool = False,
    order: Optional[List[int]] = None,
) -> str:
    """Factors in display order (K+, a+, raising K0, Cartan, mirrored blocks).

    ``order`` is ``display_factor_order(alg)``, passed in by callers that
    render many monomials so that it is built once."""
    if m.is_unit:
        return "1"
    names = _name_table(alg.n).names(short, latex)
    power = "({})^{{{}}}" if latex else "({})^{}"
    parts = []
    for idx in order or display_factor_order(alg):
        e = m.exps[idx]
        if e:
            parts.append(names[idx] if e == 1 else power.format(names[idx], e))
    return " ".join(parts)


# -- weights -------------------------------------------------------------------

# one term of a symbolic weight: its sign, which every term but the first
# needs, may have spaces around it
_SYMBOLIC_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*d(\d+)")


def parse_weight(s: str, n: int) -> Weight:
    s = s.strip()
    if not s:
        raise ParseError("empty weight string")
    if "," in s:
        parts = s.split(",")
        if len(parts) != n:
            raise ParseError(f"weight {s!r} has {len(parts)} coordinates, expected {n}")
        try:
            return Weight(tuple(Fraction(p.strip()) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational in weight {s!r}: {exc}") from None
    if "d" in s:
        coords = [Fraction(0)] * n
        pos = 0
        while pos < len(s):
            m = _SYMBOLIC_TERM_RE.match(s, pos)
            if m is None or (pos and not m.group(1)):
                raise ParseError(f"cannot read weight term at {s[pos:]!r}")
            sign = -1 if m.group(1) == "-" else 1
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            idx = int(m.group(3))
            if not 1 <= idx <= n:
                raise ParseError(f"weight index d{idx} out of range for n = {n}")
            coords[idx - 1] += sign * coeff
            pos = m.end()
        return Weight(tuple(coords))
    try:
        return Weight(tuple([Fraction(s)] + [Fraction(0)] * (n - 1)))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot read weight {s!r}") from None


def render_weight(w: Weight) -> str:
    return ",".join(frac_text(c) for c in w.coords)


# -- polynomials -----------------------------------------------------------------


def parse_poly(s: str, nvars: int) -> PolyQ:
    toks = _Tokens(s)
    p = _parse_poly_expr(toks, nvars)
    if not toks.done():
        raise ParseError(f"trailing input {toks.peek()[1]!r} in polynomial {s!r}")
    return p


def _parse_poly_expr(toks: _Tokens, nvars: int) -> PolyQ:
    sign = 1
    tok = toks.peek()
    if tok is not None and tok[1] in "+-":
        toks.next()
        sign = -1 if tok[1] == "-" else 1
    acc = _parse_product(toks, nvars) * sign
    while True:
        tok = toks.peek()
        if tok is None or tok[1] not in "+-":
            break
        toks.next()
        term = _parse_product(toks, nvars)
        acc = acc + (term if tok[1] == "+" else -term)
    return acc


def _starts_factor(toks: _Tokens, before_word: bool) -> bool:
    tok = toks.peek()
    if tok is None:
        return False
    if tok[1] == "(":
        return not (before_word and _starts_word(toks))
    return tok[0] in ("num", "lvar")


def _parse_product(toks: _Tokens, nvars: int, before_word: bool = False) -> PolyQ:
    """One or more factors, juxtaposed or joined by ``*``, which needs a
    factor on both sides.  With ``before_word`` the product is the
    coefficient of a vector term: a generator, bare or parenthesized, ends
    it and may follow a ``*``."""
    out = _parse_poly_factor(toks, nvars)
    while True:
        tok = toks.peek()
        star = tok is not None and tok[1] == "*"
        if star:
            toks.next()
        # a '*' with no factor after it makes _parse_poly_factor raise
        if _starts_factor(toks, before_word) or (star and not (before_word and _starts_word(toks))):
            out = out * _parse_poly_factor(toks, nvars)
        else:
            return out


def _parse_poly_factor(toks: _Tokens, nvars: int) -> PolyQ:
    kind, text = toks.next()
    if kind == "num":
        try:
            base = PolyQ.const(nvars, Fraction(text))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}") from None
    elif kind == "lvar":
        idx = int(text[1:])
        if not 1 <= idx <= nvars:
            raise ParseError(f"variable {text!r} out of range for n = {nvars}")
        base = PolyQ.var(nvars, idx - 1)
    elif text == "(":
        base = _parse_poly_expr(toks, nvars)
        toks.expect(")")
    else:
        raise ParseError(f"expected a number, an L variable or '(', found {text!r}")
    e = _maybe_power(toks)
    return base if e == 1 else base ** e


# -- vectors ---------------------------------------------------------------------


def parse_vector(s: str, alg: JacobiAlgebra) -> VermaVector:
    """Sum of terms applied to v0, each a coefficient (the factors of
    ``parse_poly``), a word (need not be ordered) or both."""
    toks = _Tokens(s)
    if toks.done():
        raise ParseError(f"empty vector expression {s!r}")
    total = VermaVector(alg.n)
    while not toks.done():
        sign, tok = 1, toks.peek()
        if tok[1] in "+-":
            toks.next()
            sign = -1 if tok[1] == "-" else 1
        elif toks.pos:
            raise ParseError(f"expected '+' or '-' before {tok[1]!r}")
        has_coeff = _starts_factor(toks, before_word=True)
        coeff = _parse_product(toks, alg.n, before_word=True) if has_coeff else PolyQ.one(alg.n)
        word = _parse_word_tokens(toks, alg.n)
        if not (has_coeff or word):
            found = repr(toks.peek()[1]) if toks.peek() else "end of input"
            raise ParseError(f"expected a coefficient or a word, found {found} in {s!r}")
        total = total + apply_word_to_v0(alg, word, coeff * sign)
    return total


def render_vector(
    alg: JacobiAlgebra,
    v: Union[VermaVector, UElement],
    short: Optional[bool] = None,
    latex: bool = False,
) -> str:
    """A module vector (PolyQ coefficients) or an enveloping-algebra element
    (Fraction coefficients) as a signed sum of terms."""
    if v.is_zero:
        return "0"
    order = display_factor_order(alg)
    parts: List[str] = []
    for m, c in _display_sorted(v, order):
        mono = render_monomial(alg, m, short=short, latex=latex, order=order)
        parts.append(_format_term(mono, c, m.is_unit, latex, first=not parts))
    return " ".join(parts)


def _display_sorted(v: Union[VermaVector, UElement], order: List[int]) -> list:
    """The terms of v, in descending display order of their monomials."""
    return sorted(v.terms.items(), key=lambda t: [t[0].exps[i] for i in order], reverse=True)


def _format_term(
    mono: str, coeff: Union[Fraction, PolyQ], is_unit: bool, latex: bool, first: bool
) -> str:
    """One rendered summand with its sign prefix: coefficient then monomial."""
    if isinstance(coeff, PolyQ):
        negative = len(coeff.num) == 1 and next(iter(coeff.num.values())) < 0
        if negative:
            coeff = -coeff
        body = coeff.to_latex() if latex else coeff.to_text()
        need_parens = len(coeff.num) > 1
    else:
        negative = coeff < 0
        body = (frac_latex if latex else frac_text)(abs(coeff))
        need_parens = False
    if is_unit:
        out = f"({body})" if need_parens else body
    elif body == "1":
        out = mono
    elif need_parens:
        out = f"({body}) {mono}"
    else:
        out = f"{body} {mono}"
    if first:
        return "-" + out if negative else out
    return ("- " if negative else "+ ") + out


render_uelement = render_vector


# -- constraints -------------------------------------------------------------


def parse_constraints(s: str, nvars: int) -> List[PolyQ]:
    """Semicolon-separated equations, each ``poly`` or ``lhs = rhs``."""
    out = []
    for piece in s.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "=" in piece:
            lhs, rhs = piece.split("=", 1)
            p = parse_poly(lhs, nvars) - parse_poly(rhs, nvars)
        else:
            p = parse_poly(piece, nvars)
        out.append(p)
    return out


def render_solved_form(cs: ConstraintSet, latex: bool = False) -> List[str]:
    if not cs.solved_form:
        return []
    if latex:
        return [
            f"\\Lambda(H_{var + 1}) = {expr.to_latex()}" for var, expr in cs.solved_form
        ]
    return [f"L{var + 1} = {expr.to_text()}" for var, expr in cs.solved_form]


# -- JSON views ---------------------------------------------------------------


def vector_to_json(alg: JacobiAlgebra, v: Union[VermaVector, UElement]) -> list:
    """Terms of a module vector or an enveloping-algebra element, in display order."""
    order = display_factor_order(alg)
    return [
        {
            "monomial": render_monomial(alg, m, order=order),
            "coeff": c.to_text() if isinstance(c, PolyQ) else frac_text(c),
        }
        for m, c in _display_sorted(v, order)
    ]


uelement_to_json = vector_to_json


def constraints_to_json(cs: ConstraintSet) -> dict:
    return {
        "equations": [p.to_text() for p in cs.equations],
        "solved_form": render_solved_form(cs),
    }


def report_to_json(alg: JacobiAlgebra, report) -> dict:
    """The singular-search report in its published JSON shape."""
    branches = []
    for br in report.branches:
        branches.append(
            {
                "constraints": [p.to_text() for p in br.constraints.equations],
                "solved_form": render_solved_form(br.constraints),
                "vectors": [[x.to_text() for x in br.kernel]],
                "verified": bool(br.verified),
            }
        )
    order = display_factor_order(alg)
    return {
        "weight": [frac_text(c) for c in report.weight.coords],
        "monomials": [render_monomial(alg, m, order=order) for m in report.monomials],
        "branches": branches,
        "trivial": bool(report.trivial),
    }
