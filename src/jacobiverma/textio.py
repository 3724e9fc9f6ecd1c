"""Parsing and rendering of generators, monomials, weights, polynomials, vectors.

Text grammar (round-trips exactly):

* generators: ``a+[i]``, ``a-[i]``, ``K+[i,j]``, ``K-[i,j]``, ``K0[i,j]``;
  compact forms ``a+1``; for n = 2 also the short names ``b+1``, ``b+2``,
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
on request.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .algebra import (
    A_MINUS,
    A_PLUS,
    BracketResult,
    Generator,
    JacobiAlgebra,
    K_MINUS,
    K_PLUS,
    K_ZERO,
    Weight,
)
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

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.items[self.pos] if self.pos < len(self.items) else None

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

_SHORT_FAMILIES = {"b+": K_PLUS, "b-": K_MINUS, "c+": K_PLUS, "c-": K_MINUS}


def _generator_from_token(text: str, n: int) -> Generator:
    m = re.fullmatch(r"(a[+-])\[(\d+)\]", text)
    if m:
        fam = A_PLUS if m.group(1) == "a+" else A_MINUS
        return _check_gen(Generator(fam, int(m.group(2))), n, text)
    m = re.fullmatch(r"(K[0+\-])\[(\d+),(\d+)\]", text)
    if m:
        fam = {"K+": K_PLUS, "K-": K_MINUS, "K0": K_ZERO}[m.group(1)]
        return _check_gen(Generator(fam, int(m.group(2)), int(m.group(3))), n, text)
    m = re.fullmatch(r"(a[+-])(\d+)", text)
    if m:
        fam = A_PLUS if m.group(1) == "a+" else A_MINUS
        return _check_gen(Generator(fam, int(m.group(2))), n, text)
    if n != 2:
        raise ParseError(f"short name {text!r} is only defined for n = 2")
    m = re.fullmatch(r"(b[+-])(\d+)", text)
    if m:
        i = int(m.group(2))
        return _check_gen(Generator(_SHORT_FAMILIES[m.group(1)], i, i), n, text)
    if text == "c+":
        return Generator(K_PLUS, 1, 2)
    if text == "c-":
        return Generator(K_MINUS, 1, 2)
    if text == "d+":
        return Generator(K_ZERO, 1, 2)
    if text == "d-":
        return Generator(K_ZERO, 2, 1)
    m = re.fullmatch(r"h(\d+)", text)
    if m:
        return _check_gen(Generator(K_ZERO, int(m.group(1)), int(m.group(1))), n, text)
    raise ParseError(f"cannot read generator {text!r}")


def _check_gen(g: Generator, n: int, text: str) -> Generator:
    if g.max_index() > n or g.i < 1:
        raise ParseError(f"generator {text!r} has an index out of range for n = {n}")
    return g


def parse_generator(s: str, n: int) -> Generator:
    toks = _Tokens(s)
    kind, text = toks.next()
    if kind != "gen":
        raise ParseError(f"expected a generator, found {text!r}")
    if not toks.done():
        raise ParseError(f"trailing input after generator in {s!r}")
    return _generator_from_token(text, n)


def render_generator(g: Generator, n: int, short: Optional[bool] = None) -> str:
    if short is None:
        short = n == 2
    if not short or n != 2:
        return str(g)
    if g.family == A_PLUS:
        return f"a+{g.i}"
    if g.family == A_MINUS:
        return f"a-{g.i}"
    if g.family == K_PLUS:
        return f"b+{g.i}" if g.i == g.j else "c+"
    if g.family == K_MINUS:
        return f"b-{g.i}" if g.i == g.j else "c-"
    if g.i == g.j:
        return f"h{g.i}"
    return "d+" if g.i < g.j else "d-"


def render_generator_latex(g: Generator, short: bool = False) -> str:
    if short:
        if g.family == K_PLUS:
            return f"b^+_{g.i}" if g.i == g.j else "c^+"
        if g.family == K_MINUS:
            return f"b^-_{g.i}" if g.i == g.j else "c^-"
        if g.family == K_ZERO:
            if g.i == g.j:
                return f"h_{g.i}"
            return "d^+" if g.i < g.j else "d^-"
    if g.family == A_PLUS:
        return f"a^+_{g.i}"
    if g.family == A_MINUS:
        return f"a^-_{g.i}"
    sup = {K_PLUS: "+", K_MINUS: "-", K_ZERO: "0"}[g.family]
    return f"K^{sup}_{{{g.i}{g.j}}}"


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


def _parse_word_tokens(toks: _Tokens, n: int) -> List[Generator]:
    word: List[Generator] = []
    while True:
        tok = toks.peek()
        if tok is None:
            break
        kind, text = tok
        if kind == "gen":
            toks.next()
            g = _generator_from_token(text, n)
            word.extend([g] * _maybe_power(toks))
        elif text == "(":
            save = toks.pos
            toks.next()
            tok2 = toks.peek()
            if tok2 is not None and tok2[0] == "gen":
                toks.next()
                g = _generator_from_token(tok2[1], n)
                toks.expect(")")
                word.extend([g] * _maybe_power(toks))
            else:
                toks.pos = save
                break
        else:
            break
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
    parts = []
    for idx in order or display_factor_order(alg):
        e = m.exps[idx]
        if not e:
            continue
        g = alg.generators[idx]
        name = (
            render_generator_latex(g, short=bool(short))
            if latex
            else render_generator(g, alg.n, short)
        )
        if e == 1:
            parts.append(name)
        elif latex:
            parts.append(f"({name})^{{{e}}}")
        else:
            parts.append(f"({name})^{e}")
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
    acc = _parse_poly_term(toks, nvars) * sign
    while True:
        tok = toks.peek()
        if tok is None or tok[1] not in "+-":
            break
        toks.next()
        term = _parse_poly_term(toks, nvars)
        acc = acc + (term if tok[1] == "+" else -term)
    return acc


def _parse_poly_term(toks: _Tokens, nvars: int) -> PolyQ:
    factors = [_parse_poly_factor(toks, nvars)]
    while True:
        tok = toks.peek()
        if tok is None:
            break
        kind, text = tok
        if text == "*":
            toks.next()
            factors.append(_parse_poly_factor(toks, nvars))
        elif kind in ("num", "lvar") or text == "(":
            factors.append(_parse_poly_factor(toks, nvars))
        else:
            break
    out = PolyQ.one(nvars)
    for f in factors:
        out = out * f
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
        raise ParseError(f"unexpected token {text!r} in polynomial")
    e = _maybe_power(toks)
    return base if e == 1 else base ** e


# -- vectors ---------------------------------------------------------------------


def parse_vector(s: str, alg: JacobiAlgebra) -> VermaVector:
    """Sum of (coefficient, word) terms applied to v0; words need not be ordered."""
    toks = _Tokens(s)
    total = VermaVector(alg.n)
    first = True
    while not toks.done():
        sign = Fraction(1)
        tok = toks.peek()
        if tok[1] in "+-":
            toks.next()
            sign = Fraction(-1) if tok[1] == "-" else Fraction(1)
        elif not first:
            raise ParseError(f"expected '+' or '-' before {tok[1]!r}")
        coeff = _parse_vector_coeff(toks, alg.n)
        word = _parse_word_tokens(toks, alg.n)
        term_coeff = coeff * PolyQ.const(alg.n, sign)
        if word:
            total = total + apply_word_to_v0(alg, word, term_coeff)
        else:
            total = total + VermaVector(alg.n, {PbwMonomial.unit(alg): term_coeff})
        first = False
    if first:
        raise ParseError(f"empty vector expression {s!r}")
    return total


def _parse_vector_coeff(toks: _Tokens, nvars: int) -> PolyQ:
    """Optional coefficient: a product of the factors of ``parse_poly``
    (rationals, L variables and parenthesized polynomials, each with an
    optional integer power); a parenthesized generator belongs to the
    monomial instead."""
    coeff = PolyQ.one(nvars)
    while True:
        tok = toks.peek()
        if tok is None:
            break
        kind, text = tok
        if text == "*":
            toks.next()
            continue
        if text == "(":
            inner = toks.items[toks.pos + 1] if toks.pos + 1 < len(toks.items) else None
            if inner is not None and inner[0] == "gen":
                break
        elif kind not in ("num", "lvar"):
            break
        coeff = coeff * _parse_poly_factor(toks, nvars)
    return coeff


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


def render_bracket(alg: JacobiAlgebra, br, short: Optional[bool] = None, latex: bool = False) -> str:
    assert isinstance(br, BracketResult)
    if br.is_zero:
        return "0"
    frac = frac_latex if latex else frac_text
    parts: List[str] = []
    gens = sorted(br.terms, key=lambda g: alg.index[g])
    for g in gens:
        c = br.terms[g]
        name = render_generator_latex(g, short=bool(short)) if latex else render_generator(g, alg.n, short)
        body = name if abs(c) == 1 else f"{frac(abs(c))} {name}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    if br.scalar != 0:
        body = frac(abs(br.scalar))
        if not parts:
            parts.append(body if br.scalar > 0 else "-" + body)
        else:
            parts.append(("+ " if br.scalar > 0 else "- ") + body)
    return " ".join(parts)


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
                "vectors": [[x.to_text() for x in vec] for vec in br.kernel],
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
