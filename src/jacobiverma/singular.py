"""Singular-vector search: ansatz by weight, sp(n) assembly, parametric solve, lift.

The shifted generators K' = K minus the oscillator realization of K
(K'+_ij = K+_ij - 1/2 a+_i a+_j, K'0_ij = K0_ij - 1/2 a+_i a-_j - 1/4 delta_ij,
and likewise for K-) span a copy of sp(n) that commutes with the Heisenberg
part, and v0 is a lowest-weight vector for it with Cartan values L_i - 1/4.
A vector killed by every a-_i therefore lies in U(sp(n)') v0, so the singular
vectors of g_n are the sp(n) singular vectors m(K') v0.  The pipeline for a
target weight w:

1. enumerate every raising-only PBW monomial of weight w (the ansatz);
2. assemble the conditions in sp(n): the columns are the ansatz monomials
   with no a+ factor, and each Lie generator of sp(n)'s lowering part
   (K-_nn and the K0_{i+1,i}) applied to the general combination gives one
   homogeneous linear condition per surviving basis monomial; a matrix over
   Q[L1..Ln].  The entries are computed at the Cartan values L_i - 1/4 in
   the first place: the module kernel of ``verma``, the one path of every
   action there, evaluates each h_i on v0 as L_i - 1/4, so nothing is
   substituted afterwards.  That suffices: if x and y kill a vector, so
   does [x, y];
3. eliminate with case splitting: fraction-free (Bareiss) steps on primitive
   integer rows, pivoting on a constant while one is left and on an entry
   of least total degree after that; a non-constant pivot spawns one child
   per vanishing-locus factor, while the parent continues with the pivot
   asserted nonzero;
4. each explored constraint set with a free column becomes a branch, and
   it has only one: at a point of its locus off the pivots' zeros, the
   kernel is the space of sp(n) singular vectors of weight w in one Verma
   module, of dimension at most 1 (Verma, dim Hom(M(mu), M(lambda)) <= 1),
   and such points are dense in an affine locus.  A second free column
   raises ``KernelDimensionError``; only a matrix that is not an assembled
   system, such as a synthetic one, can have it.  The kernel vector is
   back-substituted fraction-free on the integer pivot rows, so it is a
   polynomial vector, kept primitive (coprime coordinates, the last
   nonzero one monic);
5. the kernel vector is lifted through m -> m(K') v0 into the coordinates of
   the full ansatz and made primitive again.  The lift is closed-form, with
   no module action: for m = K+^beta K0^gamma, the a- part of each K'0
   factor kills the a+-free K0-monomial it meets, and the K'+ factors
   expand by the binomial theorem since K+ and a+ commute, so
   m(K') v0 = prod_ij (K+_ij - 1/2 a+_i a+_j)^beta_ij K0^gamma v0.  That
   polynomial vector is the reported singular vector; the printed kernel
   divides it by its last nonzero coordinate (in the ansatz monomial
   order), so that one reads 1;
6. every branch's vector is re-checked against every basis element of n-
   before it is reported; one with no affine solved form cannot be, and is
   reported unverified.

Branches are deduplicated by constraint set and pruned when they are mere
specializations of another branch with the same kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from math import comb, gcd
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .algebra import Generator, JacobiAlgebra, Weight
from .pbw import PbwMonomial
from .ring import (
    IntTerms,
    PolyQ,
    RatFuncQ,
    _check_degree,
    _degree,
    _div_int_terms,
    _guard,
    _mul_int_terms,
    _numerators,
    _unit,
    content_in,
    poly_gcd,
    poly_sort_key,
    rational_roots,
    squarefree_part,
)
# ``act`` is not called here any more; it stays importable from this module,
# where perfbench/workloads.py wraps it.
from .verma import (  # noqa: F401
    ConstraintSet,
    InconsistentConstraintsError,
    VermaVector,
    _apply_on_v0,
    _CartanValues,
    _to_vector,
    act,
    is_singular,
)


REPORT_JSON_SCHEMA = {
    "type": "object",
    "properties": {
        "weight": {"type": "array", "items": {"type": "string"}},
        "monomials": {"type": "array", "items": {"type": "string"}},
        "branches": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "constraints": {"type": "array", "items": {"type": "string"}},
                    "solved_form": {"type": "array", "items": {"type": "string"}},
                    "vectors": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "string"}},
                        "minItems": 1,
                        "maxItems": 1,
                    },
                    "verified": {"type": "boolean"},
                },
                "required": ["constraints", "solved_form", "vectors", "verified"],
                "additionalProperties": False,
            },
        },
        "trivial": {"type": "boolean"},
    },
    "required": ["weight", "monomials", "branches", "trivial"],
    "additionalProperties": False,
}


class BranchBudgetExceededError(RuntimeError):
    """Raised when the case tree outgrows the branch budget."""

    def __init__(self, unexplored: List[str]):
        self.unexplored = unexplored
        super().__init__(
            f"branch budget exhausted with {len(unexplored)} unexplored case(s): "
            + "; ".join(unexplored)
        )


class KernelDimensionError(RuntimeError):
    """A case whose kernel has more than one free column: a defect on an
    assembled system (step 4 above), so not a ``ValueError``."""

    def __init__(self, constraints: ConstraintSet, dimension: int):
        self.constraints = constraints
        self.dimension = dimension
        super().__init__(
            f"kernel of dimension {dimension} at {_constraints_text(constraints)}; "
            "a case has at most one"
        )


# -- ansatz enumeration ------------------------------------------------------


def _ansatz_signature(alg: JacobiAlgebra) -> List[int]:
    """The positive indices from most to least significant in the ansatz
    order: K+, then a+, then raising K0."""
    return [*alg.kplus, *alg.aplus, *alg.kzero_raising]


def ansatz_sort_key(alg: JacobiAlgebra) -> Callable[[PbwMonomial], tuple]:
    """The sort key of same-weight monomials of ``alg``: descending lex with
    the K+ block most significant, then a+, then raising K0 (callers sort
    with reverse=True).  Build it once per sort; it reads the exponents with
    one ``itemgetter``.

    This reproduces the presentation order of the worked g_2 cases and puts
    the conventional free-scale monomial last.
    """
    get = itemgetter(*_ansatz_signature(alg))
    return lambda m: get(m.exps)


def display_factor_order(alg: JacobiAlgebra) -> List[int]:
    """Factor order used when rendering monomials: K+, a+, raising K0, Cartan,
    then the mirrored lowering blocks.  Swapping the K+ and a+ blocks relative
    to the ordered basis is purely cosmetic since those families commute."""
    order = _ansatz_signature(alg)
    npos, n = alg.num_positive, alg.n
    return order + list(range(npos, npos + n)) + [npos + n + i for i in order]


def enumerate_ansatz(alg: JacobiAlgebra, w: Weight) -> List[PbwMonomial]:
    """All raising-only monomials of weight w, in the canonical ansatz order.

    Every raising generator has an integral weight, so a weight with a
    non-integral coordinate has none.  Otherwise a DFS in integers chooses
    the K+ and raising-K0 exponents only: a+_i has weight delta_i, so the
    a+ exponents are the weight left over, and a leaf is kept when every
    coordinate of that remainder is >= 0.  The DFS carries the prefix sums
    P_t = rem_1 + ... + rem_t of the remaining weight.  Each K+ and
    raising-K0 generator lowers at least one P_t and raises none, and a valid
    leaf has every P_t >= 0, so a node with a negative P_t is dropped and
    every exponent loop ends.
    """
    n = alg.n
    if len(w.coords) != n:
        raise ValueError(f"weight has {len(w.coords)} coordinates, expected {n}")
    if any(c.denominator != 1 for c in w.coords):
        return []
    sp = [*alg.kplus, *alg.kzero_raising]
    drops = [list(accumulate(int(c) for c in alg.weight(alg.positive[k]).coords)) for k in sp]
    found: List[PbwMonomial] = []
    exps = [0] * alg.num_positive
    tail = (0,) * (len(alg.generators) - alg.num_positive)

    def dfs(d: int, prefix: List[int]):
        if d == len(sp):
            rem = [b - a for a, b in zip([0] + prefix, prefix)]
            if min(rem) >= 0:
                exps[alg.aplus.start : alg.aplus.stop] = rem
                found.append(PbwMonomial(tuple(exps) + tail))
            return
        while min(prefix) >= 0:
            dfs(d + 1, prefix)
            exps[sp[d]] += 1
            prefix = [p - q for p, q in zip(prefix, drops[d])]
        exps[sp[d]] = 0

    dfs(0, list(accumulate(int(c) for c in w.coords)))
    found.sort(key=ansatz_sort_key(alg), reverse=True)
    return found


# -- condition assembly ------------------------------------------------------


@dataclass(frozen=True)
class SystemRow:
    """One linear condition: the coefficient of ``result`` in x (sum nu_k m_k v0)
    at the Cartan values L_i - 1/4, where x is one of the Lie generators of n-."""

    x: Generator
    result: PbwMonomial
    entries: Tuple[PolyQ, ...]


@dataclass
class AnsatzSystem:
    """Conditions on the sp(n) monomials ``columns``; ``ansatz`` is the full
    ansatz the solution is lifted into."""

    weight: Weight
    nvars: int
    columns: List[PbwMonomial]
    rows: List[SystemRow]
    ansatz: List[PbwMonomial]


def assemble_system(alg: JacobiAlgebra, w: Weight) -> AnsatzSystem:
    """Matrix of lowest-weight conditions in sp(n) for the weight-w ansatz.

    The columns are the ansatz monomials with no a+ factor, in ansatz order.
    Rows come from the Lie generators of n- other than a-_n, generator by
    generator and within one generator by result monomial in ansatz order;
    a row exists only for a monomial that some image reaches, so none is
    zero.  Every entry is computed at the shifted Cartan
    values L_i - 1/4 of the copy of sp(n) that commutes with the Heisenberg
    part: the module kernel ``verma._apply_on_v0`` builds x m v0 with
    those values for the h_i, as it builds every action.
    """
    ansatz = enumerate_ansatz(alg, w)
    columns = [m for m in ansatz if not any(m.exps[i] for i in alg.aplus)]
    n = alg.n
    one = {0: 1}
    # L_i - 1/4 = (4 L_i - 1) / 4
    shifted = _CartanValues(alg, [{_unit(n, i): 4, 0: -1} for i in range(n)], 4)
    zero = PolyQ.zero(n)
    words = [m.word() for m in columns]
    key = ansatz_sort_key(alg)
    rows: List[SystemRow] = []
    for x in alg.sp_lowering_generators:
        ix = alg.index[x]
        images = [_to_vector(alg, *_apply_on_v0(alg, [((ix,) + word, one)], shifted)).terms for word in words]
        support = {b for img in images for b in img}
        for b in sorted(support, key=key, reverse=True):
            rows.append(SystemRow(x, b, tuple(img.get(b, zero) for img in images)))
    return AnsatzSystem(w, n, columns, rows, ansatz)


# -- parametric solve --------------------------------------------------------


@dataclass
class SolutionBranch:
    """One consistent case with a nontrivial kernel: its constraints on L and
    a kernel basis over the sp(n) columns, a list of one vector (step 4).

    The vector is the primitive polynomial vector on its line, from
    back-substitution through pruning: its coordinates over Q[L], reduced
    modulo the constraints, have no common factor and the last nonzero one
    is monic.
    """

    constraints: ConstraintSet
    kernel: List[List[PolyQ]]


def _reduce_poly(p: PolyQ, constraints: ConstraintSet) -> PolyQ:
    """Reduce modulo the constraints: substitution when solved, division
    remainder against the canonical equations otherwise (sound either way)."""
    if constraints.solved_form is not None:
        return constraints.substitute(p)
    if not constraints.equations:
        return p
    guard = _guard(p.nvars)
    changed = True
    while changed and not p.is_zero:
        changed = False
        for eq in constraints.equations:
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


_PROBE_BASES = [2, 3, 5, 7, 11, 13, 17, 19]


def _try_affine_factor(p: PolyQ, x: int) -> Optional[PolyQ]:
    """One affine divisor x - e(other vars) of p, or None.

    Any such divisor specializes to a rational root of p at every rational
    point of the other variables, so candidates are interpolated from roots
    at a base point and unit bumps, then validated by exact division.
    ``_split_factors`` calls it only when p has variables besides x; it
    splits a univariate p by its rational roots itself.
    """
    others = [v for v in p.variables() if v != x]
    dx = p.degree_in(x)
    for shift in range(len(_PROBE_BASES)):
        base = {v: _PROBE_BASES[(k + shift) % len(_PROBE_BASES)] for k, v in enumerate(others)}
        p0 = p.subs(base)
        if p0.degree_in(x) != dx:
            continue
        bumped = {}
        degenerate = False
        for v in others:
            point = dict(base)
            point[v] = point[v] + 1
            pv = p.subs(point)
            if pv.degree_in(x) != dx:
                degenerate = True
                break
            bumped[v] = pv
        if degenerate:
            continue
        roots0 = rational_roots(p0) if not p0.is_constant else []
        root_choices = {v: (rational_roots(q) if not q.is_constant else []) for v, q in bumped.items()}
        for r0 in roots0:
            stack = [(list(others), {})]
            while stack:
                pending, slopes = stack.pop()
                if not pending:
                    e = PolyQ.const(p.nvars, r0)
                    for v, s in slopes.items():
                        e = e + (PolyQ.var(p.nvars, v) - PolyQ.const(p.nvars, base[v])) * s
                    cand = PolyQ.var(p.nvars, x) - e
                    if p.try_divide(cand) is not None:
                        return cand
                    continue
                v = pending[0]
                for rv in root_choices[v]:
                    stack.append((pending[1:], {**slopes, v: rv - r0}))
        return None
    return None


def _split_factors(p: PolyQ) -> List[PolyQ]:
    """Vanishing-locus factors to branch on.

    Splits off content in its last variable (variable-disjoint products)
    and affine factors: the rational roots of a univariate factor all in
    one pass, with ``rational_roots`` computed once, and the affine factors
    of a multivariate one through ``_try_affine_factor``; whatever remains
    is kept whole as a single (non-affine) constraint.  The list is
    sorted by ``poly_sort_key``, so it does not depend on the order in
    which the factors were split off."""
    factors: List[PolyQ] = []
    stack = [squarefree_part(p).monic()]
    while stack:
        q = stack.pop()
        if q.is_constant:
            continue
        if q.total_degree() <= 1:
            factors.append(q.monic())
            continue
        variables = q.variables()
        x = variables[-1]
        if len(variables) == 1:
            for r in rational_roots(q):
                root = PolyQ.var(q.nvars, x) - PolyQ.const(q.nvars, r)
                factors.append(root)
                q = q // root
            if not q.is_constant:
                factors.append(q.monic())
            continue
        content = content_in(q, x)
        if not content.is_constant:
            stack.append(content)
            stack.append(q // content)
            continue
        affine = _try_affine_factor(q, x)
        if affine is not None:
            stack.append(affine)
            stack.append(q // affine)
            continue
        factors.append(q.monic())
    unique = {poly_sort_key(f): f for f in factors}
    return [unique[k] for k in sorted(unique)]


def _content_free(row: List[IntTerms]) -> List[IntTerms]:
    """An integer row divided by the gcd of all its coefficients."""
    g = 0
    for t in row:
        for c in t.values():
            g = gcd(g, c)
            if g == 1:
                return row
    return [{e: c // g for e, c in t.items()} for t in row]


def _eliminate(
    matrix: List[List[PolyQ]],
    ncols: int,
    nvars: int,
) -> Tuple[List[Tuple[List[IntTerms], int]], Set[int], List[PolyQ]]:
    """Fraction-free elimination on primitive integer rows, with
    degree-preferring pivot choice.

    Each row's denominators are cleared and its integer content divided out
    on entry.  The pivot is a nonzero entry P of least (total degree,
    column, row index) in the unused columns: while a constant is left, the
    first constant in column order, so degrees are computed only once none
    is.  Its row is negated if need be so that P has a positive leading
    coefficient.  Every other row, with entry f in the pivot column, becomes
    ((P/g) row - (f/g) prow) // prev with its content divided out, where g
    is the gcd of the contents of P and f and prev is the primitive part of
    the previous pivot (1 after a constant pivot).  A row with f = 0 thus
    becomes (P/g) row // prev, which is the row itself when P is a constant
    and prev = 1, and only then is it left as it is.  Only the unused
    columns are computed: the pivot column becomes zero by construction,
    and the used columns are zero in every remaining row already.

    These are Bareiss steps (Bareiss, Math. Comp. 22, 1968) up to a nonzero
    rational factor per row, so every division by prev is exact in Q[L]: by
    Sylvester's identity each Bareiss entry after k steps is a (k+1)-minor
    of the matrix, whichever row and column each step picked.  As prev is
    primitive, the division is exact in Z[L] by Gauss's lemma; one that
    leaves a remainder raises ``RingError``.

    The pivot rule looks only at zero entries, constant entries and total
    degree, so the pivots and their columns do not depend on the row
    factors; the non-constant pivots change by constant factors only, which
    the squarefree monic factors and the primitive kernel vectors do not
    see.

    Returns (retired pivot rows with their columns, used columns, the
    non-constant pivot polynomials in order of use).
    """
    rows = [_content_free(_numerators(row)[0]) for row in matrix if any(not e.is_zero for e in row)]
    # the constant monomial is the key 0
    one = {0: 1}
    pivots: List[Tuple[List[IntTerms], int]] = []
    used: Set[int] = set()
    nonconstant: List[PolyQ] = []
    prev = one
    while True:
        best = next(
            (
                (0, c, ri)
                for c in range(ncols)
                if c not in used
                for ri, row in enumerate(rows)
                if len(row[c]) == 1 and 0 in row[c]
            ),
            None,
        )
        if best is None:
            best = min(
                ((_degree(max(e), nvars), c, ri) for ri, row in enumerate(rows) for c, e in enumerate(row) if e),
                default=None,
            )
        if best is None:
            break
        _, c, ri = best
        prow = rows.pop(ri)
        p = prow[c]
        if p[max(p)] < 0:
            prow = [{e: -a for e, a in t.items()} for t in prow]
            p = prow[c]
        if any(p):
            nonconstant.append(PolyQ.from_int_terms(nvars, p))
        used.add(c)
        support = [j for j in range(ncols) if prow[j] and j != c]
        # with the largest key of f, one comparison guards the degree limit
        # of every product f prow[j] that the update subtracts term by term
        reach = max(max(prow[j]) for j in support) if support else 0
        content = gcd(*p.values())
        primitive = {e: a // content for e, a in p.items()}
        divide = prev != one
        unchanged = primitive == one and not divide
        remaining = []
        for row in rows:
            f = row[c]
            if not f and unchanged:
                remaining.append(row)
                continue
            g = gcd(content, *f.values())
            k = primitive if g == content else {e: a // g for e, a in p.items()}
            row = list(row) if k == one else [_mul_int_terms(k, t, nvars) if t else t for t in row]
            row[c] = {}
            if f:
                f = {e: a // g for e, a in f.items()}
                _check_degree(max(f) + reach, nvars)
                for j in support:
                    t = dict(row[j])
                    get = t.get
                    for e1, a1 in f.items():
                        for e2, a2 in prow[j].items():
                            e = e1 + e2
                            t[e] = get(e, 0) - a1 * a2
                    row[j] = {e: a for e, a in t.items() if a}
            if divide:
                row = [_div_int_terms(t, prev, nvars) if t else t for t in row]
            if any(row):
                remaining.append(_content_free(row))
        rows = remaining
        pivots.append((prow, c))
        prev = primitive
    return pivots, used, nonconstant


def _kernel_from_pivots(
    pivots: List[Tuple[List[IntTerms], int]],
    used: Set[int],
    ncols: int,
    nvars: int,
) -> List[PolyQ]:
    """The primitive kernel vector of the one free column, by fraction-free
    back-substitution on the integer pivot rows.

    The free column's coordinate starts at 1.  For each pivot row, the last
    first, s is the row's sum over the coordinates already set and p its
    pivot entry, both divided by the gcd of their contents.  The
    coordinates already set are multiplied by p and the pivot's own is set
    to -s, so every coordinate stays an integer polynomial and the vector
    keeps its direction.  As in ``_eliminate``, each product of a row entry
    and a coordinate is subtracted into the map of -s term by term, with one
    degree check and no map of its own.  The vector becomes ``PolyQ`` once,
    for ``_primitive``.
    """
    (free,) = [c for c in range(ncols) if c not in used]
    one = {0: 1}
    v: List[Optional[IntTerms]] = [None] * ncols
    v[free] = one
    for prow, c in reversed(pivots):
        neg: IntTerms = {}
        get = neg.get
        for j, t in enumerate(prow):
            if j == c or not t:
                continue
            x = v[j]
            if x is None:
                raise AssertionError("back-substitution order violated")
            if not x:
                continue
            _check_degree(max(t) + max(x), nvars)
            for e1, a1 in t.items():
                for e2, a2 in x.items():
                    e = e1 + e2
                    neg[e] = get(e, 0) - a1 * a2
        p = prow[c]
        g = gcd(*p.values(), *neg.values())
        p = {e: a // g for e, a in p.items()}
        if p != one:
            v = [_mul_int_terms(x, p, nvars) if x else x for x in v]
        v[c] = {e: a // g for e, a in neg.items() if a}
    return _primitive([PolyQ.from_int_terms(nvars, t) for t in v])


def _primitive(vec: List[PolyQ]) -> List[PolyQ]:
    """The vector divided by the gcd of its coordinates and scaled so that
    its last nonzero coordinate is monic; a zero vector is returned as is.

    This is the one polynomial vector on its line over Q(L) with coprime
    coordinates and a monic last coordinate, so it equals what
    ``_clear_denominators`` makes of ``_ratios(vec)``.  The gcd chain
    starts at the last coordinate and stops once it is constant.
    """
    nonzero = [p for p in vec if not p.is_zero]
    if not nonzero:
        return vec
    g = nonzero[-1]
    for p in reversed(nonzero[:-1]):
        if g.is_constant:
            break
        g = poly_gcd(g, p)
    if not g.is_constant:
        vec = [p // g for p in vec]
        nonzero = [p for p in vec if not p.is_zero]
    last = nonzero[-1]
    lc = last.num[max(last.num)]
    if lc == last.den:
        return vec
    return [p.scale(last.den, lc) for p in vec]


def _ratios(vec: List[PolyQ]) -> List[RatFuncQ]:
    """Coordinates divided by the last nonzero one: the printed kernel."""
    last = next((p for p in reversed(vec) if not p.is_zero), None)
    if last is None:
        return [RatFuncQ(p) for p in vec]
    return [RatFuncQ(p, last) for p in vec]


def _printed(lifted: List[PolyQ]) -> Tuple[List[PolyQ], List[RatFuncQ]]:
    """The lifted vector made primitive, and its printed kernel."""
    coords = _primitive(lifted)
    return coords, _ratios(coords)


def solve_parametric(system: AnsatzSystem, branch_budget: int = 64) -> List[SolutionBranch]:
    """Case analysis of M(L) nu = 0 over the weight parameters.

    Explores constraint sets breadth-first, asserting each chosen pivot
    nonzero on the current case and spawning one child case per vanishing
    factor.  Emits a branch for every case with a free column, then
    prunes cases that are plain specializations of an emitted branch.
    A case with more than one free column raises ``KernelDimensionError``,
    and a budget below 1 is a ``ValueError``.
    """
    if branch_budget < 1:
        raise ValueError(f"branch budget must be at least 1, got {branch_budget}")
    nvars = system.nvars
    ncols = len(system.columns)
    if ncols == 0:
        return []
    base_matrix = [list(r.entries) for r in system.rows]
    root = ConstraintSet.empty(nvars)
    queue = deque([root])
    visited: Set[tuple] = {_constraints_key(root)}
    branches: List[SolutionBranch] = []
    explored = 0
    while queue:
        if explored >= branch_budget:
            unexplored = [_constraints_text(c) for c in queue]
            raise BranchBudgetExceededError(unexplored)
        cs = queue.popleft()
        explored += 1
        matrix = [[_reduce_poly(e, cs) for e in row] for row in base_matrix]
        pivots, used, nonconstant = _eliminate(matrix, ncols, nvars)
        free = ncols - len(used)
        if free > 1:
            raise KernelDimensionError(cs, free)
        if free:
            branches.append(SolutionBranch(cs, [_kernel_from_pivots(pivots, used, ncols, nvars)]))
        for p in nonconstant:
            for f in _split_factors(p):
                try:
                    child = ConstraintSet.from_equations(nvars, cs.equations + (f,))
                except InconsistentConstraintsError:
                    continue
                key = _constraints_key(child)
                if key in visited or len(child.equations) == len(cs.equations):
                    continue
                visited.add(key)
                queue.append(child)
    branches = _prune_branches(branches)
    branches.sort(key=lambda b: (len(b.constraints.equations), _constraints_key(b.constraints)))
    return branches


def _constraints_key(cs: ConstraintSet) -> tuple:
    return tuple(poly_sort_key(p) for p in cs.equations)


def _constraints_text(cs: ConstraintSet) -> str:
    if not cs.equations:
        return "<generic>"
    return " & ".join(p.to_text() + " = 0" for p in cs.equations)


def _prune_branches(branches: List[SolutionBranch]) -> List[SolutionBranch]:
    """Drop branch B when some branch A constrains less, B satisfies A's
    equations, and A's kernel vector specializes exactly to B's.

    A's polynomial vector is specialized by B's solved form, made primitive
    again and compared with B's vector.  If its last nonzero coordinate
    vanishes on B's locus it does not specialize, and A then does not
    subsume B: A's vector is primitive, so that happens exactly when the
    reduced denominator of one of its printed ratios vanishes there.
    """
    return [b for b in branches if not any(_specializes_to(a, b) for a in branches if a is not b)]


def _specializes_to(a: SolutionBranch, b: SolutionBranch) -> bool:
    """Whether branch A subsumes branch B, as ``_prune_branches`` defines it."""
    cs = b.constraints
    if len(a.constraints.equations) >= len(cs.equations) or cs.solved_form is None:
        return False
    if not all(cs.substitute(eq).is_zero for eq in a.constraints.equations):
        return False
    (vec,) = a.kernel
    coords = [cs.substitute(p) for p in vec]
    last = max(i for i, p in enumerate(vec) if not p.is_zero)
    if coords[last].is_zero:
        return False
    return b.kernel == [_primitive(coords)]


# -- full pipeline -----------------------------------------------------------


@dataclass
class BranchReport:
    """A reported branch: its constraints, its one singular vector (step 4
    above), the printed kernel (the vector divided by its last nonzero
    coordinate) and whether every element of n- kills the vector."""

    constraints: ConstraintSet
    kernel: List[RatFuncQ]
    vector: VermaVector
    verified: bool


@dataclass
class WeightReport:
    weight: Weight
    monomials: List[PbwMonomial]
    branches: List[BranchReport]
    trivial: bool = False


def _clear_denominators(nvars: int, vec: List[RatFuncQ]) -> List[PolyQ]:
    lcm = PolyQ.one(nvars)
    for x in vec:
        d = x.den
        if d.is_constant:
            continue
        g = poly_gcd(lcm, d)
        lcm = lcm * (d // g)
    return [(x.num * (lcm // x.den)) for x in vec]


def kernel_vector_to_verma(
    alg: JacobiAlgebra, monomials: Sequence[PbwMonomial], vec: List[RatFuncQ]
) -> VermaVector:
    """Candidate singular vector from a kernel vector, denominators cleared."""
    polys = _clear_denominators(alg.n, list(vec))
    return VermaVector(alg.n, {m: p for m, p in zip(monomials, polys) if not p.is_zero})


def _lift_table(alg: JacobiAlgebra, system: AnsatzSystem) -> Tuple[List[List[Tuple[int, int]]], int]:
    """The lift m -> m(K') v0 of every column, in closed form.

    For m = K+^beta K0^gamma, m(K') v0 = prod_ij (K+_ij - 1/2 a+_i a+_j)^beta_ij
    K0^gamma v0.  The K'0 factors act as the K0 alone: a-_j kills every
    a+-free K0-monomial times v0, and the sorted word applies each K0 in PBW
    order, so K'0^gamma v0 is the monomial K0^gamma v0.  K+ and a+ commute
    with each other and lead the PBW order, so the K'+ factors expand by the
    binomial theorem, one exponent vector per choice of k_ij <= beta_ij.

    Returns, per column, its terms as (ansatz index, integer coefficient),
    all over 2^top, and top.
    """
    index = {m.exps: k for k, m in enumerate(system.ansatz)}
    aplus, generators = alg.aplus, alg.generators
    kplus = [(k, aplus[generators[k].i - 1], aplus[generators[k].j - 1]) for k in alg.kplus]
    top = max((sum(m.exps[k] for k, _, _ in kplus) for m in system.columns), default=0)
    table = []
    for m in system.columns:
        terms = {m.exps: 1 << top}
        for k, i, j in kplus:
            beta = m.exps[k]
            if not beta:
                continue
            expanded = {}
            for exps, c in terms.items():
                for t in range(beta + 1):
                    e = list(exps)
                    e[k] -= t
                    e[i] += t
                    e[j] += t
                    a = comb(beta, t) * (c >> t)
                    expanded[tuple(e)] = -a if t % 2 else a
            terms = expanded
        table.append([(index[e], c) for e, c in terms.items()])
    return table, top


def _lift_kernel_vector(
    system: AnsatzSystem,
    lift: Tuple[List[List[Tuple[int, int]]], int],
    vec: List[PolyQ],
    constraints: ConstraintSet,
) -> List[PolyQ]:
    """Full-ansatz coordinates of sum_k vec_k m_k(K') v0, reduced modulo the
    constraints; ``lift`` is ``_lift_table`` of the system.  The coordinates
    add integer numerators over one denominator."""
    table, top = lift
    coeffs, den = _numerators(vec)
    acc: List[IntTerms] = [{} for _ in system.ansatz]
    for terms, p in zip(table, coeffs):
        if not p:
            continue
        for k, c in terms:
            slot = acc[k]
            for e, a in p.items():
                slot[e] = slot.get(e, 0) + c * a
    return [_reduce_poly(PolyQ.from_int_terms(system.nvars, slot, den << top), constraints) for slot in acc]


def find_singular_vectors(
    alg: JacobiAlgebra, w: Weight, branch_budget: int = 64
) -> WeightReport:
    """enumerate -> assemble -> solve -> lift -> verify for one target weight.

    Each branch's lifted vector is made primitive once; the reported vector
    is that polynomial vector, and the printed kernel is its coordinates
    divided by the last nonzero one.
    """
    if w.is_zero:
        alg_mon = PbwMonomial.unit(alg)
        return WeightReport(w, [alg_mon], [], trivial=True)
    system = assemble_system(alg, w)
    solution = solve_parametric(system, branch_budget)
    lift = _lift_table(alg, system) if solution else None
    reports: List[BranchReport] = []
    for br in solution:
        (vec,) = br.kernel
        coords, kernel = _printed(_lift_kernel_vector(system, lift, vec, br.constraints))
        vector = VermaVector(alg.n, dict(zip(system.ansatz, coords)))
        ok = is_singular(alg, vector, br.constraints).singular
        reports.append(BranchReport(br.constraints, kernel, vector, ok))
    return WeightReport(w, system.ansatz, reports)
