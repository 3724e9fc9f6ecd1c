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
3. eliminate in two phases with case splitting: fraction-free Gauss on
   primitive integer rows while a constant pivot remains, then fraction-free
   (Bareiss) steps on the residual rows; a non-constant pivot spawns one
   child per vanishing-locus factor, while the parent continues with the
   pivot asserted nonzero;
4. each explored constraint set with a nontrivial kernel becomes a branch; the
   kernel is back-substituted fraction-free, so each kernel vector is a
   polynomial vector, kept primitive (coprime coordinates, the last nonzero
   one monic);
5. each kernel vector is lifted through m -> m(K') v0 into the coordinates of
   the full ansatz and made primitive again.  The lift is closed-form, with
   no module action: for m = K+^beta K0^gamma, the a- part of each K'0
   factor kills the a+-free K0-monomial it meets, and the K'+ factors
   expand by the binomial theorem since K+ and a+ commute, so
   m(K') v0 = prod_ij (K+_ij - 1/2 a+_i a+_j)^beta_ij K0^gamma v0.  That
   polynomial vector is the reported singular vector; the printed kernel
   divides it by its last nonzero coordinate (in the ansatz monomial
   order), so that one reads 1;
6. every branch is re-checked against every basis element of n- before it
   is reported; one with no affine solved form cannot be, and is reported
   unverified.

Branches are deduplicated by constraint set and pruned when they are mere
specializations of another branch with the same kernel.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd
from operator import itemgetter
from typing import List, Optional, Sequence, Set, Tuple

from .algebra import K_PLUS, Generator, JacobiAlgebra, Weight
from .pbw import PbwMonomial
from .ring import (
    IntTerms,
    PolyQ,
    RatFuncQ,
    _mul_int_terms,
    _numerators,
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


# -- ansatz enumeration ------------------------------------------------------


def _positive_layout(alg: JacobiAlgebra) -> Tuple[range, range, range]:
    """Index ranges of the a+, K+ and raising-K0 blocks among the positives."""
    n = alg.n
    a_end = n
    k_end = n + n * (n + 1) // 2
    return range(0, a_end), range(a_end, k_end), range(k_end, alg.num_positive)


def _ansatz_signature(alg: JacobiAlgebra) -> List[int]:
    """The positive indices from most to least significant in the ansatz
    order: K+, then a+, then raising K0."""
    aplus, kplus, kzero = _positive_layout(alg)
    return [*kplus, *aplus, *kzero]


def ansatz_sort_key(alg: JacobiAlgebra, m: PbwMonomial) -> tuple:
    """Sort key for same-weight monomials: descending lex with the K+ block most
    significant, then a+, then raising K0 (callers sort with reverse=True).

    This reproduces the presentation order of the worked g_2 cases and puts
    the conventional free-scale monomial last.
    """
    return tuple(m.exps[i] for i in _ansatz_signature(alg))


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
    _, kplus, kzero = _positive_layout(alg)
    sp = [*kplus, *kzero]
    drops = [list(accumulate(int(c) for c in alg.weight(alg.positive[k]).coords)) for k in sp]
    found: List[PbwMonomial] = []
    exps = [0] * alg.num_positive
    tail = (0,) * (len(alg.generators) - alg.num_positive)

    def dfs(d: int, prefix: List[int]):
        if d == len(sp):
            rem = [b - a for a, b in zip([0] + prefix, prefix)]
            if min(rem) >= 0:
                exps[:n] = rem  # a+_i is positive i
                found.append(PbwMonomial(tuple(exps) + tail))
            return
        while min(prefix) >= 0:
            dfs(d + 1, prefix)
            exps[sp[d]] += 1
            prefix = [p - q for p, q in zip(prefix, drops[d])]
        exps[sp[d]] = 0

    dfs(0, list(accumulate(int(c) for c in w.coords)))
    key = itemgetter(*_ansatz_signature(alg))
    found.sort(key=lambda m: key(m.exps), reverse=True)
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
    aplus, _, _ = _positive_layout(alg)
    columns = [m for m in ansatz if not any(m.exps[i] for i in aplus)]
    n = alg.n
    quarter = PolyQ.const(n, Fraction(1, 4))
    shifted = _CartanValues(*_numerators([PolyQ.var(n, i) - quarter for i in range(n)]))
    one = {(0,) * n: 1}
    zero = PolyQ.zero(n)
    words = [m.word() for m in columns]
    order = itemgetter(*_ansatz_signature(alg))
    rows: List[SystemRow] = []
    for x in alg.sp_lowering_generators:
        ix = alg.index[x]
        images = [_to_vector(alg, *_apply_on_v0(alg, [((ix,) + word, one)], shifted)).terms for word in words]
        support = {b for img in images for b in img}
        for b in sorted(support, key=lambda m: order(m.exps), reverse=True):
            rows.append(SystemRow(x, b, tuple(img.get(b, zero) for img in images)))
    return AnsatzSystem(w, n, columns, rows, ansatz)


# -- parametric solve --------------------------------------------------------


@dataclass
class SolutionBranch:
    """One consistent case with a nontrivial kernel: its constraints on L and
    a kernel basis over the sp(n) columns.

    Each kernel vector is the primitive polynomial vector on its line, from
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
    changed = True
    while changed and not p.is_zero:
        changed = False
        for eq in constraints.equations:
            d_exps, d_lc = eq.leading()
            for exps in sorted(p.terms, key=lambda e: (sum(e), tuple(reversed(e))), reverse=True):
                q_exps = tuple(a - b for a, b in zip(exps, d_exps))
                if all(e >= 0 for e in q_exps):
                    c = p.terms[exps]
                    p = p - PolyQ(p.nvars, {q_exps: c / d_lc}) * eq
                    changed = True
                    break
            if changed:
                break
    return p


def _univariate_linear_factors(p: PolyQ, x: int) -> List[PolyQ]:
    factors: List[PolyQ] = []
    rest = p
    for r in rational_roots(p):
        lin = PolyQ.var(p.nvars, x) - PolyQ.const(p.nvars, r)
        q = rest.try_divide(lin)
        if q is not None:
            factors.append(lin)
            rest = q
    if not rest.is_constant:
        factors.append(rest.monic())
    return factors or [p]


_PROBE_BASES = [2, 3, 5, 7, 11, 13, 17, 19]


def _try_affine_factor(p: PolyQ, x: int) -> Optional[PolyQ]:
    """One affine divisor x - e(other vars) of p, or None.

    Any such divisor specializes to a rational root of p at every rational
    point of the other variables, so candidates are interpolated from roots
    at a base point and unit bumps, then validated by exact division.
    """
    others = [v for v in p.variables() if v != x]
    dx = p.degree_in(x)
    for shift in range(len(_PROBE_BASES)):
        base = {v: Fraction(_PROBE_BASES[(k + shift) % len(_PROBE_BASES)]) for k, v in enumerate(others)}
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

    Splits off rational content (variable-disjoint products), univariate
    rational linear factors, and multivariate affine factors; whatever
    remains is kept whole as a single (non-affine) constraint."""
    factors: List[PolyQ] = []
    stack = [squarefree_part(p).monic()]
    while stack:
        q = stack.pop()
        if q.is_constant:
            continue
        if q.total_degree() <= 1:
            factors.append(q.monic())
            continue
        vs = q.variables()
        if len(vs) == 1:
            factors.extend(_univariate_linear_factors(q, vs[0]))
            continue
        x = max(vs)
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
) -> Tuple[List[Tuple[List[PolyQ], int]], Set[int], List[PolyQ]]:
    """Two-phase elimination with degree-preferring pivot choice.

    Phase 1 is fraction-free Gauss on integer rows: each row's
    denominators are cleared and its integer content divided out on entry.
    While some unused column holds a nonzero constant entry P, the least
    (column, row index) such entry is the pivot, its row is negated if
    need be so that P > 0, and only the rows with a nonzero entry f in the
    pivot column are updated, to P row - f prow with its content divided
    out again (both terms are first divided by the gcd of P and the
    coefficients of f, which often leaves P = 1).
    Phase 2 takes the residual back as ``PolyQ`` rows and runs Bareiss
    fraction-free steps on it, starting from divisor 1 and always taking
    an entry of least total degree.  A step computes only the columns
    still unused after it: the pivot column becomes zero by construction,
    and the used columns are zero in every residual row already.

    Every row here is a nonzero rational multiple of the row that Gauss
    over Q with pivots scaled to 1 would hold, and the pivot rules look only
    at zero entries, constant entries and total degree, so the pivots and
    their columns do not depend on those multiples; the non-constant pivots
    change by constant factors only, which the squarefree monic factors and
    the primitive kernel vectors do not see.  Phase 1 rows are Bareiss
    rows up to nonzero rational factors, so the pivot choice, the kernel
    and the squarefree monic pivot factors do not depend on where the
    phases meet either.

    Every phase-2 division by the previous pivot is exact.  Phase 1 pivots
    only on constants, so the residual is a matrix over Q[L], and by
    Sylvester's identity each entry after k Bareiss steps on it is a
    (k+1)-minor of it, whichever row and column each step picked (Bareiss,
    Math. Comp. 22, 1968).  A division that leaves a remainder raises
    ``RingError``.

    Returns (retired pivot rows with their columns, used columns, the
    non-constant pivot polynomials in order of use).
    """
    rows = [_content_free(_numerators(row)[0]) for row in matrix if any(not e.is_zero for e in row)]
    constant = (0,) * nvars
    int_pivots: List[Tuple[List[IntTerms], int]] = []
    used: Set[int] = set()
    while True:
        best = None
        for c in range(ncols):
            if c in used:
                continue
            for ri, row in enumerate(rows):
                e = row[c]
                if len(e) == 1 and constant in e:
                    best = (c, ri)
                    break
            if best is not None:
                break
        if best is None:
            break
        c, ri = best
        prow = rows.pop(ri)
        if prow[c][constant] < 0:
            prow = [{e: -a for e, a in t.items()} for t in prow]
        pivot = prow[c][constant]
        support = [j for j in range(ncols) if prow[j]]
        remaining = []
        for row in rows:
            f = row[c]
            if f:
                g = gcd(pivot, *f.values())
                k, f = pivot // g, {e: a // g for e, a in f.items()}
                row = [{e: k * a for e, a in t.items()} for t in row] if k != 1 else list(row)
                for j in support:
                    t = dict(row[j])
                    for e, a in _mul_int_terms(f, prow[j]).items():
                        t[e] = t.get(e, 0) - a
                    row[j] = {e: a for e, a in t.items() if a}
                if not any(row):
                    continue
                row = _content_free(row)
            remaining.append(row)
        rows = remaining
        int_pivots.append((prow, c))
        used.add(c)
    pivots = [([PolyQ.from_int_terms(nvars, t) for t in row], c) for row, c in int_pivots]
    active = [[PolyQ.from_int_terms(nvars, t) for t in row] for row in rows]
    nonconstant: List[PolyQ] = []
    prev = PolyQ.one(nvars)
    zero = PolyQ.zero(nvars)
    while True:
        best = None
        for ri, row in enumerate(active):
            for c in range(ncols):
                if c in used or row[c].is_zero:
                    continue
                key = (row[c].total_degree(), c, ri)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, c, ri = best
        prow = active.pop(ri)
        p = prow[c]
        if not p.is_constant:
            nonconstant.append(p)
        used.add(c)
        free = [j for j in range(ncols) if j not in used]
        new_active = []
        for row in active:
            new_row = [zero] * ncols
            f = row[c]
            for j in free:
                new_row[j] = (p * row[j] - f * prow[j]) // prev
            if any(not new_row[j].is_zero for j in free):
                new_active.append(new_row)
        active = new_active
        pivots.append((prow, c))
        prev = p
    return pivots, used, nonconstant


def _kernel_from_pivots(
    pivots: List[Tuple[List[PolyQ], int]],
    used: Set[int],
    ncols: int,
    nvars: int,
) -> List[List[PolyQ]]:
    """One primitive kernel vector per free column, by fraction-free
    back-substitution.

    A constant pivot p sets its coordinate to -s/p, where s is the row's sum
    over the coordinates already set.  A non-constant pivot instead
    multiplies those coordinates by p and sets its own to -s, so every
    coordinate stays a polynomial and the vector keeps its direction.
    """
    free = [c for c in range(ncols) if c not in used]
    zero = PolyQ.zero(nvars)
    vectors: List[List[PolyQ]] = []
    for f in free:
        v: List[Optional[PolyQ]] = [None] * ncols
        for c in free:
            v[c] = PolyQ.one(nvars) if c == f else zero
        for prow, c in reversed(pivots):
            s = zero
            for j in range(ncols):
                if j == c or prow[j].is_zero:
                    continue
                if v[j] is None:
                    raise AssertionError("back-substitution order violated")
                if not v[j].is_zero:
                    s = s + prow[j] * v[j]
            p = prow[c]
            if p.is_constant:
                v[c] = s * (-1 / p.constant_value())
            else:
                v = [x if x is None or x.is_zero else x * p for x in v]
                v[c] = -s
        vectors.append(_primitive(v))
    return vectors


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
    _, lc = nonzero[-1].leading()
    if lc == 1:
        return vec
    return [PolyQ(p.nvars, {e: c / lc for e, c in p.terms.items()}) for p in vec]


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
    factor.  Emits a branch for every case with a nontrivial kernel, then
    prunes cases that are plain specializations of an emitted branch.
    A budget below 1 is a ``ValueError``.
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
        if len(used) < ncols:
            branches.append(SolutionBranch(cs, _kernel_from_pivots(pivots, used, ncols, nvars)))
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
    equations, and A's kernel specializes exactly to B's.

    Each of A's polynomial vectors is specialized by B's solved form, made
    primitive again and compared with B's vectors.  A vector whose last
    nonzero coordinate vanishes on B's locus does not specialize, and A then
    does not subsume B: A's vector is primitive, so that happens exactly
    when the reduced denominator of one of its printed ratios vanishes there.
    """
    return [b for b in branches if not any(_specializes_to(a, b) for a in branches if a is not b)]


def _specializes_to(a: SolutionBranch, b: SolutionBranch) -> bool:
    """Whether branch A subsumes branch B, as ``_prune_branches`` defines it."""
    cs = b.constraints
    if len(a.constraints.equations) >= len(cs.equations) or cs.solved_form is None:
        return False
    if not all(cs.substitute(eq).is_zero for eq in a.constraints.equations):
        return False
    if len(a.kernel) != len(b.kernel):
        return False
    specialized = []
    for vec in a.kernel:
        coords = [cs.substitute(p) for p in vec]
        last = max(i for i, p in enumerate(vec) if not p.is_zero)
        if coords[last].is_zero:
            return False
        specialized.append(tuple(_primitive(coords)))
    return Counter(specialized) == Counter(map(tuple, b.kernel))


# -- full pipeline -----------------------------------------------------------


@dataclass
class BranchReport:
    constraints: ConstraintSet
    kernel: List[List[RatFuncQ]]
    vectors: List[VermaVector]
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
    kplus = [
        (alg.index[g], g.i - 1, g.j - 1)  # a+_i is positive i - 1
        for g in alg.positive
        if g.family == K_PLUS
    ]
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

    Each lifted vector is made primitive once; the reported vector is that
    polynomial vector, and the printed kernel is its coordinates divided by
    the last nonzero one.
    """
    if w.is_zero:
        alg_mon = PbwMonomial.unit(alg)
        return WeightReport(w, [alg_mon], [], trivial=True)
    system = assemble_system(alg, w)
    solution = solve_parametric(system, branch_budget)
    lift = _lift_table(alg, system) if solution else None
    reports: List[BranchReport] = []
    for br in solution:
        kernel: List[List[RatFuncQ]] = []
        vectors: List[VermaVector] = []
        for vec in br.kernel:
            coords, ratios = _printed(_lift_kernel_vector(system, lift, vec, br.constraints))
            kernel.append(ratios)
            vectors.append(VermaVector(alg.n, dict(zip(system.ansatz, coords))))
        ok = all(is_singular(alg, v, br.constraints).singular for v in vectors)
        reports.append(BranchReport(br.constraints, kernel, vectors, ok))
    return WeightReport(w, system.ansatz, reports)
