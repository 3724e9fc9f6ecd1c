"""Unit coverage of solver internals plus ranks other than 2.

The g_2 golden cases never exercise univariate root splitting or the
division-remainder reduction path, so those are pinned here directly; the
n = 1 and n = 3 pipeline runs check that the engine stays sound away from
the certified rank."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobiverma import singular
from jacobiverma.algebra import JacobiAlgebra, Weight
from jacobiverma.ring import PolyQ, RatFuncQ, _div_int_terms
from jacobiverma.singular import (
    SystemRow,
    AnsatzSystem,
    KernelDimensionError,
    _clear_denominators,
    _eliminate,
    _kernel_from_pivots,
    _primitive,
    _reduce_poly,
    _split_factors,
    find_singular_vectors,
    solve_parametric,
)
from jacobiverma.textio import render_monomial
from jacobiverma.verma import ConstraintSet

from oracles import all_negative_rows, evaluate_rows, fraction_kernel, same_span


def L(i, nvars=2):
    return PolyQ.var(nvars, i - 1)


def const(c, nvars=2):
    return PolyQ.const(nvars, Fraction(c))


def poly_rows(pivots, nvars=2):
    """``_eliminate``'s integer pivot rows as ``PolyQ`` rows."""
    return [([PolyQ.from_int_terms(nvars, t) for t in row], c) for row, c in pivots]


class TestSplitFactors:
    def test_affine_passthrough(self):
        p = 2 * L(1) + 2 * L(2) - const(3)
        assert _split_factors(p) == [(L(2) + L(1) - const(Fraction(3, 2)))]

    def test_univariate_roots_split(self):
        p = (L(2) - const(Fraction(3, 4))) * (L(2) - const(Fraction(5, 4)))
        fs = _split_factors(p)
        assert set(fs) == {
            L(2) - const(Fraction(3, 4)),
            L(2) - const(Fraction(5, 4)),
        }

    def test_univariate_roots_and_quadratic_exact_list(self):
        # three rational roots split off in one pass as affine factors,
        # the irreducible quadratic kept whole, in ``poly_sort_key`` order
        p = (
            const(3)
            * (L(2) - const(Fraction(1, 2)))
            * (L(2) + const(2))
            * (L(2) - const(Fraction(5, 3)))
            * (L(2) ** 2 + L(2) + const(1))
        )
        assert _split_factors(p) == [
            L(2) - const(Fraction(5, 3)),
            L(2) - const(Fraction(1, 2)),
            L(2) + const(2),
            L(2) ** 2 + L(2) + const(1),
        ]

    def test_univariate_irrational_cofactor_kept(self):
        p = (L(1) - const(2)) * (L(1) ** 2 - const(2))
        fs = _split_factors(p)
        assert (L(1) - const(2)) in fs
        assert (L(1) ** 2 - const(2)) in fs

    def test_square_collapsed(self):
        p = (L(2) - L(1)) ** 2
        assert _split_factors(p) == [(L(2) - L(1))]

    def test_multivariate_nonaffine_unsplit(self):
        p = L(1) * L(2) - const(1)
        assert _split_factors(p) == [p]

    def test_multivariate_affine_product_split(self):
        p = (L(2) - L(1)) * (2 * L(2) - 2 * L(1) - const(1))
        assert set(_split_factors(p)) == {
            L(2) - L(1),
            L(2) - L(1) - const(Fraction(1, 2)),
        }

    def test_variable_disjoint_product_split(self):
        assert set(_split_factors(L(1) * L(2))) == {L(1), L(2)}

    def test_affine_off_nonaffine_cofactor(self):
        p = (L(1) + L(2) - const(1)) * (L(1) * L(2) - const(1))
        fs = _split_factors(p)
        assert (L(1) + L(2) - const(1)).monic() in fs
        assert (L(1) * L(2) - const(1)) in fs


class TestReducePoly:
    def test_substitution_path(self):
        cs = ConstraintSet.from_equations(2, [L(2) + L(1) - const(Fraction(3, 2))])
        p = L(2) ** 2 + L(1)
        reduced = _reduce_poly(p, cs)
        assert reduced == (const(Fraction(3, 2)) - L(1)) ** 2 + L(1)

    def test_remainder_path_nonlinear(self):
        cs = ConstraintSet.from_equations(2, [L(2) ** 2 - const(2)])
        assert cs.solved_form is None
        p = L(2) ** 3 + L(2) ** 2 + L(2) + const(1)
        reduced = _reduce_poly(p, cs)
        # L2^2 -> 2, so L2^3 + L2^2 + L2 + 1 -> 3 L2 + 3
        assert reduced == 3 * L(2) + const(3)

    def test_remainder_fixpoint_is_irreducible(self):
        cs = ConstraintSet.from_equations(2, [L(1) * L(2) - const(1)])
        p = L(1) ** 2 * L(2) ** 2 + L(1)
        reduced = _reduce_poly(p, cs)
        assert _reduce_poly(reduced, cs) == reduced


_coeff = st.integers(-3, 3)
_constant = _coeff.map(const)
_affine = st.tuples(_coeff, _coeff, _coeff).map(lambda t: const(t[0]) + t[1] * L(1) + t[2] * L(2))
_quadratic = st.tuples(_coeff, _coeff).map(lambda t: t[0] * L(1) * L(2) + const(t[1]))
# mostly constant entries, as in assembled systems
_entry = st.one_of(_constant, _constant, _constant, _affine, _quadratic)


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(_entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))


class TestEliminate:
    @settings(max_examples=60, deadline=None)
    @given(
        _matrices(),
        st.lists(st.fractions(-5, 5, max_denominator=4), min_size=2, max_size=2),
    )
    def test_kernel_annihilates_and_has_generic_dimension(self, matrix, point):
        # as many free columns as the numeric kernel at a generic point has
        # dimensions, so one free column exactly when it has dimension 1;
        # only then is there a vector to back-substitute
        ncols = len(matrix[0])
        pivots, used, nonconstant = _eliminate(matrix, ncols, 2)
        if ncols - len(used) == 1:
            vec = _kernel_from_pivots(pivots, used, ncols, 2)
            assert all(type(x) is PolyQ for x in vec)
            for row in matrix:
                total = PolyQ.zero(2)
                for e, x in zip(row, vec):
                    total = total + e * x
                assert total.is_zero
        assume(all(p.eval_all(point) != 0 for p in nonconstant))
        numeric = [[e.eval_all(point) for e in row] for row in matrix]
        assert ncols - len(used) == len(fraction_kernel(numeric, ncols))

    @settings(max_examples=80, deadline=None)
    @given(_matrices(), st.data())
    def test_row_scaling_changes_pivots_by_constant_factors_only(self, matrix, data):
        ncols = len(matrix[0])
        scales = data.draw(
            st.lists(
                st.fractions(-7, 7, max_denominator=6).filter(bool),
                min_size=len(matrix),
                max_size=len(matrix),
            )
        )
        scaled = [[e * k for e in row] for row, k in zip(matrix, scales)]
        pivots, used, nonconstant = _eliminate(matrix, ncols, 2)
        s_pivots, s_used, s_nonconstant = _eliminate(scaled, ncols, 2)
        assert [c for _, c in pivots] == [c for _, c in s_pivots]
        assert used == s_used
        if ncols - len(used) == 1:
            assert _kernel_from_pivots(pivots, used, ncols, 2) == _kernel_from_pivots(
                s_pivots, s_used, ncols, 2
            )
        assert [p.monic() for p in nonconstant] == [p.monic() for p in s_nonconstant]
        # every pivot row is a primitive integer row whose pivot has a
        # positive leading coefficient, the same for both inputs
        for (row, c), (s_row, _) in zip(pivots, s_pivots):
            coeffs = [v for t in row for v in t.values()]
            assert all(type(v) is int for v in coeffs)
            assert gcd(*coeffs) == 1
            assert PolyQ.from_int_terms(2, row[c]).leading()[1] > 0
            assert s_row == row

    def test_updated_rows_are_primitive_with_positive_pivots(self):
        # [1, 3, 2] - [1, 1, 0] = [0, 2, 2] has content 2, and the second
        # pivot row [0, -1, L1] is negated to make its pivot positive
        matrix = [[const(1), const(1), const(0)], [const(0), const(-1), L(1)], [const(1), const(3), const(2)]]
        pivots, used, nonconstant = _eliminate(matrix, 3, 2)
        assert poly_rows(pivots) == [
            ([const(1), const(1), const(0)], 0),
            ([const(0), const(1), -L(1)], 1),
            ([const(0), const(0), L(1) + const(1)], 2),
        ]
        assert nonconstant == [L(1) + const(1)]

    def test_row_without_pivot_column_entry_is_untouched(self):
        zero = const(0)
        matrix = [[const(2), const(1), L(2)], [zero, L(1), L(1) * L(2)]]
        pivots, used, nonconstant = _eliminate(matrix, 3, 2)
        # the pivot row is kept as a primitive integer row
        pivots = poly_rows(pivots)
        assert pivots[0] == ([const(2), const(1), L(2)], 0)
        assert pivots[1] == ([zero, L(1), L(1) * L(2)], 1)
        assert used == {0, 1}
        assert nonconstant == [L(1)]

    def test_kernel_through_a_nonconstant_pivot(self):
        # The first pivot is the 1 in column 1, the second 2 L1 in column 0.
        # Back-substitution multiplies by 2 L1, which the primitive
        # representative divides out again.
        matrix = [[2 * L(1), L(2) + const(1), const(0)], [const(0), const(1), L(1) * L(2)]]
        pivots, used, nonconstant = _eliminate(matrix, 3, 2)
        assert nonconstant == [2 * L(1)]
        vec = _kernel_from_pivots(pivots, used, 3, 2)
        assert vec == [Fraction(1, 2) * (L(2) + const(1)) * L(2), -L(1) * L(2), const(1)]
        rng = random.Random(20261018)
        for _ in range(20):
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
            if pt[0] == 0:
                continue
            ker = fraction_kernel(evaluate_rows(matrix, pt), 3)
            assert same_span([[x.eval_all(pt) for x in vec]], ker, 3)

    def test_steps_divide_by_a_nonconstant_previous_pivot(self, monkeypatch):
        # No entry is constant, so every pivot is non-constant and the second
        # and third steps divide by the previous pivot.  Rows 0 and 2 have no
        # entry in the first pivot column, 2 L1 - 1, and are still multiplied
        # by it, as in Bareiss: left as they are, the next division by it
        # would leave a remainder.
        zero = const(0)
        matrix = [
            [zero, zero, const(1) - L(1), zero],
            [2 * L(1) - const(1), 2 * L(1), zero, L(2) + 2 * L(1) + const(2)],
            [zero, zero, L(2) - L(1) + const(2), 2 * L(2) - L(1) + const(1)],
        ]
        divisors = []

        def spy(num, den, nvars):
            divisors.append(PolyQ.from_int_terms(nvars, den))
            return _div_int_terms(num, den, nvars)

        monkeypatch.setattr(singular, "_div_int_terms", spy)
        pivots, used, nonconstant = _eliminate(matrix, 4, 2)
        assert [c for _, c in pivots] == [0, 2, 3]
        assert len(nonconstant) == 3
        assert 2 * L(1) - const(1) in divisors
        assert all(not d.is_constant for d in divisors)
        vec = _kernel_from_pivots(pivots, used, 4, 2)
        assert vec == [-L(1), L(1) - const(Fraction(1, 2)), zero, zero]
        rng = random.Random(20261019)
        for _ in range(20):
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
            if any(p.eval_all(pt) == 0 for p in nonconstant):
                continue
            ker = fraction_kernel(evaluate_rows(matrix, pt), 4)
            assert same_span([[x.eval_all(pt) for x in vec]], ker, 4)


_vector_entry = st.one_of(st.just(const(0)), _entry, _entry)


class TestPrimitive:
    """``_primitive`` agrees with the rational-function route: divide by the
    last nonzero coordinate, then clear denominators."""

    @staticmethod
    def _via_fractions(vec):
        last = next((p for p in reversed(vec) if not p.is_zero), PolyQ.one(2))
        return _clear_denominators(2, [RatFuncQ(p, last) for p in vec])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_vector_entry, min_size=1, max_size=4), st.sampled_from([0, 1, 2, 3]))
    def test_matches_the_rational_function_route(self, vec, k):
        # multiplying by a common non-constant factor must not change the result
        factor = [const(1), L(1) - const(2), -3 * L(2) * L(1) + const(1), const(-5)][k]
        scaled = [p * factor for p in vec]
        assert _primitive(scaled) == self._via_fractions(vec) == _primitive(vec)

    @pytest.mark.parametrize(
        "vec",
        [
            [const(0), L(1), const(0)],
            [L(2), const(-3)],
            [const(2), const(0), -2 * L(1) + const(4), const(0)],
            [(L(1) + L(2)) * L(1), -(L(1) + L(2)) * const(6)],
            [L(1) * L(2), const(0), 3 * L(1) ** 2, -6 * L(1) * (L(2) - const(1))],
            [const(0), const(0)],
        ],
    )
    def test_edge_cases(self, vec):
        got = _primitive(vec)
        assert got == self._via_fractions(vec)
        nonzero = [p for p in got if not p.is_zero]
        if nonzero:
            assert nonzero[-1] == nonzero[-1].monic()


class TestSyntheticSolve:
    def _system(self, rows, ncols, nvars=2):
        sys_rows = [
            SystemRow(None, None, tuple(rows[k])) for k in range(len(rows))
        ]
        return AnsatzSystem(Weight.of(*([0] * nvars)), nvars, list(range(ncols)), sys_rows, [])

    def test_quadratic_pivot_splits_into_both_roots(self):
        # single condition ((L2-1)(L2-2)) nu = 0: two affine branches
        q = (L(2) - const(1)) * (L(2) - const(2))
        sys_ = self._system([[q]], 1)
        branches = solve_parametric(sys_)
        eqs = sorted(tuple(p.to_text() for p in b.constraints.equations) for b in branches)
        assert eqs == [("L2 - 1",), ("L2 - 2",)]
        for b in branches:
            assert b.kernel == [[PolyQ.one(2)]]

    def test_two_variable_case_tree(self):
        # diag(L1, L2): kernel on each axis, dimension jump at the origin,
        # which no assembled system has (Verma's bound)
        sys_ = self._system([[L(1), const(0)], [const(0), L(2)]], 2)
        with pytest.raises(KernelDimensionError, match="dimension 2 at L2 = 0 & L1 = 0") as err:
            solve_parametric(sys_)
        assert err.value.dimension == 2
        assert [p.to_text() for p in err.value.constraints.equations] == ["L2", "L1"]

    @staticmethod
    def _summary(branches):
        return [
            (tuple(p.to_text() for p in b.constraints.equations), b.kernel)
            for b in branches
        ]

    def test_specialization_is_pruned(self):
        # generic kernel [-1, L2]; at L2 = 1 the second row alone is left,
        # whose kernel [-1, 1] is the generic one specialized, so that case
        # is dropped
        rows = [
            [L(2) * (L(2) - const(1)), L(2) - const(1)],
            [L(2) * (L(2) - const(2)), L(2) - const(2)],
        ]
        branches = solve_parametric(self._system(rows, 2))
        assert self._summary(branches) == [((), [[const(-1), L(2)]])]

    def test_vanishing_last_coordinate_is_kept(self):
        # the generic kernel [1 - L2, L2] has last coordinate 0 at L2 = 0,
        # so it does not specialize there and the case L2 = 0 stays
        branches = solve_parametric(self._system([[L(2), L(2) - const(1)]], 2))
        assert self._summary(branches) == [
            ((), [[const(1) - L(2), L(2)]]),
            (("L2",), [[const(1), const(0)]]),
        ]

    def test_budget_partial_result(self):
        from jacobiverma.singular import BranchBudgetExceededError

        q = (L(2) - const(1)) * (L(2) - const(2))
        sys_ = self._system([[q]], 1)
        try:
            solve_parametric(sys_, branch_budget=1)
        except BranchBudgetExceededError as err:
            assert len(err.unexplored) == 2
        else:
            raise AssertionError("expected budget exhaustion")


def _locus_point(rng, constraints):
    """A random rational point on the locus of an affine solved form in L1, L2."""
    solved = dict(constraints.solved_form)
    pt = [None, None]
    for v in range(2):
        if v not in solved:
            pt[v] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    for v, expr in solved.items():
        pt[v] = expr.eval_all([x if x is not None else Fraction(0) for x in pt])
    return pt


class TestRandomSystems:
    def test_branch_loci_match_numeric_kernels(self):
        # random systems with affine entries (the shape condition assembly
        # produces): a point has a nontrivial kernel iff a branch covers it.
        # Unlike an assembled system, such a system can have a case with a
        # kernel of dimension 2 or more; the solver then raises, and the
        # numeric kernel at a random point of that case's locus is as large
        rng = random.Random(240511)
        raised = 0
        for _ in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 3)
            rows = []
            for _ in range(nrows):
                row = []
                for _ in range(ncols):
                    terms = {}
                    for exps in [(0, 0), (1, 0), (0, 1)]:
                        if rng.random() < 0.5:
                            terms[exps] = Fraction(rng.randint(-3, 3))
                    row.append(PolyQ(2, terms))
                rows.append(row)
            sys_rows = [
                SystemRow(None, None, tuple(r))
                for r in rows
                if any(not e.is_zero for e in r)
            ]
            system = AnsatzSystem(Weight.of(0, 0), 2, list(range(ncols)), sys_rows, [])
            try:
                branches = solve_parametric(system, branch_budget=256)
            except KernelDimensionError as err:
                raised += 1
                pt = _locus_point(rng, err.constraints)
                ker = fraction_kernel(evaluate_rows([r.entries for r in system.rows], pt), ncols)
                assert len(ker) >= err.dimension >= 2, (rows, pt)
                continue
            pts = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                for _ in range(6)
            ]
            for br in branches:
                if br.constraints.solved_form is not None:
                    pts.append(_locus_point(rng, br.constraints))
            for pt in pts:
                ker = fraction_kernel(evaluate_rows([r.entries for r in system.rows], pt), ncols)
                sat = any(br.constraints.satisfied_at(pt) for br in branches)
                assert bool(ker) == sat, (rows, pt)
        # both outcomes occur among the 40 systems
        assert 0 < raised < 40


class TestOtherRanks:
    def test_n1_pipeline(self):
        alg = JacobiAlgebra(1)
        rep = find_singular_vectors(alg, Weight.of(2))
        assert [render_monomial(alg, m) for m in rep.monomials] == [
            "K+[1,1]",
            "(a+[1])^2",
        ]
        assert len(rep.branches) == 1
        br = rep.branches[0]
        assert br.constraints.equations == (
            PolyQ.var(1, 0) - PolyQ.const(1, Fraction(1, 4)),
        )
        assert br.verified
        for coords in [(1,), (3,)]:
            assert find_singular_vectors(alg, Weight.of(*coords)).branches == []

    def test_n3_simple_root_cases(self):
        alg = JacobiAlgebra(3)

        def L3(i):
            return PolyQ.var(3, i - 1)

        cases = {
            (1, -1, 0): (L3(2) - L3(1),),
            (0, 1, -1): (L3(3) - L3(2),),
        }
        for coords, eqs in cases.items():
            rep = find_singular_vectors(alg, Weight.of(*coords))
            assert len(rep.branches) == 1
            assert rep.branches[0].constraints.equations == eqs
            assert rep.branches[0].verified

    def test_n3_oracle_agreement(self):
        # soundness + random-point agreement one rank up (no completeness
        # claim), against every element of n- on the full ansatz
        alg = JacobiAlgebra(3)
        rng = random.Random(314159)
        for coords in [(1, -1, 0), (1, 0, -1), (0, 0, 2), (1, 0, 0)]:
            w = Weight.of(*coords)
            rep = find_singular_vectors(alg, w)
            ncols = len(rep.monomials)
            full = all_negative_rows(alg, rep.monomials)
            for br in rep.branches:
                assert br.verified
            pts = [
                [Fraction(rng.randint(-10, 10), rng.randint(1, 5)) for _ in range(3)]
                for _ in range(10)
            ]
            for br in rep.branches:
                solved = dict(br.constraints.solved_form)
                pt = [None, None, None]
                for v in range(3):
                    if v not in solved:
                        pt[v] = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
                for v, expr in solved.items():
                    pt[v] = expr.eval_all([x if x is not None else Fraction(0) for x in pt])
                pts.append(pt)
            for pt in pts:
                ker = fraction_kernel(evaluate_rows(full, pt), ncols)
                sat = [b for b in rep.branches if b.constraints.satisfied_at(pt)]
                assert bool(ker) == bool(sat), (coords, pt)
                if sat:
                    sym = [[x.eval_all(pt) for x in b.kernel] for b in sat]
                    assert same_span(sym, ker, ncols)
