import json
import random
from fractions import Fraction

import pytest

from jacobiverma.algebra import (
    A_MINUS,
    Generator,
    JacobiAlgebra,
    K_MINUS,
    K_ZERO,
    Weight,
)
from jacobiverma.ring import PolyQ, RatFuncQ
from jacobiverma.singular import (
    BranchBudgetExceededError,
    assemble_system,
    enumerate_ansatz,
    find_singular_vectors,
    solve_parametric,
)
from jacobiverma.textio import render_monomial, report_to_json
from jacobiverma.verma import VermaVector, act, is_singular

from oracles import all_negative_rows, evaluate_rows, fraction_kernel, same_span

ALG = JacobiAlgebra(2)


def G(family, i, j=0):
    return Generator(family, i, j)


def L(i):
    return PolyQ.var(2, i - 1)


def const(c):
    return PolyQ.const(2, Fraction(c))


def names(mons):
    return [render_monomial(ALG, m) for m in mons]


class TestEnumerate:
    def test_weight_2d1_exact_listing(self):
        assert names(enumerate_ansatz(ALG, Weight.of(2, 0))) == [
            "b+1",
            "c+ d+",
            "b+2 (d+)^2",
            "(a+1)^2",
            "a+1 a+2 d+",
            "(a+2)^2 (d+)^2",
        ]

    def test_weight_d1_plus_d2(self):
        assert names(enumerate_ansatz(ALG, Weight.of(1, 1))) == [
            "c+",
            "b+2 d+",
            "a+1 a+2",
            "(a+2)^2 d+",
        ]

    def test_weight_d1_minus_d2(self):
        assert names(enumerate_ansatz(ALG, Weight.of(1, -1))) == ["d+"]

    def test_weight_3d2(self):
        assert names(enumerate_ansatz(ALG, Weight.of(0, 3))) == ["b+2 a+2", "(a+2)^3"]

    def test_weight_2d2(self):
        assert names(enumerate_ansatz(ALG, Weight.of(0, 2))) == ["b+2", "(a+2)^2"]

    def test_weight_d1(self):
        assert names(enumerate_ansatz(ALG, Weight.of(1, 0))) == ["a+1", "a+2 d+"]

    def test_weight_d2(self):
        assert names(enumerate_ansatz(ALG, Weight.of(0, 1))) == ["a+2"]

    def test_weight_zero(self):
        mons = enumerate_ansatz(ALG, Weight.of(0, 0))
        assert len(mons) == 1 and mons[0].is_unit

    def test_unreachable_weight_empty(self):
        assert enumerate_ansatz(ALG, Weight.of(-1, 0)) == []
        assert enumerate_ansatz(ALG, Weight.of(Fraction(1, 2), 0)) == []

    def test_weights_all_match(self):
        from jacobiverma.pbw import monomial_weight

        for coords in [(2, 0), (1, 1), (0, 3), (3, -1), (2, 2)]:
            w = Weight.of(*coords)
            for m in enumerate_ansatz(ALG, w):
                assert monomial_weight(ALG, m) == w

    def test_g3_runs(self):
        alg3 = JacobiAlgebra(3)
        mons = enumerate_ansatz(alg3, Weight.of(0, 0, 2))
        assert mons  # contains at least K+[3,3] and (a+[3])^2
        from jacobiverma.pbw import monomial_weight

        for m in mons:
            assert monomial_weight(alg3, m) == Weight.of(0, 0, 2)


class TestAssemble:
    def test_weight_d2_forces_zero(self):
        sys_ = assemble_system(ALG, Weight.of(0, 1))
        assert names(sys_.monomials) == ["a+2"]
        assert len(sys_.rows) == 1
        row = sys_.rows[0]
        assert row.x == G(A_MINUS, 2)
        assert row.entries == (PolyQ.one(2),)

    def test_weight_d1_minus_d2_single_condition(self):
        sys_ = assemble_system(ALG, Weight.of(1, -1))
        assert len(sys_.rows) == 1
        row = sys_.rows[0]
        assert row.x == G(K_ZERO, 2, 1)
        assert row.result.is_unit
        assert row.entries == ((L(2) - L(1)) * const(Fraction(1, 2)),)

    def test_weight_2d2_two_conditions(self):
        sys_ = assemble_system(ALG, Weight.of(0, 2))
        assert [(r.x, tuple(r.entries)) for r in sys_.rows] == [
            (G(A_MINUS, 2), (const(1), const(2))),
            (G(K_MINUS, 2, 2), (2 * L(2), const(1))),
        ]

    def test_weight_2d1_selected_rows(self):
        # spot checks against the hand-computed system
        sys_ = assemble_system(ALG, Weight.of(2, 0))
        assert names(sys_.monomials)[0] == "b+1"
        assert all(r.x in ALG.lowering_generators for r in sys_.rows)
        s = L(2) - L(1)
        by_label = {
            (r.x, render_monomial(ALG, r.result)): r.entries for r in sys_.rows
        }
        # d- produces the weight d1+d2 monomials; the c+ condition:
        row = by_label[(G(K_ZERO, 2, 1), "c+")]
        assert row == (
            const(1),
            s * const(Fraction(1, 2)),
            const(0),
            const(0),
            const(0),
            const(0),
        )

        def conditions(x, label):
            # coefficient of the labelled monomial in act(x, m v0), per ansatz m
            images = [act(ALG, x, VermaVector.monomial(ALG, m)) for m in sys_.monomials]
            return tuple(
                {render_monomial(ALG, b): c for b, c in img.terms.items()}.get(label, const(0))
                for img in images
            )

        # b-1 and a-1 are brackets of the generators and give no rows, but the
        # action still yields their hand-computed conditions.
        # b-1 on the ansatz gives the scalar condition:
        assert conditions(G(K_MINUS, 1, 1), "1") == (
            2 * L(1),
            s * const(Fraction(1, 2)),
            const(0),
            const(1),
            const(0),
            const(0),
        )
        # a-1 hitting a+1:
        assert conditions(G(A_MINUS, 1), "a+1") == (
            const(1),
            const(0),
            const(0),
            const(2),
            const(0),
            const(0),
        )

    def test_empty_ansatz_gives_empty_system(self):
        sys_ = assemble_system(ALG, Weight.of(-1, 0))
        assert sys_.monomials == []
        assert sys_.rows == []

    def test_no_zero_rows(self):
        for coords in [(2, 0), (1, 1), (0, 2), (1, -1), (1, 0), (0, 1), (0, 3)]:
            sys_ = assemble_system(ALG, Weight.of(*coords))
            for r in sys_.rows:
                assert any(not e.is_zero for e in r.entries)


def one_branch(coords, budget=64):
    sys_ = assemble_system(ALG, Weight.of(*coords))
    branches = solve_parametric(sys_, budget)
    assert len(branches) == 1, f"expected one branch, got {len(branches)}"
    return sys_, branches[0]


class TestSolve:
    def test_weight_2d2(self):
        _, br = one_branch((0, 2))
        assert br.constraints.equations == (L(2) - const(Fraction(1, 4)),)
        assert br.kernel == [[RatFuncQ(const(-2)), RatFuncQ(const(1))]]

    def test_weight_d1_minus_d2(self):
        _, br = one_branch((1, -1))
        assert br.constraints.equations == (L(2) - L(1),)
        assert br.kernel == [[RatFuncQ(const(1))]]

    @pytest.mark.parametrize("coords", [(1, 0), (0, 1), (0, 3)])
    def test_no_branches(self, coords):
        sys_ = assemble_system(ALG, Weight.of(*coords))
        assert solve_parametric(sys_) == []

    def test_budget_exhaustion(self):
        sys_ = assemble_system(ALG, Weight.of(2, 0))
        with pytest.raises(BranchBudgetExceededError) as err:
            solve_parametric(sys_, branch_budget=1)
        assert err.value.unexplored

    def test_kernel_normalization(self):
        _, br = one_branch((2, 0))
        vec = br.kernel[0]
        last = [x for x in vec if not x.is_zero][-1]
        assert last == RatFuncQ.one(2)


# frozen kernels: derived by row-reducing the hand-computed condition systems,
# certified against the random-point numeric oracle below
EXPECTED_2D1 = [
    const(-2) * (L(2) - const(Fraction(3, 4))) * (L(2) - const(Fraction(5, 4))),
    const(4) * (L(2) - const(Fraction(5, 4))),
    const(-2),
    (L(2) - const(Fraction(3, 4))) * (L(2) - const(Fraction(5, 4))),
    const(-2) * (L(2) - const(Fraction(5, 4))),
    const(1),
]

EXPECTED_D1D2 = [
    const(3) - 4 * L(1),
    const(-2),
    2 * L(1) - const(Fraction(3, 2)),
    const(1),
]


class TestFindSingularVectors:
    def test_weight_2d1(self):
        rep = find_singular_vectors(ALG, Weight.of(2, 0))
        assert len(rep.branches) == 1
        br = rep.branches[0]
        assert br.constraints.equations == (L(1) - const(Fraction(3, 4)),)
        assert len(br.kernel) == 1
        got = [x.as_poly() for x in br.kernel[0]]
        assert got == EXPECTED_2D1
        assert br.verified

    def test_weight_d1_plus_d2(self):
        rep = find_singular_vectors(ALG, Weight.of(1, 1))
        assert len(rep.branches) == 1
        br = rep.branches[0]
        assert br.constraints.equations == (L(2) + L(1) - const(Fraction(3, 2)),)
        got = [x.as_poly() for x in br.kernel[0]]
        assert got == EXPECTED_D1D2
        assert br.verified

    def test_weight_zero_trivial(self):
        rep = find_singular_vectors(ALG, Weight.of(0, 0))
        assert rep.trivial
        assert rep.branches == []
        assert len(rep.monomials) == 1 and rep.monomials[0].is_unit

    def test_absence_reports(self):
        for coords, size in [((1, 0), 2), ((0, 1), 1), ((0, 3), 2)]:
            rep = find_singular_vectors(ALG, Weight.of(*coords))
            assert rep.branches == []
            assert not rep.trivial
            assert len(rep.monomials) == size

    def test_soundness_every_branch_verified(self):
        for coords in [(2, 0), (0, 2), (1, 1), (1, -1)]:
            rep = find_singular_vectors(ALG, Weight.of(*coords))
            for br in rep.branches:
                assert br.verified
                for v in br.vectors:
                    report = is_singular(ALG, v, br.constraints)
                    assert report.singular
                    assert len(report.by_generator) == 6


def branch_point(rng, nvars, constraints):
    """A random rational point on the locus of an affine solved form."""
    solved = dict(constraints.solved_form)
    pt = [Fraction(rng.randint(-15, 15), rng.randint(1, 6)) for _ in range(nvars)]
    for v in solved:
        pt[v] = Fraction(0)
    for v, expr in solved.items():
        pt[v] = expr.eval_all(pt)
    return pt


class TestCompletenessOracle:
    # The numeric matrix acts with every element of n-, so these tests do not
    # rely on the Lie-generator shortcut in assemble_system.

    def test_random_point_agreement_desk_scale(self):
        # every weight with |coords| <= 3: a random weight point admits a
        # nontrivial numeric kernel iff it satisfies some emitted branch
        rng = random.Random(20250810)
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                w = Weight.of(c1, c2)
                if w.is_zero:
                    continue
                sys_ = assemble_system(ALG, w)
                ncols = len(sys_.monomials)
                if ncols == 0:
                    continue
                branches = solve_parametric(sys_)
                full = all_negative_rows(ALG, sys_.monomials)
                for _ in range(25):
                    pt = [
                        Fraction(rng.randint(-20, 20), rng.randint(1, 8))
                        for _ in range(2)
                    ]
                    ker = fraction_kernel(evaluate_rows(full, pt), ncols)
                    sat = any(br.constraints.satisfied_at(pt) for br in branches)
                    assert bool(ker) == sat, (c1, c2, pt)

    def test_on_branch_points_match_symbolic_kernel(self):
        rng = random.Random(424242)
        for coords in [(2, 0), (0, 2), (1, 1), (1, -1)]:
            w = Weight.of(*coords)
            sys_ = assemble_system(ALG, w)
            ncols = len(sys_.monomials)
            branches = solve_parametric(sys_)
            full = all_negative_rows(ALG, sys_.monomials)
            for br in branches:
                for _ in range(10):
                    pt = branch_point(rng, 2, br.constraints)
                    ker = fraction_kernel(evaluate_rows(full, pt), ncols)
                    assert ker
                    sym = [[x.eval_all(pt) for x in vec] for vec in br.kernel]
                    assert same_span(sym, ker, ncols)


GENERATOR_ROW_CASES = [
    (ALG, Weight.of(c1, c2))
    for c1 in range(-3, 4)
    for c2 in range(-3, 4)
    if (c1, c2) != (0, 0)
] + [(JacobiAlgebra(3), Weight.of(*c)) for c in [(1, 1, 0), (2, 0, 0)]]


class TestGeneratorRows:
    @pytest.mark.parametrize(
        "alg, w", GENERATOR_ROW_CASES, ids=[str(w) for _, w in GENERATOR_ROW_CASES]
    )
    def test_same_kernel_as_all_negatives(self, alg, w):
        # the rows of the Lie generators of n- cut out the same kernel as the
        # rows of every element of n-, at random points and on every branch
        rng = random.Random(str(w))
        sys_ = assemble_system(alg, w)
        ncols = len(sys_.monomials)
        full = all_negative_rows(alg, sys_.monomials)
        points = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(alg.n)]
            for _ in range(10)
        ]
        for br in solve_parametric(sys_):
            points += [branch_point(rng, alg.n, br.constraints) for _ in range(3)]
        for pt in points:
            ker = fraction_kernel(sys_.evaluate_at(pt), ncols)
            assert same_span(ker, fraction_kernel(evaluate_rows(full, pt), ncols), ncols), pt


class TestDeterminism:
    def test_reports_byte_identical(self):
        def run():
            alg = JacobiAlgebra(2)
            out = {}
            for coords in [(2, 0), (0, 2), (1, 1), (1, -1), (1, 0), (0, 1), (0, 3)]:
                rep = find_singular_vectors(alg, Weight.of(*coords))
                out[str(coords)] = report_to_json(alg, rep)
            return json.dumps(out, sort_keys=True)

        assert run() == run()
