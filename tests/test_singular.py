import functools
import itertools
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
from jacobiverma.pbw import PbwMonomial
from jacobiverma.ring import PolyQ, RatFuncQ
from jacobiverma.singular import (
    BranchBudgetExceededError,
    _lift_kernel_vector,
    _lift_table,
    ansatz_sort_key,
    assemble_system,
    enumerate_ansatz,
    find_singular_vectors,
    solve_parametric,
)
from jacobiverma.textio import render_monomial, report_to_json
from jacobiverma.verma import ConstraintSet, VermaVector, act, is_singular

from kac_kazhdan import check_kac_kazhdan
from oracles import all_negative_rows, evaluate_rows, fraction_kernel, oracle_lift, same_span

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


def brute_force_ansatz(alg, w):
    """Every exponent vector over the raising generators with each exponent at
    most phi(w) = sum_k (n-k) w_k, kept when its weight is w.  phi is at least
    1 on every raising generator, so no monomial of weight w is missed."""
    n = alg.n
    weights = [[int(2 * c) for c in alg.weight(g).coords] for g in alg.positive]
    phi = [sum((n - k) * c for k, c in enumerate(wc)) for wc in weights]
    assert min(phi) >= 2  # doubled coordinates
    target = [2 * c for c in w.coords]
    bound = max(int(sum((n - k) * c for k, c in enumerate(w.coords))), -1)
    tail = (0,) * (len(alg.generators) - alg.num_positive)
    found = set()
    for exps in itertools.product(range(bound + 1), repeat=alg.num_positive):
        got = [sum(e * wc[k] for e, wc in zip(exps, weights)) for k in range(n)]
        if got == target:
            found.add(PbwMonomial(exps + tail))
    return found


BRUTE_FORCE_CASES = [
    (ALG, c)
    for c in [(2, 0), (1, 1), (0, 3), (3, -1), (2, 2), (0, 0), (-1, 0),
              (Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
              (-1, 3), (2, -2), (4, -2)]
] + [
    (JacobiAlgebra(3), c)
    for c in [(1, -1, 0), (0, 0, 1), (0, Fraction(1, 2), Fraction(1, 2)), (0, 1, -1), (-1, 2, 0)]
]


@pytest.mark.parametrize(
    "alg, coords", BRUTE_FORCE_CASES, ids=[",".join(map(str, c)) for _, c in BRUTE_FORCE_CASES]
)
def test_enumeration_matches_brute_force(alg, coords):
    w = Weight.of(*coords)
    mons = enumerate_ansatz(alg, w)
    assert len(set(mons)) == len(mons)
    assert set(mons) == brute_force_ansatz(alg, w)
    assert mons == sorted(mons, key=lambda m: ansatz_sort_key(alg, m), reverse=True)


def test_enumeration_g4_2d1_plus_2d2():
    from jacobiverma.pbw import monomial_weight

    alg = JacobiAlgebra(4)
    w = Weight.of(2, 2, 0, 0)
    mons = enumerate_ansatz(alg, w)
    assert len(mons) == len(set(mons)) == 1007
    assert all(monomial_weight(alg, m) == w for m in mons)
    assert mons == sorted(mons, key=lambda m: ansatz_sort_key(alg, m), reverse=True)


def conditions(ansatz, x, label):
    """Coefficient of the labelled monomial in act(x, m v0), per ansatz m."""
    images = [act(ALG, x, VermaVector.monomial(ALG, m)) for m in ansatz]
    return tuple(
        {render_monomial(ALG, b): c for b, c in img.terms.items()}.get(label, const(0))
        for img in images
    )


class TestAssemble:
    # Columns are the sp(n) monomials (no a+ factor); rows come from K-_22
    # and K0_21 with every Cartan value taken at L_i - 1/4.  The g_2 action
    # on the full ansatz still yields the unshifted conditions of the other
    # lowering generators.

    def test_weight_d2_forces_zero(self):
        # a-2 a+2 v0 = v0 forces the only coefficient to zero; no sp column
        sys_ = assemble_system(ALG, Weight.of(0, 1))
        assert names(sys_.ansatz) == ["a+2"]
        assert sys_.columns == []
        assert sys_.rows == []
        assert conditions(sys_.ansatz, G(A_MINUS, 2), "1") == (PolyQ.one(2),)

    def test_weight_d1_minus_d2_single_condition(self):
        # K0_21 d+ v0 = [K0_21, K0_12] v0 = (h2 - h1)/2 v0: the shift cancels
        sys_ = assemble_system(ALG, Weight.of(1, -1))
        assert names(sys_.columns) == names(sys_.ansatz) == ["d+"]
        assert len(sys_.rows) == 1
        row = sys_.rows[0]
        assert row.x == G(K_ZERO, 2, 1)
        assert row.result.is_unit
        assert row.entries == ((L(2) - L(1)) * const(Fraction(1, 2)),)

    def test_weight_2d2_two_conditions(self):
        # a-2 and K-_22 on the full ansatz give the two unshifted conditions;
        # the one sp row is K-_22 b+2 v0 = [K-_22, K+_22] v0 = 2 h2 v0, taken
        # at L2 - 1/4
        sys_ = assemble_system(ALG, Weight.of(0, 2))
        assert names(sys_.ansatz) == ["b+2", "(a+2)^2"]
        assert names(sys_.columns) == ["b+2"]
        assert [(r.x, names([r.result]), r.entries) for r in sys_.rows] == [
            (G(K_MINUS, 2, 2), ["1"], (2 * L(2) - const(Fraction(1, 2)),)),
        ]
        assert conditions(sys_.ansatz, G(A_MINUS, 2), "a+2") == (const(1), const(2))
        assert conditions(sys_.ansatz, G(K_MINUS, 2, 2), "1") == (2 * L(2), const(1))

    def test_weight_2d1_rows(self):
        # hand-computed: K-_22 c+ d+ v0 = (d+)^2 v0 and
        # K-_22 b+2 (d+)^2 v0 = 2 h2 (d+)^2 v0 = 2 (L2 - 1) (d+)^2 v0;
        # K0_21 b+1 v0 = c+ v0, K0_21 c+ d+ v0 = (L2 - L1)/2 c+ v0 + 1/2 b+2 d+ v0,
        # K0_21 b+2 (d+)^2 v0 = (L2 - L1 - 1/2) b+2 d+ v0
        sys_ = assemble_system(ALG, Weight.of(2, 0))
        assert names(sys_.columns) == ["b+1", "c+ d+", "b+2 (d+)^2"]
        assert all(r.x in ALG.lowering_generators for r in sys_.rows)
        s = L(2) - L(1)
        shifted_l2 = L(2) - const(Fraction(1, 4))
        half = const(Fraction(1, 2))
        assert [(r.x, names([r.result])[0], r.entries) for r in sys_.rows] == [
            (G(K_MINUS, 2, 2), "(d+)^2", (const(0), const(1), 2 * shifted_l2 - const(2))),
            (G(K_ZERO, 2, 1), "c+", (const(1), s * half, const(0))),
            (G(K_ZERO, 2, 1), "b+2 d+", (const(0), half, s - half)),
        ]

    def test_weight_2d1_selected_rows(self):
        sys_ = assemble_system(ALG, Weight.of(2, 0))
        assert names(sys_.ansatz)[0] == "b+1"
        s = L(2) - L(1)

        # d- produces the weight d1+d2 monomials; the c+ condition:
        assert conditions(sys_.ansatz, G(K_ZERO, 2, 1), "c+") == (
            const(1),
            s * const(Fraction(1, 2)),
            const(0),
            const(0),
            const(0),
            const(0),
        )
        # b-1 on the ansatz gives the scalar condition:
        assert conditions(sys_.ansatz, G(K_MINUS, 1, 1), "1") == (
            2 * L(1),
            s * const(Fraction(1, 2)),
            const(0),
            const(1),
            const(0),
            const(0),
        )
        # a-1 hitting a+1:
        assert conditions(sys_.ansatz, G(A_MINUS, 1), "a+1") == (
            const(1),
            const(0),
            const(0),
            const(2),
            const(0),
            const(0),
        )

    def test_columns_are_the_ansatz_without_a_plus(self):
        for coords in [(2, 0), (1, 1), (0, 2), (4, 4), (3, -1)]:
            sys_ = assemble_system(ALG, Weight.of(*coords))
            assert sys_.ansatz == enumerate_ansatz(ALG, Weight.of(*coords))
            assert sys_.columns == [m for m in sys_.ansatz if not any(m.exps[:2])]

    def test_empty_ansatz_gives_empty_system(self):
        sys_ = assemble_system(ALG, Weight.of(-1, 0))
        assert sys_.ansatz == []
        assert sys_.columns == []
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
        # the sp kernel is b+2 alone; the report lifts it to b+2 - 1/2 (a+2)^2
        _, br = one_branch((0, 2))
        assert br.constraints.equations == (L(2) - const(Fraction(1, 4)),)
        assert br.kernel == [[const(1)]]
        (rb,) = find_singular_vectors(ALG, Weight.of(0, 2)).branches
        assert rb.constraints == br.constraints
        assert rb.kernel == [RatFuncQ(const(-2)), RatFuncQ(const(1))]

    def test_weight_d1_minus_d2(self):
        _, br = one_branch((1, -1))
        assert br.constraints.equations == (L(2) - L(1),)
        assert br.kernel == [[const(1)]]

    @pytest.mark.parametrize("coords", [(1, 0), (0, 1), (0, 3)])
    def test_no_branches(self, coords):
        sys_ = assemble_system(ALG, Weight.of(*coords))
        assert solve_parametric(sys_) == []

    def test_budget_exhaustion(self):
        sys_ = assemble_system(ALG, Weight.of(2, 0))
        with pytest.raises(BranchBudgetExceededError) as err:
            solve_parametric(sys_, branch_budget=1)
        assert err.value.unexplored

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_rejected(self, budget):
        sys_ = assemble_system(ALG, Weight.of(2, 0))
        with pytest.raises(ValueError, match="at least 1"):
            solve_parametric(sys_, branch_budget=budget)

    def test_kernel_normalization(self):
        # the sp kernel is a primitive polynomial vector with a monic last
        # coordinate, here 1
        _, br = one_branch((2, 0))
        (vec,) = br.kernel
        assert all(type(x) is PolyQ for x in vec)
        assert vec == [
            L(2) ** 2 - 2 * L(2) + const(Fraction(15, 16)),
            const(Fraction(5, 2)) - 2 * L(2),
            PolyQ.one(2),
        ]


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
        got = [x.as_poly() for x in br.kernel]
        assert got == EXPECTED_2D1
        assert br.verified

    def test_weight_d1_plus_d2(self):
        rep = find_singular_vectors(ALG, Weight.of(1, 1))
        assert len(rep.branches) == 1
        br = rep.branches[0]
        assert br.constraints.equations == (L(2) + L(1) - const(Fraction(3, 2)),)
        got = [x.as_poly() for x in br.kernel]
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
                report = is_singular(ALG, br.vector, br.constraints)
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


@functools.lru_cache(maxsize=None)
def desk_reports():
    """((c1, c2), report) for every nonzero g_2 weight with |coords| <= 3,
    computed once per session."""
    return tuple(
        ((c1, c2), find_singular_vectors(ALG, Weight.of(c1, c2)))
        for c1 in range(-3, 4)
        for c2 in range(-3, 4)
        if (c1, c2) != (0, 0)
    )


class TestCompletenessOracle:
    # The numeric matrix acts with every element of n- on the full ansatz, so
    # these tests rely neither on the sp(n) system nor on its lift.

    def test_random_point_agreement_desk_scale(self):
        # every weight with |coords| <= 3: a random weight point admits a
        # nontrivial numeric kernel iff it satisfies some reported branch
        rng = random.Random(20250810)
        for (c1, c2), rep in desk_reports():
            ncols = len(rep.monomials)
            if ncols == 0:
                continue
            full = all_negative_rows(ALG, rep.monomials)
            for _ in range(25):
                pt = [
                    Fraction(rng.randint(-20, 20), rng.randint(1, 8))
                    for _ in range(2)
                ]
                ker = fraction_kernel(evaluate_rows(full, pt), ncols)
                sat = any(br.constraints.satisfied_at(pt) for br in rep.branches)
                assert bool(ker) == sat, (c1, c2, pt)

    def test_desk_scale_reports_obey_kac_kazhdan(self):
        for coords, rep in desk_reports():
            try:
                check_kac_kazhdan(report_to_json(ALG, rep))
            except AssertionError as exc:
                raise AssertionError(f"weight {coords}: {exc}") from exc

    def test_on_branch_points_match_symbolic_kernel(self):
        rng = random.Random(424242)
        for coords in [(2, 0), (0, 2), (1, 1), (1, -1)]:
            rep = find_singular_vectors(ALG, Weight.of(*coords))
            ncols = len(rep.monomials)
            full = all_negative_rows(ALG, rep.monomials)
            for br in rep.branches:
                for _ in range(10):
                    pt = branch_point(rng, 2, br.constraints)
                    ker = fraction_kernel(evaluate_rows(full, pt), ncols)
                    assert ker
                    sym = [[x.eval_all(pt) for x in br.kernel]]
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
        # the sp(n) rows' kernel, lifted through m -> m(K') v0, is the kernel
        # of every element of n- on the full ansatz, at random points and on
        # every branch
        rng = random.Random(str(w))
        sys_ = assemble_system(alg, w)
        ncols = len(sys_.ansatz)
        full = all_negative_rows(alg, sys_.ansatz)
        lifts = [oracle_lift(alg, m) for m in sys_.columns]
        points = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(alg.n)]
            for _ in range(10)
        ]
        for br in solve_parametric(sys_):
            points += [branch_point(rng, alg.n, br.constraints) for _ in range(3)]
        for pt in points:
            sp_ker = fraction_kernel(evaluate_rows([r.entries for r in sys_.rows], pt), len(lifts))
            lifted = [
                [
                    sum(
                        (c * lift.terms[m].eval_all(pt) for c, lift in zip(vec, lifts) if m in lift.terms),
                        Fraction(0),
                    )
                    for m in sys_.ansatz
                ]
                for vec in sp_ker
            ]
            ker = fraction_kernel(evaluate_rows(full, pt), ncols)
            assert same_span(lifted, ker, ncols), pt


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


def act_then_shift_rows(alg, sys_):
    """The sp(n) rows computed as ``act`` at the formal weight followed by
    the substitution L_i -> L_i - 1/4 in every entry."""
    n = alg.n
    shift = {i: PolyQ.var(n, i) - PolyQ.const(n, Fraction(1, 4)) for i in range(n)}
    rows = []
    for x in alg.sp_lowering_generators:
        images = [act(alg, x, VermaVector.monomial(alg, m)) for m in sys_.columns]
        support = {b for img in images for b in img.terms}
        for b in sorted(support, key=lambda m: ansatz_sort_key(alg, m), reverse=True):
            entries = tuple(img.terms.get(b, PolyQ.zero(n)).subs(shift) for img in images)
            if any(not e.is_zero for e in entries):
                rows.append((x, b, entries))
    return rows


class TestAssembleAtShiftedCartan:
    @pytest.mark.parametrize(
        "alg, w", GENERATOR_ROW_CASES, ids=[str(w) for _, w in GENERATOR_ROW_CASES]
    )
    def test_rows_equal_act_then_substitution(self, alg, w):
        sys_ = assemble_system(alg, w)
        assert [(r.x, r.result, r.entries) for r in sys_.rows] == act_then_shift_rows(alg, sys_)


LIFT_CASES = [
    (ALG, Weight.of(*c))
    for c in [(2, 0), (0, 2), (1, 1), (1, -1), (1, 0), (0, 1), (0, 3),
              (2, 2), (3, 1), (4, 0), (3, 3), (6, 0), (4, 4)]
] + [(JacobiAlgebra(3), Weight.of(*c)) for c in [(1, 1, 0), (2, 0, 0), (2, 2, 0)]]


class TestClosedFormLift:
    # the g_2 ladder weights of the benchmark and three g_3 weights
    @pytest.mark.parametrize("alg, w", LIFT_CASES, ids=[str(w) for _, w in LIFT_CASES])
    def test_every_column_matches_the_oracle_lift(self, alg, w):
        sys_ = assemble_system(alg, w)
        lift = _lift_table(alg, sys_)
        free = ConstraintSet.empty(alg.n)
        zero, one = PolyQ.zero(alg.n), PolyQ.one(alg.n)
        for k, m in enumerate(sys_.columns):
            unit = [one if c == k else zero for c in range(len(sys_.columns))]
            coords = _lift_kernel_vector(sys_, lift, unit, free)
            got = VermaVector(alg.n, dict(zip(sys_.ansatz, coords)))
            assert got == oracle_lift(alg, m), render_monomial(alg, m)

    def test_lift_is_linear_with_polynomial_coefficients(self):
        # b+2 -> b+2 - 1/2 (a+2)^2, scaled by a polynomial coefficient
        sys_ = assemble_system(ALG, Weight.of(0, 2))
        coeff = 2 * L(2) - const(Fraction(1, 3))
        coords = _lift_kernel_vector(sys_, _lift_table(ALG, sys_), [coeff], ConstraintSet.empty(2))
        assert coords == [coeff, coeff * const(Fraction(-1, 2))]
