import itertools
import random
from fractions import Fraction

import pytest

from jacobiverma.algebra import (
    A_MINUS,
    A_PLUS,
    DimensionMismatchError,
    Generator,
    JacobiAlgebra,
    K_MINUS,
    K_PLUS,
    K_ZERO,
    Weight,
)
from jacobiverma.pbw import PbwMonomial, _normal_sums
from jacobiverma.ring import PolyQ
from jacobiverma.textio import parse_constraints, parse_vector
from jacobiverma.verma import (
    ConstraintSet,
    InconsistentConstraintsError,
    InhomogeneousVectorError,
    VermaVector,
    _v0_sums,
    act,
    act_of_bracket,
    apply_word_to_v0,
    is_singular,
    vector_weight,
)

from oracles import oracle_act

ALG = JacobiAlgebra(2)


def G(family, i, j=0):
    return Generator(family, i, j)


def L(i):
    return PolyQ.var(2, i - 1)


def const(c):
    return PolyQ.const(2, Fraction(c))


def mono(*gens):
    return PbwMonomial.from_generators(ALG, gens)


def vec(*pairs):
    return VermaVector(2, {m: c for m, c in pairs})


V0 = VermaVector.unit(ALG)


class TestActGolden:
    def test_annihilator_on_squared_creator(self):
        v = VermaVector.monomial(ALG, mono(G(A_PLUS, 2), G(A_PLUS, 2)))
        assert act(ALG, G(A_MINUS, 2), v) == vec((mono(G(A_PLUS, 2)), const(2)))

    def test_bminus_on_bplus(self):
        v = apply_word_to_v0(ALG, [G(K_PLUS, 2, 2)])
        assert act(ALG, G(K_MINUS, 2, 2), v) == vec((mono(), 2 * L(2)))

    def test_cartan_on_v0(self):
        assert act(ALG, G(K_ZERO, 1, 1), V0) == vec((mono(), L(1)))

    def test_dminus_on_dplus(self):
        v = apply_word_to_v0(ALG, [G(K_ZERO, 1, 2)])
        got = act(ALG, G(K_ZERO, 2, 1), v)
        assert got == vec((mono(), (L(2) - L(1)) * const(Fraction(1, 2))))

    def test_annihilation_of_v0(self):
        for x in ALG.negative:
            assert act(ALG, x, V0).is_zero

    def test_linear_in_vector(self):
        m1 = mono(G(A_PLUS, 1))
        m2 = mono(G(A_PLUS, 2), G(K_ZERO, 1, 2))
        v = vec((m1, const(3)), (m2, L(1)))
        x = G(A_MINUS, 1)
        lhs = act(ALG, x, v)
        rhs = act(ALG, x, vec((m1, const(3)))) + act(ALG, x, vec((m2, L(1))))
        assert lhs == rhs


def random_monomial(rng, max_degree=3):
    while True:
        exps = [0] * len(ALG.generators)
        deg = rng.randint(0, max_degree)
        for _ in range(deg):
            exps[rng.randrange(ALG.num_positive)] += 1
        return PbwMonomial(tuple(exps))


def random_vector(rng, max_degree=3):
    m0 = random_monomial(rng, max_degree)
    from jacobiverma.pbw import monomial_weight
    from jacobiverma.singular import enumerate_ansatz

    w = monomial_weight(ALG, m0)
    mons = enumerate_ansatz(ALG, w)
    terms = {}
    for m in mons:
        if rng.random() < 0.6:
            c = PolyQ(
                2,
                {
                    (rng.randint(0, 1), rng.randint(0, 1)): Fraction(
                        rng.randint(-4, 4), rng.randint(1, 3)
                    )
                },
            )
            if not c.is_zero:
                terms[m] = c
    if not terms:
        terms[m0] = PolyQ.one(2)
    return VermaVector(2, terms)


class TestActAgainstOracle:
    def test_every_generator_on_worked_monomials(self):
        words = [
            [], [G(A_PLUS, 2)], [G(A_PLUS, 1)],
            [G(K_PLUS, 2, 2)], [G(A_PLUS, 2), G(A_PLUS, 2)],
            [G(K_PLUS, 1, 2), G(K_ZERO, 1, 2)],
            [G(K_PLUS, 2, 2), G(K_ZERO, 1, 2), G(K_ZERO, 1, 2)],
            [G(A_PLUS, 1), G(A_PLUS, 2), G(K_ZERO, 1, 2)],
            [G(A_PLUS, 2), G(A_PLUS, 2), G(K_ZERO, 1, 2), G(K_ZERO, 1, 2)],
        ]
        for word in words:
            v = VermaVector.monomial(ALG, mono(*word))
            for x in ALG.generators:
                assert act(ALG, x, v) == oracle_act(ALG, x, v), (x, word)

    def test_random_vectors(self):
        rng = random.Random(321)
        for _ in range(50):
            v = random_vector(rng)
            x = rng.choice(ALG.generators)
            got = act(ALG, x, v)
            assert_clean(got)
            assert got == oracle_act(ALG, x, v)


    def test_every_generator_at_n3_on_multiterm_coefficients(self):
        # g_3 vectors whose coefficients are polynomials of several terms in
        # L, so that Cartan factors shift every term of a coefficient
        alg = JacobiAlgebra(3)
        rng = random.Random(3030)
        for _ in range(10):
            v = random_vector_n3(alg, rng)
            for x in alg.generators:
                got = act(alg, x, v)
                assert_clean(got)
                assert got == oracle_act(alg, x, v), (x, v)


def random_vector_n3(alg, rng):
    """A g_3 vector of one weight, 2 to 3 ansatz monomials of degree <= 3,
    each with a coefficient of 2 to 3 terms of degree <= 2 in L."""
    from jacobiverma.pbw import monomial_weight
    from jacobiverma.singular import enumerate_ansatz

    while True:
        exps = [0] * len(alg.generators)
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(alg.num_positive)] += 1
        mons = enumerate_ansatz(alg, monomial_weight(alg, PbwMonomial(tuple(exps))))
        if len(mons) >= 2:
            break
    terms = {}
    for m in rng.sample(mons, min(len(mons), rng.randint(2, 3))):
        coeff = PolyQ.zero(3)
        while len(coeff.terms) < 2:
            e = tuple(rng.randint(0, 2) for _ in range(3))
            if sum(e) <= 2:
                coeff = coeff + PolyQ(3, {e: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))})
        terms[m] = coeff
    return VermaVector(3, terms)


def assert_clean(v):
    """No zero term, and every coefficient of every term a nonzero Fraction."""
    for m, c in v.terms.items():
        assert not c.is_zero, m
        for a in c.terms.values():
            assert type(a) is Fraction and a != 0, (m, c)


class TestRepresentationProperty:
    def test_all_pairs_on_fixed_vectors(self):
        vectors = [
            V0,
            apply_word_to_v0(ALG, [G(A_PLUS, 1)]),
            apply_word_to_v0(ALG, [G(K_PLUS, 2, 2), G(K_ZERO, 1, 2)]),
            apply_word_to_v0(ALG, [G(A_PLUS, 2), G(A_PLUS, 2), G(K_ZERO, 1, 2)]),
        ]
        for v in vectors:
            for x, y in itertools.product(ALG.generators, repeat=2):
                lhs = act(ALG, x, act(ALG, y, v)) - act(ALG, y, act(ALG, x, v))
                rhs = act_of_bracket(ALG, ALG.bracket(x, y), v)
                assert lhs == rhs, (x, y)

    def test_weight_shift(self):
        rng = random.Random(77)
        for _ in range(40):
            v = random_vector(rng)
            x = rng.choice(ALG.generators)
            out = act(ALG, x, v)
            if out.is_zero:
                continue
            assert vector_weight(ALG, out) == ALG.weight(x) + vector_weight(ALG, v)


class TestVectorWeight:
    def test_v0(self):
        assert vector_weight(ALG, V0) == Weight.of(0, 0)

    def test_mixed_term_weight(self):
        v = apply_word_to_v0(ALG, [G(K_PLUS, 1, 2)]) + apply_word_to_v0(
            ALG, [G(K_PLUS, 2, 2), G(K_ZERO, 1, 2)]
        )
        assert vector_weight(ALG, v) == Weight.of(1, 1)

    def test_inhomogeneous_error(self):
        v = apply_word_to_v0(ALG, [G(A_PLUS, 1)]) + apply_word_to_v0(ALG, [G(K_PLUS, 1, 1)])
        with pytest.raises(InhomogeneousVectorError) as err:
            vector_weight(ALG, v)
        assert len(err.value.monomials) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            vector_weight(ALG, VermaVector(2))


class TestConstraintSet:
    def test_solved_form_reproduces_equations(self):
        cs = ConstraintSet.from_equations(2, [L(1) + L(2) - const(Fraction(3, 2))])
        assert cs.solved_form is not None
        for eq in cs.equations:
            assert cs.substitute(eq).is_zero

    def test_triangular_two_equations(self):
        cs = ConstraintSet.from_equations(2, [L(2) - L(1), L(1) - const(Fraction(3, 4))])
        assert cs.solved_form is not None
        assert cs.substitute(L(2)) == const(Fraction(3, 4))

    def test_substitute_matches_sequential_solved_form(self):
        rng = random.Random(2718)
        for _ in range(30):
            eqs = [
                sum((PolyQ.var(3, v) * Fraction(rng.randint(-3, 3)) for v in range(3)), PolyQ.zero(3))
                + PolyQ.const(3, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 2))
            ]
            try:
                cs = ConstraintSet.from_equations(3, eqs)
            except InconsistentConstraintsError:
                continue
            p = (PolyQ.var(3, 0) + PolyQ.var(3, 1) * PolyQ.var(3, 2) - PolyQ.const(3, 2)) ** 2
            sequential = p
            for var, expr in cs.solved_form:
                sequential = sequential.subs({var: expr})
            assert cs.substitute(p) == sequential
            for eq in cs.equations:
                assert cs.substitute(eq).is_zero

    def test_inconsistent(self):
        with pytest.raises(InconsistentConstraintsError):
            ConstraintSet.from_equations(2, [L(1) - const(1), L(1) - const(2)])

    def test_nonlinear_unsolved(self):
        cs = ConstraintSet.from_equations(2, [L(1) * L(2) - const(1)])
        assert cs.solved_form is None

    def test_canonicalization(self):
        cs = ConstraintSet.from_equations(2, [(-4) * L(2) + const(1)])
        assert cs.equations == (L(2) - const(Fraction(1, 4)),)

    def test_satisfied_at(self):
        cs = ConstraintSet.from_equations(2, [L(2) - L(1)])
        assert cs.satisfied_at([Fraction(2), Fraction(2)])
        assert not cs.satisfied_at([Fraction(2), Fraction(1)])


class TestIsSingular:
    def test_dplus_with_equal_weights(self):
        v = apply_word_to_v0(ALG, [G(K_ZERO, 1, 2)])
        cs = ConstraintSet.from_equations(2, [L(2) - L(1)])
        report = is_singular(ALG, v, cs)
        assert report.singular
        assert len(report.by_generator) == 6

    def test_sing2_vector(self):
        v = apply_word_to_v0(ALG, [G(A_PLUS, 2), G(A_PLUS, 2)]) - apply_word_to_v0(
            ALG, [G(K_PLUS, 2, 2)]
        ).scale(2)
        cs = ConstraintSet.from_equations(2, [L(2) - const(Fraction(1, 4))])
        assert is_singular(ALG, v, cs).singular

    def test_aplus2_never_singular(self):
        v = apply_word_to_v0(ALG, [G(A_PLUS, 2)])
        for eqs in ([], [L(2) - L(1)], [L(1) - const(5)]):
            cs = ConstraintSet.from_equations(2, eqs)
            report = is_singular(ALG, v, cs)
            assert not report.singular
            failing = [g for g, ok in report.by_generator if not ok]
            assert G(A_MINUS, 2) in failing

    def test_unverifiable_nonlinear(self):
        v = apply_word_to_v0(ALG, [G(K_ZERO, 1, 2)])
        cs = ConstraintSet.from_equations(2, [L(1) * L(2) - const(1)])
        report = is_singular(ALG, v, cs)
        assert report.unverifiable
        assert not report.singular


def oracle_verdicts(alg, v, cs):
    """Per element of n-: does ``oracle_act`` followed by ``substitute`` give 0?"""
    return [
        (x, all(cs.substitute(c).is_zero for c in oracle_act(alg, x, v).terms.values()))
        for x in alg.negative
    ]


# Constraint sets of each kind: none, one variable fixed, and relations that
# solve for a variable in terms of another.
CONSTRAINTS = {
    2: ["", "L2 = 1/4", "L1 = 3/4", "L2 = -L1", "L2 + L1 = 3/2"],
    3: ["", "L1 = 5/4", "L3 = L1 + 1/2", "L3 = L1 - 1/2", "L2 + L1 = 5/2; L3 = 1/4"],
}

# Vectors whose verdicts depend on the constraints, some with coefficients
# in the variables that the relations above solve for.
VECTORS = {
    2: [
        "(a+2)^2 - 2 b+2",
        "d+",
        "(L2 - L1) d+ + (L2 + L1) a+1 a-2 a+2",
        "(L1 + L2) c+ + a+1 a+2",
        "(4 L2 - 3) c+ - 2 b+2 d+ + (3/2 - 2 L2) a+1 a+2 + (a+2)^2 d+",
        "(-4 L1 + 3) c+ - 2 b+2 d+ + (2 L1 - 3/2) a+1 a+2 + (a+2)^2 d+",
        "(L2^2 - 1/16) a+2 + L1 b+1 d-",
    ],
    3: [
        "(L2 - L3) K0[1,3] - K0[1,2] K0[2,3]",
        "(L2 - L1 + 1/2) K0[1,3] - K0[1,2] K0[2,3]",
        "(a+[3])^2 - 2 K+[3,3]",
        "(L3 - L1) K0[1,3] + (L1 + L2) K+[1,2] - L3^2 a+[1] a+[3] K0[2,3]",
        "(-4 L2 + 3) K+[2,3] - 2 K+[3,3] K0[2,3] + (2 L2 - 3/2) a+[2] a+[3] + (a+[3])^2 K0[2,3]",
    ],
}


class TestIsSingularAgainstOracle:
    """Every per-generator verdict of ``is_singular`` against the action of
    the insertion-sort oracle followed by reduction modulo the solved form."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_listed_vectors_under_every_constraint_set(self, n):
        alg = ALG if n == 2 else JacobiAlgebra(3)
        seen = set()
        for text in VECTORS[n]:
            v = parse_vector(text, alg)
            for eqs in CONSTRAINTS[n]:
                cs = ConstraintSet.from_equations(n, parse_constraints(eqs, n))
                report = is_singular(alg, v, cs)
                assert not report.unverifiable
                assert report.by_generator == oracle_verdicts(alg, v, cs), (text, eqs)
                seen.add(tuple(ok for _, ok in report.by_generator))
        # both a singular verdict and mixed verdicts occur
        assert any(all(s) for s in seen)
        assert any(any(s) and not all(s) for s in seen)

    def test_mixed_verdict(self):
        # the (1,1) vector of the worked cases, under a constraint other than
        # its own: c- and d- leave a nonzero remainder, the rest annihilate
        v = parse_vector(VECTORS[2][4], ALG)
        cs = ConstraintSet.from_equations(2, parse_constraints("L1 = 1/2", 2))
        report = is_singular(ALG, v, cs)
        failing = [g for g, ok in report.by_generator if not ok]
        assert failing == [G(K_MINUS, 1, 2), G(K_ZERO, 2, 1)]
        assert report.by_generator == oracle_verdicts(ALG, v, cs)

    def test_coefficient_vanishing_under_the_relation(self):
        # (L2 - L1) d+ is zero at L2 = L1, so every generator annihilates it,
        # although d- does not annihilate it at the formal weight
        v = parse_vector("(L2 - L1) d+", ALG)
        assert is_singular(ALG, v, ConstraintSet.from_equations(2, [L(2) - L(1)])).singular
        assert not is_singular(ALG, v, ConstraintSet.empty(2)).singular

    def test_lowering_tails_are_skipped(self):
        # x m = m x + [x, m] for the lowering x: every normal form holds the
        # sorted word of m x, which ends in a lowering letter and kills v0,
        # so d+ is singular at L2 = L1 only if those words are skipped
        v = parse_vector("d+", ALG)
        (m,) = v.terms
        low = ALG.num_positive + ALG.n
        for x in ALG.negative:
            sums = _normal_sums(ALG, (ALG.index[x],) + m.word())
            assert any(w[-1] >= low for w in sums)
        cs = ConstraintSet.from_equations(2, [L(2) - L(1)])
        report = is_singular(ALG, v, cs)
        assert report.singular
        assert report.by_generator == oracle_verdicts(ALG, v, cs)

    @pytest.mark.parametrize("n, seed", [(2, 11), (3, 12)])
    def test_random_vectors(self, n, seed):
        alg = ALG if n == 2 else JacobiAlgebra(3)
        rng = random.Random(seed)
        for _ in range(6):
            v = random_vector(rng) if n == 2 else random_vector_n3(alg, rng)
            for eqs in CONSTRAINTS[n]:
                cs = ConstraintSet.from_equations(n, parse_constraints(eqs, n))
                assert is_singular(alg, v, cs).by_generator == oracle_verdicts(alg, v, cs)

    def test_formal_weight_verdict_is_act_being_zero(self):
        rng = random.Random(13)
        for _ in range(10):
            v = random_vector(rng)
            report = is_singular(ALG, v, ConstraintSet.empty(2))
            assert report.by_generator == [(x, act(ALG, x, v).is_zero) for x in ALG.negative]


class TestApplyWordToV0:
    @staticmethod
    def words(alg, rng):
        for _ in range(15):
            yield [rng.choice(alg.generators) for _ in range(rng.randint(1, 4))]
        for _ in range(6):
            # raising letters on both sides of a Cartan run and lowering
            # letters, so that they act on vectors other than v0
            middle = [rng.choice(alg.cartan) for _ in range(rng.randint(2, 3))]
            for _ in range(rng.randint(1, 2)):
                middle.insert(rng.choice([0, len(middle)]), rng.choice(alg.negative))
            size = max(2, rng.randint(6, 8) - len(middle))
            left = rng.randint(1, size - 1)
            yield (
                [rng.choice(alg.positive) for _ in range(left)]
                + middle
                + [rng.choice(alg.positive) for _ in range(size - left)]
            )

    def test_clean_and_equal_to_the_oracle(self):
        rng = random.Random(14)
        for n in (2, 3):
            alg = ALG if n == 2 else JacobiAlgebra(n)
            for word in self.words(alg, rng):
                coeff = PolyQ(n, {
                    tuple(rng.randint(0, 1) for _ in range(n)): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(2)
                })
                got = apply_word_to_v0(alg, word, coeff)
                assert_clean(got)
                expected = VermaVector.unit(alg)
                for x in reversed(word):
                    expected = oracle_act(alg, x, expected)
                assert got == expected.scale(coeff), word

    def test_foreign_generator_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="not a basis element of g_2"):
            apply_word_to_v0(ALG, [G(A_PLUS, 1), G(A_PLUS, 3)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match=f"generator index {len(ALG.generators)} out of range"):
            apply_word_to_v0(ALG, [0, len(ALG.generators)])

    def test_index_word_is_the_generator_word(self):
        word = [G(K_MINUS, 1, 2), G(A_PLUS, 1), G(K_ZERO, 1, 1), G(K_PLUS, 2, 2), G(K_ZERO, 1, 2)]
        coeff = L(1) - const(Fraction(1, 3))
        got = apply_word_to_v0(ALG, [ALG.index[g] for g in word], coeff)
        assert not got.is_zero
        assert got == apply_word_to_v0(ALG, word, coeff)


class TestModuleRewrite:
    """``verma._v0_sums``, the module kernel's rewrite, against the U(g)
    normal form of ``pbw._normal_sums``: the same sums, less the words that
    end in a lowering letter and so kill v0."""

    @staticmethod
    def words(alg, rng, count):
        size, npos = len(alg.generators), alg.num_positive
        for _ in range(count):
            # unsorted, with Cartan and lowering letters anywhere
            yield tuple(rng.randrange(size) for _ in range(rng.randint(0, 7)))
            # one generator on a raising monomial, as act and is_singular use
            yield (rng.randrange(size),) + tuple(sorted(rng.randrange(npos) for _ in range(rng.randint(0, 6))))

    @pytest.mark.parametrize("n, seed", [(1, 31), (2, 32), (3, 33)])
    def test_equals_the_normal_form_less_lowering_ended_words(self, n, seed):
        alg = ALG if n == 2 else JacobiAlgebra(n)
        low = alg.num_positive + n
        rng = random.Random(seed)
        for word in self.words(alg, rng, 1500):
            got = _v0_sums(alg, word)
            assert not any(w and w[-1] >= low for w in got), word
            expected = {
                w: Fraction(num, den)
                for w, (num, den) in _normal_sums(alg, word).items()
                if not (w and w[-1] >= low)
            }
            assert {w: Fraction(num, den) for w, (num, den) in got.items() if num} == expected, word

    @pytest.mark.parametrize("n, seed", [(1, 34), (2, 35), (3, 36), (4, 37)])
    def test_one_generator_on_a_raising_word_leaves_one_letter_outside_n_plus(self, n, seed):
        # the module kernel's contract: x m v0 for a sorted raising m has at
        # most one letter outside n+ per word, and that letter is the last
        alg = ALG if n == 2 else JacobiAlgebra(n)
        size, npos = len(alg.generators), alg.num_positive
        rng = random.Random(seed)
        for _ in range(600):
            m = tuple(sorted(rng.randrange(npos) for _ in range(rng.randint(0, 6))))
            word = (rng.randrange(size),) + m
            for w in _v0_sums(alg, word):
                outside = [k for k, i in enumerate(w) if i >= npos]
                assert outside in ([], [len(w) - 1]), (word, w)
