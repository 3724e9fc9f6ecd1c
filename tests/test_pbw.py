import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jacobiverma.pbw import (
    PbwMonomial,
    UElement,
    _normal_sums,
    monomial_weight,
    multiply,
    normal_order,
)

from jacobiverma.ring import PolyQ
from jacobiverma.singular import enumerate_ansatz
from jacobiverma.textio import parse_poly, render_monomial, vector_to_json

from oracles import insert_normal_order

ALG = JacobiAlgebra(2)


def G(family, i, j=0):
    return Generator(family, i, j)


def mono(*gens):
    return PbwMonomial.from_generators(ALG, gens)


def uelt(pairs):
    return UElement(ALG.n, {m: PolyQ.const(ALG.n, c) for m, c in pairs})


def as_rational_dict(u):
    """The coefficients of an element of U(g), each a nonzero constant, as
    rationals."""
    for c in u.terms.values():
        assert c.is_constant and not c.is_zero
    return {m.exps: c.leading()[1] for m, c in u.terms.items()}


class TestNormalOrderGolden:
    def test_single_ccr_swap(self):
        u = normal_order(ALG, [G(A_MINUS, 1), G(A_PLUS, 1)])
        assert u == uelt([(mono(G(A_PLUS, 1), G(A_MINUS, 1)), 1), (mono(), 1)])

    def test_bminus_on_two_creators(self):
        u = normal_order(ALG, [G(K_MINUS, 1, 1), G(A_PLUS, 1), G(A_PLUS, 1)])
        expected = uelt(
            [
                (mono(G(A_PLUS, 1), G(A_PLUS, 1), G(K_MINUS, 1, 1)), 1),
                (mono(G(A_PLUS, 1), G(A_MINUS, 1)), 2),
                (mono(), 1),
            ]
        )
        assert u == expected

    def test_ordered_monomial_fixed(self):
        word = [G(A_PLUS, 2), G(K_PLUS, 2, 2), G(K_ZERO, 2, 1)]
        u = normal_order(ALG, word)
        assert u == uelt([(mono(*word), 1)])


class TestNormalOrderInput:
    def test_foreign_generator_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="not a basis element of g_2"):
            normal_order(ALG, [G(A_MINUS, 1), G(A_PLUS, 3)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match=f"generator index {len(ALG.generators)} out of range"):
            normal_order(ALG, [0, len(ALG.generators)])
        with pytest.raises(ValueError, match="generator index -1 out of range"):
            normal_order(ALG, [-1])

    def test_index_word_is_the_generator_word(self):
        word = [G(K_MINUS, 1, 2), G(A_PLUS, 1), G(K_ZERO, 2, 1), G(A_PLUS, 2)]
        assert normal_order(ALG, [ALG.index[g] for g in word]) == normal_order(ALG, word)


class TestNormalOrderOracle:
    def test_all_words_length_two(self):
        for word in itertools.product(range(len(ALG.generators)), repeat=2):
            assert as_rational_dict(normal_order(ALG, word)) == insert_normal_order(ALG, word)

    def test_all_words_length_three(self):
        for word in itertools.product(range(len(ALG.generators)), repeat=3):
            assert as_rational_dict(normal_order(ALG, word)) == insert_normal_order(ALG, word)

    def test_random_words_up_to_length_six(self):
        rng = random.Random(20240817)
        for _ in range(150):
            k = rng.randint(4, 6)
            word = tuple(rng.randrange(len(ALG.generators)) for _ in range(k))
            assert as_rational_dict(normal_order(ALG, word)) == insert_normal_order(ALG, word)

    @pytest.mark.parametrize("n, count", [(1, 80), (3, 30)])
    def test_random_words_of_length_seven_and_eight(self, n, count):
        alg = JacobiAlgebra(n)
        rng = random.Random(7000 + n)
        for _ in range(count):
            word = tuple(rng.randrange(len(alg.generators)) for _ in range(rng.randint(7, 8)))
            assert as_rational_dict(normal_order(alg, word)) == insert_normal_order(alg, word), word


_ALGEBRAS = {n: JacobiAlgebra(n) for n in (1, 2, 3)}


@st.composite
def _words(draw):
    alg = _ALGEBRAS[draw(st.integers(1, 3))]
    letters = st.integers(0, len(alg.generators) - 1)
    return alg, tuple(draw(st.lists(letters, max_size=7)))


def _oracle_agrees(alg, word):
    assert as_rational_dict(normal_order(alg, word)) == insert_normal_order(alg, word), word


class TestRunRule:
    """``_normal_sums`` moves a letter x through a whole run y^b in one step,
    x y^b = y^b x + sum_t C(b, t) y^(b-t) c_t with c_1 = [x, y] and
    c_t = [c_(t-1), y], from ``JacobiAlgebra.run_bracket``."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_letter_through_a_run(self, n):
        alg = _ALGEBRAS[n]
        for x, y in itertools.combinations(range(len(alg.generators)), 2):
            for b in range(1, 9):
                _oracle_agrees(alg, (y,) + (x,) * b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_run_before_a_letter(self, n):
        alg = _ALGEBRAS[n]
        for x, y in itertools.combinations(range(len(alg.generators)), 2):
            for a in range(2, 6):
                _oracle_agrees(alg, (y,) * a + (x,))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_run_meets_a_run(self, n):
        alg = _ALGEBRAS[n]
        for x, y in itertools.combinations(range(len(alg.generators)), 2):
            for a, b in itertools.product(range(2, 4), repeat=2):
                _oracle_agrees(alg, (y,) * a + (x,) * b)

    @pytest.mark.parametrize("weight", ["6,0", "4,4"])
    def test_lowering_letter_on_the_ansatz(self, weight):
        alg = _ALGEBRAS[2]
        ansatz = enumerate_ansatz(alg, Weight.of(*map(int, weight.split(","))))
        assert ansatz
        for x in alg.negative:
            for m in ansatz:
                _oracle_agrees(alg, (alg.index[x],) + m.word())

    def test_chain_past_the_first_bracket(self):
        # K-11 (a+1)^2 = (a+1)^2 K-11 + 2 a+1 a-1 + 1: c_1 = a-1, c_2 = [a-1, a+1] = 1
        alg = _ALGEBRAS[2]
        x, y = alg.index[G(K_MINUS, 1, 1)], alg.index[G(A_PLUS, 1)]
        a_minus = alg.index[G(A_MINUS, 1)]
        assert sorted(alg.run_bracket(x, y, 2)) == [((), 1, 1), ((y, a_minus), 2, 1)]
        # K-11 (K+11)^b: c_1 is in the Cartan part, c_2 a multiple of K+11, c_3 = 0
        z = alg.index[G(K_PLUS, 1, 1)]
        for b in range(2, 7):
            terms = alg.run_bracket(x, z, b)
            assert {len(word) for word, _, _ in terms} == {b, b - 1}
            assert all(q & (q - 1) == 0 and (p % 2 or q == 1) for _, p, q in terms)


class TestNormalFormJson:
    """The JSON view of a normal form, read back with the polynomial parser,
    carries the oracle's rationals: the constant coefficients take the one
    rendering path of module vectors."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_coefficient_strings_are_the_oracle(self, n):
        alg = _ALGEBRAS[n]
        rng = random.Random(3300 + n)
        for _ in range(80):
            word = tuple(rng.randrange(len(alg.generators)) for _ in range(rng.randint(2, 6)))
            terms = vector_to_json(alg, normal_order(alg, word))
            got = {}
            for t in terms:
                c = parse_poly(t["coeff"], n)
                assert c.is_constant and not c.is_zero, t
                got[t["monomial"]] = c.leading()[1]
            assert len(got) == len(terms)
            want = {render_monomial(alg, PbwMonomial(e)): c for e, c in insert_normal_order(alg, word).items()}
            assert got == want, word


class TestIntegerRewrite:
    """``_normal_sums`` is the integer rewrite behind ``normal_order``, and
    the reference for the module kernel's ``verma._v0_sums``, which keeps
    the words that do not end in a lowering letter."""

    @settings(max_examples=120, deadline=None)
    @given(_words())
    def test_sums_are_the_normal_form(self, case):
        alg, word = case
        sums = _normal_sums(alg, word)
        for w, (num, den) in sums.items():
            assert list(w) == sorted(w)
            assert num != 0 and den > 0 and den & (den - 1) == 0
        as_element = UElement(
            alg.n,
            {PbwMonomial.from_word(alg, w): PolyQ.const(alg.n, Fraction(num, den)) for w, (num, den) in sums.items()},
        )
        assert as_element == normal_order(alg, word)
        low = alg.num_positive + alg.n
        kept = {
            PbwMonomial.from_word(alg, w).exps: Fraction(num, den)
            for w, (num, den) in sums.items()
            if not (w and w[-1] >= low)
        }
        oracle = {e: c for e, c in insert_normal_order(alg, word).items() if not any(e[low:])}
        assert kept == oracle


class TestTermination:
    def test_length_eight_words_terminate(self):
        rng = random.Random(99)
        for _ in range(25):
            word = tuple(rng.randrange(len(ALG.generators)) for _ in range(8))
            u = normal_order(ALG, word)
            for m in u.terms:
                assert list(m.word()) == sorted(m.word())

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            word = tuple(rng.randrange(len(ALG.generators)) for _ in range(5))
            u = normal_order(ALG, word)
            again = UElement(ALG.n)
            for m, c in u.terms.items():
                again = again + normal_order(ALG, m.word()).scale(c)
            assert again == u


class TestMultiply:
    def test_unit(self):
        x = UElement.monomial(ALG, mono(G(K_PLUS, 1, 2)))
        assert multiply(ALG, UElement.unit(ALG), x) == x
        assert multiply(ALG, x, UElement.unit(ALG)) == x

    def test_ccr_through_multiply(self):
        am = UElement.monomial(ALG, mono(G(A_MINUS, 1)))
        ap = UElement.monomial(ALG, mono(G(A_PLUS, 1)))
        comm = multiply(ALG, am, ap) - multiply(ALG, ap, am)
        assert comm == UElement.unit(ALG)

    def test_dplus_dminus_commutator(self):
        # [d+, d-] = (1/2)(h1 - h2)
        dp = UElement.monomial(ALG, mono(G(K_ZERO, 1, 2)))
        dm = UElement.monomial(ALG, mono(G(K_ZERO, 2, 1)))
        comm = multiply(ALG, dp, dm) - multiply(ALG, dm, dp)
        expected = uelt(
            [
                (mono(G(K_ZERO, 1, 1)), Fraction(1, 2)),
                (mono(G(K_ZERO, 2, 2)), Fraction(-1, 2)),
            ]
        )
        assert comm == expected

    def test_commutator_lift_all_pairs(self):
        for x, y in itertools.product(ALG.generators, repeat=2):
            ex, ey = UElement.monomial(ALG, mono(x)), UElement.monomial(ALG, mono(y))
            assert multiply(ALG, ex, ey) - multiply(ALG, ey, ex) == ALG.bracket(x, y), (x, y)

    def test_associativity_random_triples(self):
        rng = random.Random(4242)
        gens = ALG.generators
        for _ in range(60):
            x, y, z = (UElement.monomial(ALG, mono(rng.choice(gens))) for _ in range(3))
            assert multiply(ALG, multiply(ALG, x, y), z) == multiply(ALG, x, multiply(ALG, y, z))

    def test_associativity_all_basis_triples(self):
        gens = ALG.generators
        singles = [UElement.monomial(ALG, mono(g)) for g in gens]
        for i, j, k in itertools.product(range(len(gens)), repeat=3):
            lhs = multiply(ALG, multiply(ALG, singles[i], singles[j]), singles[k])
            rhs = multiply(ALG, singles[i], multiply(ALG, singles[j], singles[k]))
            assert lhs == rhs, (gens[i], gens[j], gens[k])


class TestWeights:
    def test_monomial_weight_examples(self):
        m = mono(G(K_PLUS, 2, 2), G(K_ZERO, 1, 2), G(K_ZERO, 1, 2))
        assert monomial_weight(ALG, m) == Weight.of(2, 0)
        m2 = mono(G(A_PLUS, 1), G(A_PLUS, 2), G(K_ZERO, 1, 2))
        assert monomial_weight(ALG, m2) == Weight.of(2, 0)
        assert monomial_weight(ALG, mono()) == Weight.of(0, 0)

    def test_weight_preserved_by_normal_order(self):
        rng = random.Random(13)
        for _ in range(80):
            k = rng.randint(1, 5)
            word = tuple(rng.randrange(len(ALG.generators)) for _ in range(k))
            total = Weight.zero(2)
            for idx in word:
                total = total + ALG.weight(ALG.generators[idx])
            u = normal_order(ALG, word)
            for m in u.terms:
                if m.is_unit and not total.is_zero:
                    pytest.fail(f"scalar term from word of weight {total}")
                assert monomial_weight(ALG, m) == total


class TestWords:
    @given(st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_word_of_word_is_the_monomial(self, n, data):
        alg = JacobiAlgebra(n)
        exps = data.draw(st.tuples(*[st.integers(0, 3)] * len(alg.generators)))
        m = PbwMonomial(exps)
        word = m.word()
        assert list(word) == sorted(word) and len(word) == sum(exps)
        assert PbwMonomial.from_word(alg, word) == m
