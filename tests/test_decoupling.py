"""The Heisenberg decoupling behind the sp(n) solve, by exact normal ordering.

Subtracting from each sp(n) generator K its oscillator realization (the
quadratic in a+/a- that ``oracles.realize`` assigns to K) gives K'.  The K'
commute with the whole Heisenberg part and obey the bracket table of the K,
so U(g_n) is U(h_n) tensor U(sp(n)'), and the singular vectors of g_n are the
sp(n) singular vectors m(K') v0 at the shifted Cartan values L_i - 1/4.
"""

from fractions import Fraction

import pytest

from jacobiverma.algebra import A_MINUS, A_PLUS, Generator, JacobiAlgebra
from jacobiverma.pbw import PbwMonomial, UElement, multiply, normal_order

from oracles import realize


def shifted(alg, g):
    """K' = K - realize(n, K) as an element of U(g_n)."""
    out = UElement.monomial(alg, PbwMonomial.from_generators(alg, [g]))
    for (creation, annihilation), c in realize(alg.n, g).terms.items():
        word = [
            Generator(family, i + 1)
            for family, exps in ((A_PLUS, creation), (A_MINUS, annihilation))
            for i, e in enumerate(exps)
            for _ in range(e)
        ]
        out = out - normal_order(alg, word).scale(c)
    return out


def commutator(alg, x, y):
    return multiply(alg, x, y) - multiply(alg, y, x)


def sp_generators(alg):
    return [g for g in alg.generators if g.family not in (A_PLUS, A_MINUS)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shifted_generators_commute_with_heisenberg(n):
    alg = JacobiAlgebra(n)
    heisenberg = [
        UElement.monomial(alg, PbwMonomial.from_generators(alg, [g]))
        for g in alg.generators
        if g.family in (A_PLUS, A_MINUS)
    ]
    for g in sp_generators(alg):
        k = shifted(alg, g)
        for a in heisenberg:
            assert commutator(alg, k, a).is_zero, (g, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shifted_generators_obey_the_sp_table(n):
    alg = JacobiAlgebra(n)
    gens = sp_generators(alg)
    primed = {g: shifted(alg, g) for g in gens}
    for x in gens:
        for y in gens:
            br = alg.bracket(x, y)
            want = UElement.unit(alg).scale(br.scalar)
            for g, c in br.terms.items():
                want = want + primed[g].scale(c)
            assert commutator(alg, primed[x], primed[y]) == want, (x, y)


def test_shifted_cartan_values():
    # K'0_ii = h_i - 1/2 a+_i a-_i - 1/4, so K'0_ii v0 = (L_i - 1/4) v0
    alg = JacobiAlgebra(2)
    for h in alg.cartan:
        want = (
            UElement.monomial(alg, PbwMonomial.from_generators(alg, [h]))
            - normal_order(alg, [Generator(A_PLUS, h.i), Generator(A_MINUS, h.i)]).scale(Fraction(1, 2))
            - UElement.unit(alg).scale(Fraction(1, 4))
        )
        assert shifted(alg, h) == want
