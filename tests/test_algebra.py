import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from jacobiverma import algebra
from jacobiverma.algebra import (
    A_MINUS,
    A_PLUS,
    Generator,
    InvalidDimensionError,
    DimensionMismatchError,
    JacobiAlgebra,
    K_MINUS,
    K_PLUS,
    K_ZERO,
    Weight,
    half_bracket,
    mirror,
)
from jacobiverma.pbw import PbwMonomial, UElement
from jacobiverma.ring import PolyQ
from jacobiverma.textio import render_generator

from oracles import ad, fraction_kernel_transpose_rank, in_span, linear_parts, realize, realize_element

GOLDEN = Path(__file__).parent / "golden" / "bracket_table_n2.json"


def G(family, i, j=0):
    return Generator(family, i, j)


class TestBasis:
    @pytest.mark.parametrize("n,count", [(1, 5), (2, 14), (3, 27)])
    def test_counts_match_formula(self, n, count):
        gens = JacobiAlgebra(n).generators
        assert len(gens) == 2 * n + n * (n + 1) + n * n == count
        assert len(set(gens)) == len(gens)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_positive_blocks(self, n):
        # a+, K+ and raising K0 blocks tile the positives in that order
        alg = JacobiAlgebra(n)
        assert [*alg.aplus, *alg.kplus, *alg.kzero_raising] == list(range(alg.num_positive))
        for block, family in [(alg.aplus, A_PLUS), (alg.kplus, K_PLUS), (alg.kzero_raising, K_ZERO)]:
            assert all(alg.generators[k].family == family for k in block)

    def test_n1_names(self):
        names = {str(g) for g in JacobiAlgebra(1).generators}
        assert names == {"a+[1]", "a-[1]", "K+[1,1]", "K-[1,1]", "K0[1,1]"}

    def test_n2_short_names_cover_basis(self):
        expected = {
            "a+1", "a+2", "a-1", "a-2",
            "b+1", "b+2", "b-1", "b-2",
            "c+", "c-", "d+", "d-", "h1", "h2",
        }
        assert {render_generator(g, 2) for g in JacobiAlgebra(2).generators} == expected

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            JacobiAlgebra(0)

    def test_kpm_canonicalized(self):
        assert G(K_PLUS, 2, 1) == G(K_PLUS, 1, 2)
        assert G(K_MINUS, 3, 1).i == 1 and G(K_MINUS, 3, 1).j == 3

    def test_global_order(self):
        alg = JacobiAlgebra(2)
        assert [str(g) for g in alg.generators] == [
            "a+[1]", "a+[2]", "K+[1,1]", "K+[1,2]", "K+[2,2]", "K0[1,2]",
            "K0[1,1]", "K0[2,2]",
            "a-[1]", "a-[2]", "K-[1,1]", "K-[1,2]", "K-[2,2]", "K0[2,1]",
        ]

    def test_mismatched_dimension_rejected(self):
        alg = JacobiAlgebra(2)
        with pytest.raises(DimensionMismatchError):
            alg.bracket(G(A_PLUS, 1), G(A_PLUS, 3))


class TestClassify:
    def test_partition(self):
        # a+, K+ and K0_ij with i < j are positive, K0_ii is Cartan, the rest
        # (a-, K-, K0_ij with i > j) negative, and mirror pairs the two sides
        for n in (1, 2, 3):
            alg = JacobiAlgebra(n)
            positive = {
                g for g in alg.generators
                if g.family in (A_PLUS, K_PLUS) or (g.family == K_ZERO and g.i < g.j)
            }
            cartan = {g for g in alg.generators if g.family == K_ZERO and g.i == g.j}
            negative = set(alg.generators) - positive - cartan
            assert all(g.family in (A_MINUS, K_MINUS) or g.i > g.j for g in negative)
            assert set(alg.positive) == positive and len(alg.positive) == len(positive)
            assert alg.cartan == [G(K_ZERO, i, i) for i in range(1, n + 1)]
            assert alg.negative == [mirror(g) for g in alg.positive]
            assert set(alg.negative) == negative


class TestBracketGolden:
    def test_ccr(self):
        alg = JacobiAlgebra(1)
        assert linear_parts(alg, alg.bracket(G(A_MINUS, 1), G(A_PLUS, 1))) == (1, {})

    def test_h1_raises_b1(self):
        alg = JacobiAlgebra(2)
        br = alg.bracket(G(K_ZERO, 1, 1), G(K_PLUS, 1, 1))
        assert linear_parts(alg, br) == (0, {G(K_PLUS, 1, 1): Fraction(1)})

    def test_annihilator_with_cplus(self):
        alg = JacobiAlgebra(2)
        br = alg.bracket(G(A_MINUS, 1), G(K_PLUS, 1, 2))
        assert linear_parts(alg, br) == (0, {G(A_PLUS, 2): Fraction(1, 2)})

    def test_bminus_bplus(self):
        alg = JacobiAlgebra(2)
        br = alg.bracket(G(K_MINUS, 2, 2), G(K_PLUS, 2, 2))
        assert linear_parts(alg, br) == (0, {G(K_ZERO, 2, 2): Fraction(2)})

    def test_dminus_dplus(self):
        alg = JacobiAlgebra(2)
        br = alg.bracket(G(K_ZERO, 2, 1), G(K_ZERO, 1, 2))
        assert linear_parts(alg, br) == (
            0, {G(K_ZERO, 2, 2): Fraction(1, 2), G(K_ZERO, 1, 1): Fraction(-1, 2)}
        )

    def test_h2_lowers_dplus(self):
        alg = JacobiAlgebra(2)
        br = alg.bracket(G(K_ZERO, 2, 2), G(K_ZERO, 1, 2))
        assert linear_parts(alg, br) == (0, {G(K_ZERO, 1, 2): Fraction(-1, 2)})

    def test_frozen_table(self):
        alg = JacobiAlgebra(2)
        table = []
        for x in alg.generators:
            for y in alg.generators:
                br = alg.bracket(x, y)
                if br.is_zero:
                    continue
                scalar, terms = linear_parts(alg, br)
                table.append(
                    {
                        "x": render_generator(x, 2),
                        "y": render_generator(y, 2),
                        "scalar": _frac(scalar),
                        "terms": {
                            render_generator(g, 2): _frac(c)
                            for g, c in sorted(terms.items(), key=lambda t: alg.index[t[0]])
                        },
                    }
                )
        frozen = json.loads(GOLDEN.read_text())
        assert sorted(table, key=lambda r: (r["x"], r["y"])) == sorted(
            frozen, key=lambda r: (r["x"], r["y"])
        )


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_integer_bracket_matches_table(self, n):
        # the integer form normal_order reads is the kernel's, in lowest terms
        alg = JacobiAlgebra(n)
        for (ix, x), (iy, y) in itertools.product(enumerate(alg.generators), repeat=2):
            parts = alg.integer_bracket(ix, iy)
            assert len({word for word, _, _ in parts}) == len(parts)
            scalar, terms = Fraction(0), {}
            for word, p, q in parts:
                assert type(p) is int and type(q) is int and p != 0 and q > 0
                assert Fraction(p, q).denominator == q
                if word == ():
                    scalar = Fraction(p, q)
                else:
                    (g,) = word
                    terms[alg.generators[g]] = Fraction(p, q)
            assert (scalar, terms) == _halves(x, y), (x, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adapters_agree_with_the_kernel(self, n):
        # the bracket element reads the one integer kernel, term for term,
        # with canonical constant coefficients
        alg = JacobiAlgebra(n)
        unit = PbwMonomial.unit(alg)
        for x, y in itertools.product(alg.generators, repeat=2):
            br = alg.bracket(x, y)
            assert isinstance(br, UElement) and br.nvars == n
            assert all(c == PolyQ.const(n, c.eval_all([0] * n)) for c in br.terms.values())
            scalar, terms = _halves(x, y)
            assert linear_parts(alg, br) == (scalar, terms), (x, y)
            assert list(br.terms) == [unit] * bool(scalar) + [
                PbwMonomial.from_generators(alg, [g]) for g in terms
            ], (x, y)


def _halves(x, y):
    """(scalar, {generator: coefficient}) of [x, y] from ``half_bracket``."""
    scalar, terms = half_bracket((x.family, x.i, x.j), (y.family, y.i, y.j))
    assert type(scalar) is int and all(type(c) is int and c for _, c in terms)
    return Fraction(scalar, 2), {Generator(*key): Fraction(c, 2) for key, c in terms}


def _frac(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class TestLoweringGenerators:
    @pytest.mark.parametrize(
        "n, names",
        [
            (1, ["a-[1]", "K-[1,1]"]),
            (2, ["a-[2]", "K-[2,2]", "K0[2,1]"]),
            (3, ["a-[3]", "K-[3,3]", "K0[2,1]", "K0[3,2]"]),
            (4, ["a-[4]", "K-[4,4]", "K0[2,1]", "K0[3,2]", "K0[4,3]"]),
        ],
    )
    def test_exact_lists(self, n, names):
        assert [str(g) for g in JacobiAlgebra(n).lowering_generators] == names

    @pytest.mark.parametrize(
        "n, names",
        [
            (1, ["K-[1,1]"]),
            (2, ["K-[2,2]", "K0[2,1]"]),
            (3, ["K-[3,3]", "K0[2,1]", "K0[3,2]"]),
        ],
    )
    def test_sp_lists(self, n, names):
        assert [str(g) for g in JacobiAlgebra(n).sp_lowering_generators] == names

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bracket_closure_spans_negative(self, n):
        alg = JacobiAlgebra(n)
        gens = alg.lowering_generators
        assert len(gens) == n + 1

        def coords(br):
            scalar, terms = linear_parts(alg, br)
            assert scalar == 0
            return [terms.get(g, Fraction(0)) for g in alg.negative]

        # iterated brackets [g1, [g2, ... [gk-1, gk]]]; each layer keeps only
        # vectors outside the span so far, and n- is nilpotent, so this ends
        span = [UElement.monomial(alg, PbwMonomial.from_generators(alg, [g])) for g in gens]
        layer = list(span)
        while layer:
            layer = [ad(alg, g, b) for g in gens for b in layer]
            fresh = []
            for b in layer:
                if not in_span(coords(b), [coords(c) for c in span + fresh]):
                    fresh.append(b)
            span += fresh
            layer = fresh
        rows = [coords(b) for b in span]
        assert len(fraction_kernel_transpose_rank(rows, len(alg.negative))) == len(alg.negative)


class TestWeights:
    def test_grading_table_n2(self):
        # the full grading of the raising basis, and its mirror for lowerings
        alg = JacobiAlgebra(2)
        expected = {
            "b+1": (2, 0), "b+2": (0, 2), "c+": (1, 1), "d+": (1, -1),
            "a+1": (1, 0), "a+2": (0, 1),
        }
        for name, coords in expected.items():
            g = next(g for g in alg.generators if render_generator(g, 2) == name)
            assert alg.weight(g) == Weight.of(*coords)
            assert alg.weight(mirror(g)) == Weight.of(*coords).scale(-1)

    def test_eigenvalue_table_matches_grading(self):
        # weight coordinates are twice the ad-h eigenvalues
        alg = JacobiAlgebra(2)
        h = alg.cartan
        eigen = {
            "b+1": (1, 0), "b+2": (0, 1),
            "c+": (Fraction(1, 2), Fraction(1, 2)),
            "d+": (Fraction(1, 2), Fraction(-1, 2)),
            "a+1": (Fraction(1, 2), 0), "a+2": (0, Fraction(1, 2)),
        }
        for name, evs in eigen.items():
            g = next(g for g in alg.generators if render_generator(g, 2) == name)
            for hj, ev in zip(h, evs):
                _, terms = linear_parts(alg, alg.bracket(hj, g))
                assert terms.get(g, Fraction(0)) == ev
            assert alg.weight(g).coords == tuple(2 * Fraction(e) for e in evs)

    def test_aminus2_weight(self):
        alg = JacobiAlgebra(2)
        assert alg.weight(G(A_MINUS, 2)) == Weight.of(0, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_weights(self, n):
        # a+_i = d_i, K+_ij = d_i + d_j, raising K0_ij = d_i - d_j, Cartan 0,
        # and every negative the mirror of its raising partner
        alg = JacobiAlgebra(n)

        def delta(i):
            return Weight(tuple(Fraction(int(k == i)) for k in range(1, n + 1)))

        expected = {}
        for i in range(1, n + 1):
            expected[G(A_PLUS, i)] = delta(i)
            expected[G(K_ZERO, i, i)] = Weight.zero(n)
            for j in range(i, n + 1):
                expected[G(K_PLUS, i, j)] = delta(i) + delta(j)
            for j in range(i + 1, n + 1):
                expected[G(K_ZERO, i, j)] = delta(i) - delta(j)
        for g in alg.positive:
            expected[mirror(g)] = -expected[g]
        assert set(expected) == set(alg.generators)
        for g, w in expected.items():
            assert alg.weight(g) == w, g

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_construction_reads_no_bracket(self, n, monkeypatch):
        # the grading and the Lie generators of n- are closed forms, and the
        # bracket tables fill on first use, so building the algebra brackets
        # nothing
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return half_bracket(x, y)

        monkeypatch.setattr(algebra, "half_bracket", counted)
        JacobiAlgebra(n)
        assert calls == []

    def test_cartan_weight_zero(self):
        alg = JacobiAlgebra(3)
        for h in alg.cartan:
            assert alg.weight(h).is_zero


small_n = pytest.mark.parametrize("n", [2, 3])


class TestStructureProperties:
    @small_n
    def test_antisymmetry_all_pairs(self, n):
        alg = JacobiAlgebra(n)
        for x, y in itertools.product(alg.generators, repeat=2):
            assert alg.bracket(x, y) == -alg.bracket(y, x)

    @small_n
    def test_jacobi_all_triples(self, n):
        alg = JacobiAlgebra(n)
        gens = alg.generators
        for x, y, z in itertools.product(gens, repeat=3):
            s = (
                ad(alg, x, alg.bracket(y, z))
                + ad(alg, y, alg.bracket(z, x))
                + ad(alg, z, alg.bracket(x, y))
            )
            assert s.is_zero, (x, y, z)

    @small_n
    def test_heisenberg_ideal(self, n):
        alg = JacobiAlgebra(n)
        heis = {g for g in alg.generators if g.family in (A_PLUS, A_MINUS)}
        for x in heis:
            for y in alg.generators:
                _, terms = linear_parts(alg, alg.bracket(x, y))
                assert all(g in heis for g in terms), (x, y)

    @small_n
    def test_weight_additivity(self, n):
        alg = JacobiAlgebra(n)
        for x, y in itertools.product(alg.generators, repeat=2):
            scalar, terms = linear_parts(alg, alg.bracket(x, y))
            wsum = alg.weight(x) + alg.weight(y)
            for g in terms:
                assert alg.weight(g) == wsum
            if scalar != 0:
                assert wsum.is_zero

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cartan_eigenspaces(self, n):
        # the closed-form grading against the kernel: every basis element is
        # an ad h_j eigenvector with eigenvalue half its j-th weight coordinate
        alg = JacobiAlgebra(n)
        for j, h in enumerate(alg.cartan):
            for g in alg.generators:
                scalar, terms = linear_parts(alg, alg.bracket(h, g))
                assert scalar == 0, (h, g)
                assert set(terms) <= {g}, (h, g)
                assert terms.get(g, 0) == alg.weight(g).coords[j] / 2, (h, g)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bracket_table_against_weyl_realization(self, n):
        # fully independent oracle: boson-bilinear realization with Wick products
        alg = JacobiAlgebra(n)
        for x, y in itertools.product(alg.generators, repeat=2):
            lhs = realize(n, x).commutator(realize(n, y))
            rhs = realize_element(alg, alg.bracket(x, y))
            assert lhs == rhs, (x, y)
