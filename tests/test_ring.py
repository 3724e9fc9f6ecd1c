from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiverma.ring import (
    PolyQ,
    RatFuncQ,
    RingError,
    _euclid_gcd_univariate,
    poly_gcd,
    rational_roots,
    squarefree_part,
)


def L(i, nvars=2):
    return PolyQ.var(nvars, i - 1)


def const(c, nvars=2):
    return PolyQ.const(nvars, Fraction(c))


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys(draw, nvars=2, max_deg=3, max_terms=4):
    terms = draw(
        st.dictionaries(
            keys=st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)]),
            values=fractions_st,
            max_size=max_terms,
        )
    )
    return PolyQ(nvars, terms)


@st.composite
def points(draw, nvars=2):
    return [draw(fractions_st) for _ in range(nvars)]


class TestArithmetic:
    def test_eval_at_root(self):
        p = L(1) - const(Fraction(3, 4))
        assert p.eval_all([Fraction(3, 4), 0]) == 0

    def test_expansion_example(self):
        lhs = (L(2) - L(1)) * (2 * L(2) - 2 * L(1) - const(1))
        expected = (
            2 * L(2) ** 2 - 4 * L(1) * L(2) + 2 * L(1) ** 2 - L(2) + L(1)
        )
        assert lhs == expected

    def test_expansion_example_random_points(self):
        # independent check: both sides agree at 5 fixed rational points
        lhs = (L(2) - L(1)) * (2 * L(2) - 2 * L(1) - const(1))
        rhs = 2 * L(2) ** 2 - 4 * L(1) * L(2) + 2 * L(1) ** 2 - L(2) + L(1)
        pts = [
            (Fraction(1, 2), Fraction(-3)),
            (Fraction(5), Fraction(7, 3)),
            (Fraction(-2, 7), Fraction(1, 5)),
            (Fraction(0), Fraction(11, 4)),
            (Fraction(9, 2), Fraction(-1, 6)),
        ]
        for pt in pts:
            assert lhs.eval_all(pt) == rhs.eval_all(pt)

    def test_degree_of_constant(self):
        assert const(7).total_degree() == 0

    def test_zero_behaviour(self):
        z = PolyQ.zero(2)
        assert z.is_zero
        assert (z + L(1)) == L(1)
        assert (L(1) * z).is_zero

    def test_pow(self):
        assert (L(1) + L(2)) ** 2 == L(1) ** 2 + 2 * L(1) * L(2) + L(2) ** 2

    def test_subs_partial(self):
        p = L(1) * L(2) + L(2) ** 2
        q = p.subs({1: Fraction(2)})
        assert q == 2 * L(1) + const(4)

    def test_subs_poly(self):
        p = L(2) ** 2
        q = p.subs({1: const(Fraction(3, 2)) - L(1)})
        assert q == (const(Fraction(3, 2)) - L(1)) ** 2

    def test_subs_of_absent_variables_is_identity(self):
        p = L(1) ** 2 - const(Fraction(1, 3))
        assert p.subs({1: L(1) + const(2)}) is p
        assert const(5).subs({0: Fraction(1, 4), 1: L(1)}) == const(5)
        with pytest.raises(RingError):
            p.subs({2: Fraction(1)})

    @given(
        polys(nvars=3),
        st.lists(st.one_of(fractions_st, polys(nvars=3, max_deg=2, max_terms=3)), min_size=3, max_size=3),
        st.sets(st.integers(0, 2)),
        points(nvars=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_subs_is_evaluation_at_composed_point(self, p, values, subset, pt):
        assignment = {i: values[i] for i in subset}
        composed = [
            (v.eval_all(pt) if isinstance(v, PolyQ) else v) if i in assignment else pt[i]
            for i, v in enumerate(values)
        ]
        assert p.subs(assignment).eval_all(pt) == p.eval_all(composed)

    @given(
        polys(nvars=3),
        st.lists(polys(nvars=3, max_deg=2, max_terms=3), min_size=3, max_size=3),
        st.sets(st.integers(0, 2)),
    )
    @settings(max_examples=80, deadline=None)
    def test_simultaneous_subs_matches_sequential(self, p, values, subset):
        # with every value free of the substituted variables, as in a solved form
        assignment = {
            i: PolyQ(3, {e: c for e, c in values[i].terms.items() if not any(e[j] for j in subset)})
            for i in subset
        }
        sequential = p
        for i, v in assignment.items():
            sequential = sequential.subs({i: v})
        assert p.subs(assignment) == sequential

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys(), points())
    @settings(max_examples=60, deadline=None)
    def test_eval_is_homomorphism(self, a, b, pt):
        assert (a * b).eval_all(pt) == a.eval_all(pt) * b.eval_all(pt)
        assert (a + b).eval_all(pt) == a.eval_all(pt) + b.eval_all(pt)


def _no_zero_coefficient(p):
    return all(c != 0 for c in p.terms.values())


class TestProductsAndDivision:
    # The coefficients of polys() have mixed denominators, and their leading
    # coefficients are not monic in general.

    @given(polys(), polys())
    @settings(max_examples=80, deadline=None)
    def test_exact_quotient_of_a_product(self, a, b):
        if b.is_zero:
            return
        q = (a * b).try_divide(b)
        assert q == a
        assert _no_zero_coefficient(q)

    @given(polys(), polys(), polys(max_terms=3))
    @settings(max_examples=80, deadline=None)
    def test_none_exactly_when_no_quotient_exists(self, a, b, r):
        # A remainder with no term divisible by the leading term of b is the
        # unique remainder of division by b, so b divides a b + r iff r = 0.
        if b.is_zero:
            return
        lead, _ = b.leading()
        r = PolyQ(2, {e: c for e, c in r.terms.items() if any(x < y for x, y in zip(e, lead))})
        q = (a * b + r).try_divide(b)
        if r.is_zero:
            assert q == a
        else:
            assert q is None

    @given(polys(), polys())
    @settings(max_examples=80, deadline=None)
    def test_a_returned_quotient_is_exact(self, p, b):
        if b.is_zero:
            return
        q = p.try_divide(b)
        if q is not None:
            assert q * b == p

    @given(polys(), polys(), polys())
    @settings(max_examples=80, deadline=None)
    def test_cancelling_products_keep_no_zero_coefficient(self, a, b, c):
        # (a + b)(a - b) = a^2 - b^2 cancels the cross terms
        p = (a + b) * (a - b)
        assert p == a * a - b * b
        assert _no_zero_coefficient(p)
        assert (a * (b + c) - a * b - a * c).terms == {}
        assert _no_zero_coefficient(a * (b - b + c))

    def test_cancellation_example(self):
        p = (L(1) + const(Fraction(1, 2))) * (L(1) - const(Fraction(1, 2)))
        assert p.terms == {(2, 0): 1, (0, 0): Fraction(-1, 4)}
        assert ((const(Fraction(2, 3)) * L(2) + L(1)) * const(0)).terms == {}


class TestGcd:
    def test_gcd_linear_factor(self):
        g = poly_gcd(L(1) ** 2 - L(2) ** 2, L(1) - L(2))
        assert g == (L(1) - L(2)).monic()

    def test_gcd_divides(self):
        a = (L(1) - L(2)) * (L(1) + const(1)) ** 2
        b = (L(1) - L(2)) * (L(2) - const(3))
        g = poly_gcd(a, b)
        assert a.try_divide(g) is not None
        assert b.try_divide(g) is not None
        assert g == (L(1) - L(2)).monic()

    def test_gcd_of_zeros_rejected(self):
        with pytest.raises(RingError):
            poly_gcd(PolyQ.zero(2), PolyQ.zero(2))

    def test_division_by_zero_rejected(self):
        with pytest.raises(RingError):
            L(1).try_divide(PolyQ.zero(2))

    @given(polys(max_deg=2, max_terms=3), polys(max_deg=2, max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        if not a.is_zero:
            assert a.try_divide(g) is not None
        if not b.is_zero:
            assert b.try_divide(g) is not None

    def test_content_free_monic_convention(self):
        p = -4 * L(2) + const(1)
        assert p.monic() == L(2) - const(Fraction(1, 4))

    def test_squarefree_part(self):
        p = (L(1) - L(2)) ** 2
        assert squarefree_part(p) == (L(1) - L(2)).monic()

    def test_squarefree_mixed(self):
        p = (L(1) - const(1)) ** 2 * (L(2) + L(1))
        sf = squarefree_part(p)
        expect = ((L(1) - const(1)) * (L(2) + L(1))).monic()
        assert sf == expect

    def test_rational_roots(self):
        p = (L(2) - const(Fraction(3, 4))) * (L(2) - const(Fraction(5, 4)))
        assert rational_roots(p) == [Fraction(3, 4), Fraction(5, 4)]

    def test_rational_roots_with_irrational_cofactor(self):
        p = (L(1) - const(2)) * (L(1) ** 2 - const(2))
        assert rational_roots(p) == [Fraction(2)]


@st.composite
def split_linear_factors(draw):
    """Distinct rational roots, each labelled as a factor of both
    polynomials ("c"), of the first only ("a") or of the second only ("b"),
    with both polynomials of positive degree."""
    roots = draw(st.lists(fractions_st, min_size=2, max_size=7, unique=True))
    labels = draw(st.lists(st.sampled_from("cab"), min_size=len(roots), max_size=len(roots)))
    if not {"a", "c"} & set(labels):
        labels[0] = "a"
    if not {"b", "c"} & set(labels):
        labels[-1] = "b"
    return list(zip(roots, labels))


class TestUnivariateEuclid:
    """gcd of products of known distinct linear factors in one variable,
    which is the product of the shared factors, exactly."""

    @staticmethod
    def product(nvars, x, roots, scale=1):
        p = const(scale, nvars)
        for r in roots:
            p = p * (PolyQ.var(nvars, x) - const(r, nvars))
        return p

    @given(
        split_linear_factors(),
        st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
        fractions_st.filter(bool),
        fractions_st.filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_gcd_is_the_product_of_shared_factors(self, factors, var, sa, sb):
        nvars, x = var
        a = self.product(nvars, x, [r for r, k in factors if k in "ca"], sa)
        b = self.product(nvars, x, [r for r, k in factors if k in "cb"], sb)
        expected = self.product(nvars, x, [r for r, k in factors if k == "c"])
        assert _euclid_gcd_univariate(a, b, x) == expected
        assert _euclid_gcd_univariate(b, a, x) == expected
        assert poly_gcd(a, b) == expected

    def test_repeated_and_coprime_factors(self):
        x = L(1, 1)
        a = (x - const(Fraction(1, 2), 1)) ** 3 * (x + const(2, 1))
        b = (x - const(Fraction(1, 2), 1)) ** 2 * (x - const(3, 1)) * const(-6, 1)
        assert _euclid_gcd_univariate(a, b, 0) == (x - const(Fraction(1, 2), 1)) ** 2
        assert _euclid_gcd_univariate(a, x - const(3, 1), 0) == const(1, 1)

    def test_divisor_is_its_own_gcd(self):
        a = (L(2) - const(1)) * (L(2) + const(Fraction(3, 4)))
        assert _euclid_gcd_univariate(a * const(-3), a * (L(2) - const(5)), 1) == a


class TestRatFunc:
    def test_reduction(self):
        num = L(1) ** 2 - L(2) ** 2
        den = L(1) - L(2)
        r = RatFuncQ(num, den)
        assert r.is_polynomial()
        assert r.as_poly() == L(1) + L(2)

    def test_den_monic(self):
        r = RatFuncQ(PolyQ.one(2), 2 * L(2) - 2 * L(1) - const(1))
        assert r.den == (L(2) - L(1) - const(Fraction(1, 2))).monic()

    def test_zero_denominator_rejected(self):
        with pytest.raises(RingError):
            RatFuncQ(PolyQ.one(2), PolyQ.zero(2))

    @given(polys(max_deg=2, max_terms=3), polys(max_deg=2, max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_through_fraction(self, a, b):
        if b.is_zero:
            return
        r = RatFuncQ(a, b)
        # r == a / b as rational functions
        assert r.num * b == a * r.den


class TestRendering:
    def test_poly_text(self):
        p = 2 * L(2) ** 2 - 4 * L(1) * L(2) + 2 * L(1) ** 2 - L(2) + L(1)
        assert p.to_text() == "2 L2^2 - 4 L2 L1 + 2 L1^2 - L2 + L1"

    def test_constraint_text(self):
        assert (L(2) - L(1)).to_text() == "L2 - L1"

    def test_latex(self):
        p = L(1) - const(Fraction(3, 4))
        assert p.to_latex() == "\\Lambda(H_1) - \\tfrac{3}{4}"
