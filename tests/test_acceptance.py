"""Acceptance suite: one test per criterion, every comparison exact.

The seven worked weight cases share a single pipeline run (module fixture) so
the verification-closure criterion inspects the same reports the golden
criteria do.  Expected constants (3/4, 5/4, 1/4, 3/2) were derived by hand
from the condition systems and are certified here against the random-point
numeric kernel oracle.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from jacobiverma.algebra import A_MINUS, A_PLUS, JacobiAlgebra, Weight
from jacobiverma.pbw import monomial_weight
from jacobiverma.ring import PolyQ, rational_roots
from jacobiverma.singular import enumerate_ansatz, find_singular_vectors
from jacobiverma.textio import render_monomial, report_to_json
from jacobiverma.verma import VermaVector, act, act_of_bracket, is_singular

from oracles import ad, all_negative_rows, evaluate_rows, fraction_kernel, linear_parts, same_span

WEIGHTS = {
    "2d1": (2, 0),
    "2d2": (0, 2),
    "d1+d2": (1, 1),
    "d1-d2": (1, -1),
    "d1": (1, 0),
    "d2": (0, 1),
    "3d2": (0, 3),
}


def L(i):
    return PolyQ.var(2, i - 1)


def const(c):
    return PolyQ.const(2, Fraction(c))


@pytest.fixture(scope="module")
def alg():
    return JacobiAlgebra(2)


@pytest.fixture(scope="module")
def reports(alg):
    """One shared pipeline run over the seven worked weight cases."""
    return {
        name: find_singular_vectors(alg, Weight.of(*coords))
        for name, coords in WEIGHTS.items()
    }


def kernel_coeffs(alg, report):
    """monomial name -> kernel coefficient (PolyQ) for a single-branch report."""
    (branch,) = report.branches
    return {
        render_monomial(alg, m): x.as_poly()
        for m, x in zip(report.monomials, branch.kernel)
    }


def test_criterion_1_structure_constants():
    for n in (2, 3):
        a = JacobiAlgebra(n)
        gens = a.generators
        for x, y in itertools.product(gens, repeat=2):
            assert a.bracket(x, y) == -a.bracket(y, x)
        for x, y, z in itertools.product(gens, repeat=3):
            s = (
                ad(a, x, a.bracket(y, z))
                + ad(a, y, a.bracket(z, x))
                + ad(a, z, a.bracket(x, y))
            )
            assert s.is_zero, (x, y, z)
        heis = {g for g in gens if g.family in (A_PLUS, A_MINUS)}
        for x in heis:
            for y in gens:
                assert all(g in heis for g in linear_parts(a, a.bracket(x, y))[1]), (x, y)
    print("criterion 1: structure constants exact for g_2 and g_3")


def test_criterion_2_weight_2d1(alg, reports):
    rep = reports["2d1"]
    generic = [b for b in rep.branches if len(b.constraints.equations) == 1]
    assert len(generic) == 1
    branch = generic[0]
    # single affine constraint fixing L1 to a rational constant
    (eq,) = branch.constraints.equations
    assert eq.total_degree() == 1 and eq.variables() == (0,)
    assert eq == L(1) - const(Fraction(3, 4))
    assert len(branch.kernel) == len(rep.monomials)
    co = kernel_coeffs(alg, rep)
    assert co["b+2 (d+)^2"] == const(-2) * co["(a+2)^2 (d+)^2"]
    assert co["c+ d+"] == const(-2) * co["a+1 a+2 d+"]
    assert co["(a+1)^2"] == const(Fraction(-1, 2)) * co["b+1"]
    # quadratic coefficient has the two expected roots, half an integer apart
    quad = co["(a+1)^2"]
    roots = rational_roots(quad)
    assert roots == [Fraction(3, 4), Fraction(5, 4)]
    assert roots[1] - roots[0] == Fraction(1, 2)
    assert quad == (L(2) - const(Fraction(3, 4))) * (L(2) - const(Fraction(5, 4)))
    print("criterion 2: weight 2d1 branch L1 = 3/4 with factored kernel")


def test_criterion_3_weight_2d2(alg, reports):
    rep = reports["2d2"]
    assert len(rep.branches) == 1
    branch = rep.branches[0]
    assert branch.constraints.equations == (L(2) - const(Fraction(1, 4)),)
    co = kernel_coeffs(alg, rep)
    assert [render_monomial(alg, m) for m in rep.monomials] == ["b+2", "(a+2)^2"]
    assert co["b+2"] == const(-2)
    assert co["(a+2)^2"] == const(1)
    print("criterion 3: weight 2d2 branch L2 = 1/4 with kernel (-2, 1)")


def test_criterion_4_weight_d1_plus_d2(alg, reports):
    rep = reports["d1+d2"]
    assert len(rep.branches) == 1
    branch = rep.branches[0]
    assert branch.constraints.equations == (L(2) + L(1) - const(Fraction(3, 2)),)
    co = kernel_coeffs(alg, rep)
    assert co["b+2 d+"] == const(-2) * co["(a+2)^2 d+"]
    assert co["c+"] == const(-2) * co["a+1 a+2"]
    print("criterion 4: weight d1+d2 branch L1+L2 = 3/2 with paired kernel pattern")


def test_criterion_5_weight_d1_minus_d2(alg, reports):
    rep = reports["d1-d2"]
    assert len(rep.branches) == 1
    branch = rep.branches[0]
    assert branch.constraints.equations == (L(2) - L(1),)
    assert [render_monomial(alg, m) for m in rep.monomials] == ["d+"]
    co = kernel_coeffs(alg, rep)
    assert co["d+"] == const(1)
    print("criterion 5: weight d1-d2 branch L2 = L1 with kernel d+")


def test_criterion_6_nonexistence(alg, reports):
    for name, size in (("d1", 2), ("d2", 1), ("3d2", 2)):
        rep = reports[name]
        assert rep.branches == [], name
        assert len(rep.monomials) == size, name
    print("criterion 6: no singular vectors at d1, d2, 3d2; ansatz sizes 2, 1, 2")


def test_criterion_7_verification_closure(alg, reports):
    checked = 0
    for name in ("2d1", "2d2", "d1+d2", "d1-d2"):
        for branch in reports[name].branches:
            assert branch.verified, name
            detail = is_singular(alg, branch.vector, branch.constraints)
            assert detail.singular
            assert len(detail.by_generator) == 6
            checked += 1
    assert checked >= 4
    print("criterion 7: every emitted branch annihilated by all 6 lowering generators")


def test_criterion_8_oracle_equivalence(alg, reports):
    # the numeric matrix acts with every element of n- on the full ansatz and
    # is checked against the reported vectors, so the sp(n) system and its
    # lift do not check themselves
    rng = random.Random(18251825)
    for name, coords in WEIGHTS.items():
        monomials = reports[name].monomials
        full = all_negative_rows(alg, monomials)
        ncols = len(monomials)
        branches = reports[name].branches
        points = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(2)]
            for _ in range(25)
        ]
        # probe each branch locus exactly, plus a perturbation just off it
        for branch in branches:
            solved = dict(branch.constraints.solved_form)
            for _ in range(5):
                pt = [None, None]
                for v in range(2):
                    if v not in solved:
                        pt[v] = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                for v, expr in solved.items():
                    pt[v] = expr.eval_all([x if x is not None else Fraction(0) for x in pt])
                points.append(list(pt))
                off = list(pt)
                v0 = next(iter(solved)) if solved else 0
                off[v0] = off[v0] + Fraction(1, 7)
                points.append(off)
        for pt in points:
            ker = fraction_kernel(evaluate_rows(full, pt), ncols)
            satisfied = [b for b in branches if b.constraints.satisfied_at(pt)]
            assert bool(ker) == bool(satisfied), (name, pt)
            if satisfied:
                sym = [[x.eval_all(pt) for x in b.kernel] for b in satisfied]
                assert same_span(sym, ker, ncols), (name, pt)
    print("criterion 8: numeric kernel oracle agrees at and off every branch locus")


def test_criterion_9_representation_property(alg):
    rng = random.Random(909090)
    gens = alg.generators
    trials = 0
    while trials < 200:
        x = rng.choice(gens)
        y = rng.choice(gens)
        # random homogeneous vector of grade <= 3
        exps = [0] * len(gens)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(alg.num_positive)] += 1
        from jacobiverma.pbw import PbwMonomial

        seed_mono = PbwMonomial(tuple(exps))
        mons = enumerate_ansatz(alg, monomial_weight(alg, seed_mono))
        terms = {}
        for m in mons:
            if rng.random() < 0.5:
                c = PolyQ(
                    2,
                    {
                        (rng.randint(0, 1), rng.randint(0, 1)): Fraction(
                            rng.randint(-3, 3), rng.randint(1, 2)
                        )
                    },
                )
                if not c.is_zero:
                    terms[m] = c
        if not terms:
            terms[seed_mono] = PolyQ.one(2)
        v = VermaVector(2, terms)
        lhs = act(alg, x, act(alg, y, v)) - act(alg, y, act(alg, x, v))
        rhs = act_of_bracket(alg, alg.bracket(x, y), v)
        assert lhs == rhs, (x, y)
        trials += 1
    print("criterion 9: act commutators match brackets on 200 random triples")


def test_criterion_10_determinism(tmp_path):
    def full_run() -> str:
        algebra = JacobiAlgebra(2)
        payload = {}
        for name, coords in WEIGHTS.items():
            rep = find_singular_vectors(algebra, Weight.of(*coords))
            payload[name] = report_to_json(algebra, rep)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    first = full_run()
    second = full_run()
    assert first.encode() == second.encode()
    print("criterion 10: two consecutive suite runs are byte-identical")
