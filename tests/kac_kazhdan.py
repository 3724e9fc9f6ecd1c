"""The Kac-Kazhdan criterion as a check on singular-search reports.

By the Heisenberg decoupling, the singular vectors of g_n at weight w are
those of a Verma module over sp(n) with lowest weight shifted to L_i - 1/4.
Put lambda_i = 2 (L_i - 1/4) and rho = (n, n-1, ..., 1).  The raising roots
are 2 delta_i with coroot e_i and delta_i +- delta_j (i < j) with coroot
e_i +- e_j.  The classical criterion (Kac & Kazhdan, Adv. Math. 34 (1979);
Bernstein, Gelfand & Gelfand, Funct. Anal. Appl. 5 (1971)) then predicts:

(i)   a weight with an odd coordinate sum, outside the root lattice of
      sp(n), has no branch;
(ii)  when w = m alpha for a raising root alpha, some branch is the single
      equation <rho - lambda, alpha^vee> = m;
(iii) on every branch some raising root has <rho - lambda, alpha^vee> a
      positive integer;
(iv)  every branch has exactly one vector, since dim Hom(M(mu), M(lambda))
      <= 1.

``check_kac_kazhdan`` takes a report in its published JSON shape and shares
no code with the engine.
"""

import json
import random
import re
from fractions import Fraction

TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:L(\d+))?")


def affine(text, n):
    """(coefficients of L1..Ln, constant) of an affine form such as
    ``L2 + 5/3 L1 - 4``."""
    compact = text.replace(" ", "")
    coeffs, const = [Fraction(0)] * n, Fraction(0)
    pos = 0
    while pos < len(compact):
        m = TERM.match(compact, pos)
        assert m and m.end() > pos and (m.group(2) or m.group(3)), text
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        if m.group(3):
            coeffs[int(m.group(3)) - 1] += c
        else:
            const += c
        pos = m.end()
    return coeffs, const


def raising_roots(n):
    """(root in delta coordinates, coroot) for every raising root of sp(n)."""
    def unit(i, c=1):
        return tuple(c if k == i else 0 for k in range(n))

    roots = [(unit(i, 2), unit(i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                v = tuple(a + s * b for a, b in zip(unit(i), unit(j)))
                roots.append((v, v))
    return roots


def pairing_form(n, coroot):
    """<rho - lambda, coroot> as (coefficients of L, constant)."""
    rho = [n - k for k in range(n)]
    # rho_i - lambda_i = rho_i + 1/2 - 2 L_i
    coeffs = [Fraction(-2 * c) for c in coroot]
    const = sum(Fraction(c) * (rho[k] + Fraction(1, 2)) for k, c in enumerate(coroot))
    return coeffs, const


def branch_point(rng, n, solved_form):
    """A random rational point on the locus of a solved form ``Lk = expr``,
    whose expressions mention only unsolved variables."""
    solved = {}
    for text in solved_form:
        lhs, rhs = text.split(" = ")
        solved[int(lhs[1:]) - 1] = affine(rhs, n)
    pt = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
    for v in solved:
        pt[v] = None
    for v, (coeffs, const) in solved.items():
        pt[v] = const + sum(c * x for c, x in zip(coeffs, pt) if c)
    return pt


def equation(text, n):
    coeffs, const = affine(text, n)
    return coeffs + [const]


def proportional(a, b):
    ka = next(x for x in a if x != 0)
    kb = next(x for x in b if x != 0)
    return [x / ka for x in a] == [x / kb for x in b]


def pairing_values(n, pt):
    out = []
    for _, coroot in raising_roots(n):
        coeffs, const = pairing_form(n, coroot)
        out.append(const + sum(c * x for c, x in zip(coeffs, pt)))
    return out


def check_kac_kazhdan(report: dict) -> None:
    """Assert (i)-(iv) on a report in its published JSON shape
    (``textio.report_to_json``)."""
    w = [Fraction(c) for c in report["weight"]]
    n = len(w)
    branches = report["branches"]
    # (i)
    if sum(w) % 2 != 0:
        assert branches == []
    # (ii)
    for root, coroot in raising_roots(n):
        k = next(i for i, r in enumerate(root) if r != 0)
        m = w[k] / root[k]
        if m.denominator != 1 or m <= 0 or any(c != m * r for c, r in zip(w, root)):
            continue
        coeffs, const = pairing_form(n, coroot)
        want = coeffs + [const - m]
        assert any(
            len(b["constraints"]) == 1 and proportional(equation(b["constraints"][0], n), want)
            for b in branches
        ), (root, m)
    # (iii) and (iv)
    rng = random.Random(json.dumps(report, sort_keys=True))
    for b in branches:
        assert len(b["vectors"]) == 1, b["constraints"]
        for _ in range(5):
            pt = branch_point(rng, n, b["solved_form"])
            assert any(v.denominator == 1 and v > 0 for v in pairing_values(n, pt)), (
                b["constraints"],
                pt,
            )
