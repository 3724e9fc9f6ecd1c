import json
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiverma.algebra import JacobiAlgebra, Weight
from jacobiverma.cli import main
from jacobiverma.pbw import PbwMonomial
from jacobiverma.ring import PolyQ
from jacobiverma.singular import REPORT_JSON_SCHEMA
from jacobiverma.textio import (
    ParseError,
    parse_generator,
    parse_poly,
    parse_vector,
    parse_weight,
    parse_word,
    render_generator,
    render_monomial,
    render_weight,
    _name_table,
)
from jacobiverma.verma import VECTOR_JSON_SCHEMA, apply_word_to_v0

ALG = JacobiAlgebra(2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseWeight:
    @pytest.mark.parametrize(
        "text,coords",
        [
            ("2d1", (2, 0)),
            ("d1+d2", (1, 1)),
            ("d1-d2", (1, -1)),
            ("3d2", (0, 3)),
            ("2,0", (2, 0)),
            ("0,0", (0, 0)),
            ("3/2,0", (Fraction(3, 2), 0)),
            ("d2", (0, 1)),
            ("2d1-3d2", (2, -3)),
            ("d1 + d2", (1, 1)),
            (" 2d1 - 3d2 ", (2, -3)),
        ],
    )
    def test_examples(self, text, coords):
        assert parse_weight(text, 2) == Weight.of(*coords)

    def test_malformed(self):
        # juxtaposed terms would read as a product, not a sum
        for bad in ("", "2x1", "d3", "1,2,3", "1/0,0", "d1d2", "2d1 d2"):
            with pytest.raises(ParseError):
                parse_weight(bad, 2)

    def test_roundtrip(self):
        for coords in [(2, 0), (1, -1), (Fraction(3, 2), Fraction(-1, 4))]:
            w = Weight.of(*coords)
            assert parse_weight(render_weight(w), 2) == w


class TestRoundTrips:
    def test_generators(self):
        for n in (1, 2, 3, 4):
            alg, table = JacobiAlgebra(n), _name_table(n)
            for spelling, k in table.index.items():
                assert parse_generator(spelling, n) == alg.generators[k]
            for g in alg.generators:
                assert parse_generator(str(g), n) == g
                for short in (None, True, False):
                    assert parse_generator(render_generator(g, n, short), n) == g
            if n >= 2:
                assert parse_generator("K+[2,1]", n) == parse_generator("K+[1,2]", n)
                assert parse_generator("K-[2,1]", n) == parse_generator("K-[1,2]", n)
                assert parse_generator("K0[2,1]", n) != parse_generator("K0[1,2]", n)
                assert parse_generator("K+[02,1]", n) == parse_generator("K+[1,2]", n)
            for short in (False, True):
                names = {
                    render_monomial(alg, PbwMonomial.from_word(alg, [k]), short=short, latex=True)
                    for k in range(len(alg.generators))
                }
                assert len(names) == len(alg.generators)
            # short names exist for n = 2 only, in text and in LaTeX
            assert (table.short_text != table.text) == (n == 2)
            assert (table.short_latex != table.latex) == (n == 2)

    def test_monomials(self):
        words = [
            [],
            ["K+[2,2]", "K0[1,2]"],
            ["a+1", "a+2", "d+"],
            ["b+2", "d+", "d+"],
            ["a+2", "a+2", "d+", "d+"],
        ]
        for names in words:
            gens = [parse_generator(t, 2) for t in names]
            m = PbwMonomial.from_generators(ALG, gens)
            text = render_monomial(ALG, m)
            if m.is_unit:
                continue
            parsed = parse_word(text, 2)
            assert PbwMonomial.from_generators(ALG, parsed) == m

    @given(
        st.dictionaries(
            keys=st.tuples(st.integers(0, 3), st.integers(0, 3)),
            values=st.fractions(min_value=-9, max_value=9, max_denominator=8),
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_polynomials(self, terms):
        p = PolyQ(2, terms)
        if p.is_zero:
            return
        assert parse_poly(p.to_text(), 2) == p

    def test_vectors(self):
        v = parse_vector("(a+2)^2 - 2 b+2", ALG)
        expected = apply_word_to_v0(ALG, parse_word("(a+2)^2", 2)) - apply_word_to_v0(
            ALG, parse_word("b+2", 2)
        ).scale(2)
        assert v == expected

    def test_vector_with_poly_coeff(self):
        v = parse_vector("(2 L1 - 3/2) a+1 a+2 + d+", ALG)
        L1 = PolyQ.var(2, 0)
        c = 2 * L1 - PolyQ.const(2, Fraction(3, 2))
        expected = apply_word_to_v0(ALG, parse_word("a+1 a+2", 2), c) + apply_word_to_v0(
            ALG, parse_word("d+", 2)
        )
        assert v == expected

    @pytest.mark.parametrize("coeff", ["2 (L1 + 1)^2", "L1 (L2 + 1)^2", "2 3^2"])
    def test_exponent_binds_to_its_own_factor(self, coeff):
        v = parse_vector(f"{coeff} a+1", ALG)
        assert v == apply_word_to_v0(ALG, parse_word("a+1", 2), parse_poly(coeff, 2))

    @pytest.mark.parametrize("text", ["2 *", "L1 *", "* L1", "L1 + + L2", "()"])
    def test_malformed_polynomials(self, text):
        with pytest.raises(ParseError):
            parse_poly(text, 2)

    def test_polynomial_products(self):
        L1, L2 = PolyQ.var(2, 0), PolyQ.var(2, 1)
        assert parse_poly("2 * L1", 2) == 2 * L1
        assert parse_poly("L1 (L2 - 1)^2", 2) == L1 * (L2 - PolyQ.one(2)) ** 2

    def test_unordered_word_is_normalized(self):
        # d+ a+2 = a+2 d+ + (1/2) a+1
        v = parse_vector("d+ a+2", ALG)
        expected = apply_word_to_v0(ALG, parse_word("a+2 d+", 2)) + apply_word_to_v0(
            ALG, parse_word("a+1", 2)
        ).scale(Fraction(1, 2))
        assert v == expected


class TestCommands:
    def test_bracket_ccr(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "a-1", "a+1")
        assert code == 0
        assert out.strip() == "1"

    def test_bracket_json(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "d-", "d+", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["scalar"] == "0"
        assert {t["generator"]: t["coeff"] for t in payload["terms"]} == {
            "h1": "-1/2",
            "h2": "1/2",
        }

    def test_normal_order(self, capsys):
        code, out, _ = run_cli(capsys, "normal-order", "a-1 a+1", "--n", "2")
        assert code == 0
        assert out.strip() == "a+1 a-1 + 1"

    def test_act(self, capsys):
        code, out, _ = run_cli(capsys, "act", "b-2", "b+2")
        assert code == 0
        assert out.strip() == "2 L2"

    def test_singular_d1_minus_d2_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "singular", "--n", "2", "--weight", "d1-d2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_JSON_SCHEMA)
        assert payload["monomials"] == ["d+"]
        assert len(payload["branches"]) == 1
        br = payload["branches"][0]
        assert br["constraints"] == ["L2 - L1"]
        assert br["vectors"] == [["1"]]
        assert br["verified"] is True
        # a branch has exactly one vector
        for vectors in ([], [["1"], ["1"]]):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**payload, "branches": [{**br, "vectors": vectors}]}, REPORT_JSON_SCHEMA)

    @pytest.mark.parametrize("weight", ["-1,3", "-d1+d2"])
    def test_singular_weight_with_leading_minus(self, capsys, weight):
        code, out, _ = run_cli(
            capsys, "singular", "--n", "2", f"--weight={weight}", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["monomials"] == [] and payload["branches"] == []

    def test_singular_d2_reports_absence(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--n", "2", "--weight", "d2")
        assert code == 0
        assert "no singular vector" in out

    def test_singular_weight_zero_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--n", "2", "--weight", "0,0")
        assert code == 0
        assert "trivial" in out

    def test_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "(a+2)^2 - 2 b+2", "--constraints", "L2 = 1/4"
        )
        assert code == 0
        assert "singular: yes" in out

    def test_verify_json_schemas(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "(a+2)^2 - 2 b+2",
            "--constraints",
            "L2 = 1/4",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        from jacobiverma.verma import CONSTRAINTS_JSON_SCHEMA

        jsonschema.validate(payload["vector"], VECTOR_JSON_SCHEMA)
        jsonschema.validate(payload["constraints"], CONSTRAINTS_JSON_SCHEMA)
        assert payload["singular"] is True

    def test_act_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "act", "b-2", "b+2", "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), VECTOR_JSON_SCHEMA)

    def test_all_worked_weights_validate(self, capsys):
        for w in ("2d1", "2d2", "d1+d2", "d1-d2", "d1", "d2", "3d2"):
            code, out, _ = run_cli(
                capsys, "singular", "--n", "2", "--weight", w, "--format", "json"
            )
            assert code == 0
            jsonschema.validate(json.loads(out), REPORT_JSON_SCHEMA)


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "a-1", "zz+9")
        assert code == 2
        assert err.strip()

    def test_weight_parse_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "singular", "--n", "2", "--weight", "kaboom")
        assert code == 2

    def test_juxtaposed_weight_terms_are_2(self, capsys):
        code, out, err = run_cli(capsys, "singular", "--n", "2", "--weight", "d1d2")
        assert code == 2
        assert out == ""
        assert err == "parse error: cannot read weight term at 'd2'\n"

    def test_exponent_past_the_monomial_limit_is_2(self, capsys):
        code, out, err = run_cli(capsys, "act", "--n", "2", "a-[1]", "(L1^99999999999) a+[1]")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        code, out, _ = run_cli(capsys, "act", "--n", "2", "a-[1]", "(L1^99999) a+[1]")
        assert code == 0
        assert out.strip() == "L1^99999"
        # the module kernel multiplies by L1 past the limit
        code, _, err = run_cli(capsys, "act", "--n", "2", "b-1", "(L1^2147483647) b+1")
        assert code == 2
        assert err.startswith("error: ")

    def test_cartan_tail_past_the_recursion_limit_is_0(self, capsys):
        # h1^k v0 = L1^k v0, its Cartan tail k letters long
        code, out, _ = run_cli(capsys, "act", "--n", "2", "a+[1]", "h1^5000")
        assert code == 0
        assert out.strip() == "L1^5000 a+1"
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "h1^1500")
        assert code == 0
        assert out.strip().endswith("singular: yes")

    def test_budget_exhaustion_is_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "singular", "--n", "2", "--weight", "2d1", "--branch-budget", "1",
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_budget_below_one_is_2(self, capsys, budget):
        code, out, err = run_cli(
            capsys,
            "singular", "--n", "2", "--weight", "2d1", "--branch-budget", budget,
        )
        assert code == 2
        assert out == ""
        assert "--branch-budget: must be at least 1" in err

    def test_unknown_command_is_2(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_verify_zero_vector_is_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "0")
        assert code == 2
        assert out == ""
        assert err == "error: zero vector has no weight\n"

    def test_verify_mixed_weight_vector_is_2(self, capsys):
        for vector, message in [
            ("a+1 + K+[1,1]", "a+1 (weight 1,0) and b+1 (weight 2,0)"),
            ("a+1 + a+2", "a+1 (weight 1,0) and a+2 (weight 0,1)"),
        ]:
            code, out, err = run_cli(capsys, "verify", "--n", "2", vector)
            assert code == 2
            assert out == ""
            assert err == f"error: vector mixes weights: {message}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_vector_vanishing_on_the_constraints_is_2(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "--format", fmt, "verify", "(L1 - 1/4) a+1", "--constraints", "L1 = 1/4"
        )
        assert code == 2
        assert out == ""
        assert err == "error: vector vanishes on the constraints\n"
        # one coefficient that vanishes there is not enough
        code, out, _ = run_cli(
            capsys, "--format", fmt, "verify", "(L1 - 1/4) (a+1)^2 + L2 b+1", "--constraints", "L1 = 1/4"
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["singular"] is False
        else:
            assert out.endswith("singular: no\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_vector_vanishing_on_nonaffine_constraints_is_2(self, capsys, fmt):
        # no solved form: the coefficient is a multiple of the constraint
        code, out, err = run_cli(
            capsys, "verify", "(L1^2 - 1) a+1", "--constraints", "L1^2 = 1", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == "error: vector vanishes on the constraints\n"
        # a remainder that is not zero leaves the vector unverifiable
        code, out, _ = run_cli(
            capsys, "verify", "(L1^2 + L1 - 1) a+1", "--constraints", "L1^2 = 1", "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["unverifiable"] is True
        else:
            assert out.startswith("unverifiable: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_contradictory_nonaffine_constraints_is_2(self, capsys, fmt):
        # the two equations differ by the constant 3, so no weight has both
        code, out, err = run_cli(
            capsys, "--format", fmt, "verify", "a+1", "--constraints", "L1^2 = 1; L1^2 = 4"
        )
        assert code == 2
        assert out == ""
        assert err == "constraints are inconsistent\n"
        # one equation in each variable is consistent and stays unverifiable
        code, out, _ = run_cli(
            capsys, "--format", fmt, "verify", "a+1", "--constraints", "L1^2 = 1; L2^2 = 4"
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["unverifiable"] is True
        else:
            assert out.startswith("unverifiable: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["act", "a-1", "a+1 -"],
            ["act", "a-1", "a+1 + + a+2"],
            ["act", "a-1", "* a+1"],
            ["act", "a-1", "2 * * a+1"],
            ["verify", "(a+2)^2 - 2 b+2 +", "--constraints", "L2 = 1/4"],
        ],
    )
    def test_term_without_coefficient_or_word_is_2(self, capsys, argv):
        # a sign or a '*' with nothing to apply it to is not the constant 1
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "vector, expected",
        [("2 * a+1", "2"), ("L1 * a+1", "L1"), ("(L1) (a+1)^2", "2 L1 a+1"), ("2", "0")],
    )
    def test_coefficient_forms_are_0(self, capsys, vector, expected):
        code, out, _ = run_cli(capsys, "act", "--n", "2", "a-1", vector)
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "2", "1/0 a+1"],
            ["verify", "--n", "2", "a+1", "--constraints", "L1 = 1/0"],
        ],
        ids=["vector", "constraint"],
    )
    def test_zero_denominator_is_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "parse error: zero denominator in '1/0'\n"

    def test_invalid_n_is_2(self, capsys):
        code, _, err = run_cli(capsys, "singular", "--n", "0", "--weight", "0,0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bracket", "a+1", "a-1"],
            ["normal-order", "a-1 a+1"],
            ["act", "a-1", "a+1"],
            ["verify", "a+1"],
        ],
        ids=["bracket", "normal-order", "act", "verify"],
    )
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_explicit_n_below_one_is_2(self, capsys, argv, n):
        # an explicit --n is never replaced by the inferred dimension
        code, out, err = run_cli(capsys, *argv, "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: algebra dimension parameter must be >= 1, got {n}\n"


class TestDeterminism:
    def test_byte_identical_invocations(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "singular", "--n", "2", "--weight", "2d1", "--format", "json"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jacobiverma.cli", "bracket", "a-1", "a+1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_installed_script(self):
        try:
            proc = subprocess.run(
                ["jv", "singular", "--n", "2", "--weight", "2d2", "--format", "json"],
                capture_output=True,
                text=True,
            )
        except FileNotFoundError:
            pytest.skip("console script not on PATH")
        payload = json.loads(proc.stdout)
        assert payload["branches"][0]["constraints"] == ["L2 - 1/4"]
