import math

import numpy as np
import pytest

from nlpflow import builtin, parse_problem, serialize_problem
from nlpflow.errors import EvaluationError, ProblemParseError
from nlpflow.problems import evaluate

EC_QUADRATIC_TEXT = """\
# equality-constrained quadratic
var 2
min 0.5 * (x1^2 + x2^2)
eq x1 + x2 - 2
"""


def assert_equivalent(pa, pb, points=10, seed=0, atol=1e-12):
    rng = np.random.default_rng(seed)
    assert (pa.n, pa.r, pa.s) == (pb.n, pb.r, pb.s)
    for _ in range(points):
        theta = rng.uniform(-2, 2, size=pa.n)
        a, b = evaluate(pa, theta), evaluate(pb, theta)
        assert np.isclose(a.f, b.f, atol=atol)
        assert np.allclose(a.g, b.g, atol=atol)
        assert np.allclose(a.h, b.h, atol=atol)
        assert np.allclose(a.f_grad, b.f_grad, atol=atol)
        assert np.allclose(a.g_jac, b.g_jac, atol=atol)
        assert np.allclose(a.h_jac, b.h_jac, atol=atol)


def test_matches_builtin_ec_quadratic():
    assert_equivalent(parse_problem(EC_QUADRATIC_TEXT), builtin("ec-quadratic"))


def test_sin_at_zero():
    p = parse_problem("var 1\nmin sin(x1)\n")
    point = evaluate(p, np.zeros(1))
    assert point.f == 0.0
    assert np.allclose(point.f_grad, [1.0])


def test_all_functions_and_operators():
    p = parse_problem(
        "var 2\n"
        "min exp(x1) + log(x2) - sqrt(x2) * cos(x1) / 2 + x1^3 - 2\n"
        "ineq x1 - 1e-1\n")
    theta = np.array([0.3, 1.7])
    point = evaluate(p, theta)
    expected = (math.exp(0.3) + math.log(1.7)
                - math.sqrt(1.7) * math.cos(0.3) / 2 + 0.3 ** 3 - 2)
    assert np.isclose(point.f, expected)
    assert np.isclose(point.g[0], 0.2)


def test_unary_signs_and_precedence():
    p = parse_problem("var 1\nmin -x1^2 + 2 * x1 - -3\n")
    point = evaluate(p, np.array([2.0]))
    assert np.isclose(point.f, -4.0 + 4.0 + 3.0)
    assert np.isclose(point.f_grad[0], -2.0 * 2.0 + 2.0)


def test_trailing_operator_is_rejected():
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("var 1\nmin x1 +\n")
    assert exc.value.line == 2


def test_unknown_identifier():
    with pytest.raises(ProblemParseError, match="unknown identifier"):
        parse_problem("var 1\nmin y1\n")


def test_variable_out_of_declared_range():
    with pytest.raises(ProblemParseError, match="out of range"):
        parse_problem("var 2\nmin x3\n")


def test_variable_exponent_rejected():
    with pytest.raises(ProblemParseError, match="constant"):
        parse_problem("var 1\nmin 2 ^ x1\n")


def test_constant_expression_exponent_allowed():
    p = parse_problem("var 1\nmin x1 ^ (1 + 1)\n")
    assert evaluate(p, np.array([3.0])).f == 9.0


def test_missing_declarations():
    with pytest.raises(ProblemParseError, match="var"):
        parse_problem("min x1\n")
    with pytest.raises(ProblemParseError, match="min"):
        parse_problem("var 1\nineq x1\n")


def test_duplicate_declarations_rejected():
    with pytest.raises(ProblemParseError, match="duplicate"):
        parse_problem("var 1\nvar 2\nmin x1\n")
    with pytest.raises(ProblemParseError, match="duplicate"):
        parse_problem("var 1\nmin x1\nmin x1\n")


def test_unexpected_character_position():
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("var 1\nmin x1 @ 2\n")
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nvar 1   # one variable\n\nmin x1^2  # objective\n"
    p = parse_problem(text)
    assert evaluate(p, np.array([3.0])).f == 9.0


def test_round_trip():
    original = parse_problem(
        "var 2\n"
        "min sin(x1) + 100 * (x2 - x1^2)^2\n"
        "ineq x1 - 1.5\n"
        "ineq 0.5 - x1\n"
        "eq x1 - x2\n")
    rendered = serialize_problem(original)
    reparsed = parse_problem(rendered)
    assert_equivalent(original, reparsed, seed=1)


def test_serialize_requires_parsed_problem():
    with pytest.raises(ProblemParseError):
        serialize_problem(builtin("ec-quadratic"))


@pytest.mark.parametrize("text", ["var 1\nmin log(x1 - 1)", "var 1\nmin x1\nineq sqrt(x1)",
                                  # finite value 0, but the dual pass divides by zero
                                  "var 1\nmin exp(-1 / x1^2)", "var 1\nmin x1^0.5"])
@pytest.mark.filterwarnings("ignore:divide by zero")
def test_domain_errors_raise_evaluation_error(text):
    problem = parse_problem(text, validate=False)
    with pytest.raises(EvaluationError):
        evaluate(problem, np.zeros(1))
