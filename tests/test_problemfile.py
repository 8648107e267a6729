import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from nlpflow import builtin, parse_problem, problemfile, serialize_problem
from nlpflow.errors import EvaluationError, ProblemParseError
from nlpflow.cli import main
from nlpflow.problems import curvature_at, evaluate

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
    with pytest.raises(ProblemParseError, match="missing var declaration"):
        parse_problem("# no declaration\n\n")


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


@pytest.mark.parametrize("text, line, column", [
    ("  var x\n", 1, 7), ("var 1\n\tbogus x1\n", 2, 2), ("var 1\nmin x1\n  min x1\n", 3, 3),
    ("var 1\n   min   x1 @ 2  # comment\n", 2, 13),
])
def test_columns_count_from_the_start_of_the_line(text, line, column):
    with pytest.raises(ProblemParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (line, column)


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


def chain_text(n):
    """The chained-sine problem as a problem file, rows as the builtin example2
    orders them."""
    shift, pi = repr(1.5 * math.pi), repr(math.pi)
    terms = [f"sin(x1 - 1 + {shift})"]
    terms += [f"100 * sin(-x{i} + {shift} + x{i - 1}^2)" for i in range(2, n + 1)]
    lines = [f"var {n}", "min " + " + ".join(terms), "ineq x1 - 1.5", "ineq 0.5 - x1"]
    for i in range(2, n + 1):
        lines += [f"ineq x{i - 1}^2 - x{i} - {pi}", f"ineq -{pi} - (x{i - 1}^2 - x{i})"]
    lines += [f"eq x{i} - x{i + 1}" for i in range(1, n)]
    return "# chain\n" + "\n".join(lines) + "\n"


def test_serialization_is_a_fixed_point():
    rendered = serialize_problem(parse_problem(chain_text(4)))
    assert serialize_problem(parse_problem(rendered)) == rendered
    assert_equivalent(parse_problem(rendered), builtin("example2", size=4), atol=1e-9)


def test_serialization_survives_replace():
    # the text is a declared field, so dataclasses.replace carries it
    problem = parse_problem(chain_text(3))
    renamed = dataclasses.replace(problem, name="renamed")
    assert serialize_problem(renamed) == serialize_problem(problem)
    assert_equivalent(parse_problem(serialize_problem(renamed)), problem, seed=2)


def test_serialize_requires_parsed_problem():
    with pytest.raises(ProblemParseError):
        serialize_problem(builtin("ec-quadratic"))


@pytest.mark.parametrize("text", ["var 1\nmin log(x1 - 1)", "var 1\nmin x1\nineq sqrt(x1)",
                                  # finite value 0, but the dual pass divides by zero
                                  "var 1\nmin exp(-1 / x1^2)", "var 1\nmin x1^0.5"])
@pytest.mark.filterwarnings("ignore:divide by zero")
def test_domain_errors_raise_evaluation_error(text):
    problem = parse_problem(text)
    with pytest.raises(EvaluationError):
        evaluate(problem, np.zeros(1))


# (expression, column of the fault within it, or None where only "inside" is
# pinned); the error reports the column in the line "min <expression>"
REJECTED = [
    ("x1 ** 2", None), ("0x1F", None), ("1_0", None), ("1j", None), ("x1.real", None),
    ("x1[0]", None), ("__import__('os')", None), ("lambda: 1", None), ("x1 if x1 else x1", None),
    ("(x1, x1)", None), ("sin(x1, x1)", None), ("sin(x=x1)", None), ("x1 % 2", 4),
    ("x1 @ 2", 4), ("True", 1), ("2 ^ x1", 3), ("x0", 1),
    ("x1 × 2", 4), ("not x1", 1), ("~x1", 1),
]

SIN1 = math.sin(1.0)
# (expression, value and derivative at x1 = 1.7), computed by hand
ACCEPTED = [
    ("x01", 1.7, 1.0), (".5*x1", 0.85, 0.5), ("1.*x1", 1.7, 1.0),
    ("1E+3*x1", 1700.0, 1000.0), ("+x1", 1.7, 1.0), ("--x1", 1.7, 1.0),
    ("x1^-2", 1.7 ** -2, -2.0 * 1.7 ** -3), ("x1^2^0.5", 1.7 ** math.sqrt(2),
                                              math.sqrt(2) * 1.7 ** (math.sqrt(2) - 1)),
    ("-x1^2", -2.89, -3.4), ("x1^sin(1)", 1.7 ** SIN1, SIN1 * 1.7 ** (SIN1 - 1)),
]


@pytest.mark.parametrize("expr, column", REJECTED)
def test_grammar_rejects(expr, column):
    with pytest.raises(ProblemParseError) as exc:
        parse_problem(f"var 1\n# the objective\nmin {expr}\n")
    assert exc.value.line == 3
    assert len("min ") < exc.value.column <= len("min ") + len(expr)
    if column is not None:
        assert exc.value.column == len("min ") + column


@pytest.mark.parametrize("expr, value, slope", ACCEPTED)
def test_grammar_accepts(expr, value, slope):
    point = evaluate(parse_problem(f"var 1\nmin {expr}\n"), np.array([1.7]))
    assert point.f == pytest.approx(value, rel=1e-14)
    assert point.f_grad[0] == pytest.approx(slope, rel=1e-14)


def test_constant_zero_to_negative_power_exits_cleanly(tmp_path, capsys):
    # the pole fails at the start point, as any domain error there does
    src = tmp_path / "pole.nlp"
    src.write_text("var 1\nmin x1 + 0^-1\n")
    assert main(["run", "--problem", str(src), "--theta0=1", "--out", str(tmp_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "error:EvaluationError"
    assert summary["error_detail"].startswith("0.0 ** -1.0")


def test_values_run_on_floats():
    # numpy scalars would give nan and a RuntimeWarning for the complex power
    problem = parse_problem("var 1\nmin (x1 - 2)^1.5")
    with pytest.raises(EvaluationError, match=r"^-1\.0 \*\* 1\.5 is not real$"):
        evaluate(problem, [1.0])


def test_complex_power_in_curvature_fallback_is_evaluation_error():
    # the forward-difference step passes x1 = 1, where the base 1 - x1 turns negative
    problem = dataclasses.replace(parse_problem("var 1\nmin (1 - x1)^1.5\n"),
                                  curvature=None)
    point = evaluate(problem, np.array([1 - 1e-9]))
    with pytest.raises(EvaluationError):
        curvature_at(problem, point, np.zeros(0), np.zeros(0), np.ones(1))


def test_overflowing_power_in_derivatives_is_evaluation_error():
    problem = parse_problem("var 1\nmin x1^3\n")
    with pytest.raises(EvaluationError):
        problem.derivatives(np.array([1e200]))


def test_long_expression_is_a_parse_error():
    # checking an expression recurses once per nesting level
    parse_problem("var 1\nmin " + " + ".join(["sin(x1)"] * 400))
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("var 1\n\nmin " + " + ".join(["sin(x1)"] * 2000))
    assert (exc.value.line, exc.value.column) == (3, 5)


def test_long_product_gets_one_kernel():
    # one term nested 400 deep: x1^400
    problem = parse_problem("var 1\nmin " + " * ".join(["x1"] * 400))
    one = np.ones(1)
    assert problem.objective(one) == 1.0
    assert problem.derivatives(one)[0][0] == 400.0
    assert problem.curvature(one, np.zeros(0), np.zeros(0), one)[0][0, 0] == 400.0 * 399.0


def test_recursion_in_code_generation_is_a_parse_error(monkeypatch):
    def too_deep(*args):
        raise RecursionError
    monkeypatch.setattr(problemfile._Kernel, "source", too_deep)
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("var 1\n\n  min sin(x1)")
    assert (exc.value.line, exc.value.column) == (3, 7)


def test_compile_count_does_not_grow_with_the_chain(monkeypatch):
    # the chain has the same term shapes at every n, so the same kernels:
    # as many compile calls, and as many lines of generated source
    calls = []

    def counting(source, *args, **kwargs):
        calls[-1].append(source.count("\n") if isinstance(source, str) else None)
        return compile(source, *args, **kwargs)
    monkeypatch.setattr(problemfile, "compile", counting, raising=False)
    for n in (5, 20, 100):
        calls.append([])
        parse_problem(chain_text(n))
    assert calls[0] == calls[1] == calls[2] and calls[0]


def test_chain_curvature_matches_builtin_oracle():
    for n in (5, 20, 100):
        parsed, reference = parse_problem(chain_text(n)), builtin("example2", n)
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(0.0, 2.0, n)
            pi_e, pi_i, v = (rng.standard_normal(k) for k in (n - 1, 2 * n, n))
            pairs = list(zip(parsed.derivatives(theta), reference.derivatives(theta)))
            pairs += zip(parsed.curvature(theta, pi_e, pi_i, v),
                         reference.curvature(theta, pi_e, pi_i, v))
            for got, ref in pairs:
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("text, x1", [
    ("log(x1)", 0.0), ("sqrt(x1)", -1.0), ("x1^-1", 0.0), ("x1 + 0^-1", 1.0),
    # the base 1 - x1 is just below zero: a complex power without the check
    ("(1 - x1)^1.5", 1 + 1e-9), ("x1^3", 1e200),
])
def test_domain_errors_in_curvature_oracle_are_evaluation_errors(text, x1):
    problem = parse_problem(f"var 1\nmin {text}\n")
    with pytest.raises(EvaluationError):
        problem.curvature(np.array([x1]), np.zeros(0), np.zeros(0), np.ones(1))
    with pytest.raises(EvaluationError):
        problem.derivatives(np.array([x1]))


def test_power_rule_guards_exponents_zero_and_one():
    # x1^0 and x1^1 at 0 need no power of 0 with a negative exponent
    zero, none = np.zeros(1), np.zeros(0)
    for text, slope in (("x1^0", 0.0), ("x1^1", 1.0)):
        problem = parse_problem(f"var 1\nmin {text}\n")
        assert problem.derivatives(zero)[0][0] == slope
        assert problem.curvature(zero, none, none, np.ones(1))[0][0, 0] == 0.0


def test_derivative_rule_that_divides_by_zero_is_evaluation_error():
    # sqrt(0) is 0, but sqrt' and sqrt'' at 0 divide by zero
    problem = parse_problem("var 1\nmin sqrt(x1)\n")
    with pytest.raises(EvaluationError):
        problem.derivatives(np.zeros(1))
    with pytest.raises(EvaluationError):
        problem.curvature(np.zeros(1), np.zeros(0), np.zeros(0), np.ones(1))


def test_bare_variables_run_no_kernel():
    # x2 and x1 beside curved terms in one row, and a row of bare variables:
    # only the two x^2 terms call a kernel, one call per term and oracle
    problem = parse_problem("var 2\nmin x1 + x2^2\nineq x1^2 - x2 + x1\neq x1 - x2\n")
    theta, v = np.array([0.3, -1.7]), np.array([1.0, -3.0])
    kernels = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<problem kernels>":
            kernels.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        f_grad, g_jac, h_jac = problem.derivatives(theta)
        w, g_v, h_v = problem.curvature(theta, np.array([0.5]), np.array([2.0]), v)
    finally:
        sys.setprofile(None)
    assert kernels == ["k1_1", "k1_1", "k2_1", "k2_1"]   # shape 0 is the bare x
    # the values of one kernel per shape, pinned bitwise (no signed zero)
    pinned = ([1.0, -3.4], [[1.6, -1.0]], [[1.0, -1.0]], [[4.0, 0.0], [0.0, 2.0]],
              [[2.0, 0.0]], [[0.0, 0.0]])
    for got, want in zip((f_grad, g_jac, h_jac, w, g_v, h_v), pinned):
        assert got.tobytes() == np.array(want).tobytes()
