"""Derivatives of parsed problems against independent oracles: hand-computed
values, central differences of the values, and central differences of the
derivative oracle for the second-order terms."""

import math

import numpy as np
import pytest

from nlpflow import parse_problem
from nlpflow.errors import EvaluationError

NONE = np.zeros(0)


def parsed(expr, n=1):
    return parse_problem(f"var {n}\nmin {expr}\n")


def gradient(expr, point):
    return parsed(expr, len(point)).derivatives(np.array(point, dtype=float))[0]


def hessian(expr, point):
    point = np.array(point, dtype=float)
    return parsed(expr, point.size).curvature(point, NONE, NONE, np.zeros(point.size))[0]


def grad_of(fn, x, eps=1e-7):
    """Scalar central-difference reference."""
    return (fn(x + eps) - fn(x - eps)) / (2 * eps)


def test_seed_shapes():
    # each variable's own partials are a unit row
    problem = parse_problem("var 3\nmin x1\nineq x2\neq x3\n")
    f_grad, g_jac, h_jac = problem.derivatives(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(np.vstack([f_grad, g_jac, h_jac]), np.eye(3))


def test_linear_arithmetic():
    problem = parse_problem("var 2\nmin 3 * x1 - x2 + 1\neq 1 - x1 + (-x2)\n")
    theta = np.array([2.0, 5.0])
    assert problem.objective(theta) == 2.0
    assert problem.equalities(theta)[0] == -6.0
    f_grad, _, h_jac = problem.derivatives(theta)
    assert np.array_equal(f_grad, [3.0, -1.0])
    assert np.array_equal(h_jac[0], [-1.0, -1.0])


def test_product_rule():
    assert np.array_equal(gradient("x1 * x2", [2.0, 5.0]), [5.0, 2.0])


def test_quotient_rule():
    assert np.allclose(gradient("x1 / x2", [2.0, 5.0]), [1 / 5, -2 / 25])
    assert np.allclose(gradient("10 / x2", [2.0, 5.0]), [0.0, -10 / 25])


def test_power_rule():
    assert np.allclose(gradient("x1^4", [3.0]), [4 * 27.0])
    assert parsed("x1^0").objective(np.array([3.0])) == 1.0
    assert np.array_equal(gradient("x1^0", [3.0]), [0.0])
    assert np.allclose(gradient("x1^0.5", [3.0]), [0.5 / math.sqrt(3.0)])


def test_lifted_functions_match_finite_differences():
    point = 0.7
    for name in ("sin", "cos", "exp", "log", "sqrt"):
        ref = getattr(math, name)
        assert np.isclose(parsed(f"{name}(x1)").objective(np.array([point])), ref(point))
        assert np.isclose(gradient(f"{name}(x1)", [point])[0], grad_of(ref, point), atol=1e-8)


def test_lifted_functions_pass_through_plain_floats():
    # a variable-free argument is evaluated and has no partials
    assert parsed("sin(0) + x1").objective(np.zeros(1)) == 0.0
    assert parsed("exp(0) * x1").objective(np.ones(1)) == 1.0
    assert np.array_equal(gradient("exp(0) * x1 + sin(2)", [0.3]), [1.0])


def test_chain_rule_composition():
    assert np.isclose(gradient("sin(x1 * x1 + 1)", [0.3])[0], math.cos(0.3 ** 2 + 1.0) * 2 * 0.3)


def test_domain_errors_become_evaluation_errors():
    for expr, x in (("log(x1)", -1.0), ("sqrt(x1)", -1.0), ("exp(x1)", 1e6),
                    ("sqrt(x1)", 0.0), ("x1 / 0", 1.0), ("1 / x1", 0.0),
                    ("x1 / (x1 - 1)", 1.0), ("x1^0.5", 0.0)):
        problem = parsed(expr)
        for oracle in (problem.derivatives,
                       lambda t: problem.curvature(t, NONE, NONE, np.ones(1))):
            with pytest.raises(EvaluationError):
                oracle(np.array([x]))
    assert np.array_equal(gradient("x1 / 2", [-1.0]), [0.5])


# value 0 and each gradient, at (0.7, 1.3), compared with central
# differences: the derivative oracle's own, and the values'
SECOND_ORDER_CASES = {
    "add": "x1 * x2 + x1 + 2.0 + (1.5 + x2)",
    "sub": "x1 * x2 - x2 * x2 - 2.0 - (1.5 - x1 * x1)",
    "neg": "-(x1 * x2)",
    "mul": "(x1 * x1) * (x2 * x1) * 3.0 * (2.0 * x2)",
    "truediv": "(x1 * x2) / (x2 * x2 + x1) / 4.0 + 2.0 / (x1 * x2)",
    "div": "(x1 * x1) / (x1 * x2 + 1.0)",
    "power 2": "(x1 * x2 + x1)^2",
    "power 0.5": "(x1 * x2 + x1)^0.5",
    "power -1": "(x1 * x2 + x1)^-1",
    "power 3.7": "(x1 * x2 + x1)^3.7",
    "sin": "sin(x1 * x2)",
    "cos": "cos(x1 * x2)",
    "exp": "exp(x1 * x2)",
    "log": "log(x1 * x2)",
    "sqrt": "sqrt(x1 * x2)",
}


@pytest.mark.parametrize("name", SECOND_ORDER_CASES)
def test_second_order_matches_differenced_gradients(name):
    problem = parsed(SECOND_ORDER_CASES[name], 2)
    point, eps = np.array([0.7, 1.3]), 1e-5
    grad = problem.derivatives(point)[0]
    fd_grad = [(problem.objective(point + eps * e) - problem.objective(point - eps * e))
               / (2 * eps) for e in np.eye(2)]
    assert np.allclose(grad, fd_grad, rtol=1e-7, atol=1e-8)
    hess = problem.curvature(point, NONE, NONE, np.zeros(2))[0]
    fd = np.column_stack([(problem.derivatives(point + eps * e)[0]
                           - problem.derivatives(point - eps * e)[0]) / (2 * eps)
                          for e in np.eye(2)])
    assert np.array_equal(hess, hess.T)
    assert np.allclose(hess, fd, rtol=1e-7, atol=1e-8)


def test_second_order_linear_values_keep_a_scalar_zero_hessian():
    assert np.array_equal(hessian("3.0 * x1 - x2 + 1.0", [2.0, 5.0]), np.zeros((2, 2)))
    assert np.array_equal(hessian("x1 * x2", [2.0, 5.0]), [[0.0, 1.0], [1.0, 0.0]])


# --- generated expressions ---------------------------------------------------

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
EXPONENTS = ("2", "3", "0", "1", "-1", "-2", "0.5", "1.5", "(1 + 1)", "2^0.5", "sin(1)")
LEAVES = ("x1", "x2", "x3", "x1", "x2", "x3", "0.5", "2", "1.5e0", ".25")


def random_expression(rng, depth):
    """A random grammar expression over x1..x3: every operator and function."""
    if depth == 0 or rng.random() < 0.2:
        return str(rng.choice(LEAVES))
    kind = rng.integers(4)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({random_expression(rng, depth - 1)} {op} {random_expression(rng, depth - 1)})"
    if kind == 1:
        return f"({random_expression(rng, depth - 1)})^{rng.choice(EXPONENTS)}"
    if kind == 2:
        return f"{rng.choice(['-', '+'])}{random_expression(rng, depth - 1)}"
    return f"{rng.choice(FUNCTIONS)}({random_expression(rng, depth - 1)})"


def random_sum(rng):
    """Two to four random terms in a top-level + and - chain."""
    terms = [random_expression(rng, 3) for _ in range(rng.integers(2, 5))]
    return terms[0] + "".join(f" {rng.choice(['+', '-'])} {t}" for t in terms[1:])


def central(fn, theta, h):
    """Central differences of an array-valued fn, one trailing axis per variable."""
    return np.stack([(fn(theta + h * e) - fn(theta - h * e)) / (2 * h)
                     for e in np.eye(theta.size)], axis=-1)


def test_generated_expressions_match_central_differences():
    rng = np.random.default_rng(20240613)
    texts, checked, skipped = [], 0, 0
    for _ in range(300):
        rows = [random_sum(rng) for _ in range(3)]
        texts += rows
        problem = parse_problem(f"var 3\nmin {rows[0]}\nineq {rows[1]}\neq {rows[2]}\n")

        def values(theta):
            return np.concatenate(([problem.objective(theta)], problem.inequalities(theta),
                                   problem.equalities(theta)))

        def jacobian(theta):
            return np.vstack(problem.derivatives(theta))

        theta = rng.uniform(0.3, 2.0, 3)
        pi_i, pi_e, v = rng.standard_normal(1), rng.standard_normal(1), rng.standard_normal(3)
        try:
            values(theta)
            jac = jacobian(theta)
            w, g_v, h_v = problem.curvature(theta, pi_e, pi_i, v)
            fd_jac, fd_jac2 = (central(values, theta, h) for h in (1e-5, 2e-5))
            fd_hess, fd_hess2 = (central(jacobian, theta, h) for h in (1e-5, 2e-5))
        except EvaluationError:
            # outside the domain (log or sqrt of a negative, ...), at a point
            # where a rule is singular (sqrt(x2 - x2)), or a difference step away
            skipped += 1
            continue
        scale = max(1.0, np.abs(fd_jac).max(), np.abs(fd_hess).max())
        # central differences are only an oracle where the two steps agree
        if (np.abs(fd_jac - fd_jac2).max() > 1e-7 * scale
                or np.abs(fd_hess - fd_hess2).max() > 1e-7 * scale):
            skipped += 1
            continue
        checked += 1
        where = f"{rows} at {theta.tolist()}"
        assert np.abs(jac - fd_jac).max() <= 1e-6 * scale, where
        ref_w = fd_hess[0] + pi_i[0] * fd_hess[1] + pi_e[0] * fd_hess[2]
        assert np.array_equal(w, w.T), where
        assert np.abs(w - ref_w).max() <= 1e-6 * scale, where
        assert np.abs(g_v[0] - fd_hess[1] @ v).max() <= 1e-6 * scale * np.abs(v).max(), where
        assert np.abs(h_v[0] - fd_hess[2] @ v).max() <= 1e-6 * scale * np.abs(v).max(), where
    used = " ".join(texts)
    assert all(token in used for token in FUNCTIONS + (" + ", " - ", " * ", " / ", "^", "-(",
                                                          "+("))
    assert checked >= 150, (checked, skipped)   # 3 expressions each
