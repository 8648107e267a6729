import dataclasses
import math

import numpy as np
import pytest

from nlpflow import GainSet, IntegratorConfig, builtin, solve
from nlpflow.errors import EvaluationError, InvalidInputError, UnknownProblemError
from nlpflow.problems import (
    NlpProblem,
    builtin_names,
    check_derivatives,
    curvature_at,
    evaluate,
    finite_difference_derivatives,
)

OPT1 = np.array([2.0, 0.5, 0.5])


def test_registry_listing():
    assert builtin_names() == ["ec-quadratic", "example1", "example2",
                               "unconstrained-quadratic"]


def test_unknown_name():
    with pytest.raises(UnknownProblemError):
        builtin("no-such-problem")


def test_size_rejected_for_fixed_problems():
    with pytest.raises(InvalidInputError):
        builtin("example1", size=4)


@pytest.mark.parametrize("n, r, s", [(0, 5, 2), (1, -1, 0), (1, 0, -1)])
def test_bad_dimensions_rejected(n, r, s):
    with pytest.raises(InvalidInputError, match="bad dimensions"):
        dataclasses.replace(builtin("example1"), n=n, r=r, s=s)


class TestProductTriple:
    def test_dimensions(self):
        p = builtin("example1")
        assert (p.n, p.r, p.s) == (3, 5, 2)
        assert np.array_equal(p.known_optimum, OPT1)

    def test_values_at_optimum(self):
        point = evaluate(builtin("example1"), OPT1)
        assert point.f == -2.25
        assert np.array_equal(point.h, [0.0, 0.0])
        assert point.g[3] == 0.0
        assert np.isclose(point.g[4], -1.0 / 3.0)
        assert np.all(point.g[:3] < 0)

    def test_gradient_at_optimum(self):
        point = evaluate(builtin("example1"), OPT1)
        assert np.array_equal(point.f_grad, [-1.0, -2.5, -2.5])
        assert np.allclose(point.g_jac[4], [4.0 / 3.0, -32.0 / 9.0, 2.0])
        assert np.array_equal(point.h_jac, [[1, 1, 1], [2, 2, 2]])

    def test_second_equality_row_is_redundant(self):
        rng = np.random.default_rng(0)
        p = builtin("example1")
        for _ in range(5):
            point = evaluate(p, rng.uniform(-3, 3, size=3))
            assert np.isclose(point.h[1], 2.0 * point.h[0])


class TestSineChain:
    def test_dimensions(self):
        p = builtin("example2", size=10)
        assert (p.n, p.r, p.s) == (10, 20, 9)
        p = builtin("example2")
        assert (p.n, p.r, p.s) == (100, 200, 99)

    def test_all_ones_is_stationary(self):
        p = builtin("example2", size=10)
        point = evaluate(p, np.ones(10))
        assert np.isclose(point.f, -1.0 - 100.0 * 9)
        assert np.abs(point.f_grad).max() <= 1e-12
        assert np.array_equal(point.h, np.zeros(9))
        assert np.isclose(point.g[0], -0.5)
        assert np.isclose(point.g[1], -0.5)
        assert np.allclose(point.g[2:], -math.pi)

    def test_bound_rows_flank_theta1(self):
        p = builtin("example2", size=5)
        point = evaluate(p, np.array([2.0, 1.0, 1.0, 1.0, 1.0]))
        assert np.isclose(point.g[0], 0.5)    # upper bound violated
        assert np.isclose(point.g[1], -1.5)   # lower bound slack
        # quadratic band rows: theta1^2 - theta2 = 3, against +/- pi
        assert np.isclose(point.g[2], 3.0 - math.pi)
        assert np.isclose(point.g[3], -math.pi - 3.0)

    def test_rejects_tiny_size(self):
        with pytest.raises(InvalidInputError):
            builtin("example2", size=1)


class TestToys:
    def test_ec_quadratic(self):
        p = builtin("ec-quadratic")
        point = evaluate(p, np.array([1.0, 1.0]))
        assert point.f == 1.0
        assert np.array_equal(point.h, [0.0])
        assert point.g.size == 0

    def test_unconstrained_quadratic_minimum(self):
        p = builtin("unconstrained-quadratic", size=3)
        point = evaluate(p, np.zeros(3))
        assert point.f == 0.0
        assert np.array_equal(point.f_grad, np.zeros(3))


class TestEvaluate:
    def test_shape_check(self):
        with pytest.raises(InvalidInputError):
            evaluate(builtin("example1"), np.zeros(4))

    def test_non_finite_theta(self):
        with pytest.raises(InvalidInputError):
            evaluate(builtin("example1"), np.array([1.0, np.inf, 0.0]))

    def test_deterministic(self):
        p = builtin("example1")
        a = evaluate(p, np.array([0.3, -1.2, 2.0]))
        b = evaluate(p, np.array([0.3, -1.2, 2.0]))
        assert np.array_equal(a.f_grad, b.f_grad)
        assert np.array_equal(a.g_jac, b.g_jac)
        assert a.f == b.f

    def test_non_finite_function_value_reported(self):
        bad = NlpProblem(
            name="bad", n=1, r=1, s=0,
            objective=lambda t: float(t[0]),
            inequalities=lambda t: np.array([np.nan]),
            equalities=lambda t: np.zeros(0),
            derivatives=lambda t: (np.ones(1), np.ones((1, 1)), np.zeros((0, 1))))
        with pytest.raises(EvaluationError) as exc:
            evaluate(bad, np.zeros(1))
        assert exc.value.component == ("ineq", 0)


class TestDerivativeValidation:
    @pytest.mark.parametrize("name,size", [
        ("example1", None), ("example2", 20),
        ("ec-quadratic", None), ("unconstrained-quadratic", 4)])
    def test_matches_finite_differences_at_20_points(self, name, size):
        p = builtin(name, size=size)
        check_derivatives(p, points=20, rtol=1e-5)

    def test_detects_wrong_gradient(self):
        wrong = NlpProblem(
            name="wrong", n=1, r=0, s=0,
            objective=lambda t: float(t[0] ** 2),
            inequalities=lambda t: np.zeros(0),
            equalities=lambda t: np.zeros(0),
            derivatives=lambda t: (3.0 * t, np.zeros((0, 1)), np.zeros((0, 1))))
        with pytest.raises(EvaluationError):
            check_derivatives(wrong)

    @pytest.mark.parametrize("part,value", [
        ("objective", np.ones(3)), ("inequalities", np.zeros(4)), ("equalities", np.zeros(3)),
        # g_jac transposed has the right number of entries, but a reshape would scramble them
        ("derivatives", (np.ones(3), np.arange(15.0).reshape(3, 5), np.zeros((2, 3))))])
    def test_misshapen_values_are_evaluation_errors(self, part, value):
        bad = dataclasses.replace(builtin("example1"), **{part: lambda t: value})
        with pytest.raises(EvaluationError, match="entries"):
            check_derivatives(bad)
        with pytest.raises(EvaluationError, match="entries"):
            evaluate(bad, OPT1)

    @pytest.mark.parametrize("oracle,output", [
        ("derivatives", lambda p: lambda t: p.derivatives(t)[:2]),
        ("derivatives", lambda p: lambda t: None),
        ("curvature", lambda p: lambda *args: p.curvature(*args)[:2])])
    def test_wrong_number_of_oracle_parts_is_an_evaluation_error_verdict(self, oracle, output):
        p = builtin("example1")
        bad = dataclasses.replace(p, **{oracle: output(p)})
        traj = solve(bad, OPT1 + 0.1, GainSet.uniform(3, 2, 5),
                     integrator=IntegratorConfig(method="stiff"))
        assert traj.verdict == "error:EvaluationError"
        assert traj.error.component == oracle

    def test_unit_axes_are_reshaped(self):
        # an (n, 1) gradient and a 1-element objective move no entry
        p = builtin("example1")
        loose = dataclasses.replace(
            p, objective=lambda t: np.array([p.objective(t)]),
            derivatives=lambda t: (lambda d: (d[0][:, None], d[1], d[2]))(p.derivatives(t)))
        a, b = evaluate(loose, OPT1 + 0.1), evaluate(p, OPT1 + 0.1)
        assert a.f == b.f and np.array_equal(a.f_grad, b.f_grad)

    def test_non_numeric_objective_is_an_evaluation_error_verdict(self):
        bad = dataclasses.replace(builtin("example1"), objective=lambda t: "x")
        traj = solve(bad, OPT1, GainSet.uniform(3, 2, 5))
        assert traj.verdict == "error:EvaluationError"
        assert traj.error.component == "objective"
        assert traj.samples == []

    def test_ragged_jacobian_names_its_component(self):
        p = builtin("example1")

        def ragged(t):
            f_grad, g_jac, h_jac = p.derivatives(t)
            return f_grad, [list(row) for row in g_jac[:4]] + [[1.0]], h_jac

        with pytest.raises(EvaluationError, match="ineq jacobian") as exc:
            evaluate(dataclasses.replace(p, derivatives=ragged), OPT1)
        assert exc.value.component == "ineq jacobian"

    def test_fd_oracle_on_quadratic(self):
        p = builtin("unconstrained-quadratic", size=3)
        theta = np.array([1.0, -2.0, 0.5])
        f_grad, g_jac, h_jac = finite_difference_derivatives(p, theta)
        assert np.allclose(f_grad, theta, atol=1e-6)
        assert g_jac.shape == (0, 3) and h_jac.shape == (0, 3)


def central_curvature(problem, theta, pi_e, pi_i, v, step=1e-6):
    """(W, G_v, H_v) by central differences of the derivative oracle."""
    n = problem.n
    cols = []
    for j in range(n):
        d = step * max(1.0, abs(theta[j]))
        e = np.zeros(n)
        e[j] = d
        hi, lo = problem.derivatives(theta + e), problem.derivatives(theta - e)
        cols.append([(np.asarray(a) - np.asarray(b)) / (2 * d) for a, b in zip(hi, lo)])
    w = np.column_stack([df + dg.T @ pi_i + dh.T @ pi_e for df, dg, dh in cols])
    g_v = sum(v[j] * cols[j][1] for j in range(n))
    h_v = sum(v[j] * cols[j][2] for j in range(n))
    return w, g_v, h_v


def random_second_order_args(problem, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.3, 1.7, size=problem.n)
    return (theta, rng.standard_normal(problem.s), rng.standard_normal(problem.r),
            rng.standard_normal(problem.n))


class TestCurvature:
    @pytest.mark.parametrize("name,size", [
        ("example1", None), ("example2", 12),
        ("ec-quadratic", None), ("unconstrained-quadratic", 4)])
    def test_matches_central_differences_of_derivatives(self, name, size):
        p = builtin(name, size=size)
        for seed in range(5):
            args = random_second_order_args(p, seed)
            got = p.curvature(*args)
            ref = central_curvature(p, *args)
            for a, b in zip(got, ref):
                assert np.shape(a) == np.shape(b)
                assert np.abs(a - b).max(initial=0.0) <= 1e-6 * max(1.0, np.abs(b).max(initial=0.0))

    def test_fallback_differences_the_derivative_oracle(self):
        # no curvature oracle: n forward-difference calls of derivatives
        p = builtin("example2", size=12)
        calls = [0]

        def derivatives(theta):
            calls[0] += 1
            return p.derivatives(theta)

        bare = dataclasses.replace(p, curvature=None, derivatives=derivatives)
        theta, pi_e, pi_i, v = random_second_order_args(p, 3)
        point = evaluate(p, theta)
        got = curvature_at(bare, point, pi_e, pi_i, v)
        assert calls[0] == p.n
        for a, b in zip(got, p.curvature(theta, pi_e, pi_i, v)):
            assert np.abs(a - b).max(initial=0.0) <= 1e-5 * max(1.0, np.abs(b).max(initial=0.0))

    def test_fallback_keeps_evaluate_checks(self):
        p = builtin("ec-quadratic")
        bare = dataclasses.replace(
            p, curvature=None,
            derivatives=lambda t: (np.array([t[0], np.inf]), np.zeros((0, 2)), np.ones((1, 2))))
        point = evaluate(p, np.ones(2))
        with pytest.raises(EvaluationError):
            curvature_at(bare, point, np.ones(1), np.zeros(0), np.ones(2))

    def test_misshapen_curvature_is_an_evaluation_error(self):
        p = builtin("example1")
        bad = dataclasses.replace(p, curvature=lambda t, pi_e, pi_i, v: (
            np.eye(2), np.zeros((5, 3)), np.zeros((2, 3))))
        with pytest.raises(EvaluationError, match="lagrangian hessian"):
            check_derivatives(bad)
        with pytest.raises(EvaluationError, match="lagrangian hessian"):
            curvature_at(bad, evaluate(p, OPT1), np.zeros(2), np.zeros(5), np.zeros(3))

    @pytest.mark.parametrize("part,label", [(0, "lagrangian hessian"), (1, "ineq curvature")])
    def test_wrong_curvature_fails_the_load_check(self, part, label):
        p = builtin("example1")

        def planted(theta, pi_e, pi_i, v):
            terms = list(p.curvature(theta, pi_e, pi_i, v))
            terms[part] = 1.01 * terms[part]
            return terms

        with pytest.raises(EvaluationError, match=label):
            check_derivatives(dataclasses.replace(p, curvature=planted))
