import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlpflow.dynamics
import nlpflow.integrate
from nlpflow import GainSet, IntegratorConfig, builtin, integrate_ode, parse_problem, solve
from nlpflow.errors import (EvaluationError, InvalidInputError, NlpflowError,
                            NumericFailureError, StepFailureError)
from nlpflow.integrate import (_ERR_PREV_MIN, _FAC_MAX, Trajectory, _step_factor, dense_factor,
                               fd_jacobian, step_rk45, step_stiff)
from nlpflow.monitor import converged
from nlpflow.problems import NlpProblem, evaluate

SRC = Path(__file__).resolve().parents[1] / "src"
EX1_HARD_START = (-4.8578, 3.8180, -2.7364)
EX1_OPTIMUM = np.array([2.0, 0.5, 0.5])
# the Kuhn-Tucker cusp: no KKT multipliers exist at its minimizer (1, 0)
CUSP = "var 2\nmin -x1\nineq x2 - (1 - x1)^3\nineq -x2\n"


def sweep_starts(count):
    """The leading starts of a fixed example1 sweep in [-10, 10]^3, from a
    seed chosen before any result was seen."""
    rng = np.random.default_rng(11)
    return [rng.uniform(-10.0, 10.0, 3) for _ in range(count)]


def solve_example1(theta0, method="rk45", fixed_horizon=False, problem=None):
    problem = builtin("example1") if problem is None else problem
    return solve(problem, np.asarray(theta0, dtype=float), GainSet.uniform(3, 2, 5),
                 integrator=IntegratorConfig(method=method, t_end=300.0,
                                             fixed_horizon=fixed_horizon),
                 pts_groups=[(0, 1, 2), (3, 4)])


def error_controlled_attempts(traj):
    return traj.step_count - traj.endgame_steps + traj.rejected_count


def schedule_advance(traj):
    """The first snapshot k of a solve_example1 trajectory that advances the
    priority schedule, the advanced schedule, and the settlements of that
    point from snapshot k - 1's working set under the advanced schedule
    (fresh) and under the old one (stale)."""
    dyn = nlpflow.dynamics
    problem, gains = builtin("example1"), GainSet.uniform(3, 2, 5)
    before = dyn.PtsState.covering(5, [(0, 1, 2), (3, 4)])
    for k, sample in enumerate(traj.samples):
        point = evaluate(problem, sample.theta)
        after = dyn.pts_update(before, point)
        if after is not before:
            break
        before = after
    warm = traj.samples[k - 1].working
    fresh, stale = (dyn.resolve_working_set(point, gains, dyn.classify(point, pts, warm))
                    for pts in (after, before))
    return k, after, fresh, stale


def spy_endgame_sigmas(monkeypatch):
    """Wraps ``dynamics.linearize`` to record, in order, the sigma = 1 / h of
    every endgame iteration: the factors asked for outside ``step_stiff``."""
    sigmas, stepping = [], [False]
    linearize, step_stiff = nlpflow.dynamics.linearize, nlpflow.integrate.step_stiff

    def stepped(*args, **kwargs):
        stepping[0] = True
        try:
            return step_stiff(*args, **kwargs)
        finally:
            stepping[0] = False

    def recorded(*args):
        factor = linearize(*args)

        def logged(sigma):
            if not stepping[0]:
                sigmas.append(sigma)
            return factor(sigma)

        return logged

    monkeypatch.setattr(nlpflow.integrate, "step_stiff", stepped)
    monkeypatch.setattr(nlpflow.dynamics, "linearize", recorded)
    return sigmas


def decay(y):
    return -y


def rotate(y):
    return np.array([-y[1], y[0]])


class TestConfig:
    def test_defaults(self):
        # the first step is 1e-3 * t_end and no step exceeds t_end / 10
        taus = [0.0]
        res = integrate_ode(lambda y: np.ones(1), np.zeros(1), IntegratorConfig(t_end=200.0),
                            callback=lambda t, y: taus.append(t))
        steps = np.diff(taus)
        assert res.t == 200.0
        assert taus[1] == 0.2
        assert steps.max() == pytest.approx(20.0, abs=1e-12)

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidInputError):
            IntegratorConfig(method="euler")

    def test_rejects_bad_tolerances(self):
        with pytest.raises(InvalidInputError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(InvalidInputError):
            IntegratorConfig(t_end=-1.0)
        with pytest.raises(InvalidInputError):
            IntegratorConfig(t_end=1e-10)   # a first step below the step-size floor
        for name in ("rel_tol", "abs_tol", "t_end"):
            for value in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(InvalidInputError, match=name):
                    IntegratorConfig(**{name: value})


class TestSteppers:
    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_exponential_decay_to_one_over_e(self, method):
        cfg = IntegratorConfig(method=method, t_end=1.0)
        res = integrate_ode(decay, np.array([1.0]), cfg)
        assert res.t == 1.0
        assert abs(res.y[0] - math.exp(-1.0)) <= 1e-6

    def test_methods_agree_on_nonstiff_problem(self):
        cfg_e = IntegratorConfig(method="rk45", t_end=2.0, rel_tol=1e-6, abs_tol=1e-9)
        cfg_s = IntegratorConfig(method="stiff", t_end=2.0, rel_tol=1e-6, abs_tol=1e-9)
        ye = integrate_ode(decay, np.array([1.0]), cfg_e).y
        ys = integrate_ode(decay, np.array([1.0]), cfg_s).y
        assert abs(ye[0] - ys[0]) <= 1e-6

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_rotation_returns_to_start(self, method):
        cfg = IntegratorConfig(method=method, t_end=2.0 * math.pi,
                               rel_tol=1e-8, abs_tol=1e-10)
        res = integrate_ode(rotate, np.array([1.0, 0.0]), cfg)
        assert np.abs(res.y - [1.0, 0.0]).max() <= 1e-6

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_zero_rhs_is_exactly_constant(self, method):
        cfg = IntegratorConfig(method=method, t_end=5.0)
        y0 = np.array([1.25, -3.5])
        res = integrate_ode(lambda y: np.zeros_like(y), y0, cfg)
        assert np.array_equal(res.y, y0)

    def test_single_step_acceptance_contract(self):
        y = np.array([1.0])
        stiff = {"factor": dense_factor(-np.eye(1))}
        for stepper, factor in ((step_rk45, {}), (step_stiff, stiff)):
            y_new, err_norm = stepper(decay, y, 1e-3, 1e-3, 1e-6, f0=decay(y), **factor)
            assert err_norm <= 1.0
            assert abs(y_new[0] - math.exp(-1e-3)) <= 1e-9

    def test_stiff_decay_needs_few_steps(self):
        lam = 1000.0
        cfg_s = IntegratorConfig(method="stiff", t_end=1.0)
        res_s = integrate_ode(lambda y: -lam * y, np.array([1.0]), cfg_s)
        assert res_s.accepted < 500
        assert abs(res_s.y[0] - math.exp(-lam)) <= 1e-6

    def test_stiff_forced_problem_beats_explicit_stability_bound(self):
        # d(theta)/dt = -1000 (theta - cos t), augmented with t' = 1;
        # the explicit stability bound is h ~ 2.8/1000, i.e. >350 steps
        def rhs(y):
            return np.array([1.0, -1000.0 * (y[1] - math.cos(y[0]))])

        ref = integrate_ode(rhs, np.array([0.0, 0.0]),
                            IntegratorConfig(method="rk45", t_end=1.0,
                                             rel_tol=1e-8, abs_tol=1e-10))
        res = integrate_ode(rhs, np.array([0.0, 0.0]),
                            IntegratorConfig(method="stiff", t_end=1.0))
        assert res.accepted < 300
        assert abs(res.y[1] - ref.y[1]) <= 1e-3

    def test_tighter_tolerance_does_not_worsen_error(self):
        def final_error(rel, ab):
            cfg = IntegratorConfig(method="rk45", t_end=1.0, rel_tol=rel, abs_tol=ab)
            return abs(integrate_ode(decay, np.array([1.0]), cfg).y[0]
                       - math.exp(-1.0))

        loose = final_error(1e-3, 1e-6)
        tight = final_error(5e-4, 5e-7)
        assert tight <= 10.0 * max(loose, 1e-15)

    def test_deterministic_replay(self):
        cfg = IntegratorConfig(method="stiff", t_end=3.0)
        a = integrate_ode(rotate, np.array([1.0, 0.0]), cfg)
        b = integrate_ode(rotate, np.array([1.0, 0.0]), cfg)
        assert np.array_equal(a.y, b.y)
        assert (a.accepted, a.rejected) == (b.accepted, b.rejected)

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_evaluates_each_base_point_once(self, method):
        # stage 0 of every attempt (and the stiff Jacobian) share one evaluation
        # per base point, however many attempts are rejected there; the last
        # accepted point is never a base point
        y0 = np.array([0.0, 0.0])
        seen = []

        def rhs(y):
            seen.append(y.tobytes())
            return np.array([1.0, -1000.0 * (y[1] - math.cos(y[0]))])

        res = integrate_ode(rhs, y0, IntegratorConfig(method=method, t_end=1.0))
        attempts = res.accepted + res.rejected
        assert res.rejected > 0
        assert seen.count(y0.tobytes()) == 1
        if method == "rk45":
            assert len(seen) == res.accepted + 6 * attempts
        else:
            assert len(seen) == (1 + y0.size) * res.accepted + 5 * attempts

    def test_step_underflow_suggests_stiff_method(self):
        cfg = IntegratorConfig(method="rk45", t_end=1.0)
        with np.errstate(all="ignore"), pytest.raises(StepFailureError, match="stiff"):
            integrate_ode(lambda y: y * 1e10, np.array([1e300]), cfg)

    def test_fd_jacobian_on_linear_system(self):
        a = np.array([[0.0, 1.0], [-4.0, -0.4]])
        y = np.array([0.3, -0.7])
        jac = fd_jacobian(lambda y: a @ y, y, a @ y)
        assert np.abs(jac - a).max() <= 1e-5


class TestStepControl:
    @pytest.mark.parametrize("k, beta", [(1 / 5, 0.08), (1 / 4, 0.0)])
    def test_step_factor(self, k, beta):
        # a tiny error grows the step, at most x3, and not at all after a rejection
        assert _step_factor(1e-8, 1e-4, _FAC_MAX, k, beta) == _FAC_MAX == 3.0
        assert _step_factor(0.0, 1e-4, _FAC_MAX, k, beta) == 3.0
        assert 1.0 < _step_factor(0.05, 0.05, _FAC_MAX, k, beta) < 3.0
        assert _step_factor(1e-8, 1e-4, 1.0, k, beta) == 1.0
        assert 0.2 < _step_factor(0.9, 1e-4, 1.0, k, beta) < 1.0
        # a rejection shrinks it by the error alone, to at least a fifth
        assert _step_factor(2.0, 1e-4, _FAC_MAX, k, beta) == pytest.approx(0.9 * 2.0 ** -k)
        assert _step_factor(2.0, 1.0, 1.0, k, beta) == _step_factor(2.0, 1e-4, 3.0, k, beta)
        assert _step_factor(1e12, 1e-4, _FAC_MAX, k, beta) == 0.2
        assert _step_factor(math.inf, 1e-4, _FAC_MAX, k, beta) == 0.5
        assert _step_factor(math.nan, 1e-4, _FAC_MAX, k, beta) == 0.5

    def test_pi_factor_weighs_the_previous_error(self):
        # beta > 0: a shrinking error (a larger previous one) grows the step more
        rising = _step_factor(0.5, 1e-2, _FAC_MAX, 1 / 5, 0.08)
        falling = _step_factor(0.5, 0.9, _FAC_MAX, 1 / 5, 0.08)
        assert rising < falling
        assert _step_factor(0.5, 1e-2, _FAC_MAX, 1 / 4, 0.0) == \
            _step_factor(0.5, 0.9, _FAC_MAX, 1 / 4, 0.0) == pytest.approx(0.9 * 0.5 ** -0.25)

    def test_rk45_stiff_decay_rarely_rejects(self):
        # the PI controller settles on the stability boundary of y' = -1000 y
        cfg = IntegratorConfig(method="rk45", t_end=1.0)
        res = integrate_ode(lambda y: -1000.0 * y, np.array([1.0]), cfg)
        assert res.t == 1.0
        assert res.rejected <= 5

    def test_hard_start_rejects_few_attempts(self):
        traj = solve_example1(EX1_HARD_START)
        assert traj.verdict == "converged"
        assert traj.rejected_count * 3 <= traj.step_count

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_trial_stage_errors_are_rejections(self, method):
        # the first two trial stages fail: two rejections, each halving h
        failures = [0]

        def rhs(y):
            if y[0] != 1.0 and failures[0] < 2:
                failures[0] += 1
                raise NumericFailureError("injected")
            return -y

        taus = []
        res = integrate_ode(rhs, np.array([1.0]), IntegratorConfig(method=method, t_end=1.0),
                            callback=lambda t, y: taus.append(t),
                            linearize=lambda y: dense_factor(-np.eye(1)))
        assert res.rejected == res.trial_rejections == 2
        assert taus[0] == 0.25 * 1e-3
        assert abs(res.y[0] - math.exp(-1.0)) <= 1e-6

    def test_error_at_the_start_point_is_fatal(self):
        def rhs(y):
            raise EvaluationError("at y0")

        with pytest.raises(EvaluationError):
            integrate_ode(rhs, np.array([1.0]), IntegratorConfig())

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_no_growth_after_an_accepted_retry(self, monkeypatch, method):
        name = "step_" + method
        attempts = []
        step = getattr(nlpflow.integrate, name)

        def recorded(rhs, y, h, *args, **kwargs):
            y_new, err_norm = step(rhs, y, h, *args, **kwargs)
            attempts.append((h, err_norm <= 1.0))
            return y_new, err_norm

        monkeypatch.setattr(nlpflow.integrate, name, recorded)
        # the endgame takes over before the hard start rejects a step
        traj = solve_example1(EX1_HARD_START, method, fixed_horizon=True)
        assert traj.verdict == "horizon-reached"
        assert converged(traj.final.report)
        retries = [i for i in range(1, len(attempts) - 1)
                   if attempts[i][1] and not attempts[i - 1][1]]
        assert retries
        for i in retries:
            assert attempts[i + 1][0] <= attempts[i][0]

    @pytest.mark.parametrize("method, theta0", [
        ("rk45", (3.49768337, -1.06072667, -0.20316076)),
        ("rk45", (7.81560197, -0.76953298, -0.49532881)),
        ("stiff", (7.81560197, -0.76953298, -0.49532881)),
        # sweep starts 136 and 128: a trial stage fails to settle its working set
        ("rk45", (6.94589668, -2.25059126, -2.55046697)),
        ("stiff", (7.65806542, -4.08311312, -2.47342374)),
        # sweep start 194: ends horizon-reached if endgame iterations advance t past t_end
        ("stiff", (1.74737479, -8.37134392, -8.76192360)),
    ])
    def test_pinned_starts_converge(self, method, theta0):
        assert solve_example1(theta0, method).verdict == "converged"

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_sweep_converges(self, method):
        # every start reaches theta* at a bounded cost: the worst start takes
        # 68 evaluations under rk45 and 58 under stiff, the mean is 26.7 and
        # 26.6; the bounds leave 12 and about 3 evaluations of margin
        trajs = [solve_example1(theta0, method) for theta0 in sweep_starts(200)]
        assert [traj.verdict for traj in trajs] == ["converged"] * 200
        assert max(np.abs(traj.final.theta - EX1_OPTIMUM).max() for traj in trajs) <= 1e-6
        evals = [traj.rhs_eval_count for traj in trajs]
        assert max(evals) <= 80
        assert np.mean(evals) <= 30


class TestSolve:
    def test_ec_quadratic_converges(self):
        p = builtin("ec-quadratic")
        gains = GainSet.uniform(2, 1, 0, k_theta=1.0, k_h=1.0)
        cfg = IntegratorConfig(method="rk45", t_end=60.0,
                               rel_tol=1e-10, abs_tol=1e-13)
        traj = solve(p, np.array([0.0, 0.0]), gains, integrator=cfg)
        assert traj.verdict == "converged"
        assert np.abs(traj.final.theta - [1.0, 1.0]).max() <= 1e-7
        assert np.allclose(traj.final.pi_e, [-1.0], atol=1e-6)

    def test_equality_violation_decays_monotonically(self):
        p = builtin("ec-quadratic")
        gains = GainSet.uniform(2, 1, 0, k_theta=1.0, k_h=1.0)
        cfg = IntegratorConfig(method="rk45", t_end=20.0, fixed_horizon=True)
        traj = solve(p, np.array([5.0, -3.0]), gains, integrator=cfg)
        ec = [s.report.ec_violation for s in traj.samples]
        assert all(b <= a + 10 * cfg.abs_tol for a, b in zip(ec, ec[1:]))

    def test_equilibrium_start_converges_immediately(self):
        p = builtin("unconstrained-quadratic", size=3)
        gains = GainSet.uniform(3, 0, 0, k_theta=1.0)
        traj = solve(p, np.zeros(3), gains)
        assert traj.verdict == "converged"
        assert len(traj.samples) == 1
        assert traj.step_count == 0

    def test_fixed_horizon_runs_to_the_end(self):
        p = builtin("unconstrained-quadratic", size=2)
        gains = GainSet.uniform(2, 0, 0, k_theta=1.0)
        cfg = IntegratorConfig(t_end=10.0, fixed_horizon=True)
        traj = solve(p, np.array([1.0, -1.0]), gains, integrator=cfg)
        assert traj.verdict == "horizon-reached"
        assert traj.final.tau == 10.0
        assert np.abs(traj.final.theta).max() <= 1e-3

    def test_evaluation_failure_becomes_error_verdict(self):
        bad = NlpProblem(
            name="nan-objective", n=1, r=0, s=0,
            objective=lambda t: float("nan"),
            inequalities=lambda t: np.zeros(0),
            equalities=lambda t: np.zeros(0),
            derivatives=lambda t: (np.zeros(1), np.zeros((0, 1)), np.zeros((0, 1))))
        gains = GainSet.uniform(1, 0, 0)
        traj = solve(bad, np.zeros(1), gains)
        assert traj.verdict == "error:EvaluationError"
        assert traj.error is not None

    def test_vector_objective_becomes_error_verdict(self):
        bad = dataclasses.replace(builtin("example1"), objective=lambda t: np.ones(3))
        traj = solve(bad, np.array([-4.8578, 3.8180, -2.7364]), GainSet.uniform(3, 2, 5))
        assert traj.verdict == "error:EvaluationError"
        assert traj.error.component == "objective"

    def test_horizon_reached_without_fixed_horizon(self):
        # a linear objective has no equilibrium: every endgame falls back
        # and the integration runs to t_end
        p = NlpProblem(
            name="linear", n=2, r=0, s=0,
            objective=lambda t: t[0] + 2.0 * t[1],
            inequalities=lambda t: np.zeros(0),
            equalities=lambda t: np.zeros(0),
            derivatives=lambda t: (np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros((0, 2))))
        gains = GainSet.uniform(2, 0, 0, k_theta=1.0)
        traj = solve(p, np.array([1.0, -1.0]), gains, integrator=IntegratorConfig(t_end=10.0))
        assert traj.verdict == "horizon-reached"
        assert traj.final.tau == 10.0
        assert traj.final.report.stationarity > 1e-6
        assert traj.endgame_fallbacks > 0
        assert traj.endgame_steps == 0

    def test_settled_solves_run_no_lp(self):
        # the feasibility LP is a verdict for a working set that cannot settle,
        # so solves that always settle never call it nor import scipy.optimize;
        # an example1 solve (no band) loads no scipy at all under either stepper,
        # and the stiff chain still converges once its banded LU is imported
        code = textwrap.dedent("""
            import sys
            import numpy as np
            import nlpflow.cli
            import nlpflow.dynamics
            from nlpflow import GainSet, IntegratorConfig, builtin, solve

            calls = [0]
            lp = nlpflow.dynamics.feasibility_lp

            def counted(*args, **kwargs):
                calls[0] += 1
                return lp(*args, **kwargs)

            nlpflow.dynamics.feasibility_lp = counted
            for method in ("rk45", "stiff"):
                ex1 = solve(builtin("example1"), np.array([-4.8578, 3.8180, -2.7364]),
                            GainSet.uniform(3, 2, 5),
                            integrator=IntegratorConfig(method=method, t_end=300.0),
                            pts_groups=[(0, 1, 2), (3, 4)])
                print(ex1.verdict, any(name.split(".")[0] == "scipy" for name in sys.modules))
            n = 10
            chain = solve(builtin("example2", size=n), np.linspace(2.0, 0.8, n),
                          GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0),
                          integrator=IntegratorConfig(method="stiff", t_end=100.0))
            print(chain.verdict, calls[0], "scipy.optimize" in sys.modules)
            """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.split() == ["converged", "False"] * 2 + ["converged", "0", "False"]

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, nlpflow, nlpflow.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip() == "[]"

    def test_deterministic_replay_of_solve(self):
        p = builtin("example1")
        gains = GainSet.uniform(3, 2, 5)
        cfg = IntegratorConfig(t_end=50.0, fixed_horizon=True)
        runs = [solve(p, np.array([-4.8578, 3.8180, -2.7364]), gains,
                      integrator=cfg, pts_groups=[(0, 1, 2), (3, 4)])
                for _ in range(2)]
        a, b = runs
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.tau == sb.tau
            assert np.array_equal(sa.theta, sb.theta)
            assert np.array_equal(sa.pi_i, sb.pi_i)

    def test_rejected_steps_are_reported(self, monkeypatch):
        attempts = [0]
        step = nlpflow.integrate.step_rk45

        def counted(*args, **kwargs):
            attempts[0] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(nlpflow.integrate, "step_rk45", counted)
        traj = solve_example1(EX1_HARD_START, fixed_horizon=True)
        assert traj.verdict == "horizon-reached"
        assert converged(traj.final.report)
        assert traj.rejected_count > 0
        assert attempts[0] == traj.step_count + traj.rejected_count

    def test_accepted_points_are_evaluated_once(self):
        # one evaluation at theta0, six new stages per error-controlled
        # attempt (stage 1 is the base point's snapshot, and stage 7 lies on
        # the accepted point) and one per endgame iteration
        traj = solve_example1(EX1_HARD_START)
        assert traj.verdict == "converged"
        assert traj.endgame_steps > 0
        assert traj.rhs_eval_count == (1 + 6 * error_controlled_attempts(traj)
                                       + traj.endgame_steps + traj.endgame_fallbacks)

    @pytest.mark.parametrize("case", ["example1 rk45", "chain stiff"])
    def test_each_point_is_settled_once(self, monkeypatch, case):
        # one settlement per evaluated point: a Dormand-Prince snapshot reuses
        # its final stage's, unless the priority schedule advanced there
        resolves = count_calls(monkeypatch, nlpflow.dynamics, "resolve_working_set")
        pts_update = nlpflow.dynamics.pts_update
        advanced = []

        def recorded_update(state, point):
            new = pts_update(state, point)
            advanced.append(new is not state)
            return new

        monkeypatch.setattr(nlpflow.dynamics, "pts_update", recorded_update)
        if case == "example1 rk45":
            traj = solve_example1(EX1_HARD_START)
        else:
            n = 10
            traj = solve(builtin("example2", size=n), np.linspace(2.0, 0.8, n),
                         GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0),
                         integrator=IntegratorConfig(method="stiff", t_end=100.0))
        assert traj.verdict == "converged"
        # theta0's snapshot settles once, under the schedule already advanced
        assert resolves[0] == traj.rhs_eval_count + sum(advanced[1:])
        assert sum(advanced[1:]) == (case == "example1 rk45")

    def test_advanced_schedule_settles_afresh(self):
        # on the full horizon the hard start enables group (3, 4) at an
        # accepted Dormand-Prince point, whose final stage settled it under
        # the old schedule
        traj = solve_example1(EX1_HARD_START, fixed_horizon=True)
        k, after, fresh, stale = schedule_advance(traj)
        sample = traj.samples[k]
        assert k > 0 and sample.tau > traj.samples[k - 1].tau
        assert after.enabled == after.count
        assert sample.working == fresh.working_set.working != stale.working_set.working
        assert sample.pi_e.tobytes() == fresh.pi_e.tobytes()
        assert sample.pi_i.tobytes() == fresh.pi_i.tobytes()

    def test_trial_stage_error_is_a_rejection(self, monkeypatch):
        attempts = [0]
        calls = [0]
        step = nlpflow.integrate.step_rk45
        evaluate = nlpflow.integrate.evaluate

        def counted_step(*args, **kwargs):
            attempts[0] += 1
            return step(*args, **kwargs)

        def failing_evaluate(*args):
            calls[0] += 1
            if calls[0] == 4:    # a stage of the first attempt, before the endgame
                raise EvaluationError("injected")
            return evaluate(*args)

        clean = solve_example1(EX1_HARD_START)
        monkeypatch.setattr(nlpflow.integrate, "step_rk45", counted_step)
        monkeypatch.setattr(nlpflow.integrate, "evaluate", failing_evaluate)
        traj = solve_example1(EX1_HARD_START)
        assert traj.verdict == clean.verdict == "converged"
        assert (traj.rejected_count, traj.trial_rejections) == (clean.rejected_count + 1, 1)
        # the attempt that raised is the rejected one
        assert traj.rejected_count == attempts[0] - (traj.step_count - traj.endgame_steps)

    def test_rejections_survive_an_error_verdict(self, monkeypatch):
        # an error at an accepted point ends the run, with its counts kept
        attempts = []
        step = nlpflow.integrate.step_stiff
        evaluate = nlpflow.integrate.evaluate

        def recorded_step(*args, **kwargs):
            y_new, err_norm = step(*args, **kwargs)
            attempts.append(y_new.tobytes() if err_norm <= 1.0 else None)
            return y_new, err_norm

        def failing_evaluate(problem, theta):
            if len(attempts) >= 25 and theta.tobytes() == attempts[-1]:
                raise EvaluationError("injected")
            return evaluate(problem, theta)

        monkeypatch.setattr(nlpflow.integrate, "step_stiff", recorded_step)
        monkeypatch.setattr(nlpflow.integrate, "evaluate", failing_evaluate)
        traj = solve_example1(EX1_HARD_START, "stiff", fixed_horizon=True)
        assert traj.verdict == "error:EvaluationError"
        assert traj.rejected_count > 0
        # the attempt whose point raised was accepted but not recorded
        assert traj.rejected_count == len(attempts) - traj.step_count
        assert len(traj.samples) == traj.step_count

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_overflowed_trial_stages_are_rejections(self, method):
        # the flow -1e308 cos(x) overflows every trial stage: an rk45 stage
        # point reaches evaluate as inf, and a stiff stage right-hand side
        # is inf before its solve; each is a rejected attempt
        p = NlpProblem(
            name="huge", n=1, r=0, s=0,
            objective=lambda t: 1e308 * math.sin(t[0]),
            inequalities=lambda t: np.zeros(0),
            equalities=lambda t: np.zeros(0),
            derivatives=lambda t: (1e308 * np.cos(t), np.zeros((0, 1)), np.zeros((0, 1))),
            curvature=lambda t, pi_e, pi_i, v: (-1e308 * np.sin(t)[None, :],
                                                np.zeros((0, 1)), np.zeros((0, 1))))
        with np.errstate(all="ignore"):
            traj = solve(p, np.array([0.0]), GainSet(np.eye(1), np.zeros(0), np.zeros(0)),
                         integrator=IntegratorConfig(method=method))
        assert traj.verdict == "error:StepFailureError"
        assert traj.step_count == 0
        assert traj.rejected_count == traj.trial_rejections > 0

    @pytest.mark.parametrize("sizes", [(2, 2, 5), (3, 1, 5), (3, 2, 4)])
    def test_mismatched_gain_shapes_are_rejected(self, sizes):
        p = builtin("example1")
        with pytest.raises(InvalidInputError, match="needs"):
            solve(p, np.array([-4.8578, 3.8180, -2.7364]), GainSet.uniform(*sizes))


class TestPriorityGroups:
    """solve() completes the groups it is given and rejects rows outside [0, r)."""

    def solve(self, theta0, pts_groups, t_end=300.0):
        return solve(builtin("example1"), np.asarray(theta0, dtype=float),
                     GainSet.uniform(3, 2, 5), integrator=IntegratorConfig(t_end=t_end),
                     pts_groups=pts_groups)

    @pytest.mark.parametrize("groups", [[(0, 1, 2, 3, 4), (7,)], [(0, 1, 2), (-1,)]])
    def test_row_outside_the_problem_is_invalid_input(self, groups):
        with pytest.raises(InvalidInputError, match="outside"):
            self.solve([2.0, 0.5, 0.5], groups)

    @pytest.mark.parametrize("theta0, groups", [
        ([2.0, 0.5, 0.5], np.array([0, 1])),
        ([2.0, 0.5, 0.5], [0, 1]),
        ("abc", None),
        ([[1.0, 2.0], [3.0]], None),
        ([1.0, 1.0], None),
        ([math.nan, 1.0, 1.0], None),
    ])
    def test_malformed_input_is_invalid_input(self, theta0, groups):
        with pytest.raises(InvalidInputError):
            solve(builtin("example1"), theta0, GainSet.uniform(3, 2, 5), pts_groups=groups)

    def test_groups_as_an_array(self):
        as_list = self.solve([2.0, 0.5, 0.5], [[0, 1, 2]])
        as_array = self.solve([2.0, 0.5, 0.5], np.array([[0, 1, 2]]))
        assert as_array.verdict == as_list.verdict == "converged"
        assert np.array_equal(as_array.final.theta, as_list.final.theta)

    def test_rows_in_no_group_are_enforced(self):
        # rows 3 and 4 join as a last group; unenforced, the flow leaves them
        # violated at [1, 1, 1]
        traj = self.solve([2.0, 0.5, 0.5], [(0, 1, 2)])
        assert traj.verdict == "converged"
        assert traj.final.report.iec_violation <= 1e-8
        assert np.abs(traj.final.theta - [2.0, 0.5, 0.5]).max() <= 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(groups=st.lists(st.lists(st.integers(-2, 7), max_size=3), max_size=3),
           theta0=st.one_of(
               st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
               st.lists(st.one_of(st.floats(-5.0, 5.0),
                                  st.sampled_from([math.nan, math.inf, -math.inf])),
                        min_size=2, max_size=4)))
    def test_any_input_gives_a_trajectory_or_an_nlpflow_error(self, groups, theta0):
        rows = [i for g in groups for i in g]
        invalid = (len(set(rows)) != len(rows) or any(not 0 <= i < 5 for i in rows)
                   or len(theta0) != 3 or not np.all(np.isfinite(theta0)))
        try:
            traj = self.solve(theta0, groups, t_end=10.0)
        except NlpflowError as exc:
            assert invalid, exc
            return
        assert not invalid
        assert isinstance(traj, Trajectory)
        assert traj.verdict in ("converged", "horizon-reached") or traj.verdict.startswith(
            "error:"), traj.verdict
        assert traj.samples


def count_calls(monkeypatch, module, name):
    calls = [0]
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def record_linearizations(monkeypatch, calls):
    """Wraps ``dynamics.linearize`` to count in ``calls`` its calls and the
    ``calls["gram"]`` counts made while it or one of its factors runs, and
    ``dynamics.lu_factor`` to count the dense systems its factors form."""
    calls.update(linearize=0, dense=0, grams_in_linearizations=0, gram=calls.get("gram", 0))
    linearize, lu_factor = nlpflow.dynamics.linearize, nlpflow.dynamics.lu_factor

    def counting_grams(fn, *args):
        before = calls["gram"]
        out = fn(*args)
        calls["grams_in_linearizations"] += calls["gram"] - before
        return out

    def counted_dense(lhs):
        calls["dense"] += 1
        return lu_factor(lhs)

    def recorded(*args):
        calls["linearize"] += 1
        factor = counting_grams(linearize, *args)
        return lambda sigma: counting_grams(factor, sigma)

    monkeypatch.setattr(nlpflow.dynamics, "linearize", recorded)
    monkeypatch.setattr(nlpflow.dynamics, "lu_factor", counted_dense)
    return calls


class TestStiffJacobian:
    def test_one_flow_jacobian_per_base_point(self, monkeypatch):
        fd = count_calls(monkeypatch, nlpflow.integrate, "fd_jacobian")
        bases, linearized_points = set(), []
        step = nlpflow.integrate.step_stiff
        curvature_at = nlpflow.integrate.curvature_at

        def recorded_step(rhs, y, *args, **kwargs):
            bases.add(y.tobytes())
            return step(rhs, y, *args, **kwargs)

        def recorded_curvature(problem, point, *args):
            # each linearization makes the one curvature call at its point
            linearized_points.append(point.theta.tobytes())
            return curvature_at(problem, point, *args)

        monkeypatch.setattr(nlpflow.integrate, "step_stiff", recorded_step)
        monkeypatch.setattr(nlpflow.integrate, "curvature_at", recorded_curvature)
        n = 10
        p = builtin("example2", size=n)
        gains = GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0)
        traj = solve(p, np.linspace(2.0, 0.8, n), gains,
                     integrator=IntegratorConfig(method="stiff", t_end=100.0))
        assert traj.verdict == "converged"
        assert fd[0] == 0
        assert traj.endgame_steps > 0 and traj.endgame_fallbacks > 0
        # one linearization per stepper base and per endgame iteration, except
        # that an iteration that falls back shares its base, and so its
        # linearization, with the integration that resumes from there
        exact = len(linearized_points)
        assert exact == traj.jacobian_count == len(bases) + traj.endgame_steps
        assert len(set(linearized_points)) == exact
        assert bases <= set(linearized_points)
        rk45 = solve(p, np.linspace(2.0, 0.8, n), gains,
                     integrator=IntegratorConfig(t_end=1.0, fixed_horizon=True))
        assert rk45.jacobian_count == 0

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_chain_factors_on_the_band(self, monkeypatch, n):
        # every stage and endgame system of a standard start is a certified
        # banded saddle-point solve: no system is formed densely or factored
        calls = record_linearizations(monkeypatch, {})
        banded = count_calls(monkeypatch, nlpflow.dynamics, "banded_lu")
        theta0 = np.random.default_rng(1).uniform(0.7, 1.2, n)
        theta0[0] = 2.0
        gains = GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0)
        traj = solve(builtin("example2", size=n), theta0, gains,
                     integrator=IntegratorConfig(method="stiff", t_end=100.0))
        assert traj.verdict == "converged"
        assert calls["dense"] == 0
        assert banded[0] >= traj.jacobian_count > 0

    def test_example1_factors_its_formed_jacobian(self, monkeypatch):
        # the duplicated equality leaves H rank-deficient: J is formed on the
        # Gram's range and each stage matrix sigma I - J is 3 x 3, with no band
        calls = record_linearizations(monkeypatch, {})
        shapes = []
        lu_factor = nlpflow.dynamics.lu_factor

        def recorded(a):
            shapes.append(a.shape)
            return lu_factor(a)

        monkeypatch.setattr(nlpflow.dynamics, "lu_factor", recorded)
        banded = count_calls(monkeypatch, nlpflow.dynamics, "banded_lu")
        traj = solve_example1(EX1_HARD_START, "stiff")
        assert traj.verdict == "converged"
        assert calls["linearize"] == traj.jacobian_count > 0
        assert shapes and set(shapes) == {(3, 3)} and calls["dense"] == len(shapes)
        assert banded[0] == 0

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_each_settled_gram_is_factored_once(self, monkeypatch, method):
        # one pinv_gram call per rhs_general call whose stacked rows differ
        # in some bit from its prior's (a run of unchanged rows shares one
        # factorization), and none from linearize or its factors, which
        # build on the settled flow's
        calls = {"gram": 0, "with_rows": 0, "differing": 0}
        pinv_gram, rhs_general = nlpflow.dynamics.pinv_gram, nlpflow.dynamics.rhs_general

        def counted_gram(*args):
            calls["gram"] += 1
            return pinv_gram(*args)

        def counted_rhs(point, gains, ws, prior=None):
            rows = np.concatenate([point.h_jac, point.g_jac[list(ws.working)]])
            calls["with_rows"] += len(rows) > 0
            calls["differing"] += len(rows) > 0 and (
                prior is None or prior.rows.shape != rows.shape
                or prior.rows.tobytes() != rows.tobytes())
            return rhs_general(point, gains, ws, prior)

        monkeypatch.setattr(nlpflow.dynamics, "pinv_gram", counted_gram)
        monkeypatch.setattr(nlpflow.dynamics, "rhs_general", counted_rhs)
        record_linearizations(monkeypatch, calls)
        traj = solve_example1(EX1_HARD_START, method)
        assert traj.verdict == "converged"
        assert 0 < calls["gram"] == calls["differing"] < calls["with_rows"]
        assert calls["linearize"] == traj.jacobian_count > 0
        assert calls["grams_in_linearizations"] == 0

    @pytest.mark.parametrize("case", ["example1-rk45", "example1-stiff", "chain-stiff",
                                      "log-edge"])
    def test_reused_gram_solves_change_nothing(self, monkeypatch, case):
        # every sample and counter equals that of a run that factors every
        # Gram afresh, rhs_general ignoring its prior
        if case.startswith("example1"):
            run = partial(solve_example1, EX1_HARD_START, case.split("-")[1])
        elif case == "chain-stiff":
            n = 10
            run = partial(solve, builtin("example2", size=n), np.linspace(2.0, 0.8, n),
                          GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0),
                          integrator=IntegratorConfig(method="stiff"))
        else:
            run = partial(solve, parse_problem("var 1\nmin log(x1)\nineq 0.05 - x1\n"),
                          np.array([1.0]), GainSet.uniform(1, 0, 1))

        def summary(traj):
            return ([(s.tau, s.working, *(a.tobytes() for a in (s.theta, s.pi_e, s.pi_i)))
                     for s in traj.samples],
                    traj.verdict, traj.step_count, traj.rhs_eval_count, traj.rejected_count,
                    traj.jacobian_count, traj.trial_rejections, traj.endgame_steps,
                    traj.endgame_fallbacks)

        grams = count_calls(monkeypatch, nlpflow.dynamics, "pinv_gram")
        reusing = summary(run())
        reused_grams, grams[0] = grams[0], 0
        rhs_general = nlpflow.dynamics.rhs_general
        monkeypatch.setattr(nlpflow.dynamics, "rhs_general",
                            lambda point, gains, ws, prior=None: rhs_general(point, gains, ws))
        assert summary(run()) == reusing
        assert reusing[1] == "converged"
        assert reused_grams < grams[0]

    def test_fallback_calls_the_solved_problems_derivatives(self):
        # without a curvature oracle each Jacobian differences the derivative
        # oracle n times, outside rhs_eval_count
        n = 10
        p = builtin("example2", size=n)
        calls = [0]

        def derivatives(theta):
            calls[0] += 1
            return p.derivatives(theta)

        bare = dataclasses.replace(p, curvature=None, derivatives=derivatives)
        gains = GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0)
        cfg = IntegratorConfig(method="stiff", t_end=100.0)
        theta0 = np.linspace(2.0, 0.8, n)
        traj = solve(bare, theta0, gains, integrator=cfg)
        exact = solve(p, theta0, gains, integrator=cfg)
        assert traj.verdict == exact.verdict == "converged"
        assert calls[0] == traj.rhs_eval_count + n * traj.jacobian_count
        assert np.abs(traj.final.theta - exact.final.theta).max() <= 1e-6


class TestEndgame:
    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_fixed_horizon_never_switches(self, method):
        assert solve_example1(EX1_HARD_START, method).endgame_steps > 0
        traj = solve_example1(EX1_HARD_START, method, fixed_horizon=True)
        assert (traj.endgame_steps, traj.endgame_fallbacks) == (0, 0)
        assert traj.final.tau == 300.0

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_working_set_change_is_kept(self, method, rows):
        # the LP vertex min x1 + x2 s.t. x >= 0 from (2, 1), with and without
        # the redundant row -x1 - x2 <= 0: endgame iterates settle a growing
        # working set, () -> (1,) -> (0, 1), and are kept (68 to 80 evaluations)
        text = "var 2\nmin x1 + x2\nineq -x1\nineq -x2\n" + "ineq -x1 - x2\n" * (rows == 3)
        traj = solve(parse_problem(text), np.array([2.0, 1.0]), GainSet.uniform(2, 0, rows),
                     integrator=IntegratorConfig(method=method))
        assert traj.verdict == "converged"
        assert np.abs(traj.final.theta).max() <= 1e-8
        # stationarity: pi_1 + pi_3 = pi_2 + pi_3 = 1, so pi = (1, 1) on two rows
        pi = traj.final.pi_i
        assert np.abs(pi[:2] + pi[2:].sum() - 1.0).max() <= 1e-6
        assert rows == 3 or np.abs(pi - 1.0).max() <= 1e-6
        assert any(a.tau == b.tau and a.working != b.working
                   for a, b in zip(traj.samples, traj.samples[1:]))
        assert traj.rhs_eval_count <= 120

    # the multipliers grow without bound near (1, 0), and the stiff stage
    # matrix there can be exactly singular: its factorization fails and the
    # attempt is a trial rejection
    @pytest.mark.filterwarnings("ignore::nlpflow.dynamics.MultiplierBoundWarning")
    @pytest.mark.parametrize("k, method, verdict", [
        (0.1, "rk45", "horizon-reached"),
        (0.1, "stiff", "horizon-reached"),
        (1.0, "rk45", "horizon-reached"),
        (1.0, "stiff", "error:CyclingError"),
    ])
    def test_endgame_restarts_after_an_accepted_step(self, monkeypatch, k, method, verdict):
        # the Kuhn-Tucker cusp min -x1 s.t. x2 <= (1 - x1)^3, x2 >= 0 has no KKT
        # multipliers at its minimizer (1, 0), so the endgame falls back again
        # and again, also after kept iterates and once the integration has
        # reached t_end; each endgame run must start from an accepted step,
        # with a first h > 0, and a fallback at t_end ends the solve
        sigmas = spy_endgame_sigmas(monkeypatch)
        traj = solve(parse_problem(CUSP), np.array([0.5, 0.1]),
                     GainSet.uniform(2, 0, 2, k_theta=k, k_g=k),
                     integrator=IntegratorConfig(method=method, t_end=100.0))
        assert traj.verdict == verdict
        assert len(sigmas) == traj.endgame_steps + traj.endgame_fallbacks
        assert traj.endgame_fallbacks > 1
        assert all(0.0 < sigma < math.inf for sigma in sigmas)

    def test_enabling_snapshot_settles_afresh(self):
        # the hard start enables group (3, 4) at an endgame iterate, whose
        # trial settled it under the old schedule; the snapshot records the
        # settlement under the advanced one
        traj = solve_example1(EX1_HARD_START)
        k, after, fresh, stale = schedule_advance(traj)
        sample = traj.samples[k]
        assert traj.verdict == "converged"
        assert k > 1 and sample.tau == traj.samples[k - 1].tau
        assert after.enabled == after.count
        assert sample.working == fresh.working_set.working != stale.working_set.working
        assert sample.pi_e.tobytes() == fresh.pi_e.tobytes() != stale.pi_e.tobytes()
        assert sample.pi_i.tobytes() == fresh.pi_i.tobytes() != stale.pi_i.tobytes()

    def test_enabling_snapshot_restarts_h(self, monkeypatch):
        # h grows at every kept iterate until a group joins and changes the
        # flow; the next iteration takes the endgame's entry h again
        sigmas = spy_endgame_sigmas(monkeypatch)
        traj = solve_example1(EX1_HARD_START)
        k = schedule_advance(traj)[0]
        assert traj.verdict == "converged"
        # one endgame run, entered at the last error-controlled snapshot
        assert traj.endgame_fallbacks == 0
        i = k - (traj.step_count - traj.endgame_steps)   # the iteration from snapshot k
        assert len(sigmas) == traj.endgame_steps
        assert i > 1 and sigmas[i - 1] < sigmas[0] == sigmas[i]

    def test_step_against_the_flow_falls_back(self, monkeypatch):
        # J + 1e12 I makes I/h - J negative definite, so delta . F < 0
        linearize = nlpflow.dynamics.linearize
        calls = [0]

        def shifted(*args):
            calls[0] += 1
            factor = linearize(*args)
            if calls[0] > 1:
                return factor
            return lambda sigma: factor(sigma - 1e12)

        monkeypatch.setattr(nlpflow.dynamics, "linearize", shifted)
        traj = solve_example1(EX1_HARD_START)
        assert traj.verdict == "converged"
        assert traj.endgame_fallbacks == 1
        # the discarded iteration evaluated no point
        assert traj.rhs_eval_count == (6 * error_controlled_attempts(traj)
                                       + traj.endgame_steps + traj.endgame_fallbacks)

    def test_exactly_singular_newton_matrix_falls_back(self, monkeypatch):
        # on min |x|^2 under gains 0.1, J = -0.2 I exactly: the first endgame
        # iteration, moved to sigma = -0.2, meets the zero matrix, whose solve
        # fails, and falls back; the later iterations converge
        linearize, moved = nlpflow.dynamics.linearize, []

        def singular(*args):
            factor = linearize(*args)

            def iteration(sigma):
                if moved:
                    return factor(sigma)
                moved.append(sigma)
                solve = factor(-0.2)
                with pytest.raises(NumericFailureError, match="singular"):
                    solve(np.ones(2))
                return solve
            return iteration

        problem, gains = parse_problem("var 2\nmin x1^2 + x2^2\n"), GainSet.uniform(2, 0, 0)
        plain = solve(problem, np.array([1.0, -2.0]), gains)
        monkeypatch.setattr(nlpflow.dynamics, "linearize", singular)
        traj = solve(problem, np.array([1.0, -2.0]), gains)
        assert len(moved) == 1
        assert (plain.endgame_fallbacks, traj.endgame_fallbacks) == (0, 1)
        assert plain.verdict == traj.verdict == "converged"
        assert np.abs(traj.final.theta).max() <= 1e-6

    @pytest.mark.parametrize("method", ["rk45", "stiff"])
    def test_failing_curvature_oracle_is_fatal(self, method):
        # the linearization at an accepted point is made outside the endgame's
        # fallback: an oracle error there ends the solve under either stepper
        p = builtin("example1")
        bad = dataclasses.replace(p, curvature=lambda *args: p.curvature(*args)[:2])
        traj = solve_example1(EX1_HARD_START, method, problem=bad)
        assert traj.verdict == "error:EvaluationError"
        assert "curvature" in str(traj.error)
        assert traj.endgame_fallbacks == 0

    @pytest.mark.parametrize("method, theta0", [
        ("rk45", EX1_HARD_START),
        ("stiff", (1.74737479, -8.37134392, -8.76192360)),
    ])
    def test_endgame_samples_keep_tau(self, method, theta0):
        traj = solve_example1(theta0, method)
        taus = [s.tau for s in traj.samples]
        assert traj.verdict == "converged"
        assert all(a <= b for a, b in zip(taus, taus[1:]))
        assert taus[-1] <= 300.0
        # error-controlled steps advance tau, endgame steps repeat it
        assert sum(a == b for a, b in zip(taus, taus[1:])) == traj.endgame_steps > 0

    @pytest.mark.filterwarnings("ignore::nlpflow.dynamics.MultiplierBoundWarning")
    @pytest.mark.parametrize("text, theta0", [
        ("var 1\nmin log(x1)\nineq 0.05 - x1\n", [1.0]),   # a trial stage leaves log's domain
        (CUSP, [0.5, 0.1]),
    ])
    def test_fallbacks_keep_the_controller_memory(self, monkeypatch, text, theta0):
        # the integration runs on through every endgame fallback, so each PI
        # factor reads the last accepted error, not the controller's start value
        calls = []

        def recorded(err_norm, err_prev, *args):
            calls.append((err_norm, err_prev))
            return _step_factor(err_norm, err_prev, *args)

        monkeypatch.setattr(nlpflow.integrate, "_step_factor", recorded)
        problem = parse_problem(text)
        traj = solve(problem, np.array(theta0), GainSet.uniform(problem.n, 0, problem.r))
        assert traj.endgame_fallbacks > 1
        assert len(calls) == error_controlled_attempts(traj)
        expected = _ERR_PREV_MIN
        for err_norm, err_prev in calls:
            assert err_prev == expected
            if err_norm <= 1.0:
                expected = max(err_norm, _ERR_PREV_MIN)

    @pytest.mark.filterwarnings("ignore::nlpflow.dynamics.MultiplierBoundWarning")
    @pytest.mark.parametrize("budget, last", [(5, "integration"), (6, "endgame"),
                                              (15, "endgame")])
    def test_integration_and_endgame_share_the_step_budget(self, monkeypatch, budget, last):
        # the cusp under rk45 at gains 1 alternates accepted steps and endgame
        # fallbacks; the budget runs out in whichever part takes the last attempt
        monkeypatch.setattr(nlpflow.integrate, "_MAX_STEPS", budget)
        attempts, results = [], []
        step_factor, linearize = nlpflow.integrate._step_factor, nlpflow.dynamics.linearize
        integrate_ode = nlpflow.integrate.integrate_ode

        def stepped(*args):
            attempts.append("integration")
            return step_factor(*args)

        def linearized(*args):
            factor = linearize(*args)   # under rk45, only the endgame factors it

            def iteration(sigma):
                attempts.append("endgame")
                return factor(sigma)
            return iteration

        def integrated(*args, result, **kwargs):
            results.append(result)
            return integrate_ode(*args, result=result, **kwargs)

        monkeypatch.setattr(nlpflow.integrate, "_step_factor", stepped)
        monkeypatch.setattr(nlpflow.dynamics, "linearize", linearized)
        monkeypatch.setattr(nlpflow.integrate, "integrate_ode", integrated)
        traj = solve(parse_problem(CUSP), np.array([0.5, 0.1]),
                     GainSet.uniform(2, 0, 2, k_theta=1.0, k_g=1.0))
        assert traj.verdict == "error:max-steps"
        assert traj.endgame_fallbacks > 0
        assert attempts[-1] == last and len(attempts) == budget
        assert (error_controlled_attempts(traj) + traj.endgame_steps
                + traj.endgame_fallbacks) == budget
        # one integration per solve, whose counter also holds the endgame's iterations
        assert len(results) == 1 and results[0].attempts == budget

    @pytest.mark.parametrize("budget", [1, 6, 14])
    def test_endgame_iterations_count_towards_max_steps(self, monkeypatch, budget):
        # the hard start switches after 1 attempt and needs 18 endgame steps
        monkeypatch.setattr(nlpflow.integrate, "_MAX_STEPS", budget)
        traj = solve_example1(EX1_HARD_START)
        assert traj.verdict == "error:max-steps"
        assert (error_controlled_attempts(traj) + traj.endgame_steps
                + traj.endgame_fallbacks) == budget
        assert (traj.endgame_steps > 0) == (budget > 1)


# text, start, limit point, its tolerance, the multipliers' relative
# tolerance and the settled working set of each degenerate case
DEGENERATE = {
    # no KKT multiplier exists at x1 = 0: the flow converges with one that
    # grows past 1e8 (approximate KKT), and a MultiplierBoundWarning shows it
    "x1^2 <= 0": ("var 1\nmin x1\nineq x1^2\n", [1.0], [0.0], 1e-9, 1e-2, (0,)),
    "duplicated rows": ("var 2\nmin x1^2 + x2^2\nineq 1 - x1\nineq 2 - 2*x1\n", [2.0, 1.0],
                        [1.0, 0.0], 1e-8, 1e-8, (1,)),
    "zero multiplier": ("var 2\nmin x1^2 + x2^2\nineq -x1\n", [2.0, 1.0], [0.0, 0.0], 1e-8,
                        1e-8, ()),
}


class TestDegenerateConstraints:
    """Parsed problems whose constraints are not regular at the solution,
    solved from one start under both steppers at gains 0.1 and 1."""

    @pytest.mark.parametrize("case, k, method, evals, pi_i, bound_warnings", [
        ("x1^2 <= 0", 0.1, "rk45", 45, [6.366e8], 1),
        ("x1^2 <= 0", 0.1, "stiff", 64, [1.003e14], 2),
        ("x1^2 <= 0", 1.0, "rk45", 32, [6.757e13], 2),
        ("x1^2 <= 0", 1.0, "stiff", 47, [3.014e9], 1),
        ("duplicated rows", 0.1, "rk45", 18, [0.0, 1.0], 0),
        ("duplicated rows", 0.1, "stiff", 18, [0.0, 1.0], 0),
        ("duplicated rows", 1.0, "rk45", 14, [0.0, 1.0], 0),
        ("duplicated rows", 1.0, "stiff", 14, [0.0, 1.0], 0),
        ("zero multiplier", 0.1, "rk45", 18, [0.0], 0),
        ("zero multiplier", 0.1, "stiff", 18, [0.0], 0),
        ("zero multiplier", 1.0, "rk45", 15, [0.0], 0),
        ("zero multiplier", 1.0, "stiff", 15, [0.0], 0),
    ])
    def test_outcome(self, case, k, method, evals, pi_i, bound_warnings):
        text, theta0, limit, theta_tol, pi_tol, working = DEGENERATE[case]
        problem = parse_problem(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = solve(problem, np.array(theta0),
                         GainSet.uniform(problem.n, 0, problem.r, k_theta=k, k_g=k),
                         integrator=IntegratorConfig(method=method, t_end=100.0))
        raised = [w.category for w in caught]
        assert raised == [nlpflow.dynamics.MultiplierBoundWarning] * bound_warnings
        final = traj.final
        assert (traj.verdict, traj.rhs_eval_count, final.working) == ("converged", evals, working)
        assert np.abs(final.theta - limit).max() <= theta_tol
        assert final.pi_e.size == 0
        assert np.abs(final.pi_i - pi_i).max() <= pi_tol * max(1.0, np.abs(pi_i).max())
