import math

import numpy as np
import pytest

import nlpflow.integrate
from nlpflow import (
    GainSet,
    IntegratorConfig,
    InvalidInputError,
    NlpProblem,
    StepFailureError,
    ToleranceSet,
    builtin,
    fd_jacobian,
    integrate_ode,
    solve,
    step_rk45,
    step_stiff,
)

def decay(y):
    return -y


def rotate(y):
    return np.array([-y[1], y[0]])


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig(t_end=200.0)
        assert cfg.initial_step() == 0.2
        assert cfg.max_step() == 20.0

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidInputError):
            IntegratorConfig(method="euler")

    def test_rejects_bad_tolerances(self):
        with pytest.raises(InvalidInputError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(InvalidInputError):
            IntegratorConfig(t_end=-1.0)

    def test_rejects_inconsistent_steps(self):
        with pytest.raises(InvalidInputError):
            IntegratorConfig(h_init=1.0, h_max=0.5)


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
        for stepper in (step_rk45, step_stiff):
            y_new, err_norm, h_next = stepper(decay, y, 1e-3)
            assert err_norm <= 1.0
            assert h_next > 1e-3
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

    def test_stiff_evaluates_each_base_point_once(self):
        # the Jacobian and stage 0 of every attempt share one evaluation
        y0 = np.array([0.0, 0.0])
        seen = []

        def rhs(y):
            seen.append(y.tobytes())
            return np.array([1.0, -1000.0 * (y[1] - math.cos(y[0]))])

        res = integrate_ode(rhs, y0, IntegratorConfig(method="stiff", t_end=1.0, h_init=0.1))
        assert res.rejected > 0
        assert seen.count(y0.tobytes()) == 1

    def test_step_underflow_suggests_stiff_method(self):
        cfg = IntegratorConfig(method="rk45", t_end=1.0)
        with np.errstate(all="ignore"), pytest.raises(StepFailureError, match="stiff"):
            integrate_ode(lambda y: y * 1e10, np.array([1e300]), cfg)

    def test_fd_jacobian_on_linear_system(self):
        a = np.array([[0.0, 1.0], [-4.0, -0.4]])
        jac = fd_jacobian(lambda y: a @ y, np.array([0.3, -0.7]))
        assert np.abs(jac - a).max() <= 1e-5


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

    def test_record_stride_thins_but_keeps_endpoints(self):
        p = builtin("unconstrained-quadratic", size=2)
        gains = GainSet.uniform(2, 0, 0, k_theta=1.0)
        cfg = IntegratorConfig(t_end=10.0, fixed_horizon=True)
        dense = solve(p, np.array([1.0, -1.0]), gains, integrator=cfg)
        thin = solve(p, np.array([1.0, -1.0]), gains, integrator=cfg,
                     record_stride=5)
        assert len(thin.samples) < len(dense.samples)
        assert thin.samples[0].tau == 0.0
        assert thin.final.tau == dense.final.tau

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

    def test_initial_lp_diagnostic_recorded(self):
        p = builtin("example1")
        gains = GainSet.uniform(3, 2, 5)
        cfg = IntegratorConfig(t_end=1.0, fixed_horizon=True)
        traj = solve(p, np.array([-4.8578, 3.8180, -2.7364]), gains,
                     integrator=cfg, pts_groups=[(0, 1, 2), (3, 4)])
        assert traj.initial_lp_gamma is not None
        assert traj.initial_lp_gamma <= 0.0

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
        p = builtin("example1")
        gains = GainSet.uniform(3, 2, 5)
        traj = solve(p, np.array([-4.8578, 3.8180, -2.7364]), gains,
                     integrator=IntegratorConfig(t_end=300.0),
                     pts_groups=[(0, 1, 2), (3, 4)])
        assert traj.verdict == "converged"
        assert traj.rejected_count > 0
        assert attempts[0] == traj.step_count + traj.rejected_count
