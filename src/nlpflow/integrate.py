"""Adaptive integration of the flow over virtual time.

Two embedded steppers drive the outer solve loop: an explicit
Dormand-Prince 5(4) pair for non-stiff flows and a 6-stage L-stable
Rosenbrock 4(3) method (RODAS-type tableau, Hairer & Wanner) for stiff
ones, with the Jacobian of the assembled right-hand side approximated by
forward finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import dynamics, monitor
from .errors import InvalidInputError, NlpflowError, NumericFailureError, StepFailureError
from .problems import evaluate

__all__ = [
    "IntegratorConfig", "FlowState", "Trajectory",
    "step_rk45", "step_stiff", "fd_jacobian", "integrate_ode", "solve",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection, tolerances, and step-size limits.

    Defaults: ``h_init = 1e-3 * t_end``, ``h_max = t_end / 10``.
    ``fixed_horizon`` disables early termination on convergence, matching
    runs that integrate the full horizon for table reproduction.
    """

    method: str = "rk45"
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    t_end: float = 100.0
    h_init: float | None = None
    h_min: float = 1e-12
    h_max: float | None = None
    max_steps: int = 100_000
    fixed_horizon: bool = False

    def __post_init__(self):
        if self.method not in ("rk45", "stiff"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.t_end <= 0:
            raise InvalidInputError("tolerances and t_end must be positive")
        if self.initial_step() < self.h_min or self.initial_step() > self.max_step():
            raise InvalidInputError("need h_min <= h_init <= h_max")

    def initial_step(self):
        return 1e-3 * self.t_end if self.h_init is None else self.h_init

    def max_step(self):
        return self.t_end / 10.0 if self.h_max is None else self.h_max


# --- Dormand-Prince 5(4) ---------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0


def _controller(h, err_norm, order_exponent):
    if err_norm == 0.0:
        factor = _FAC_MAX
    else:
        factor = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err_norm ** (-order_exponent)))
    return h * factor


def _error_norm(err, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.max(np.abs(err) / scale))


def step_rk45(rhs, y, h, rel_tol=1e-3, abs_tol=1e-6):
    """One embedded 5(4) step.  Returns (y_new, err_norm, h_next); the step
    is acceptable when err_norm <= 1."""
    k = []
    for row in _DP_A:
        yi = y + h * sum(a * ki for a, ki in zip(row, k)) if row else y
        k.append(rhs(yi))
    y_new = y + h * sum(b * ki for b, ki in zip(_DP_B, k) if b)
    err = h * sum(e * ki for e, ki in zip(_DP_E, k) if e)
    err_norm = _error_norm(err, y, y_new, rel_tol, abs_tol)
    return y_new, err_norm, _controller(h, err_norm, 1 / 5)


# --- Rosenbrock 4(3), RODAS tableau ---------------------------------------

_ROS_GAMMA = 0.25
_ROS_A = (
    (),
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 1.0),
)
_ROS_C = (
    (),
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054),
)
_ROS_M = (1.221224509226641, 6.019134481288629, 12.53708332932087,
          -0.6878860361058950, 1.0, 1.0)
# last stage is the embedded order-3 correction
_ROS_E = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def fd_jacobian(rhs, y, f0=None, rel_step=1e-7):
    """Forward-difference Jacobian of an autonomous right-hand side."""
    f0 = rhs(y) if f0 is None else f0
    n = y.size
    jac = np.empty((f0.size, n))
    for j in range(n):
        delta = rel_step * max(1.0, abs(y[j]))
        yp = y.copy()
        yp[j] += delta
        jac[:, j] = (rhs(yp) - f0) / delta
    return jac


def step_stiff(rhs, y, h, rel_tol=1e-3, abs_tol=1e-6, jac=None, f0=None):
    """One L-stable Rosenbrock 4(3) step.  Same return convention and
    acceptance test as step_rk45.  ``jac`` and ``f0`` may be reused across
    rejected attempts at the same point."""
    if jac is None:
        jac = fd_jacobian(rhs, y, f0)
    n = y.size
    lhs = np.eye(n) / (h * _ROS_GAMMA) - jac
    try:
        lu = lu_factor(lhs)
    except ValueError as exc:
        raise NumericFailureError(f"stage matrix factorization failed: {exc}") from exc
    k = []
    for i in range(6):
        yi = y + sum(a * kj for a, kj in zip(_ROS_A[i], k)) if i else y
        fi = rhs(yi) if (i or f0 is None) else f0
        stage_rhs = fi + sum((c / h) * kj for c, kj in zip(_ROS_C[i], k))
        k.append(lu_solve(lu, stage_rhs))
    y_new = y + sum(m * ki for m, ki in zip(_ROS_M, k))
    err = sum(e * ki for e, ki in zip(_ROS_E, k) if e)
    if not np.all(np.isfinite(y_new)):
        return y_new, math.inf, 0.5 * h
    err_norm = _error_norm(err, y, y_new, rel_tol, abs_tol)
    return y_new, err_norm, _controller(h, err_norm, 1 / 4)


# --- generic adaptive loop -------------------------------------------------

@dataclass
class OdeResult:
    y: np.ndarray
    t: float
    accepted: int
    rejected: int


def integrate_ode(rhs, y0, config, callback=None):
    """Drive a stepper from 0 to t_end with standard accept/reject control.

    ``callback(t, y, h_used)`` runs after each accepted step; returning
    True stops the integration early.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    h = min(config.initial_step(), config.max_step(), config.t_end)
    stiff = config.method == "stiff"
    accepted = rejected = 0
    jac = f0 = None
    while t < config.t_end and accepted + rejected < config.max_steps:
        h = min(h, config.t_end - t)
        if stiff:
            if jac is None:
                f0 = rhs(y)
                jac = fd_jacobian(rhs, y, f0)
            y_new, err_norm, h_next = step_stiff(
                rhs, y, h, config.rel_tol, config.abs_tol, jac=jac, f0=f0)
        else:
            y_new, err_norm, h_next = step_rk45(
                rhs, y, h, config.rel_tol, config.abs_tol)
        if err_norm <= 1.0:
            t += h
            y = y_new
            accepted += 1
            jac = None
            h = min(max(h_next, config.h_min), config.max_step())
            if callback is not None and callback(t, y, h):
                break
        else:
            rejected += 1
            h = max(h_next, 0.1 * h)
            if h < config.h_min:
                hint = "; the flow may be stiff, try method='stiff'" if not stiff else ""
                raise StepFailureError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}){hint}")
    return OdeResult(y=y, t=t, accepted=accepted, rejected=rejected)


# --- outer solve loop ------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow at an accepted step."""

    tau: float
    theta: np.ndarray
    pi_e: np.ndarray
    pi_i: np.ndarray
    working: tuple
    report: monitor.KktReport
    lyapunov: float
    objective: float


@dataclass
class Trajectory:
    """Ordered snapshots plus the termination verdict."""

    samples: list = field(default_factory=list)
    verdict: str = "continue"
    step_count: int = 0
    rhs_eval_count: int = 0
    error: Exception | None = None
    initial_lp_gamma: float | None = None
    rejected_count: int = 0

    @property
    def final(self):
        return self.samples[-1]


def solve(problem, theta0, gains, integrator=None, tolerances=None,
          pts_groups=None, eps_act=1e-8, pts_tol=1e-6, c1=1e-2,
          record_stride=1, lp_at_start=True, multiplier_bound=1e6):
    """Integrate the flow from theta0 until convergence or the horizon.

    ``pts_groups`` lists inequality index groups in priority order (None
    for a single group).  Snapshots are recorded at every accepted step,
    thinned by ``record_stride`` (first and last always kept).
    """
    theta0 = np.asarray(theta0, dtype=float)
    config = IntegratorConfig() if integrator is None else integrator
    tols = monitor.ToleranceSet() if tolerances is None else tolerances
    if pts_groups is None:
        pts = dynamics.PtsState.single_group(problem.r)
    else:
        pts = dynamics.PtsState(groups=tuple(tuple(g) for g in pts_groups))

    traj = Trajectory()
    evals = [0]

    def eval_point(theta):
        evals[0] += 1
        return evaluate(problem, theta)

    # per-step frozen context: the rhs seen by the stepper resolves the
    # working set at every evaluation, warm-started from the last accepted
    # step, with the priority schedule frozen for the step
    context = {"pts": pts, "warm": ()}

    def rhs(theta):
        point = eval_point(theta)
        cand = dynamics.classify(point, eps_act, context["pts"], context["warm"])
        res = dynamics.resolve_working_set(point, gains, cand,
                                           multiplier_bound=multiplier_bound)
        return res.dtheta

    def snapshot(tau, theta):
        point = eval_point(theta)
        context["pts"] = dynamics.pts_update(context["pts"], point, pts_tol)
        cand = dynamics.classify(point, eps_act, context["pts"], context["warm"])
        res = dynamics.resolve_working_set(point, gains, cand,
                                           multiplier_bound=multiplier_bound)
        context["warm"] = res.working_set.working
        report = monitor.kkt_report(point, res)
        state = FlowState(
            tau=tau, theta=theta.copy(), pi_e=res.pi_e.copy(),
            pi_i=res.pi_i.copy(), working=res.working_set.working,
            report=report,
            lyapunov=monitor.lyapunov_value(point, res.working_set.activated, c1),
            objective=point.f)
        return state, report

    try:
        point0 = eval_point(theta0)
        lp_gamma = None
        if lp_at_start and (problem.s + problem.r) > 0:
            context["pts"] = dynamics.pts_update(context["pts"], point0, pts_tol)
            cand0 = dynamics.classify(point0, eps_act, context["pts"])
            if problem.s + len(cand0.activated) > 0:
                try:
                    lp = dynamics.feasibility_lp(
                        point0, gains, box=10.0 * (1.0 + float(np.abs(theta0).max())),
                        activated=cand0.activated)
                    lp_gamma = lp.gamma
                except NlpflowError:
                    lp_gamma = None
        traj.initial_lp_gamma = lp_gamma
        state, report = snapshot(0.0, theta0)
        traj.samples.append(state)
        verdict = monitor.decide(report, tols, 0.0, config.t_end)
        if verdict == "converged" and not config.fixed_horizon:
            traj.verdict = "converged"
            traj.rhs_eval_count = evals[0]
            return traj

        pending = [None]   # last un-recorded snapshot when striding

        def on_accept(tau, theta, h_next):
            traj.step_count += 1
            state, report = snapshot(tau, theta)
            if record_stride <= 1 or traj.step_count % record_stride == 0:
                traj.samples.append(state)
                pending[0] = None
            else:
                pending[0] = state
            verdict = monitor.decide(report, tols, tau, config.t_end)
            if config.fixed_horizon:
                return verdict == "horizon-reached"
            if verdict != "continue":
                traj.verdict = verdict
                return True
            return False

        result = integrate_ode(rhs, theta0, config, callback=on_accept)
        traj.rejected_count = result.rejected
        if pending[0] is not None:
            traj.samples.append(pending[0])
        if traj.verdict == "continue":
            if result.t >= config.t_end:
                last = traj.samples[-1]
                traj.verdict = ("converged"
                                if tols.satisfied_by(last.report) and not config.fixed_horizon
                                else "horizon-reached")
            else:
                traj.verdict = "error:max-steps"
    except NlpflowError as exc:
        traj.verdict = f"error:{type(exc).__name__}"
        traj.error = exc
    traj.rhs_eval_count = evals[0]
    return traj
