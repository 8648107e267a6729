"""Adaptive integration of the flow over virtual time.

Two embedded steppers drive the outer solve loop, and ``integrate_ode``
alone sets their step size: an explicit Dormand-Prince 5(4) pair under PI
control for non-stiff flows and a 6-stage L-stable Rosenbrock 4(3) method
(RODAS-type tableau, Hairer & Wanner) for stiff ones.  The Rosenbrock
stepper takes a factor, sigma -> the solve v -> (sigma I - J)^-1 v.
``solve`` builds it from the flow's linearization on the working set
settled at each base point (``dynamics.linearize``); on a plain right-hand
side ``integrate_ode`` factors forward differences (``fd_jacobian``).
``solve`` integrates once, and after each accepted step its callback runs a
pseudo-transient Newton endgame on the same linearization until a verdict or
a fallback to the last snapshot; an endgame iterate at which a group joins
settles its flow afresh and restarts the pseudo-time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dynamics, monitor
from .errors import InvalidInputError, NlpflowError, NumericFailureError, StepFailureError
from .problems import FD_REL_STEP, curvature_at, evaluate

_H_MIN = 1e-12          # step-size floor; a rejection below it is a StepFailureError
_H_INIT = 1e-3          # first step, as a fraction of t_end
_H_MAX = 0.1            # step-size ceiling, as a fraction of t_end
_MAX_STEPS = 100_000    # step attempts before the verdict "error:max-steps"
_ENDGAME_GROWTH = 2.0   # least growth of the endgame's h per kept iteration


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection, tolerances and horizon.

    The first step is ``_H_INIT * t_end`` and no step exceeds
    ``_H_MAX * t_end``; steps never fall below ``_H_MIN``.
    ``fixed_horizon`` disables early termination on convergence
    (``monitor.converged``) and the endgame, matching runs that integrate
    the full horizon for table reproduction.
    """

    method: str = "rk45"
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    t_end: float = 100.0
    fixed_horizon: bool = False

    def __post_init__(self):
        if self.method not in ("rk45", "stiff"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        for name in ("rel_tol", "abs_tol", "t_end"):
            if not 0 < getattr(self, name) < math.inf:   # also false for nan
                raise InvalidInputError(f"{name} must be positive and finite")
        if _H_INIT * self.t_end < _H_MIN:
            raise InvalidInputError(f"t_end must be at least {_H_MIN / _H_INIT:g}")


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
_FAC_MAX = 3.0
_PI_BETA = 0.08         # rk45's weight on the previous error (Gustafsson PI)
_ERR_PREV_MIN = 1e-4    # floor and start value of the previous accepted error


def _step_factor(err_norm, err_prev, fac_max, order_exponent, beta):
    """h_next / h after an attempt, by the rule in integrate_ode."""
    if not math.isfinite(err_norm):
        return 0.5
    if err_norm > 1.0:
        return max(_FAC_MIN, _SAFETY * err_norm ** -order_exponent)
    if err_norm == 0.0:
        return fac_max
    factor = _SAFETY * err_norm ** (0.75 * beta - order_exponent) * err_prev ** beta
    return min(fac_max, max(_FAC_MIN, factor))


def _error_norm(err, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.max(np.abs(err) / scale))


def step_rk45(rhs, y, h, rel_tol, abs_tol, f0):
    """One embedded 5(4) step.  Returns (y_new, err_norm); the step is
    acceptable when err_norm <= 1.  ``f0 = rhs(y)``, the first stage, may
    be reused across rejected attempts at the same point."""
    k = [f0]
    for row in _DP_A[1:]:
        k.append(rhs(y + h * sum(a * ki for a, ki in zip(row, k))))
    y_new = y + h * sum(b * ki for b, ki in zip(_DP_B, k) if b)
    err = h * sum(e * ki for e, ki in zip(_DP_E, k) if e)
    return y_new, _error_norm(err, y, y_new, rel_tol, abs_tol)


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


def fd_jacobian(rhs, y, f0):
    """Forward-difference Jacobian at y of an autonomous rhs; f0 = rhs(y)."""
    n = y.size
    jac = np.empty((f0.size, n))
    for j in range(n):
        delta = FD_REL_STEP * max(1.0, abs(y[j]))
        yp = y.copy()
        yp[j] += delta
        jac[:, j] = (rhs(yp) - f0) / delta
    return jac


def lu_factor(a):
    """``solve(v) = a^-1 v`` from LAPACK's LU of a, with scipy imported on
    first use.  A non-finite or exactly singular a is a NumericFailureError."""
    from scipy.linalg import lu_solve
    from scipy.linalg.lapack import dgetrf
    if not np.isfinite(a).all():
        raise NumericFailureError("stage matrix is not finite")
    lu, piv, info = dgetrf(a)
    if info != 0:
        raise NumericFailureError(f"stage matrix is exactly singular (dgetrf info {info})")
    return partial(lu_solve, (lu, piv))


def dense_factor(jac):
    """The factor of a formed Jacobian: ``factor(sigma)`` is the solve
    v -> (sigma I - jac)^-1 v, by one LU per sigma."""
    return lambda sigma: lu_factor(np.eye(jac.shape[0]) * sigma - jac)


def step_stiff(rhs, y, h, rel_tol, abs_tol, factor, f0):
    """One L-stable Rosenbrock 4(3) step at y.  ``factor(sigma)`` gives the
    solve v -> (sigma I - J)^-1 v for the Jacobian J of ``rhs`` at y; the
    step factors once, at sigma = 1/(h gamma), for its six stages, and a
    non-finite stage right-hand side is a NumericFailureError.  Same return
    convention and acceptance test as step_rk45.  ``factor`` and ``f0`` may
    be reused across rejected attempts at the same point."""
    solve = factor(1 / (h * _ROS_GAMMA))
    k = []
    for i in range(6):
        fi = rhs(y + sum(a * kj for a, kj in zip(_ROS_A[i], k))) if i else f0
        stage_rhs = fi + sum((c / h) * kj for c, kj in zip(_ROS_C[i], k))
        if not np.isfinite(stage_rhs).all():
            raise NumericFailureError("stage right-hand side is not finite")
        k.append(solve(stage_rhs))
    y_new = y + sum(m * ki for m, ki in zip(_ROS_M, k))
    err = sum(e * ki for e, ki in zip(_ROS_E, k) if e)
    if not np.isfinite(y_new).all():
        return y_new, math.inf
    return y_new, _error_norm(err, y, y_new, rel_tol, abs_tol)


# --- generic adaptive loop -------------------------------------------------

@dataclass
class OdeResult:
    y: np.ndarray = None
    t: float = 0.0
    attempts: int = 0        # step attempts, with those the callback counts in
    accepted: int = 0
    rejected: int = 0        # including trial_rejections
    trial_rejections: int = 0


def integrate_ode(rhs, y0, config, callback=None, result=None, linearize=None):
    """Drive a stepper from 0 to t_end with accept/reject step control.

    An attempt with error norm e <= 1 is accepted and scales h by the PI
    factor ``_SAFETY * e**(0.75 beta - k) * e_prev**beta`` in [0.2, 3], or in
    [0.2, 1] right after a rejection (e_prev: the last accepted e, >= 1e-4;
    rk45 k = 1/5, beta = 0.08; the L-stable stiff pair k = 1/4, beta = 0).
    A rejection scales h by max(0.2, _SAFETY * e**-k), 0.5 for a non-finite e
    or a trial stage that raises an ``NlpflowError`` (a non-finite point or
    value, cycling, an infeasible subproblem, a failed stage solve); such an
    error at y0 or at an accepted point stays fatal.
    ``f0 = rhs(y)`` is computed once per base point and shared by every
    attempt from it.  So is the stiff stepper's factor (see ``step_stiff``):
    ``linearize(y)`` when given, else ``dense_factor`` of
    ``fd_jacobian(rhs, y, f0)``.
    ``callback(t, y)`` runs after each accepted step and may move
    ``result.y``, the next step's start; returning True stops the
    integration.  Progress is kept in ``result`` (a new OdeResult when
    None), so a caller passing its own still reads the step counts when a
    step raises; ``result.attempts``, which the callback may add to, ends
    the integration at ``_MAX_STEPS``.
    """
    res = OdeResult() if result is None else result
    res.y = np.asarray(y0, dtype=float).copy()
    h = _H_INIT * config.t_end
    stiff = config.method == "stiff"
    order_exponent, beta = (1 / 4, 0.0) if stiff else (1 / 5, _PI_BETA)
    err_prev, fac_max = _ERR_PREV_MIN, _FAC_MAX
    f0 = None
    while res.t < config.t_end and res.attempts < _MAX_STEPS:
        h = min(h, config.t_end - res.t)
        if f0 is None:
            f0 = rhs(res.y)
            if stiff:
                shifted = (dense_factor(fd_jacobian(rhs, res.y, f0)) if linearize is None
                           else linearize(res.y))
        stepper = partial(step_stiff, factor=shifted) if stiff else step_rk45
        res.attempts += 1
        try:
            y_new, err_norm = stepper(rhs, res.y, h, config.rel_tol, config.abs_tol, f0=f0)
        except NlpflowError:
            err_norm = math.inf
            res.trial_rejections += 1
        factor = _step_factor(err_norm, err_prev, fac_max, order_exponent, beta)
        if err_norm <= 1.0:
            res.t += h
            res.y = y_new
            res.accepted += 1
            f0 = None
            err_prev, fac_max = max(err_norm, _ERR_PREV_MIN), _FAC_MAX
            h = min(max(h * factor, _H_MIN), _H_MAX * config.t_end)
            if callback is not None and callback(res.t, res.y):
                break
        else:
            res.rejected += 1
            fac_max = 1.0   # no growth on the step after a rejection
            h *= factor
            if h < _H_MIN:
                hint = "; the flow may be stiff, try method='stiff'" if not stiff else ""
                raise StepFailureError(
                    f"step size underflow at t={res.t:.6g} (h={h:.3e}){hint}")
    return res


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
    """Ordered snapshots plus the termination verdict.

    ``verdict`` is ``converged`` once a snapshot meets every tolerance
    (never under ``fixed_horizon``), ``horizon-reached`` when the
    error-controlled integration reaches ``t_end``, ``error:max-steps``, or
    ``error:<class>`` for an ``NlpflowError``, which ``error`` keeps.
    ``step_count`` counts snapshots after theta0, ``rejected_count``
    rejected attempts, ``trial_rejections`` those failed at a trial stage,
    ``endgame_steps``/``endgame_fallbacks`` endgame iterations kept and
    discarded, ``rhs_eval_count`` evaluations at distinct flow points (one
    ``evaluate`` each), ``jacobian_count`` flow linearizations (one per
    stiff base point or endgame iteration's base point).
    Builtin and parsed problems have a curvature oracle; for a hand-built
    problem without one, each linearization also calls its derivative
    oracle n times, which ``rhs_eval_count`` does not include.
    """

    samples: list = field(default_factory=list)
    verdict: str = "continue"
    step_count: int = 0
    rhs_eval_count: int = 0
    error: Exception | None = None
    rejected_count: int = 0
    jacobian_count: int = 0
    trial_rejections: int = 0
    endgame_steps: int = 0
    endgame_fallbacks: int = 0

    @property
    def final(self):
        return self.samples[-1]


def solve(problem, theta0, gains, integrator=None, pts_groups=None):
    """Integrate the flow from theta0 until convergence or the horizon.

    ``pts_groups`` lists inequality index groups in priority order; the rows
    in none of them form a last group (all rows when None).  A snapshot is
    recorded at theta0 and at every accepted step.

    ``flow`` computes the flow at an evaluated point: classify the activated
    rows, settle the working set warm-started from the last snapshot, and
    recover the multipliers, with the last settlement as the prior whose
    Gram solve bitwise-unchanged rows reuse.  The stepper's stages evaluate
    their point and call it; a snapshot calls it on the point the step
    accepted, after advancing the schedule.  Its settled direction is also
    ``f0``, the first stage there: resolving from the settled set at the
    same point and schedule returns that set at once.  The point itself is
    the last one evaluated when the step's final stage lies on it bitwise
    (Dormand-Prince), and ``flow`` returns that stage's result for the same
    point, schedule and warm start, so each accepted point is evaluated and
    settled once (again if the schedule advanced there) and each run of
    unchanged rows factored once.  The linearization at a base point is
    ``dynamics.linearize`` of the snapshot's settled flow and curvature,
    made once even when an endgame iteration from there falls back; a system
    with no band is factored by ``lu_factor`` in the stepper and by
    ``np.linalg.solve`` in the endgame (so rk45 example1 loads no scipy).

    Endgame (never under ``fixed_horizon``): the one ``integrate_ode``
    run's callback snapshots each accepted step and hands over to
    pseudo-transient continuation, whatever the priority schedule, which
    takes the steps delta = (I/h - J)^-1 F on the last snapshot's flow F and
    its linearization, h growing from the accepted step's by
    max(_ENDGAME_GROWTH, |F| / |F_new|) per step (Newton's method on F = 0
    in the limit).  theta + delta is a snapshot, at the endgame's first tau,
    if delta . F > 0 and |F_new| < |F|, whatever working set it settles;
    else, or if the solve or trial point fails, the integration goes on from
    the last snapshot at its t and h (an oracle error at the linearization
    is fatal).  A snapshot that enables a priority group settles its flow
    afresh under the advanced schedule, and the next h is the endgame's
    first again.  Both share ``_MAX_STEPS`` attempts (``OdeResult.attempts``).

    Raises InvalidInputError when theta0 is not a finite vector of n numbers,
    the gain shapes do not fit the problem, or the priority groups are not
    disjoint sequences of rows in [0, r).
    """
    try:
        theta0 = np.asarray(theta0, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"theta0 is not a vector of numbers: {exc}") from None
    if theta0.shape != (problem.n,) or not np.isfinite(theta0).all():
        raise InvalidInputError(
            f"theta0 must be a finite vector of {problem.n} numbers, "
            f"got {np.array2string(theta0, threshold=8)}")
    _check_gains(gains, problem)
    config = IntegratorConfig() if integrator is None else integrator
    pts = dynamics.PtsState.covering(problem.r, () if pts_groups is None else pts_groups)

    traj = Trajectory()
    ode = OdeResult()
    warm = ()
    base = lin = None   # the last snapshot's point and settled flow, and their linearization
    last = None   # the last point evaluated
    last_flow = (None,)   # the last settlement, after the point, schedule and warm start it used

    def evaluate_at(theta):
        nonlocal last
        if last is None or not (theta == last.theta).all():
            traj.rhs_eval_count += 1
            last = evaluate(problem, theta)
        return last

    def flow(point):
        nonlocal last_flow
        if not all(a is b for a, b in zip(last_flow, (point, pts, warm))):
            res = dynamics.resolve_working_set(point, gains, dynamics.classify(point, pts, warm),
                                               last_flow[-1])
            last_flow = (point, pts, warm, res)
        return last_flow[-1]

    def rhs(theta):
        if (theta == base[0].theta).all():
            return base[1].dtheta
        return flow(evaluate_at(theta)).dtheta

    def linearization():
        nonlocal lin
        if lin is None:
            point, res = base
            traj.jacobian_count += 1
            lin = dynamics.linearize(gains, res, curvature_at(problem, point, res.pi_e,
                                                              res.pi_i, res.dtheta))
        return lin

    def snapshot(tau, point):
        """Record the accepted point; True once the verdict is final."""
        nonlocal pts, warm, base, lin
        pts = dynamics.pts_update(pts, point)
        res = flow(point)
        warm = res.working_set.working
        base, lin = (point, res), None
        report = monitor.kkt_report(point, res)
        traj.samples.append(FlowState(
            tau=tau, theta=point.theta, pi_e=res.pi_e, pi_i=res.pi_i,
            working=warm, report=report,
            lyapunov=monitor.lyapunov_value(point, res.working_set.activated),
            objective=point.f))
        if monitor.converged(report) and not config.fixed_horizon:
            traj.verdict = "converged"
        return traj.verdict != "continue"

    def endgame():
        """Iterate from the last snapshot; True once the verdict is final."""
        h0 = h = traj.final.tau - traj.samples[-2].tau
        tau = traj.final.tau
        while ode.attempts < _MAX_STEPS:
            ode.attempts += 1
            point, res = base
            f_norm, new_norm = float(np.linalg.norm(res.dtheta)), math.inf
            factor = linearization()   # outside the try: an oracle error here is fatal
            try:
                delta = factor(1 / h, lambda lhs: partial(np.linalg.solve, lhs))(res.dtheta)
                if delta @ res.dtheta > 0:   # else I/h - J is indefinite: no stable equilibrium
                    new = evaluate_at(point.theta + delta)
                    new_norm = float(np.linalg.norm(flow(new).dtheta))
            except (NlpflowError, np.linalg.LinAlgError):
                pass
            if new_norm >= f_norm:
                traj.endgame_fallbacks += 1
                ode.y = traj.final.theta   # the integration goes on from there
                return False
            traj.endgame_steps += 1
            enabled = pts.enabled
            if snapshot(tau, new):   # settles afresh if a group joined there
                return True
            # a joining group changes the flow: restart h at the entry's
            h = h0 if pts.enabled > enabled else h * max(
                _ENDGAME_GROWTH, f_norm / new_norm if new_norm else math.inf)
        return False

    try:
        if not snapshot(0.0, evaluate_at(theta0)):
            integrate_ode(rhs, traj.final.theta, config, result=ode,
                          linearize=lambda theta: partial(linearization(), dense=lu_factor),
                          callback=lambda tau, theta: (snapshot(tau, evaluate_at(theta)) or (
                              not config.fixed_horizon and endgame())))
            if traj.verdict == "continue":
                traj.verdict = "horizon-reached" if ode.t >= config.t_end else "error:max-steps"
    except NlpflowError as exc:
        traj.verdict = f"error:{type(exc).__name__}"
        traj.error = exc
    traj.step_count = ode.accepted + traj.endgame_steps
    traj.rejected_count = ode.rejected
    traj.trial_rejections = ode.trial_rejections
    return traj


def _check_gains(gains, problem):
    """InvalidInputError unless k_theta is n x n, k_h s x s, k_g of length r."""
    n, r, s = problem.n, problem.r, problem.s
    for name, want in (("k_theta", (n, n)), ("k_h", (s, s)), ("k_g", (r,))):
        value = getattr(gains, name)
        # any empty gain fits an empty shape, as GainSet accepts
        if value.shape != want and not (value.size == 0 and 0 in want):
            raise InvalidInputError(
                f"{name} has shape {value.shape}; {problem.name} needs {want}")
