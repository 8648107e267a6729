"""End-to-end acceptance checks for the solver.

Each test prints a single [PASS]/[FAIL] line naming the criterion it covers,
then asserts.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines inline.
"""

import math
import time

import numpy as np
import pytest

from nlpflow import GainSet, IntegratorConfig, builtin, integrate_ode, solve
from nlpflow.dynamics import WorkingSet, classify, resolve_working_set, rhs_general
from nlpflow.errors import NumericFailureError
from nlpflow.linalg import pinv_gram
from nlpflow.problems import check_derivatives, evaluate

from test_linalg import gram_pinv

OPT1 = np.array([2.0, 0.5, 0.5])
HARD_START_1 = np.array([-4.8578, 3.8180, -2.7364])
PTS_GROUPS_1 = [(0, 1, 2), (3, 4)]
SEED = 20260823


def report(name, checks):
    """Print one pass/fail line, then fail the test on the first bad check."""
    bad = [msg for ok, msg in checks if not ok]
    verdict = "FAIL" if bad else "PASS"
    detail = f"  ({'; '.join(bad)})" if bad else ""
    print(f"[{verdict}] {name}{detail}")
    assert not bad, f"{name}: {'; '.join(bad)}"


def run_example1(theta0, t_end=300.0):
    problem = builtin("example1")
    gains = GainSet.uniform(3, 2, 5, k_theta=0.1, k_h=0.1, k_g=0.1)
    cfg = IntegratorConfig(method="rk45", rel_tol=1e-3, abs_tol=1e-6,
                           t_end=t_end, fixed_horizon=True)
    return solve(problem, theta0, gains, integrator=cfg, pts_groups=PTS_GROUPS_1)


def run_example2(theta0, t_end=100.0):
    problem = builtin("example2", size=100)
    gains = GainSet.uniform(100, 99, 200, k_theta=0.1, k_h=1.0, k_g=1.0)
    cfg = IntegratorConfig(method="stiff", rel_tol=1e-3, abs_tol=1e-6,
                           t_end=t_end, fixed_horizon=True)
    return solve(problem, theta0, gains, integrator=cfg)


@pytest.fixture(scope="module")
def hard_start_trajectory():
    return run_example1(HARD_START_1)


def test_criterion_1_product_triple_multistart():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    errors = []
    for _ in range(10):
        traj = run_example1(rng.uniform(-10.0, 10.0, size=3))
        errors.append(float(np.linalg.norm(traj.final.theta - OPT1)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: 10 random starts reach [2, 0.5, 0.5] within 1e-6 in <5 s",
        [(max(errors) <= 1e-6, f"max error {max(errors):.3e}"),
         (elapsed < 5.0, f"elapsed {elapsed:.2f}s")])


def test_criterion_2_product_triple_multipliers(hard_start_trajectory):
    traj = hard_start_trajectory
    final = traj.final
    worst_unused = max(abs(s.pi_i[4]) for s in traj.samples)
    report(
        "criterion 2: final multipliers (0.35, 0.70, 0.75) and a dormant last row",
        [(abs(final.pi_e[0] - 0.35) <= 0.01, f"pi_e[0] {final.pi_e[0]:.4f}"),
         (abs(final.pi_e[1] - 0.70) <= 0.01, f"pi_e[1] {final.pi_e[1]:.4f}"),
         (abs(final.pi_i[3] - 0.75) <= 0.01, f"pi_i[3] {final.pi_i[3]:.4f}"),
         (abs(final.pi_i[4]) <= 1e-3, f"pi_i[4] {final.pi_i[4]:.2e}"),
         (worst_unused <= 1e-6, f"max |pi_i[4]| along flow {worst_unused:.2e}")])


def test_criterion_3_sine_chain_multistart():
    rng = np.random.default_rng(SEED)
    ones = np.ones(100)
    errors, times, bound_mults = [], [], []
    for _ in range(10):
        theta0 = rng.uniform(0.7, 1.2, size=100)
        theta0[0] = 2.0
        start = time.perf_counter()
        traj = run_example2(theta0)
        times.append(time.perf_counter() - start)
        errors.append(float(np.linalg.norm(traj.final.theta - ones)))
        bound_mults.append(max(abs(s.pi_i[0]) for s in traj.samples))
    report(
        "criterion 3: 10 stiff runs on the 100-variable chain reach all-ones",
        [(max(errors) <= 1e-3, f"max error {max(errors):.3e}"),
         (max(times) < 60.0, f"slowest run {max(times):.1f}s"),
         (max(bound_mults) <= 1e-6,
          f"max upper-bound multiplier {max(bound_mults):.2e}")])


def test_criterion_4_sine_chain_plateau():
    theta0 = 2.0 - 3.0 * np.arange(100) / 99.0
    traj = run_example2(theta0)
    medians = np.array([float(np.median(s.theta)) for s in traj.samples])
    plateau = bool(np.any((medians >= 0.4) & (medians <= 0.6)))
    final_median = medians[-1]
    report(
        "criterion 4: ramp start pauses near 0.5 before settling at 1",
        [(plateau, f"median range [{medians.min():.3f}, {medians.max():.3f}]"),
         (0.99 <= final_median <= 1.01, f"final median {final_median:.4f}")])


def test_criterion_5a_pseudo_inverse_properties():
    rng = np.random.default_rng(SEED)
    worst_penrose = worst_factor = worst_proj = 0.0
    worst_consistent = 0.0
    for _ in range(200):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if rng.random() < 0.5:
            k = int(rng.integers(1, max(2, min(m, n))))
            a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        else:
            a = rng.standard_normal((m, n))
        p = gram_pinv(a)
        worst_penrose = max(
            worst_penrose,
            np.abs(a @ p @ a - a).max() / max(1.0, np.abs(a).max()),
            np.abs(p @ a @ p - p).max() / max(1.0, np.abs(p).max()),
            np.abs(a @ p - (a @ p).T).max(),
            np.abs(p @ a - (p @ a).T).max())
        worst_factor = max(worst_factor,
                           np.abs(p - np.linalg.pinv(a)).max(),
                           np.abs(p - pinv_gram(a.T, np.ones(m), a.T)[0]).max())
        for proj in (a @ p, p @ a):
            worst_proj = max(worst_proj,
                             np.abs(proj @ proj - proj).max(),
                             np.abs(proj - proj.T).max())
        b = a @ rng.standard_normal(n)
        s = rng.standard_normal((m, m)) + 3 * np.eye(m)
        worst_consistent = max(worst_consistent,
                               np.abs(p @ b - gram_pinv(s @ a) @ (s @ b)).max())
    report(
        "criterion 5a: pseudo-inverse identities on 200 random matrices",
        [(worst_penrose <= 1e-8, f"Penrose {worst_penrose:.2e}"),
         (worst_factor <= 1e-8, f"Gram factoring {worst_factor:.2e}"),
         (worst_proj <= 1e-8, f"projector {worst_proj:.2e}"),
         (worst_consistent <= 1e-6, f"row-transform {worst_consistent:.2e}")])


def test_criterion_5b_redundant_equality_invariance():
    from test_dynamics import TestRedundantRows, make_point

    rng = np.random.default_rng(SEED)
    problem = builtin("example1")
    worst = 0.0
    for scale in (1.0, 2.0, -0.5):
        for _ in range(10):
            point = evaluate(problem, rng.uniform(-3, 3, size=3))
            gains = GainSet.uniform(3, point.h.size, 5)
            base = resolve_working_set(point, gains, classify(point))
            ext = TestRedundantRows.with_extra_equality_row(point, scale)
            more = resolve_working_set(ext, GainSet.uniform(3, ext.h.size, 5),
                                       classify(ext))
            worst = max(worst, float(np.abs(base.dtheta - more.dtheta).max()))
        for _ in range(10):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(1, n))
            point = make_point(rng.standard_normal(n), rng.standard_normal(n),
                               h=rng.standard_normal(s),
                               h_jac=rng.standard_normal((s, n)))
            gains = GainSet.uniform(n, s, 0)
            base = rhs_general(point, gains, WorkingSet((), ()))
            ext = TestRedundantRows.with_extra_equality_row(point, scale)
            more = rhs_general(ext, GainSet.uniform(n, s + 1, 0),
                               WorkingSet((), ()))
            worst = max(worst, float(np.abs(base.dtheta - more.dtheta).max()))
    report(
        "criterion 5b: duplicated or rescaled equality rows leave the flow unchanged",
        [(worst <= 1e-8, f"worst direction change {worst:.2e}")])


def test_criterion_5c_monotone_merit_norms():
    slack = 10 * 1e-6
    checks = []

    def feasible_objective_monotone(name, problem, theta0, gains, cfg, **kw):
        traj = solve(problem, theta0, gains, integrator=cfg, **kw)
        values = [s.objective for s in traj.samples]
        ok = all(b <= a + slack for a, b in zip(values, values[1:]))
        checks.append((ok, f"{name}: objective increased on a feasible flow"))

    def infeasible_h_monotone(name, problem, theta0, gains, cfg, **kw):
        traj = solve(problem, theta0, gains, integrator=cfg, **kw)
        values = [s.report.ec_violation for s in traj.samples]
        ok = all(b <= a + slack for a, b in zip(values, values[1:]))
        checks.append((ok, f"{name}: ||h|| increased on an infeasible flow"))

    p1 = builtin("example1")
    g1 = GainSet.uniform(3, 2, 5, k_theta=0.1, k_h=0.1, k_g=0.1)
    cfg1 = IntegratorConfig(t_end=300.0, fixed_horizon=True)
    # the flow rides an inequality boundary; integrate it accurately so the
    # boundary-crossing overshoot stays far below the monotonicity slack
    cfg1_tight = IntegratorConfig(t_end=300.0, fixed_horizon=True, rel_tol=1e-8)
    feasible_objective_monotone("example1", p1, np.array([2.1, 0.5, 0.4]),
                                g1, cfg1_tight, pts_groups=PTS_GROUPS_1)
    infeasible_h_monotone("example1", p1, HARD_START_1, g1, cfg1,
                          pts_groups=PTS_GROUPS_1)

    k = 20
    p2 = builtin("example2", size=k)
    g2 = GainSet.uniform(k, k - 1, 2 * k, k_theta=0.1, k_h=1.0, k_g=1.0)
    cfg2 = IntegratorConfig(method="stiff", t_end=100.0, fixed_horizon=True)
    feasible_objective_monotone("example2", p2, np.full(k, 0.9), g2, cfg2)
    ramp = np.full(k, 1.0)
    ramp[0] = 2.0
    infeasible_h_monotone("example2", p2, ramp, g2, cfg2)

    pq = builtin("ec-quadratic")
    gq = GainSet.uniform(2, 1, 0, k_theta=1.0, k_h=1.0)
    cfgq = IntegratorConfig(t_end=30.0, fixed_horizon=True)
    feasible_objective_monotone("ec-quadratic", pq, np.array([1.5, 0.5]), gq, cfgq)
    infeasible_h_monotone("ec-quadratic", pq, np.array([0.0, 0.0]), gq, cfgq)

    pu = builtin("unconstrained-quadratic", size=3)
    gu = GainSet.uniform(3, 0, 0, k_theta=1.0)
    feasible_objective_monotone("unconstrained", pu, np.array([1.0, -2.0, 0.5]),
                                gu, IntegratorConfig(t_end=20.0, fixed_horizon=True))

    report("criterion 5c: merit values decay monotonically across accepted steps",
           checks)


def test_criterion_5d_working_set_oracle():
    from test_dynamics import brute_force_directions, make_point

    rng = np.random.default_rng(SEED)
    mismatches, disagreements = 0, 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        s = int(rng.integers(0, 2))
        theta = rng.uniform(-1, 1, size=n)
        b_mat = rng.standard_normal((r, n))
        d = rng.standard_normal((s, n))
        point = make_point(theta, theta - rng.uniform(-1, 1, size=n),
                           g=b_mat @ theta - rng.uniform(-0.5, 0.5, size=r),
                           g_jac=b_mat,
                           h=d @ theta - rng.uniform(-0.5, 0.5, size=s) if s else (),
                           h_jac=d)
        gains = GainSet.uniform(n, s, r, k_theta=1.0, k_h=1.0, k_g=1.0)
        candidate = classify(point)
        oracle = brute_force_directions(point, gains, candidate)
        try:
            res = resolve_working_set(point, gains, candidate)
        except NumericFailureError:
            disagreements += bool(oracle)
            continue
        if not oracle:
            disagreements += 1
        elif min(np.abs(res.dtheta - d0).max() for _, d0 in oracle) > 1e-6:
            mismatches += 1
    report(
        "criterion 5d: active-set loop matches exhaustive enumeration on 100 instances",
        [(mismatches == 0, f"{mismatches} direction mismatches"),
         (disagreements == 0, f"{disagreements} solvability disagreements")])


def test_criterion_5e_equilibrium_iff_kkt():
    import nlpflow.monitor as monitor

    checks = []
    for name, size in (("example1", None), ("example2", 30),
                       ("ec-quadratic", None), ("unconstrained-quadratic", 4)):
        problem = builtin(name, size=size)
        point = evaluate(problem, problem.known_optimum)
        gains = GainSet.uniform(problem.n, problem.s, problem.r)
        res = resolve_working_set(point, gains, classify(point))
        rhs_norm = float(np.linalg.norm(res.dtheta))
        rep = monitor.kkt_report(point, res)
        checks.append((rhs_norm <= 1e-10, f"{name}: RHS norm {rhs_norm:.2e}"))
        checks.append((rep.max_residual() <= 1e-6,
                       f"{name}: residual {rep.max_residual():.2e}"))
    report("criterion 5e: known optima are equilibria with clean first-order reports",
           checks)


def test_criterion_5f_derivative_validation():
    checks = []
    for name, size in (("example1", None), ("example2", 25),
                       ("ec-quadratic", None), ("unconstrained-quadratic", 4)):
        problem = builtin(name, size=size)
        try:
            check_derivatives(problem, points=20, rtol=1e-5)
            checks.append((True, name))
        except Exception as exc:   # noqa: BLE001 - reported via the check line
            checks.append((False, f"{name}: {exc}"))
    report("criterion 5f: analytic derivatives match finite differences everywhere",
           checks)


def test_criterion_6_stepper_verification():
    target = math.exp(-1.0)
    errs = {}
    for method in ("rk45", "stiff"):
        cfg = IntegratorConfig(method=method, t_end=1.0)
        res = integrate_ode(lambda y: -y, np.array([1.0]), cfg)
        errs[method] = abs(res.y[0] - target)
    stiff_cfg = IntegratorConfig(method="stiff", t_end=1.0)
    stiff_res = integrate_ode(lambda y: -1000.0 * y, np.array([1.0]), stiff_cfg)
    report(
        "criterion 6: both steppers hit 1/e to 1e-6; stiff decay needs <500 steps",
        [(errs["rk45"] <= 1e-6, f"explicit error {errs['rk45']:.2e}"),
         (errs["stiff"] <= 1e-6, f"stiff error {errs['stiff']:.2e}"),
         (stiff_res.accepted < 500, f"{stiff_res.accepted} accepted steps")])
