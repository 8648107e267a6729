import math

import numpy as np

from nlpflow import GainSet, builtin
from nlpflow.dynamics import WorkingSet, classify, resolve_working_set, rhs_general
from nlpflow.monitor import KktReport, converged, kkt_report, lyapunov_value
from nlpflow.problems import evaluate

OPT1 = np.array([2.0, 0.5, 0.5])


def zero_report(**overrides):
    fields = dict(stationarity=0.0, ec_violation=0.0, iec_violation=0.0,
                  complementarity=0.0, sign_violation=0.0)
    fields.update(overrides)
    return KktReport(**fields)


def test_max_residual():
    assert zero_report(ec_violation=0.3, stationarity=0.1).max_residual() == 0.3
    assert zero_report().max_residual() == 0.0


def test_converged_thresholds():
    assert converged(zero_report())
    assert converged(zero_report(stationarity=1e-6, ec_violation=1e-8, iec_violation=1e-8,
                                 complementarity=1e-8, sign_violation=1e-9))
    for name, value in (("stationarity", 2e-6), ("ec_violation", 2e-8),
                        ("iec_violation", 2e-8), ("complementarity", 2e-8),
                        ("sign_violation", 2e-9), ("stationarity", math.nan)):
        assert not converged(zero_report(**{name: value}))


def test_report_at_example1_optimum():
    point = evaluate(builtin("example1"), OPT1)
    gains = GainSet.uniform(3, 2, 5)
    res = resolve_working_set(point, gains, classify(point))
    report = kkt_report(point, res)
    assert report.max_residual() <= 1e-10
    assert converged(report)


def test_report_flags_infeasible_point():
    point = evaluate(builtin("ec-quadratic"), np.array([0.0, 0.0]))
    gains = GainSet.uniform(2, 1, 0, k_theta=1.0, k_h=1.0)
    res = rhs_general(point, gains, WorkingSet((), ()))
    report = kkt_report(point, res)
    assert np.isclose(report.ec_violation, 2.0)
    assert report.iec_violation == 0.0
    assert report.sign_violation == 0.0
    # stationarity of the Lagrangian with pi_e = -1: grad = theta - 1
    assert np.isclose(report.stationarity, np.sqrt(2.0))


def test_complementarity_covers_all_rows():
    point = evaluate(builtin("example1"), np.array([2.5, 0.3, 0.2]))
    gains = GainSet.uniform(3, 2, 5)
    res = resolve_working_set(point, gains, classify(point))
    report = kkt_report(point, res)
    expected = np.abs(res.pi_i * point.g).max()
    assert np.isclose(report.complementarity, expected)


def test_lyapunov_value():
    point = evaluate(builtin("ec-quadratic"), np.array([0.0, 0.0]))
    assert np.isclose(lyapunov_value(point, activated=()), 2.0)
    feasible = evaluate(builtin("ec-quadratic"), np.array([1.0, 1.0]))
    # with zero violations the value reduces to 1e-2 * objective exactly
    assert lyapunov_value(feasible, activated=()) == 1e-2 * feasible.f
