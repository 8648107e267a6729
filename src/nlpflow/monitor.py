"""Convergence and health diagnostics for the flow."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class KktReport:
    """Scalar residuals of the first-order optimality system.

    stationarity    ||f' + h_jac^T pi_e + g_jac^T pi_i||_2
    ec_violation    ||h||_2
    iec_violation   ||max(g, 0)||_2
    complementarity max_i |pi_i[i] * g[i]|   (over all rows, to catch
                    misclassified working sets)
    sign_violation  max(0, -min working multiplier)
    """

    stationarity: float
    ec_violation: float
    iec_violation: float
    complementarity: float
    sign_violation: float

    def max_residual(self):
        return max(self.stationarity, self.ec_violation, self.iec_violation,
                   self.complementarity, self.sign_violation)


@dataclass(frozen=True)
class ToleranceSet:
    """Per-residual convergence tolerances."""

    stationarity: float = 1e-6
    ec_violation: float = 1e-8
    iec_violation: float = 1e-8
    complementarity: float = 1e-8
    sign_violation: float = 1e-9

    def satisfied_by(self, report):
        return (report.stationarity <= self.stationarity
                and report.ec_violation <= self.ec_violation
                and report.iec_violation <= self.iec_violation
                and report.complementarity <= self.complementarity
                and report.sign_violation <= self.sign_violation)


def kkt_report(point, rhs):
    """Residuals of stationarity, feasibility, complementarity, and signs."""
    grad_lag = point.f_grad.copy()
    if point.h.size:
        grad_lag = grad_lag + point.h_jac.T @ rhs.pi_e
    if point.g.size:
        grad_lag = grad_lag + point.g_jac.T @ rhs.pi_i
    working = rhs.working_set.working
    sign_violation = 0.0
    if working:
        sign_violation = max(0.0, -float(rhs.pi_i[list(working)].min()))
    comp = float(np.abs(rhs.pi_i * point.g).max()) if point.g.size else 0.0
    return KktReport(
        stationarity=float(np.linalg.norm(grad_lag)),
        ec_violation=float(np.linalg.norm(point.h)),
        iec_violation=float(np.linalg.norm(np.maximum(point.g, 0.0))),
        complementarity=comp,
        sign_violation=sign_violation,
    )


def lyapunov_value(point, activated, c1=1e-2):
    """Diagnostic merit value: ||h|| + ||g(activated)|| + c1 * objective.

    Non-increasing along the flow for small enough c1; recorded for health
    traces only, never used to steer the flow.
    """
    if c1 <= 0:
        raise InvalidInputError("c1 must be positive")
    activated = list(activated)
    g_norm = float(np.linalg.norm(point.g[activated])) if activated else 0.0
    return float(np.linalg.norm(point.h)) + g_norm + c1 * point.f

