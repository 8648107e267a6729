"""Convergence and health diagnostics for the flow."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def converged(report):
    """True when a snapshot counts as the KKT point: stationarity within
    1e-6, equality and inequality violation and complementarity within
    1e-8, and multiplier signs within 1e-9."""
    return (report.stationarity <= 1e-6
            and report.ec_violation <= 1e-8 and report.iec_violation <= 1e-8
            and report.complementarity <= 1e-8 and report.sign_violation <= 1e-9)


def kkt_report(point, rhs):
    """Residuals of stationarity, feasibility, complementarity, and signs."""
    grad_lag = point.f_grad + point.h_jac.T @ rhs.pi_e + point.g_jac.T @ rhs.pi_i
    return KktReport(
        stationarity=float(np.linalg.norm(grad_lag)),
        ec_violation=float(np.linalg.norm(point.h)),
        iec_violation=float(np.linalg.norm(np.maximum(point.g, 0.0))),
        complementarity=float(np.abs(rhs.pi_i * point.g).max(initial=0.0)),
        sign_violation=max(0.0, -float(rhs.pi_i[list(rhs.working_set.working)].min(initial=0.0))),
    )


def lyapunov_value(point, activated):
    """Diagnostic merit value: ||h|| + ||g(activated)|| + 0.01 * objective.

    Non-increasing along the flow for a small enough weight; recorded for
    health traces only, never used to steer the flow.
    """
    activated = list(activated)
    g_norm = float(np.linalg.norm(point.g[activated])) if activated else 0.0
    return float(np.linalg.norm(point.h)) + g_norm + 1e-2 * point.f

