"""Independent correctness oracles for the benchmark's outputs.

Each problem the benchmark solves is written here a second time, in plain
numpy and apart from nlpflow, and the KKT residuals of every returned point
are recomputed from these definitions with fourth-order central differences.
Nothing here reads the solver's derivative oracle or its ``KktReport``.
"""

import math

import numpy as np

# The solver's stated accuracy: the default ToleranceSet, written out here so
# that a change of the defaults cannot relax the check.
TOLERANCES = {
    "stationarity": 1e-6,
    "ec_violation": 1e-8,
    "iec_violation": 1e-8,
    "complementarity": 1e-8,
    "sign_violation": 1e-9,
}

EX1_OPTIMUM = np.array([2.0, 0.5, 0.5])
# Multipliers the paper reports at the optimum: pi_e = (0.35, 0.70) and 0.75
# on the ellipsoid row g_4.
EX1_PAPER_MULTIPLIERS = np.array([0.35, 0.70, 0.75])
EX1_PAPER_ROW = 3


class Spec:
    """f, g, h of one problem as plain functions of theta."""

    def __init__(self, f, g, h):
        self.f, self.g, self.h = f, g, h


def example1():
    def f(t):
        return -t[0] * t[1] - t[1] * t[2] - t[2] * t[0]

    def g(t):
        return np.array([-t[0], -t[1], -t[2],
                         0.5 * (t[0] - 3.0) ** 2 + t[1] ** 2 + t[2] ** 2 - 1.0,
                         t[0] / (0.5 + t[1] ** 2) + 2.0 * t[2] - 4.0])

    def h(t):
        return np.array([t[0] + t[1] + t[2] - 3.0,
                         2.0 * t[0] + 2.0 * t[1] + 2.0 * t[2] - 6.0])

    return Spec(f, g, h)


CHAIN_SHIFT = 1.5 * math.pi


def chain():
    """The chained-sine problem at any size: the all-ones point is a KKT point
    because every cosine factor of the gradient vanishes there.

    Rows of g: theta_1 - 1.5, 0.5 - theta_1, then per link i = 2..n the upper
    and lower side of -pi <= theta_{i-1}^2 - theta_i <= pi.  h chains
    theta_i - theta_{i+1}.
    """

    def f(t):
        return (math.sin(t[0] - 1.0 + CHAIN_SHIFT)
                + 100.0 * float(np.sum(np.sin(-t[1:] + CHAIN_SHIFT + t[:-1] ** 2))))

    def g(t):
        band = t[:-1] ** 2 - t[1:]
        out = np.empty(2 * t.size)
        out[0] = t[0] - 1.5
        out[1] = 0.5 - t[0]
        out[2::2] = band - math.pi
        out[3::2] = -math.pi - band
        return out

    def h(t):
        return t[:-1] - t[1:]

    return Spec(f, g, h)


LOG_EDGE_SOLUTION = 0.05
LOG_EDGE_MULTIPLIER = 20.0


def log_edge():
    """min log(x1) s.t. 0.05 - x1 <= 0: x1 = 0.05, pi = 1 / 0.05 = 20."""
    return Spec(lambda t: math.log(t[0]),
                lambda t: np.array([0.05 - t[0]]),
                lambda t: np.zeros(0))


def _jacobian(fn, theta):
    """Fourth-order central differences; the step scales with |theta_j| so
    that points near zero (the log edge) stay inside the domain."""
    cols = []
    for j in range(theta.size):
        step = 1e-3 * max(abs(theta[j]), 1e-2)

        def at(k):
            t = theta.copy()
            t[j] += k * step
            return np.atleast_1d(np.asarray(fn(t), dtype=float))

        cols.append((-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * step))
    return np.column_stack(cols)


def derivatives(spec, theta):
    """(grad f, jac g, jac h) by central differences of the spec."""
    theta = np.asarray(theta, dtype=float)
    return (_jacobian(spec.f, theta)[0], _jacobian(spec.g, theta),
            _jacobian(spec.h, theta))


def kkt_failures(spec, theta, pi_e, pi_i):
    """Residuals at (theta, pi_e, pi_i) that exceed TOLERANCES, as text."""
    theta = np.asarray(theta, dtype=float)
    pi_e = np.asarray(pi_e, dtype=float)
    pi_i = np.asarray(pi_i, dtype=float)
    grad, jac_g, jac_h = derivatives(spec, theta)
    g = np.atleast_1d(spec.g(theta))
    h = np.atleast_1d(spec.h(theta))
    resid = {
        "stationarity": float(np.linalg.norm(grad + jac_h.T @ pi_e + jac_g.T @ pi_i)),
        "ec_violation": float(np.linalg.norm(h)),
        "iec_violation": float(np.linalg.norm(np.maximum(g, 0.0))),
        "complementarity": float(np.abs(pi_i * g).max()) if g.size else 0.0,
        "sign_violation": max(0.0, -float(pi_i.min())) if pi_i.size else 0.0,
    }
    return [f"{k} {v:.3e} > {TOLERANCES[k]:.0e}"
            for k, v in resid.items() if not v <= TOLERANCES[k]]


def min_norm_multipliers(spec, theta, active_tol=1e-6):
    """Minimum-norm least-squares multipliers of the equality rows and the
    active inequality rows, and the active row indices.

    ``rcond`` discards singular values below 1e-8 of the largest: the
    difference rows of example1's duplicated equality agree only to about
    1e-13, and must still count as one direction.
    """
    theta = np.asarray(theta, dtype=float)
    grad, jac_g, jac_h = derivatives(spec, theta)
    active = np.flatnonzero(np.abs(spec.g(theta)) <= active_tol)
    rows = np.vstack([jac_h, jac_g[active]])
    pi, *_ = np.linalg.lstsq(rows.T, -grad, rcond=1e-8)
    return pi, active
