"""Problem model: objective, constraint vectors, derivative oracle, builtins.

A problem is the standard form

    minimize f(theta)   subject to   g(theta) <= 0,  h(theta) = 0,

with theta in R^n, g vector-valued of length r, h of length s.  Derivatives
are supplied analytically (builtins) or by dual-number propagation (parsed
problems); central finite differences act only as a registration-time
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, InvalidInputError, UnknownProblemError


@dataclass(frozen=True)
class NlpProblem:
    """Immutable NLP instance in standard form.

    ``derivatives(theta)`` returns ``(f_grad, g_jac, h_jac)`` with shapes
    (n,), (r, n), (s, n).  ``known_optimum`` is test-harness metadata; the
    solver never reads it.
    """

    name: str
    n: int
    r: int
    s: int
    objective: callable
    inequalities: callable
    equalities: callable
    derivatives: callable
    known_optimum: np.ndarray | None = None
    notes: str = ""

    def __post_init__(self):
        if self.n < 1 or self.r < 0 or self.s < 0:
            raise InvalidInputError(f"bad dimensions n={self.n} r={self.r} s={self.s}")


@dataclass(frozen=True)
class EvalPoint:
    """All function and derivative values at a single point."""

    theta: np.ndarray
    f: float
    f_grad: np.ndarray
    g: np.ndarray
    g_jac: np.ndarray
    h: np.ndarray
    h_jac: np.ndarray


def _require_finite(value, component):
    if not np.all(np.isfinite(value)):
        bad = component
        if np.ndim(value) >= 1:
            idx = np.argwhere(~np.isfinite(np.atleast_1d(value)))
            bad = (component, int(idx[0][0]))
        raise EvaluationError(f"non-finite value in {bad}", component=bad)


def evaluate(problem, theta):
    """Evaluate objective, constraints, and derivatives in one pass."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (problem.n,):
        raise InvalidInputError(
            f"theta must have shape ({problem.n},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise InvalidInputError("theta contains non-finite entries")

    f = float(problem.objective(theta))
    _require_finite(f, "objective")
    g = np.asarray(problem.inequalities(theta), dtype=float).reshape(problem.r)
    _require_finite(g, "ineq")
    h = np.asarray(problem.equalities(theta), dtype=float).reshape(problem.s)
    _require_finite(h, "eq")
    f_grad, g_jac, h_jac = problem.derivatives(theta)
    f_grad = np.asarray(f_grad, dtype=float).reshape(problem.n)
    g_jac = np.asarray(g_jac, dtype=float).reshape(problem.r, problem.n)
    h_jac = np.asarray(h_jac, dtype=float).reshape(problem.s, problem.n)
    _require_finite(f_grad, "objective gradient")
    _require_finite(g_jac, "ineq jacobian")
    _require_finite(h_jac, "eq jacobian")
    return EvalPoint(theta=theta.copy(), f=f, f_grad=f_grad,
                     g=g, g_jac=g_jac, h=h, h_jac=h_jac)


# --- derivative cross-check ------------------------------------------------

def check_derivatives(problem, points=3, rtol=1e-5, rng=None):
    """Compare analytic derivatives against central finite differences.

    Raises EvaluationError when the relative mismatch exceeds ``rtol`` at any
    of ``points`` random test points.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(points):
        theta = rng.uniform(0.5, 1.5, size=problem.n)
        fd_grad, fd_gjac, fd_hjac = finite_difference_derivatives(problem, theta)
        f_grad, g_jac, h_jac = problem.derivatives(theta)
        for got, ref, label in ((f_grad, fd_grad, "objective gradient"),
                                (g_jac, fd_gjac, "ineq jacobian"),
                                (h_jac, fd_hjac, "eq jacobian")):
            got = np.asarray(got, dtype=float)
            if got.size == 0:
                continue
            scale = max(1.0, np.abs(ref).max())
            if np.abs(got - ref).max() > rtol * scale:
                raise EvaluationError(
                    f"{problem.name}: analytic {label} disagrees with finite "
                    f"differences by {np.abs(got - ref).max():.3e}",
                    component=label)


def finite_difference_derivatives(problem, theta, step_scale=1e-6):
    """Central finite differences of f, g, h; the independent oracle."""
    theta = np.asarray(theta, dtype=float)
    n = problem.n
    f_grad = np.zeros(n)
    g_jac = np.zeros((problem.r, n))
    h_jac = np.zeros((problem.s, n))
    for j in range(n):
        hj = step_scale * max(1.0, abs(theta[j]))
        tp = theta.copy(); tp[j] += hj
        tm = theta.copy(); tm[j] -= hj
        f_grad[j] = (problem.objective(tp) - problem.objective(tm)) / (2 * hj)
        if problem.r:
            g_jac[:, j] = (np.asarray(problem.inequalities(tp), dtype=float)
                           - np.asarray(problem.inequalities(tm), dtype=float)) / (2 * hj)
        if problem.s:
            h_jac[:, j] = (np.asarray(problem.equalities(tp), dtype=float)
                           - np.asarray(problem.equalities(tm), dtype=float)) / (2 * hj)
    return f_grad, g_jac, h_jac


# --- builtin registry ------------------------------------------------------

def _product_triple():
    """3-variable product objective with a redundant equality row.

    Optimum [2, 0.5, 0.5]; the second equality duplicates the first scaled
    by two, deliberately making the equality Jacobian rank deficient.
    """

    def objective(t):
        return -t[0] * t[1] - t[1] * t[2] - t[2] * t[0]

    def inequalities(t):
        return np.array([
            -t[0],
            -t[1],
            -t[2],
            0.5 * (t[0] - 3.0) ** 2 + t[1] ** 2 + t[2] ** 2 - 1.0,
            t[0] / (0.5 + t[1] ** 2) + 2.0 * t[2] - 4.0,
        ])

    def equalities(t):
        return np.array([
            t[0] + t[1] + t[2] - 3.0,
            2.0 * t[0] + 2.0 * t[1] + 2.0 * t[2] - 6.0,
        ])

    def derivatives(t):
        den = 0.5 + t[1] ** 2
        f_grad = np.array([-t[1] - t[2], -t[0] - t[2], -t[1] - t[0]])
        g_jac = np.array([
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
            [t[0] - 3.0, 2.0 * t[1], 2.0 * t[2]],
            [1.0 / den, -2.0 * t[0] * t[1] / den ** 2, 2.0],
        ])
        h_jac = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        return f_grad, g_jac, h_jac

    return NlpProblem(
        name="example1", n=3, r=5, s=2,
        objective=objective, inequalities=inequalities,
        equalities=equalities, derivatives=derivatives,
        known_optimum=np.array([2.0, 0.5, 0.5]),
        notes="pairwise-product objective, rank-deficient equalities")


def _sine_chain(k):
    """Chained-sine objective over k equal variables (default 100).

    Objective:  sin(t1 - 1 + 1.5*pi) + sum_{i=2..k} 100*sin(-t_i + 1.5*pi
    + t_{i-1}^2).  The printed source is ambiguous about whether the
    quadratic term indexes the previous or the next variable and whether the
    100 is a coefficient; we use the previous variable (the next-variable
    reading leaves the last summand undefined and the constraint rows follow
    the same t_{i-1}^2 - t_i pattern) and keep the 100 as a coefficient
    (it produces the multiple-time-scale structure the problem is known
    for).  Either reading leaves the all-ones point a KKT point, since
    every cos factor vanishes there.

    Constraints: 0.5 <= t1 <= 1.5, -pi <= t_{i-1}^2 - t_i <= pi, and the
    chain equalities t_i - t_{i+1} = 0.  Two-sided bounds are expanded into
    2k standard-form rows:
      row 0: t1 - 1.5 <= 0, row 1: 0.5 - t1 <= 0,
      rows 2(i-1), 2(i-1)+1 for i = 2..k: upper then lower expansion of the
      quadratic band.
    """
    if k < 2:
        raise InvalidInputError("sine chain needs at least 2 variables")
    c = 1.5 * math.pi

    def _angles(t):
        return -t[1:] + c + t[:-1] ** 2

    def objective(t):
        return math.sin(t[0] - 1.0 + c) + 100.0 * np.sum(np.sin(_angles(t)))

    def inequalities(t):
        band = t[:-1] ** 2 - t[1:]
        g = np.empty(2 * k)
        g[0] = t[0] - 1.5
        g[1] = 0.5 - t[0]
        g[2::2] = band - math.pi
        g[3::2] = -math.pi - band
        return g

    def equalities(t):
        return t[:-1] - t[1:]

    def derivatives(t):
        cosv = np.cos(_angles(t))           # entry j corresponds to i = j + 2
        f_grad = np.zeros(k)
        f_grad[0] = math.cos(t[0] - 1.0 + c)
        f_grad[:-1] += 100.0 * cosv * 2.0 * t[:-1]
        f_grad[1:] += -100.0 * cosv

        g_jac = np.zeros((2 * k, k))
        g_jac[0, 0] = 1.0
        g_jac[1, 0] = -1.0
        idx = np.arange(k - 1)
        g_jac[2 + 2 * idx, idx] = 2.0 * t[:-1]
        g_jac[2 + 2 * idx, idx + 1] = -1.0
        g_jac[3 + 2 * idx, idx] = -2.0 * t[:-1]
        g_jac[3 + 2 * idx, idx + 1] = 1.0

        h_jac = np.zeros((k - 1, k))
        h_jac[idx, idx] = 1.0
        h_jac[idx, idx + 1] = -1.0
        return f_grad, g_jac, h_jac

    return NlpProblem(
        name="example2", n=k, r=2 * k, s=k - 1,
        objective=objective, inequalities=inequalities,
        equalities=equalities, derivatives=derivatives,
        known_optimum=np.ones(k),
        notes="chained sines with two-sided bounds rearranged to g <= 0")


def _ec_quadratic():
    """min 0.5*||t||^2 subject to t1 + t2 = 2; optimum [1, 1], multiplier -1."""

    def derivatives(t):
        return t.copy(), np.zeros((0, 2)), np.array([[1.0, 1.0]])

    return NlpProblem(
        name="ec-quadratic", n=2, r=0, s=1,
        objective=lambda t: 0.5 * float(t @ t),
        inequalities=lambda t: np.zeros(0),
        equalities=lambda t: np.array([t[0] + t[1] - 2.0]),
        derivatives=derivatives,
        known_optimum=np.array([1.0, 1.0]))


def _unconstrained_quadratic(k):
    def derivatives(t):
        return t.copy(), np.zeros((0, k)), np.zeros((0, k))

    return NlpProblem(
        name="unconstrained-quadratic", n=k, r=0, s=0,
        objective=lambda t: 0.5 * float(t @ t),
        inequalities=lambda t: np.zeros(0),
        equalities=lambda t: np.zeros(0),
        derivatives=derivatives,
        known_optimum=np.zeros(k))


_REGISTRY = {
    "example1": (_product_triple, False),
    "example2": (_sine_chain, True),
    "ec-quadratic": (_ec_quadratic, False),
    "unconstrained-quadratic": (_unconstrained_quadratic, True),
}

_DEFAULT_SIZE = {"example2": 100, "unconstrained-quadratic": 2}


def builtin_names():
    return sorted(_REGISTRY)


def builtin(name, size=None, validate=True):
    """Construct a registered problem by name.

    ``size`` applies only to the sized problems (example2 and the
    unconstrained toy); registration cross-checks analytic derivatives
    against finite differences unless ``validate`` is False.
    """
    try:
        factory, sized = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(builtin_names())}")
    if sized:
        problem = factory(_DEFAULT_SIZE[name] if size is None else int(size))
    else:
        if size is not None:
            raise InvalidInputError(f"problem {name!r} does not take a size")
        problem = factory()
    if validate:
        check_derivatives(problem)
    return problem
