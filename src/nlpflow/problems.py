"""Problem model: objective, constraint vectors, derivative oracle, builtins.

A problem is the standard form

    minimize f(theta)   subject to   g(theta) <= 0,  h(theta) = 0,

with theta in R^n, g vector-valued of length r, h of length s.  Derivatives,
and the second-order terms the stiff stepper's flow Jacobian needs (the
optional curvature oracle), are hand-written for the builtins and generated
at parse time for problem files; ``check_derivatives`` compares them with
central finite differences, in the tests and for hand-built problems.
Only a problem built without a curvature oracle gets them from forward
differences of the derivative oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidInputError, UnknownProblemError


@dataclass(frozen=True)
class NlpProblem:
    """Immutable NLP instance in standard form.

    ``derivatives(theta)`` returns ``(f_grad, g_jac, h_jac)`` with shapes
    (n,), (r, n), (s, n).  ``known_optimum`` is test-harness metadata; the
    solver never reads it, nor ``text``, the file text of a parsed problem.

    ``curvature(theta, pi_e, pi_i, v)``, optional, returns ``(W, G_v, H_v)``:
    W (n x n) is the Hessian of the Lagrangian
    grad^2 f + sum_j pi_e[j] grad^2 h_j + sum_i pi_i[i] grad^2 g_i, and row i
    of G_v (r x n) and row j of H_v (s x n) are grad^2 g_i v and
    grad^2 h_j v.  It is contracted with the multipliers and v so that no
    Hessian tensor is formed.  Without it, ``curvature_at`` differences the
    derivative oracle (n more calls per Jacobian).
    """

    name: str
    n: int
    r: int
    s: int
    objective: callable
    inequalities: callable
    equalities: callable
    derivatives: callable
    curvature: callable = None
    known_optimum: np.ndarray | None = None
    text: str | None = None

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


def _shaped(value, shape, component):
    """``value`` as a finite float array of ``shape``, else EvaluationError
    naming the component, and the first row of a non-finite entry; only unit
    axes, such as an (n, 1) gradient's, or an empty array are reshaped."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(f"{component} is not numeric: {exc}", component=component) from None
    if a.shape != shape:
        if a.squeeze().shape != tuple(k for k in shape if k != 1) and (a.size or math.prod(shape)):
            raise EvaluationError(f"{component} has shape {a.shape} ({a.size} entries), "
                                  f"expected shape {shape}", component=component)
        a = a.reshape(shape)
    finite = np.isfinite(a)
    if not finite.all():
        bad = component if a.ndim == 0 else (component, int(np.argwhere(~finite)[0][0]))
        raise EvaluationError(f"non-finite value in {bad}", component=bad)
    return a


def evaluate(problem, theta):
    """Evaluate objective, constraints, and derivatives in one pass."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (problem.n,):
        raise InvalidInputError(
            f"theta must have shape ({problem.n},), got {theta.shape}")
    if not np.isfinite(theta).all():
        raise InvalidInputError("theta contains non-finite entries")

    f, g, h = _values(problem, theta)
    f_grad, g_jac, h_jac = _derivatives(problem, theta)
    return EvalPoint(theta=theta.copy(), f=float(f), f_grad=f_grad,
                     g=g, g_jac=g_jac, h=h, h_jac=h_jac)


def _values(problem, theta):
    """f (a 0-d array), g and h at theta, shaped and checked finite."""
    return (_shaped(problem.objective(theta), (), "objective"),
            _shaped(problem.inequalities(theta), (problem.r,), "ineq"),
            _shaped(problem.equalities(theta), (problem.s,), "eq"))


def _parts(value, oracle):
    """An oracle's three parts, else EvaluationError naming the oracle."""
    try:
        first, second, third = value
    except (TypeError, ValueError) as exc:
        raise EvaluationError(f"{oracle} oracle output: {exc}", component=oracle) from None
    return first, second, third


def _derivatives(problem, theta):
    """The derivative oracle at theta, shaped and checked finite."""
    f_grad, g_jac, h_jac = _parts(problem.derivatives(theta), "derivatives")
    n = problem.n
    return (_shaped(f_grad, (n,), "objective gradient"),
            _shaped(g_jac, (problem.r, n), "ineq jacobian"),
            _shaped(h_jac, (problem.s, n), "eq jacobian"))


# --- second-order terms ----------------------------------------------------

FD_REL_STEP = 1e-7    # forward-difference step, relative to max(1, |theta_j|)


def _curvature(problem, theta, pi_e, pi_i, v):
    """The curvature oracle at theta, shaped and checked finite."""
    w, g_v, h_v = _parts(problem.curvature(theta, pi_e, pi_i, v), "curvature")
    n = problem.n
    return (_shaped(w, (n, n), "lagrangian hessian"),
            _shaped(g_v, (problem.r, n), "ineq curvature"),
            _shaped(h_v, (problem.s, n), "eq curvature"))


def curvature_at(problem, point, pi_e, pi_i, v):
    """``(W, G_v, H_v)`` of ``NlpProblem.curvature`` at an evaluated point.

    Calls the problem's oracle when it has one.  Otherwise differences its
    derivative oracle forward from the point: n calls at theta + delta e_j.
    """
    if problem.curvature is not None:
        return _curvature(problem, point.theta, pi_e, pi_i, v)
    n = problem.n
    w = np.empty((n, n))
    g_v = np.zeros((problem.r, n))
    h_v = np.zeros((problem.s, n))
    base = (point.f_grad, point.g_jac, point.h_jac)
    for j in range(n):
        delta = FD_REL_STEP * max(1.0, abs(point.theta[j]))
        tp = point.theta.copy()
        tp[j] += delta
        d_grad, d_gjac, d_hjac = ((a - b) / delta
                                  for a, b in zip(_derivatives(problem, tp), base))
        w[:, j] = d_grad + d_gjac.T @ pi_i + d_hjac.T @ pi_e
        g_v += v[j] * d_gjac
        h_v += v[j] * d_hjac
    return w, g_v, h_v


# --- derivative cross-check ------------------------------------------------

def check_derivatives(problem, points=3, rtol=1e-5, rng=None):
    """Compare analytic derivatives against central finite differences: the
    way to check the oracles of a hand-built problem, which no constructor
    checks.

    Raises EvaluationError when the relative mismatch exceeds ``rtol`` at any
    of ``points`` random test points.  A curvature oracle, at random
    multipliers and direction v, is compared against central differences of
    the derivative oracle along v: they give G_v, H_v and W v.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(points):
        theta = rng.uniform(0.5, 1.5, size=problem.n)
        fd_grad, fd_gjac, fd_hjac = finite_difference_derivatives(problem, theta)
        f_grad, g_jac, h_jac = _derivatives(problem, theta)
        pairs = [(f_grad, fd_grad, "objective gradient"),
                 (g_jac, fd_gjac, "ineq jacobian"),
                 (h_jac, fd_hjac, "eq jacobian")]
        if problem.curvature is not None:
            pi_e, pi_i, v = (rng.standard_normal(k) for k in (problem.s, problem.r, problem.n))
            w, g_v, h_v = _curvature(problem, theta, pi_e, pi_i, v)
            step = 1e-6 * max(1.0, np.abs(theta).max()) / np.abs(v).max()
            d_grad, d_gjac, d_hjac = (
                (a - b) / (2.0 * step) for a, b in zip(_derivatives(problem, theta + step * v),
                                                       _derivatives(problem, theta - step * v)))
            pairs += [(w @ v, d_grad + d_gjac.T @ pi_i + d_hjac.T @ pi_e,
                       "lagrangian hessian"),
                      (g_v, d_gjac, "ineq curvature"),
                      (h_v, d_hjac, "eq curvature")]
        for got, ref, label in pairs:
            if got.size == 0:
                continue
            scale = max(1.0, np.abs(ref).max())
            if np.abs(got - ref).max() > rtol * scale:
                raise EvaluationError(
                    f"{problem.name}: analytic {label} disagrees with finite "
                    f"differences by {np.abs(got - ref).max():.3e}",
                    component=label)


def finite_difference_derivatives(problem, theta):
    """Central finite differences of f, g, h; the independent oracle."""
    theta = np.asarray(theta, dtype=float)
    n = problem.n
    f_grad = np.zeros(n)
    g_jac = np.zeros((problem.r, n))
    h_jac = np.zeros((problem.s, n))
    for j in range(n):
        hj = 1e-6 * max(1.0, abs(theta[j]))
        tp = theta.copy(); tp[j] += hj
        tm = theta.copy(); tm[j] -= hj
        for out, plus, minus in zip((f_grad, g_jac, h_jac),
                                    _values(problem, tp), _values(problem, tm)):
            out[..., j] = (plus - minus) / (2 * hj)
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

    def curvature(t, pi_e, pi_i, v):
        # only rows 3 and 4 are curved; row 4 through its rational term
        den = 0.5 + t[1] ** 2
        quad = np.diag([1.0, 2.0, 2.0])
        frac = np.zeros((3, 3))
        frac[0, 1] = frac[1, 0] = -2.0 * t[1] / den ** 2
        frac[1, 1] = -2.0 * t[0] / den ** 2 + 8.0 * t[0] * t[1] ** 2 / den ** 3
        g_v = np.zeros((5, 3))
        g_v[3] = quad @ v
        g_v[4] = frac @ v
        w = np.eye(3) - 1.0 + pi_i[3] * quad + pi_i[4] * frac
        return w, g_v, np.zeros((2, 3))

    return NlpProblem(
        name="example1", n=3, r=5, s=2,
        objective=objective, inequalities=inequalities,
        equalities=equalities, derivatives=derivatives, curvature=curvature,
        known_optimum=np.array([2.0, 0.5, 0.5]))


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

    def curvature(t, pi_e, pi_i, v):
        # the Lagrangian Hessian is tridiagonal, the band rows' Hessians
        # +-2 e_j e_j^T, and the equalities are linear
        angles = _angles(t)
        sinv = np.sin(angles)
        idx = np.arange(k - 1)
        w = np.zeros((k, k))
        w[0, 0] = -math.sin(t[0] - 1.0 + c)
        w[idx, idx] += (100.0 * (2.0 * np.cos(angles) - 4.0 * t[:-1] ** 2 * sinv)
                        + 2.0 * (pi_i[2::2] - pi_i[3::2]))
        w[idx + 1, idx + 1] -= 100.0 * sinv
        w[idx, idx + 1] = w[idx + 1, idx] = 200.0 * t[:-1] * sinv
        g_v = np.zeros((2 * k, k))
        g_v[2 + 2 * idx, idx] = 2.0 * v[:-1]
        g_v[3 + 2 * idx, idx] = -2.0 * v[:-1]
        return w, g_v, np.zeros((k - 1, k))

    return NlpProblem(
        name="example2", n=k, r=2 * k, s=k - 1,
        objective=objective, inequalities=inequalities,
        equalities=equalities, derivatives=derivatives, curvature=curvature,
        known_optimum=np.ones(k))


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
        curvature=lambda t, pi_e, pi_i, v: (np.eye(2), np.zeros((0, 2)), np.zeros((1, 2))),
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
        curvature=lambda t, pi_e, pi_i, v: (np.eye(k), np.zeros((0, k)), np.zeros((0, k))),
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


def builtin(name, size=None):
    """Construct a registered problem by name.

    ``size`` applies only to the sized problems (example2 and the
    unconstrained toy).  The hand-written derivatives are checked against
    finite differences in the tests, not here.
    """
    try:
        factory, sized = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(builtin_names())}")
    if sized:
        return factory(_DEFAULT_SIZE[name] if size is None else int(size))
    if size is not None:
        raise InvalidInputError(f"problem {name!r} does not take a size")
    return factory()
