"""Constrained nonlinear programming by integrating a gradient flow.

The solver treats a problem

    min f(theta)  s.t.  g(theta) <= 0,  h(theta) = 0

as an initial-value problem over a virtual time: multipliers for the equality
and working inequality constraints are recovered through a pseudo-inverse at
every evaluation point, the parameter vector follows the resulting descent
direction, and violated constraints decay with first-order stable error
dynamics, so infeasible starts are handled without a separate restoration
phase.  Integration stops once the first-order optimality residuals fall
below tolerance.
"""

__version__ = "0.1.0"

from .dynamics import GainSet
from .integrate import IntegratorConfig, integrate_ode, solve
from .problemfile import parse_problem, serialize_problem
from .problems import builtin

__all__ = [
    "__version__",
    "GainSet", "IntegratorConfig", "builtin", "integrate_ode",
    "parse_problem", "serialize_problem", "solve",
]
