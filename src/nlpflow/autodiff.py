"""Forward-mode automatic differentiation with vector-valued dual numbers.

A Dual carries a scalar value and the vector of its partial derivatives with
respect to the problem variables.  Arithmetic propagates derivatives exactly
(to floating-point rounding), which is what the flow assembly needs: central
finite differences are only ever used as a cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError


class Dual:
    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.grad!r})"

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.grad + other.grad)
        return Dual(self.value + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.grad)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.grad - other.grad)
        return Dual(self.value - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
            )
        return Dual(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            return Dual(
                self.value * inv,
                (self.grad - self.value * inv * other.grad) * inv,
            )
        return Dual(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return Dual(other * inv, -other * inv * inv * self.grad)

    def __pow__(self, exponent):
        # constant exponents only; the problem-file grammar enforces this
        p = float(exponent)
        if p == 0.0:
            return Dual(1.0, np.zeros_like(self.grad))
        base = power(self.value, p - 1.0)
        return Dual(base * self.value, p * base * self.grad)


def seed(theta):
    """Lift a point into dual space: one Dual per coordinate, unit partials."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    eye = np.eye(n)
    return [Dual(theta[i], eye[i]) for i in range(n)]


def _lift(fn, dfn):
    def wrapped(x):
        try:
            if isinstance(x, Dual):
                return Dual(fn(x.value), dfn(x.value) * x.grad)
            return fn(x)
        except (ArithmeticError, ValueError) as exc:
            value = float(getattr(x, "value", x))
            raise EvaluationError(f"{fn.__name__}({value!r}): {exc}") from exc

    return wrapped


def div(a, b):
    """``a / b`` on floats or Duals; division by zero is an EvaluationError."""
    try:
        return a / b
    except ZeroDivisionError as exc:
        raise EvaluationError(f"division by zero: {exc}") from exc


def power(a, p):
    """``a ** p`` on floats or Duals, p constant; a ``0 ** -1``, an overflow or
    a complex result (negative base, fractional p) is an EvaluationError."""
    try:
        result = a ** p
    except ArithmeticError as exc:
        raise EvaluationError(f"{a!r} ** {p!r}: {exc}") from exc
    if isinstance(result, complex):
        raise EvaluationError(f"{a!r} ** {p!r} is not real")
    return result


sin = _lift(math.sin, math.cos)
cos = _lift(math.cos, lambda v: -math.sin(v))
exp = _lift(math.exp, math.exp)
log = _lift(math.log, lambda v: 1.0 / v)
sqrt = _lift(math.sqrt, lambda v: 0.5 / math.sqrt(v))
