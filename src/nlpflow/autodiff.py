"""Forward-mode automatic differentiation with vector-valued dual numbers.

A Dual carries a scalar value and the vector of its partial derivatives with
respect to the problem variables; a Dual2 carries the Hessian as well.
Arithmetic propagates derivatives exactly (to floating-point rounding), which
is what the flow assembly needs: central finite differences are only ever
used as a cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError

_new = object.__new__


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
            return _dual(self.value + other.value, self.grad + other.grad)
        return _dual(self.value + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.value, -self.grad)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return _dual(self.value - other.value, self.grad - other.grad)
        return _dual(self.value - other, self.grad)

    def __rsub__(self, other):
        return _dual(other - self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return _dual(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
            )
        return _dual(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            return _dual(
                self.value * inv,
                (self.grad - self.value * inv * other.grad) * inv,
            )
        return _dual(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return _dual(other * inv, -other * inv * inv * self.grad)

    def __pow__(self, exponent):
        # constant exponents only; the problem-file grammar enforces this
        p = float(exponent)
        if p == 0.0:
            return _dual(1.0, np.zeros_like(self.grad))
        base = power(self.value, p - 1.0)
        return _dual(base * self.value, p * base * self.grad)


def _dual(value, grad):
    """A Dual from a float and a float array, without Dual()'s conversions."""
    d = _new(Dual)
    d.value = value
    d.grad = grad
    return d


class Dual2:
    """A value with its gradient and Hessian: second-order forward mode.

    ``hess`` is an n x n array, or the float 0.0 while the value is linear
    in the variables; NumPy broadcasting makes both forms add and scale alike.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        # no conversions: seed2 and the arithmetic pass floats and arrays
        self.value = value
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.value + other.value, self.grad + other.grad,
                         self.hess + other.hess)
        return Dual2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.value - other.value, self.grad - other.grad,
                         self.hess - other.hess)
        return Dual2(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Dual2(other - self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Dual2):
            a, b = self.value, other.value
            cross = self.grad[:, None] * other.grad
            return Dual2(a * b, a * other.grad + b * self.grad,
                         a * other.hess + b * self.hess + cross + cross.T)
        return Dual2(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return self._chain(other * inv, -other * inv * inv, 2.0 * other * inv * inv * inv)

    def __pow__(self, exponent):
        # constant exponents only; every power goes through power(), so a
        # complex or overflowing term is an EvaluationError
        p = float(exponent)
        v = self.value
        f1 = p * power(v, p - 1.0) if p != 0.0 else 0.0
        f2 = p * (p - 1.0) * power(v, p - 2.0) if p not in (0.0, 1.0) else 0.0
        return self._chain(power(v, p), f1, f2)

    def _chain(self, f0, f1, f2):
        """phi(self) from phi, phi' and phi'' at self.value."""
        g = self.grad
        return Dual2(f0, f1 * g, f1 * self.hess + f2 * (g[:, None] * g))


def seed(theta):
    """Lift a point into dual space: one Dual per coordinate, unit partials."""
    theta = np.asarray(theta, dtype=float)
    eye = np.eye(theta.size)
    return [_dual(float(t), row) for t, row in zip(theta, eye)]


def seed2(theta):
    """Lift a point into second-order dual space: unit partials, zero Hessians."""
    theta = np.asarray(theta, dtype=float)
    eye = np.eye(theta.size)
    return [Dual2(float(t), row, 0.0) for t, row in zip(theta, eye)]


def _lift(fn, d1, d2):
    def wrapped(x):
        try:
            if isinstance(x, Dual):
                return _dual(fn(x.value), d1(x.value) * x.grad)
            if isinstance(x, Dual2):
                v = x.value
                return x._chain(fn(v), d1(v), d2(v))
            return fn(x)
        except (ArithmeticError, ValueError) as exc:
            value = float(getattr(x, "value", x))
            raise EvaluationError(f"{fn.__name__}({value!r}): {exc}") from exc

    return wrapped


def div(a, b):
    """``a / b`` on floats or duals; division by zero is an EvaluationError."""
    try:
        return a / b
    except ZeroDivisionError as exc:
        raise EvaluationError(f"division by zero: {exc}") from exc


def power(a, p):
    """``a ** p`` on floats or duals, p constant; a ``0 ** -1``, an overflow or
    a complex result (negative base, fractional p) is an EvaluationError."""
    try:
        result = a ** p
    except ArithmeticError as exc:
        raise EvaluationError(f"{a!r} ** {p!r}: {exc}") from exc
    if isinstance(result, complex):
        raise EvaluationError(f"{a!r} ** {p!r} is not real")
    return result


sin = _lift(math.sin, math.cos, lambda v: -math.sin(v))
cos = _lift(math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
exp = _lift(math.exp, math.exp, math.exp)
log = _lift(math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v))
sqrt = _lift(math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / (v * math.sqrt(v)))
