import math

import numpy as np
import pytest

from nlpflow import autodiff
from nlpflow.autodiff import Dual, seed
from nlpflow.errors import EvaluationError


def grad_of(fn, x, eps=1e-7):
    """Scalar central-difference reference."""
    return (fn(x + eps) - fn(x - eps)) / (2 * eps)


def test_seed_shapes():
    duals = seed([1.0, 2.0, 3.0])
    assert len(duals) == 3
    for i, d in enumerate(duals):
        expected = np.zeros(3)
        expected[i] = 1.0
        assert d.value == float(i + 1)
        assert np.array_equal(d.grad, expected)


def test_linear_arithmetic():
    x, y = seed([2.0, 5.0])
    z = 3.0 * x - y + 1.0
    assert z.value == 2.0
    assert np.array_equal(z.grad, [3.0, -1.0])
    w = 1.0 - x + (-y)
    assert w.value == -6.0
    assert np.array_equal(w.grad, [-1.0, -1.0])


def test_product_rule():
    x, y = seed([2.0, 5.0])
    z = x * y
    assert z.value == 10.0
    assert np.array_equal(z.grad, [5.0, 2.0])


def test_quotient_rule():
    x, y = seed([2.0, 5.0])
    z = x / y
    assert z.value == 0.4
    assert np.allclose(z.grad, [1 / 5, -2 / 25])
    w = 10.0 / y
    assert w.value == 2.0
    assert np.allclose(w.grad, [0.0, -10 / 25])


def test_power_rule():
    (x,) = seed([3.0])
    z = x ** 4
    assert z.value == 81.0
    assert np.allclose(z.grad, [4 * 27.0])
    assert (x ** 0).value == 1.0
    assert np.array_equal((x ** 0).grad, [0.0])
    half = x ** 0.5
    assert np.allclose(half.value, math.sqrt(3.0))
    assert np.allclose(half.grad, [0.5 / math.sqrt(3.0)])


def test_lifted_functions_match_finite_differences():
    point = 0.7
    for name in ("sin", "cos", "exp", "log", "sqrt"):
        fn = getattr(autodiff, name)
        (x,) = seed([point])
        d = fn(x)
        ref = getattr(math, name)
        assert np.isclose(d.value, ref(point))
        assert np.isclose(d.grad[0], grad_of(ref, point), atol=1e-8)


def test_lifted_functions_pass_through_plain_floats():
    assert autodiff.sin(0.0) == 0.0
    assert autodiff.exp(0.0) == 1.0


def test_chain_rule_composition():
    (x,) = seed([0.3])
    z = autodiff.sin(x * x + 1.0)
    assert np.isclose(z.value, math.sin(0.3 ** 2 + 1.0))
    assert np.isclose(z.grad[0], math.cos(0.3 ** 2 + 1.0) * 2 * 0.3)


def test_repr_mentions_value():
    (x,) = seed([1.5])
    assert "1.5" in repr(x)


def test_domain_errors_become_evaluation_errors():
    (x,) = seed([-1.0])
    for fn, arg in ((autodiff.log, -1.0), (autodiff.log, x), (autodiff.sqrt, x),
                    (autodiff.exp, 1e6), (autodiff.sqrt, Dual(0.0, [1.0]))):
        with pytest.raises(EvaluationError):
            fn(arg)
    for a, b in ((1.0, 0.0), (x, 0.0), (1.0, Dual(0.0, [1.0])), (x, Dual(0.0, [1.0]))):
        with pytest.raises(EvaluationError):
            autodiff.div(a, b)
    assert autodiff.div(x, 2.0).value == -0.5
    with pytest.raises(EvaluationError):
        Dual(0.0, [1.0]) ** 0.5
