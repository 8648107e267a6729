import math

import numpy as np
import pytest

from nlpflow import autodiff
from nlpflow.autodiff import Dual, seed, seed2
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


SECOND_ORDER_CASES = {
    "add": lambda x, y: x * y + x + 2.0 + (1.5 + y),
    "sub": lambda x, y: x * y - y * y - 2.0 - (1.5 - x * x),
    "neg": lambda x, y: -(x * y),
    "mul": lambda x, y: (x * x) * (y * x) * 3.0 * (2.0 * y),
    "truediv": lambda x, y: (x * y) / (y * y + x) / 4.0 + 2.0 / (x * y),
    "div": lambda x, y: autodiff.div(x * x, x * y + 1.0),
    "power 2": lambda x, y: autodiff.power(x * y + x, 2),
    "power 0.5": lambda x, y: autodiff.power(x * y + x, 0.5),
    "power -1": lambda x, y: autodiff.power(x * y + x, -1),
    "power 3.7": lambda x, y: autodiff.power(x * y + x, 3.7),
    "sin": lambda x, y: autodiff.sin(x * y),
    "cos": lambda x, y: autodiff.cos(x * y),
    "exp": lambda x, y: autodiff.exp(x * y),
    "log": lambda x, y: autodiff.log(x * y),
    "sqrt": lambda x, y: autodiff.sqrt(x * y),
}


@pytest.mark.parametrize("name", SECOND_ORDER_CASES)
def test_second_order_matches_differenced_gradients(name):
    fn = SECOND_ORDER_CASES[name]
    point, eps = np.array([0.7, 1.3]), 1e-5
    d2 = fn(*seed2(point))
    first = fn(*seed(point))
    assert d2.value == pytest.approx(first.value, rel=1e-14)
    assert np.allclose(d2.grad, first.grad, rtol=1e-14, atol=0.0)
    fd = np.column_stack([(fn(*seed(point + eps * e)).grad - fn(*seed(point - eps * e)).grad)
                          / (2 * eps) for e in np.eye(2)])
    assert np.array_equal(d2.hess, d2.hess.T)
    assert np.allclose(d2.hess, fd, rtol=1e-7, atol=1e-8)


def test_second_order_linear_values_keep_a_scalar_zero_hessian():
    x, y = seed2([2.0, 5.0])
    z = 3.0 * x - y + 1.0
    assert z.hess == 0.0
    assert np.array_equal(z.grad, [3.0, -1.0])
    assert np.array_equal((x * y).hess, [[0.0, 1.0], [1.0, 0.0]])
