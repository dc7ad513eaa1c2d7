import numpy as np
import pytest

from conftest import central_difference, relative_gradient_match
from ttga.autodiff import Tensor, concat_channels, conv2d
from ttga.rng import SeededRng


def _check_scalar_graph(build, x0, rtol=1e-6):
    """Compare autodiff gradient of a scalar-valued graph against central
    differences in the flattened input."""
    shape = x0.shape

    def f(flat):
        return float(build(Tensor(flat.reshape(shape))).data)

    leaf = Tensor(x0, requires_grad=True)
    out = build(leaf)
    out.backward()
    numeric = central_difference(f, x0.ravel(), h=1e-5).reshape(shape)
    assert relative_gradient_match(leaf.grad, numeric, rtol=rtol)


def test_add_mul_grad(rng):
    x0 = rng.normal((3, 4))
    other = rng.normal((3, 4))
    _check_scalar_graph(lambda x: ((x + other) * (x * 2.0 - 1.0)).sum(), x0)


def test_broadcast_add_grad(rng):
    x0 = rng.normal((4,))
    other = rng.normal((3, 4))

    def build(x):
        return (x.reshape(1, 4).broadcast_to((3, 4)) * other + x.reshape(1, 4)).sum()

    _check_scalar_graph(build, x0)


def test_matmul_grad(rng):
    x0 = rng.normal((3, 5))
    w = rng.normal((5, 2))
    _check_scalar_graph(lambda x: (x @ Tensor(w)).sum(), x0)


def test_tanh_sigmoid_grad(rng):
    x0 = rng.normal((6,))
    _check_scalar_graph(lambda x: (x.tanh() * x.sigmoid()).mean(), x0)


def test_concat_channels_grad(rng):
    x0 = rng.normal((2, 2, 3))
    other = Tensor(rng.normal((2, 2, 2)))
    _check_scalar_graph(lambda x: (concat_channels([x, other]) * 1.5).sum(), x0)


def test_conv2d_grad_input_and_weights(rng):
    x0 = rng.normal((1, 5, 5, 2))
    w = rng.normal((9 * 2, 3))
    b = rng.normal((3,))

    # input gradient; the weight and bias do not require grad, so backward
    # computes no gradient for them and leaves their .grad unset
    frozen_w, frozen_b = Tensor(w), Tensor(b)
    conv = conv2d(Tensor(x0, requires_grad=True), frozen_w, frozen_b, 3)
    _, gw, gb = conv._backward(np.ones(conv.shape))
    assert gw is None and gb is None
    _check_scalar_graph(lambda x: conv2d(x, frozen_w, frozen_b, 3).sum(), x0)
    assert frozen_w.grad is None and frozen_b.grad is None

    # weight gradient; the input does not require grad, so none is computed for it
    def f_w(flat):
        return float(conv2d(Tensor(x0), Tensor(flat.reshape(w.shape)), Tensor(b), 3).sum().data)

    wt = Tensor(w, requires_grad=True)
    conv = conv2d(Tensor(x0), wt, Tensor(b), 3)
    assert conv._backward(np.ones(conv.shape))[0] is None
    conv.sum().backward()
    numeric = central_difference(f_w, w.ravel(), h=1e-5).reshape(w.shape)
    assert relative_gradient_match(wt.grad, numeric, rtol=1e-6)

    # bias gradient is the spatial sum of upstream ones
    bt = Tensor(b, requires_grad=True)
    out = conv2d(Tensor(x0), Tensor(w), bt, 3).sum()
    out.backward()
    assert np.allclose(bt.grad, 5 * 5, rtol=1e-12)


def test_grad_accumulates_over_reuse(rng):
    x = Tensor(rng.normal((4,)), requires_grad=True)
    out = (x * x + x * 3.0).sum()
    out.backward()
    assert np.allclose(x.grad, 2 * x.data + 3.0, rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_conv2d_same_padding_shape(rng):
    out = conv2d(Tensor(rng.normal((2, 7, 6, 3))), Tensor(rng.normal((9 * 3, 4))),
                 Tensor(np.zeros(4)), 3)
    assert out.shape == (2, 7, 6, 4)
