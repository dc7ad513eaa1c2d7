import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import central_difference, relative_gradient_match
import ttga.autodiff as autodiff
from ttga.autodiff import Tensor, _im2col, concat_channels, conv2d
from ttga.denoiser import ConditionEmbedding, ConvDenoiser
from ttga.rng import SeededRng
from ttga.schedule import build_schedule


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


def test_sub_mul_grad(rng):
    x0 = rng.normal((3, 4))
    other = rng.normal((3, 4))
    _check_scalar_graph(lambda x: ((x - other) * (x * 2.0 - 1.0)).mean(), x0)


def test_broadcast_sub_grad(rng):
    # x broadcasts against (3, 4) in both the product and the difference,
    # so its gradient is summed back to its own shape
    other = rng.normal((3, 4))

    def build(x):
        return (x * other - x).mean()

    for shape in [(4,), (3, 1), (1, 4)]:
        _check_scalar_graph(build, rng.normal(shape))


def test_tanh_sigmoid_grad(rng):
    x0 = rng.normal((6,))
    _check_scalar_graph(lambda x: (x.tanh() * x.sigmoid()).mean(), x0)


def test_concat_channels_grad(rng):
    x0 = rng.normal((2, 2, 3))
    other = Tensor(rng.normal((2, 2, 2)))
    _check_scalar_graph(lambda x: (concat_channels([x, other]) * 1.5).mean(), x0)


def test_concat_channels_broadcasts_its_parts(rng):
    x = rng.normal((3, 5, 4, 1))
    e = rng.normal((3, 1, 1, 6))
    f = rng.normal((1, 1, 1, 8))
    out = concat_channels([Tensor(x), Tensor(e), Tensor(f)])
    expected = np.concatenate(
        [x, np.broadcast_to(e, (3, 5, 4, 6)), np.broadcast_to(f, (3, 5, 4, 8))], axis=-1)
    assert out.shape == (3, 5, 4, 15)
    assert np.array_equal(out.data, expected)


def _layer0_parts(rng, b, e_rows):
    """Image, embedding and time-feature parts shaped like a denoiser's layer-0 input."""
    return (rng.normal((b, 6, 5, 1)), rng.normal((e_rows, 1, 1, 16)),
            rng.normal((1, 1, 1, 8)))


@pytest.mark.parametrize("b", [1, 2, 6])
@pytest.mark.parametrize("cout", [1, 16])
@pytest.mark.parametrize("wrt", ["x", "e"])
def test_conv2d_part_gradients_equal_the_concatenated_input_gradient(rng, b, cout, wrt):
    # A part's gradient comes from a product with its own weight rows. That
    # it has the same bits as those columns of the full product depends on
    # the BLAS kernels, not on the arithmetic; this checks it at layer-0 shapes.
    x, e, f = _layer0_parts(rng, b, b)
    weight, bias = Tensor(rng.normal((9 * 25, cout))), Tensor(rng.normal((cout,)))
    seed = rng.normal((b, 6, 5, cout))

    parts = [Tensor(x, requires_grad=wrt == "x"), Tensor(e, requires_grad=wrt == "e"),
             Tensor(f)]
    conv2d(concat_channels(parts), weight, bias, 3).backward(seed=seed)

    whole = Tensor(np.concatenate([x, np.broadcast_to(e, (b, 6, 5, 16)),
                                   np.broadcast_to(f, (b, 6, 5, 8))], axis=-1),
                   requires_grad=True)
    conv2d(whole, weight, bias, 3).backward(seed=seed)
    if wrt == "x":
        assert np.array_equal(parts[0].grad, whole.grad[..., :1])
        assert parts[1].grad is None
    else:
        assert np.array_equal(parts[1].grad,
                              whole.grad[..., 1:17].sum(axis=(1, 2), keepdims=True))
        assert parts[0].grad is None
    assert parts[2].grad is None


def test_conv2d_grad_through_a_broadcast_concat_part(rng):
    x, e0, f = _layer0_parts(rng, 3, 1)
    w = Tensor(rng.normal((9 * 25, 4)) / 15.0)
    w2 = Tensor(rng.normal((9 * 4, 2)) / 6.0)
    zero4, zero2 = Tensor(np.zeros(4)), Tensor(np.zeros(2))

    def build(e):
        hidden = conv2d(concat_channels([Tensor(x), e, Tensor(f)]), w, zero4, 3).tanh()
        return conv2d(hidden, w2, zero2, 3).mean()

    _check_scalar_graph(build, e0)


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
    _check_scalar_graph(lambda x: conv2d(x, frozen_w, frozen_b, 3).mean(), x0)
    assert frozen_w.grad is None and frozen_b.grad is None

    # weight gradient; the input does not require grad, so none is computed for it
    def f_w(flat):
        return float(conv2d(Tensor(x0), Tensor(flat.reshape(w.shape)), Tensor(b), 3).mean().data)

    wt = Tensor(w, requires_grad=True)
    conv = conv2d(Tensor(x0), wt, Tensor(b), 3)
    assert conv._backward(np.ones(conv.shape))[0] is None
    conv.mean().backward()
    numeric = central_difference(f_w, w.ravel(), h=1e-5).reshape(w.shape)
    assert relative_gradient_match(wt.grad, numeric, rtol=1e-6)

    # bias gradient is the spatial sum of upstream ones
    bt = Tensor(b, requires_grad=True)
    conv2d(Tensor(x0), Tensor(w), bt, 3).backward(seed=np.ones((1, 5, 5, 3)))
    assert np.allclose(bt.grad, 5 * 5, rtol=1e-12)


def test_grad_accumulates_over_reuse(rng):
    x = Tensor(rng.normal((4,)), requires_grad=True)
    out = (x * x - x * 3.0).mean()
    out.backward()
    assert np.allclose(x.grad, (2 * x.data - 3.0) / 4, rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_through_a_chain_deeper_than_the_recursion_limit():
    x = Tensor(np.array(0.5), requires_grad=True)
    out, ys = x, []
    for _ in range(sys.getrecursionlimit() + 500):
        out = out.tanh()
        ys.append(out.data)
    out.backward()
    expected = 1.0
    for y in reversed(ys):
        expected = expected * (1.0 - y * y)
    assert np.isfinite(x.grad) and x.grad == expected != 0.0


def test_graph_is_freed_when_its_last_reference_goes(rng, no_cyclic_gc):
    x = Tensor(rng.normal((2, 6, 6, 3)), requires_grad=True)
    hidden = conv2d(x, Tensor(rng.normal((27, 4))), Tensor(np.zeros(4)), 3).tanh()
    loss = (hidden * hidden).mean()
    hidden_data = weakref.ref(hidden.data)
    del hidden
    loss.backward()
    assert hidden_data() is not None  # still held by the graph of loss
    del loss
    assert hidden_data() is None


@pytest.mark.parametrize("weight_grad", [False, True])
def test_conv2d_keeps_columns_only_for_a_weight_gradient(rng, no_cyclic_gc, weight_grad):
    b, h, w, c = 2, 16, 16, 8
    x = Tensor(rng.normal((b, h, w, c)), requires_grad=True)
    weight = Tensor(rng.normal((9 * c, 1)), requires_grad=weight_grad)
    bias = Tensor(np.zeros(1))
    columns_bytes = b * h * w * 9 * c * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, weight, bias, 3)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert (grown >= columns_bytes) == weight_grad


def test_conv2d_same_padding_shape(rng):
    out = conv2d(Tensor(rng.normal((2, 7, 6, 3))), Tensor(rng.normal((9 * 3, 4))),
                 Tensor(np.zeros(4)), 3)
    assert out.shape == (2, 7, 6, 4)


def _im2col_loops(x, k):
    """Reference im2col: one strided copy per kernel position."""
    b, h, w, c = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((b, h, w, k * k, c), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            cols[:, :, :, i * k + j, :] = xp[:, i:i + h, j:j + w, :]
    return cols.reshape(b, h, w, k * k * c)


@pytest.mark.parametrize("shape", [(2, 9, 9, 16), (3, 8, 7, 12), (1, 6, 5, 3),
                                   (4, 5, 6, 1), (1, 4, 4, 1)])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_im2col_equals_loop_reference(rng, shape, k):
    x = rng.normal(shape)
    assert np.array_equal(_im2col(x, k), _im2col_loops(x, k))


@pytest.mark.parametrize("wrt", ["input", "embedding"])
def test_predict_vjp_scatters_only_the_channels_it_differentiates(rng, monkeypatch, wrt):
    model = ConvDenoiser(build_schedule(50, 1e-4, 0.02), embedding_dim=5, hidden=7,
                         rng=SeededRng(4))
    channels_seen = []
    col2im = autodiff._col2im

    def recording_col2im(gcols, k, in_shape):
        channels_seen.append(in_shape[-1])
        return col2im(gcols, k, in_shape)

    monkeypatch.setattr(autodiff, "_col2im", recording_col2im)
    x = rng.normal((2, 6, 6))
    _, vjp = model.predict_vjp(x, 10, ConditionEmbedding(rng.normal(5)), wrt)
    vjp(rng.normal((2, 6, 6)))
    # layers 3, 2, 1 scatter their hidden inputs; layer 0 only the part asked for
    assert channels_seen == [7, 7, 7, 1 if wrt == "input" else 5]
