import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import central_difference, relative_gradient_match
import ttga.autodiff as autodiff
from ttga.autodiff import Tensor, conv2d
from ttga.denoiser import ConditionEmbedding, ConvDenoiser
from ttga.rng import SeededRng
from ttga.schedule import build_schedule


def _check_seeded_graph(build, x0, rng, rtol=1e-6):
    """Compare the backward pass of a graph seeded with a random ``seed``
    against central differences of sum(seed * output) in the flattened input."""
    shape = x0.shape
    seed = rng.normal(build(Tensor(x0)).shape)

    def f(flat):
        return float(np.sum(seed * build(Tensor(flat.reshape(shape))).data))

    leaf = Tensor(x0, requires_grad=True)
    build(leaf).backward(seed=seed)
    numeric = central_difference(f, x0.ravel(), h=1e-5).reshape(shape)
    assert relative_gradient_match(leaf.grad, numeric, rtol=rtol)


def test_tanh_sigmoid_grad(rng):
    x0 = rng.normal((6,))
    for build in (lambda x: x.tanh(), lambda x: x.sigmoid(), lambda x: x.tanh().sigmoid()):
        _check_seeded_graph(build, x0, rng)


@pytest.mark.parametrize("weight_grad", [False, True])
def test_conv2d_over_more_parts_is_conv2d_over_their_broadcast_concatenation(rng, weight_grad):
    x = rng.normal((3, 5, 4, 1))
    e = rng.normal((3, 1, 1, 6))
    f = rng.normal((1, 1, 1, 8))
    weight, bias, seed = rng.normal((9 * 15, 4)), rng.normal(4), rng.normal((3, 5, 4, 4))
    whole = np.concatenate(
        [x, np.broadcast_to(e, (3, 5, 4, 6)), np.broadcast_to(f, (3, 5, 4, 8))], axis=-1)

    def run(first, more):
        wt = Tensor(weight, requires_grad=weight_grad)
        out = conv2d(Tensor(first), wt, Tensor(bias), 3, more)
        if weight_grad:
            out.backward(seed=seed)
        return out.data, wt.grad

    (got, got_gw), (want, want_gw) = run(x, [Tensor(e), Tensor(f)]), run(whole, ())
    assert got.shape == (3, 5, 4, 4)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if weight_grad:
        assert np.array_equal(got_gw.view(np.uint64), want_gw.view(np.uint64))
    else:
        assert got_gw is None and want_gw is None


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
    conv2d(parts[0], weight, bias, 3, parts[1:]).backward(seed=seed)

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
        hidden = conv2d(Tensor(x), w, zero4, 3, [e, Tensor(f)]).tanh()
        return conv2d(hidden, w2, zero2, 3)

    _check_seeded_graph(build, e0, rng)


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
    _check_seeded_graph(lambda x: conv2d(x, frozen_w, frozen_b, 3), x0, rng)
    assert frozen_w.grad is None and frozen_b.grad is None

    # weight gradient; the input does not require grad, so none is computed for it
    conv = conv2d(Tensor(x0), Tensor(w, requires_grad=True), Tensor(b), 3)
    assert conv._backward(np.ones(conv.shape))[0] is None
    _check_seeded_graph(lambda wt: conv2d(Tensor(x0), wt, Tensor(b), 3), w, rng)

    # bias gradient is the spatial sum of upstream ones
    bt = Tensor(b, requires_grad=True)
    conv2d(Tensor(x0), Tensor(w), bt, 3).backward(seed=np.ones((1, 5, 5, 3)))
    assert np.allclose(bt.grad, 5 * 5, rtol=1e-12)


def test_grad_accumulates_over_reuse(rng):
    # x fills both halves of a conv's concatenated input, so it gets one
    # gradient per part, summed
    w, b = Tensor(rng.normal((9 * 4, 3))), Tensor(np.zeros(3))
    _check_seeded_graph(lambda x: conv2d(x, w, b, 3, [x]),
                        rng.normal((2, 3, 3, 2)), rng)


def test_backward_through_a_chain_deeper_than_the_recursion_limit():
    x = Tensor(np.array(0.5), requires_grad=True)
    out, ys = x, []
    for _ in range(sys.getrecursionlimit() + 500):
        out = out.tanh()
        ys.append(out.data)
    out.backward(seed=1.0)
    expected = 1.0
    for y in reversed(ys):
        expected = expected * (1.0 - y * y)
    assert np.isfinite(x.grad) and x.grad == expected != 0.0


def test_graph_is_freed_when_its_last_reference_goes(rng, no_cyclic_gc):
    x = Tensor(rng.normal((2, 6, 6, 3)), requires_grad=True)
    hidden = conv2d(x, Tensor(rng.normal((27, 4))), Tensor(np.zeros(4)), 3).tanh()
    out = conv2d(hidden, Tensor(rng.normal((36, 1))), Tensor(np.zeros(1)), 3)
    hidden_data = weakref.ref(hidden.data)
    del hidden
    out.backward(seed=np.ones(out.shape))
    assert hidden_data() is not None  # still held by the graph of out
    del out
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


def test_predict_each_builds_no_array_the_size_of_the_concatenated_input(rng):
    """The embedding and time channels go straight into the padded grid: no
    (k*N, H, W, C_in) array of the whole layer-0 input is made."""
    model = ConvDenoiser(build_schedule(50, 1e-4, 0.02), embedding_dim=256, hidden=4,
                         rng=SeededRng(4))
    x = rng.normal((4, 16, 16))
    embeddings = [ConditionEmbedding(rng.normal(256)) for _ in range(3)]
    concat_bytes = 3 * 4 * 16 * 16 * (1 + 256 + 8) * 8
    model.predict_each(x, 10, embeddings)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.predict_each(x, 10, embeddings)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < concat_bytes


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
@pytest.mark.parametrize("weight_grad", [False, True])
def test_conv2d_is_loop_reference_columns_times_the_weight(rng, shape, k, weight_grad):
    """Bit for bit: with a weight gradient, one product over the whole
    batch's columns, which the weight gradient reads again; without one,
    one product per item."""
    b, h, w, c = shape
    x, weight, bias = rng.normal(shape), rng.normal((k * k * c, 5)), rng.normal(5)
    cols = _im2col_loops(x, k).reshape(b, h * w, -1)
    if weight_grad:
        want = cols.reshape(b * h * w, -1) @ weight
    else:
        want = np.stack([item @ weight for item in cols])
    wt = Tensor(weight, requires_grad=weight_grad)
    out = conv2d(Tensor(x), wt, Tensor(bias), k)
    assert np.array_equal(out.data, want.reshape(b, h, w, 5) + bias)
    if weight_grad:
        seed = rng.normal(out.shape)
        out.backward(seed=seed)
        assert np.array_equal(wt.grad, cols.reshape(b * h * w, -1).T @ seed.reshape(-1, 5))


def _col2im_loops(gcols, k, in_shape):
    """Reference col2im: one strided add per kernel position, in (i, j) order."""
    b, h, w, c = in_shape
    pad = k // 2
    g = gcols.reshape(b, h, w, k * k, c)
    gx = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            gx[:, i:i + h, j:j + w, :] += g[:, :, :, i * k + j, :]
    return gx[:, pad:pad + h, pad:pad + w, :]


@pytest.mark.parametrize("shape", [(16, 32, 32, 16), (8, 32, 32, 12), (2, 32, 32, 1),
                                   (3, 8, 7, 12), (1, 4, 4, 1)])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_col2im_is_bit_identical_to_loop_reference(rng, shape, k):
    """Magnitudes spread over 24 decades, so any other summation order shows;
    planted signed zeros check that each sum starts from +0."""
    b, h, w, c = shape
    cols_shape = (b, h, w, k * k * c)
    gcols = rng.normal(cols_shape) * 10.0 ** rng.integers(-12, 13, cols_shape)
    gcols[rng.random(cols_shape) < 0.1] = -0.0
    gcols[rng.random(cols_shape) < 0.05] = 0.0
    items = gcols.reshape(b, h * w, -1)
    got = np.stack([autodiff._col2im(item, k, h, w) for item in items]).reshape(shape)
    want = np.ascontiguousarray(_col2im_loops(gcols, k, shape))
    assert got.shape == shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("hidden", [8, 12, 16, 48])
@pytest.mark.parametrize("layer", ["first", "hidden", "last"])
@pytest.mark.parametrize("b, size", [(2, 32), (4, 24), (10, 16), (16, 8)])
def test_conv2d_input_gradient_per_item_equals_the_whole_batch_reference(rng, hidden, layer,
                                                                          b, size):
    """The backward runs one product and one scatter per batch item. Its bits
    are those of the single-grid product and the strided adds, and, but where
    noted, of one product over the whole batch. The first layer
    differentiates the image part of a concatenation."""
    cin, cout, lo, hi = {"first": (25, hidden, 0, 1), "hidden": (hidden, hidden, 0, hidden),
                         "last": (hidden, 1, 0, hidden)}[layer]
    weight = rng.normal((9 * cin, cout))
    g = rng.normal((b, size, size, cout)) * 10.0 ** rng.integers(-12, 13, (b, size, size, cout))
    g[rng.random(g.shape) < 0.1] = -0.0
    g[rng.random(g.shape) < 0.05] = 0.0
    x = Tensor(rng.normal((b, size, size, hi - lo)), requires_grad=True)
    more = [Tensor(rng.normal((b, 1, 1, 16))),
            Tensor(rng.normal((1, 1, 1, 8)))] if layer == "first" else []
    conv2d(x, Tensor(weight), Tensor(np.zeros(cout)), 3, more).backward(seed=g)

    part_rows = weight.reshape(9, cin, cout)[:, lo:hi].reshape(-1, cout)
    products = {"single-grid": np.stack([item.reshape(-1, cout) @ part_rows.T for item in g])}
    # A wide first layer on an 8x8 grid gives OpenBLAS a small product
    # (64, 48) @ (48, 9), which it sums in another order than the whole-batch
    # one; there the single-grid product sets the bits.
    if not (layer == "first" and hidden == 48 and size == 8):
        products["whole-batch"] = g.reshape(-1, cout) @ part_rows.T
    for name, gcols in products.items():
        want = _col2im_loops(gcols.reshape(b, size, size, -1), 3, x.shape)
        assert np.array_equal(x.grad.view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64)), name


def _last_layer_grads(x, weight, g, weight_grad):
    """x.grad of a one-output-channel conv, and the reference: the scatter of
    each item's (H*W, 1) @ (1, 9C) matrix product."""
    b, h, w, _ = x.shape
    leaf = Tensor(x, requires_grad=True)
    conv2d(leaf, Tensor(weight, requires_grad=weight_grad), Tensor(np.zeros(1)), 3).backward(seed=g)
    gitems, wpt = g.reshape(b, h * w, 1), weight.T
    want = np.stack([autodiff._col2im(gitems[n] @ wpt, 3, h, w) for n in range(b)])
    return leaf.grad, want.reshape(x.shape)


# the last layer of the segmenters (hidden 12 and 16, batch 8 and 16) and of the
# denoisers (hidden 16 and 48, batch 2 and 10) the program trains and runs
@pytest.mark.parametrize("b, h, w, hidden", [
    *((b, 32, 32, c) for c in (12, 16) for b in (8, 16)),
    *((b, 32, 32, c) for c in (16, 48) for b in (2, 10)),
    (3, 7, 5, 16)])
@pytest.mark.parametrize("weight_grad", [False, True])
def test_one_output_channel_input_gradient_is_the_matrix_product_scatter(rng, b, h, w, hidden,
                                                                         weight_grad):
    """A one-output-channel layer forms its patch gradients as an outer
    product, not a K = 1 matrix product. Only a zero's sign may differ
    between the two, and the scatter's sums from +0 drop it, so the input
    gradient keeps its bits: magnitudes spread over 24 decades and planted
    signed zeros, in both the output gradient and the weights."""
    def spread(shape):
        v = rng.normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
        v[rng.random(shape) < 0.1] = -0.0
        v[rng.random(shape) < 0.05] = 0.0
        return v

    got, want = _last_layer_grads(rng.normal((b, h, w, hidden)), spread((9 * hidden, 1)),
                                  spread((b, h, w, 1)), weight_grad)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_one_output_channel_input_gradient_keeps_its_bits_past_overflow(rng):
    """Under the training loop's np.errstate: products that overflow to inf,
    inf times zero and NaN in the output gradient give the matrix product's
    bits, NaN payloads included, and no warning."""
    weight = rng.normal((9 * 16, 1)) * 1e10
    weight[::7] = 0.0
    weight[1::7] = -0.0
    g = rng.normal((4, 9, 9, 1)) * 1e300
    g[0, :3, :3] = np.inf
    g[1, 4:, 2:] = -np.inf
    g[2, 2, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _last_layer_grads(rng.normal((4, 9, 9, 16)), weight, g, True)
    assert np.isinf(got).any() and np.isnan(got).any()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_col2im_caches_one_matrix_per_grid_whatever_the_batch(rng):
    autodiff.scatter_matrix.cache_clear()
    weight, bias = Tensor(rng.normal((9 * 2, 1))), Tensor(np.zeros(1))
    for b in (1, 2, 5):
        for h, w in ((6, 5), (4, 4)):
            x = Tensor(rng.normal((b, h, w, 2)), requires_grad=True)
            conv2d(x, weight, bias, 3).backward(seed=np.ones((b, h, w, 1)))
    assert autodiff.scatter_matrix.cache_info().currsize == 2


@pytest.mark.parametrize("wrt", ["input", "embedding"])
def test_predict_vjp_scatters_only_the_channels_it_differentiates(rng, monkeypatch, wrt):
    model = ConvDenoiser(build_schedule(50, 1e-4, 0.02), embedding_dim=5, hidden=7,
                         rng=SeededRng(4))
    shapes_seen = []
    col2im = autodiff._col2im

    def recording_col2im(gcols, k, h, w):
        shapes_seen.append((h, w, gcols.shape[1] // (k * k)))
        return col2im(gcols, k, h, w)

    monkeypatch.setattr(autodiff, "_col2im", recording_col2im)
    x = rng.normal((2, 6, 6))
    _, vjp = model.predict_vjp(x, 10, ConditionEmbedding(rng.normal(5)), wrt)
    vjp(rng.normal((2, 6, 6)))
    # one scatter per batch item: layers 3, 2, 1 scatter their hidden inputs,
    # layer 0 only the part asked for
    widths = [7, 7, 7, 1 if wrt == "input" else 5]
    assert shapes_seen == [(6, 6, c) for c in widths for _ in range(2)]
