"""Minimal reverse-mode automatic differentiation on float64 ndarrays.

Just the ops that the small convolutional models in this package build:
tanh/sigmoid, channel concatenation with broadcasting and spatial 3x3-style
convolution (im2col). The loss stays outside the graph: ``backward(seed)``
takes the loss's gradient with respect to the output, and gradients
accumulate on leaf tensors. The graph is rebuilt on every forward pass. No
graph holds a reference cycle, so each one is freed as soon as its last
reference goes.

A convolution whose weight needs no gradient (every inference call) builds
its patch columns one batch item at a time, in one reused (H*W, k*k*C)
buffer, and runs one matrix product per item: the product a single-grid
call runs, so item i of a batch has the bits of the single-grid call. Only
a weight gradient reads every column, so a training forward builds the
whole batch's columns and runs one product. The input gradient is one
product and one scatter per item, in training too.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy import sparse


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a gradient back to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _make(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    # ---- elementwise ----

    def tanh(self):
        y = np.tanh(self.data)
        def backward(g):
            return (g * (1.0 - y * y),)
        return self._make(y, (self,), backward)

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        def backward(g):
            return (g * y * (1.0 - y),)
        return self._make(y, (self,), backward)

    # ---- graph ----

    def backward(self, seed) -> None:
        """Accumulate d<seed, self>/d leaf on every leaf that requires a
        gradient; ``seed`` has this tensor's shape."""
        seed = np.asarray(seed, dtype=np.float64)

        # Depth-first post-order with an explicit stack: no recursion limit on
        # deep graphs, and no self-referencing closure whose cycle would keep
        # every node (and each conv's im2col columns) alive until a cyclic GC.
        order: list[Tensor] = []
        if self.requires_grad:
            seen = {id(self)}
            stack = [(self, iter(self._parents))]
            while stack:
                node, parents = stack[-1]
                for p in parents:
                    if p.requires_grad and id(p) not in seen:
                        seen.add(id(p))
                        stack.append((p, iter(p._parents)))
                        break
                else:
                    stack.pop()
                    order.append(node)

        grads = {id(self): seed}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg


class _Concat(Tensor):
    """The output of ``concat_channels``: ``parts`` holds each part with the
    channel range [lo, hi) it fills."""

    __slots__ = ("parts",)


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last (channel) axis, broadcasting the leading
    axes of every part to their common shape.

    A ``conv2d`` over the result differentiates straight to the parts, so a
    part that needs no gradient costs its backward nothing.
    """
    lead = np.broadcast_shapes(*(t.shape[:-1] for t in tensors))
    bounds = np.cumsum([0] + [t.shape[-1] for t in tensors]).tolist()
    parts = tuple(zip(tensors, bounds[:-1], bounds[1:]))
    data = np.empty(lead + (bounds[-1],))
    for t, lo, hi in parts:
        data[..., lo:hi] = t.data
    out = _Concat(data)
    out.parts = parts
    if any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._parents = tuple(tensors)
        def backward(g):
            return tuple(_unbroadcast(g[..., lo:hi], t.shape) for t, lo, hi in parts)
        out._backward = backward
    return out


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(B,H,W,C) -> (B,H,W,k*k*C) patches under zero 'same' padding."""
    b, h, w, c = x.shape
    pad = k // 2
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    xp[:, pad:pad + h, pad:pad + w, :] = x
    # (B, H, W, C, k, k) windows; one copy lays them out as (k row, k col, C)
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, :h, :w]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b, h, w, k * k * c)


@functools.cache
def scatter_matrix(h: int, w: int, k: int) -> sparse.csr_array:
    """The 0/1 (H*W, H*W*k*k) matrix of _col2im on an (H, W) grid.

    The row of input pixel (y, x) holds, in kernel-position order (i, j), the
    column of every patch entry that lands on it: entry (i, j) of the patch
    centred on (y + pad - i, x + pad - j). The product sums each row in stored
    order from +0, so it adds exactly what a strided add per kernel position
    adds, in the same order. The indices must stay unsorted.
    """
    pad = k // 2
    y, x = np.divmod(np.arange(h * w), w)
    i, j = np.divmod(np.arange(k * k), k)
    sy = y[:, None] + pad - i
    sx = x[:, None] + pad - j
    inside = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    cols = (sy * w + sx) * (k * k) + i * k + j
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
    return sparse.csr_array((np.ones(int(indptr[-1])), cols[inside], indptr),
                            shape=(h * w, h * w * k * k))


def _col2im(gcols: np.ndarray, k: int, in_shape: tuple, out: np.ndarray | None = None
            ) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patch gradients back to the input, one
    sparse product per batch item; into ``out`` (shaped ``in_shape``) if given."""
    b, h, w, c = in_shape
    scatter = scatter_matrix(h, w, k)
    gx = np.empty(in_shape) if out is None else out
    for item, dst in zip(gcols.reshape(b, h * w * k * k, c), gx.reshape(b, h * w, c)):
        dst[...] = scatter @ item
    return gx


def _conv_items(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, k: int) -> np.ndarray:
    """conv2d's forward one batch item at a time. Each item is padded into one
    reused grid, its columns are copied into one reused (H*W, k*k*C) buffer,
    and one product writes that item's output rows."""
    b, h, w, c = x.shape
    pad = k // 2
    grid = np.zeros((h + 2 * pad, w + 2 * pad, c))
    cols = np.empty((h, w, k, k * c))
    # patches[y, x, i] is kernel row i of the patch centred on (y, x): the k*C
    # values of padded row y + i from column x on, contiguous as in cols
    row, col, value = grid.strides
    patches = as_strided(grid, (h, w, k, k * c), (row, col, row, value), writeable=False)
    flat = cols.reshape(h * w, k * k * c)
    out = np.empty((b, h * w, weight.shape[1]))
    for n in range(b):
        grid[pad:pad + h, pad:pad + w] = x[n]
        cols[...] = patches
        np.matmul(flat, weight, out=out[n])
    out += bias
    return out.reshape(b, h, w, -1)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, k: int) -> Tensor:
    """Stride-1 'same' convolution. x: (B,H,W,Cin); weight: (k*k*Cin, Cout).

    Over a ``concat_channels`` output the graph parents are its parts: each
    part that requires a gradient gets one from its own weight rows, scattered
    over its own channels only.
    """
    b, h, w, cin = x.data.shape
    cout = weight.data.shape[1]
    if weight.requires_grad:
        # the weight gradient reads every column: build them all, one product
        flat = _im2col(x.data, k).reshape(b * h * w, -1)
        out = Tensor((flat @ weight.data).reshape(b, h, w, cout) + bias.data)
    else:
        flat = None
        out = Tensor(_conv_items(x.data, weight.data, bias.data, k))
    parts = x.parts if isinstance(x, _Concat) else ((x, 0, cin),)
    if weight.requires_grad or bias.requires_grad or any(p.requires_grad for p, _, _ in parts):
        out.requires_grad = True
        out._parents = (*(p for p, _, _ in parts), weight, bias)
        need_b = bias.requires_grad
        def backward(g):
            gw = flat.T @ g.reshape(-1, cout) if flat is not None else None
            gb = g.sum(axis=(0, 1, 2)) if need_b else None
            # weight rows are ordered (kernel position, input channel)
            rows = weight.data.reshape(k * k, cin, cout)
            gitems = g.reshape(b, h * w, cout)
            gparts = []
            for p, lo, hi in parts:
                gx = None
                if p.requires_grad:
                    wpt = rows[:, lo:hi].reshape(-1, cout).T
                    gx = np.empty((b, h, w, hi - lo))
                    # one item's gradient columns at a time, each scattered at once
                    for n in range(b):
                        _col2im(gitems[n] @ wpt, k, (1, h, w, hi - lo), out=gx[n:n + 1])
                    gx = _unbroadcast(gx, p.shape)
                gparts.append(gx)
            return (*gparts, gw, gb)
        out._backward = backward
    return out
