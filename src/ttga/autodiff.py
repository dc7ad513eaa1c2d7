"""Minimal reverse-mode automatic differentiation on float64 ndarrays.

Exactly as general as the chain a conv stack builds: conv -> tanh -> ... ->
conv, with an optional sigmoid at the end, whose leaves are the input parts,
the weights and the biases. The loss stays outside the graph:
``backward(seed)`` takes the loss's gradient with respect to the output, and
gradients accumulate on leaf tensors. Every node has at most one parent that
is not a leaf, so ``backward`` walks that chain from the output. The graph is
rebuilt on every forward pass, holds no reference cycle and is freed as soon
as its last reference goes.

``conv2d`` builds its patch columns one batch item at a time: it pads the
item into one reused grid and copies its columns through a strided view.
Without a weight gradient (every inference call) it reuses one item's
(H*W, k*k*C) buffer and runs one matrix product per item, the product a
single-grid call runs, so item i of a batch has the bits of the single-grid
call. A weight gradient reads every column, so a training forward writes
item n's columns into block n of one (B*H*W, k*k*C) buffer and runs one
product. The input gradient is one product and one scatter per item.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

if TYPE_CHECKING:
    from scipy import sparse


def logistic(z) -> np.ndarray:
    """1 / (1 + exp(-z)); below z = -709 exp overflows, unreported, and the
    result is 0, the correctly rounded limit."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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
        y = logistic(self.data)
        def backward(g):
            return (g * y * (1.0 - y),)
        return self._make(y, (self,), backward)

    # ---- graph ----

    def backward(self, seed) -> None:
        """Accumulate d<seed, self>/d leaf on every leaf that requires a
        gradient; ``seed`` has this tensor's shape.

        Each node hands its gradient straight to its parents. In a chain
        every node but a leaf is reached once; a node reached along two
        paths would run once per path, which the graphs here never build.
        """
        if not self.requires_grad:
            return
        pending = [(self, np.asarray(seed, dtype=np.float64))]
        while pending:
            node, g = pending.pop()
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            pending.extend((p, pg) for p, pg in zip(node._parents, node._backward(g))
                           if p.requires_grad)


@functools.cache
def scatter_matrix(h: int, w: int, k: int) -> sparse.csr_array:
    """The 0/1 (H*W, H*W*k*k) matrix of _col2im on an (H, W) grid.

    The row of input pixel (y, x) holds, in kernel-position order (i, j), the
    column of every patch entry that lands on it: entry (i, j) of the patch
    centred on (y + pad - i, x + pad - j). The product sums each row in stored
    order from +0, so it adds exactly what a strided add per kernel position
    adds, in the same order. The indices must stay unsorted.

    ``scipy.sparse`` is imported here, so a process that runs no conv
    backward does not load it.
    """
    from scipy import sparse

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


def _col2im(gcols: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    """Adjoint of one item's column copy: scatter-add its (H*W, k*k*C) patch
    gradients back to an (H*W, C) input gradient by one sparse product."""
    return scatter_matrix(h, w, k) @ gcols.reshape(h * w * k * k, -1)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, k: int,
           more: Sequence[Tensor] = ()) -> Tensor:
    """Stride-1 'same' convolution. x: (B,H,W,Cx); weight: (k*k*Cin, Cout).

    The input is x followed along the channel axis by each tensor of
    ``more``, whose leading axes broadcast to (B, H, W): each part is written
    straight into the padded grid, item by item. The graph parents are the
    parts: each part that requires a gradient gets one from its own weight
    rows, scattered over its own channels only.
    """
    b, h, w, _ = x.data.shape
    parts, cin = [], 0
    for p in (x, *more):
        c = p.data.shape[-1]
        parts.append((p, cin, cin + c))
        cin += c
    cout = weight.data.shape[1]
    pad = k // 2
    grid = np.zeros((h + 2 * pad, w + 2 * pad, cin))
    # patches[y, x, i] is kernel row i of the patch centred on (y, x): the k*C
    # values of padded row y + i from column x on, contiguous as in the columns
    row, col, value = grid.strides
    patches = as_strided(grid, (h, w, k, k * cin), (row, col, row, value), writeable=False)
    # the weight gradient reads every column: item n's go to block n of one
    # buffer, for one product; otherwise one item's buffer is reused, one product each
    keep = weight.requires_grad
    cols = np.empty((b if keep else 1, h, w, k, k * cin))
    out = np.empty((b, h * w, cout))
    for n in range(b):
        for p, lo, hi in parts:
            grid[pad:pad + h, pad:pad + w, lo:hi] = p.data[n if len(p.data) > 1 else 0]
        cols[n if keep else 0] = patches
        if not keep:
            np.matmul(cols.reshape(h * w, -1), weight.data, out=out[n])
    flat = None
    if keep:
        flat = cols.reshape(b * h * w, -1)
        np.matmul(flat, weight.data, out=out.reshape(b * h * w, cout))
    out += bias.data
    out = Tensor(out.reshape(b, h, w, cout))

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
                    gx = np.empty((b, h * w, hi - lo))
                    # one item's gradient columns at a time, each scattered at once
                    for n in range(b):
                        gx[n] = _col2im(gitems[n] @ wpt, k, h, w)
                    gx = gx.reshape(b, h, w, hi - lo)
                    # a part broadcast over an axis gets the sum over it
                    axes = tuple(i for i, size in enumerate(p.shape) if size < gx.shape[i])
                    if axes:
                        gx = gx.sum(axis=axes, keepdims=True)
                gparts.append(gx)
            return (*gparts, gw, gb)
        out._backward = backward
    return out
