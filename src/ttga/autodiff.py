"""Minimal reverse-mode automatic differentiation on float64 ndarrays.

Just the ops that the small convolutional models in this package build:
tanh/sigmoid, channel concatenation with broadcasting and spatial 3x3-style
convolution (im2col). The loss stays outside the graph: ``backward(seed)``
takes the loss's gradient with respect to the output, and gradients
accumulate on leaf tensors. The graph is rebuilt on every forward pass. No
graph holds a reference cycle, so each one is freed as soon as its last
reference goes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def _col2im(gcols: np.ndarray, k: int, in_shape: tuple) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patch gradients back to the input."""
    b, h, w, c = in_shape
    pad = k // 2
    g = gcols.reshape(b, h, w, k * k, c)
    gx = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            gx[:, i:i + h, j:j + w, :] += g[:, :, :, i * k + j, :]
    return gx[:, pad:pad + h, pad:pad + w, :]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, k: int) -> Tensor:
    """Stride-1 'same' convolution. x: (B,H,W,Cin); weight: (k*k*Cin, Cout).

    Over a ``concat_channels`` output the graph parents are its parts: each
    part that requires a gradient gets one from its own weight rows, scattered
    over its own channels only.
    """
    cols = _im2col(x.data, k)
    b, h, w, cin = x.data.shape
    cout = weight.data.shape[1]
    flat = cols.reshape(-1, cols.shape[-1])
    out_data = (flat @ weight.data).reshape(b, h, w, cout) + bias.data

    out = Tensor(out_data)
    parts = x.parts if isinstance(x, _Concat) else ((x, 0, cin),)
    if weight.requires_grad or bias.requires_grad or any(p.requires_grad for p, _, _ in parts):
        out.requires_grad = True
        out._parents = (*(p for p, _, _ in parts), weight, bias)
        need_b = bias.requires_grad
        # only the weight gradient reads the columns; otherwise they die here
        wcols = flat if weight.requires_grad else None
        def backward(g):
            gflat = g.reshape(-1, cout)
            gw = wcols.T @ gflat if wcols is not None else None
            gb = g.sum(axis=(0, 1, 2)) if need_b else None
            # weight rows are ordered (kernel position, input channel)
            rows = weight.data.reshape(k * k, cin, cout)
            gparts = []
            for p, lo, hi in parts:
                gx = None
                if p.requires_grad:
                    wp = rows[:, lo:hi].reshape(-1, cout)
                    gcols = (gflat @ wp.T).reshape(b, h, w, -1)
                    gx = _unbroadcast(_col2im(gcols, k, (b, h, w, hi - lo)), p.shape)
                gparts.append(gx)
            return (*gparts, gw, gb)
        out._backward = backward
    return out
