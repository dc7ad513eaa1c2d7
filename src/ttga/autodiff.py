"""Minimal reverse-mode automatic differentiation on float64 ndarrays.

Just enough machinery for the small convolutional models in this package:
elementwise arithmetic with numpy broadcasting, matmul, tanh/sigmoid,
channel concatenation, spatial 3x3-style convolution (im2col), and
mean/sum reductions. Gradients accumulate on leaf tensors after
``backward()``; the graph is rebuilt on every forward pass.
"""

from __future__ import annotations

import numpy as np


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

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    # ---- elementwise ----

    def __add__(self, other):
        other = self._lift(other)
        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))
        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))
        return self._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )
        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

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

    # ---- shape ----

    def reshape(self, *shape):
        old = self.shape
        def backward(g):
            return (g.reshape(old),)
        return self._make(self.data.reshape(*shape), (self,), backward)

    def broadcast_to(self, shape):
        old = self.shape
        def backward(g):
            return (_unbroadcast(g, old),)
        return self._make(np.broadcast_to(self.data, shape).copy(), (self,), backward)

    # ---- linear algebra ----

    def matmul(self, other):
        other = self._lift(other)
        def backward(g):
            return (g @ other.data.T, self.data.T @ g)
        return self._make(self.data @ other.data, (self, other), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    # ---- reductions ----

    def sum(self):
        shape = self.shape
        def backward(g):
            return (np.broadcast_to(g, shape).copy(),)
        return self._make(self.data.sum(), (self,), backward)

    def mean(self):
        n = self.data.size
        shape = self.shape
        def backward(g):
            return (np.broadcast_to(g / n, shape).copy(),)
        return self._make(self.data.mean(), (self,), backward)

    # ---- graph ----

    def backward(self, seed=None):
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed requires a scalar output")
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=np.float64)

        order: list[Tensor] = []
        seen = set()
        def visit(node: Tensor):
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            order.append(node)
        visit(self)

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


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last (channel) axis."""
    sizes = [t.shape[-1] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=-1)
    out = Tensor(data)
    if any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._parents = tuple(tensors)
        offsets = np.cumsum([0] + sizes)
        def backward(g):
            return tuple(
                g[..., offsets[i]:offsets[i + 1]] for i in range(len(tensors))
            )
        out._backward = backward
    return out


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(B,H,W,C) -> (B,H,W,k*k*C) patches under zero 'same' padding."""
    b, h, w, c = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((b, h, w, k * k, c), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            cols[:, :, :, i * k + j, :] = xp[:, i:i + h, j:j + w, :]
    return cols.reshape(b, h, w, k * k * c)


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
    """Stride-1 'same' convolution. x: (B,H,W,Cin); weight: (k*k*Cin, Cout)."""
    cols = _im2col(x.data, k)
    b, h, w, _ = x.data.shape
    cout = weight.data.shape[1]
    flat = cols.reshape(-1, cols.shape[-1])
    out_data = (flat @ weight.data).reshape(b, h, w, cout) + bias.data

    out = Tensor(out_data)
    if x.requires_grad or weight.requires_grad or bias.requires_grad:
        out.requires_grad = True
        out._parents = (x, weight, bias)
        # gradients are computed only for the inputs that require them
        need_x, need_w, need_b = x.requires_grad, weight.requires_grad, bias.requires_grad
        def backward(g):
            gflat = g.reshape(-1, cout)
            gw = flat.T @ gflat if need_w else None
            gb = g.sum(axis=(0, 1, 2)) if need_b else None
            gx = None
            if need_x:
                gx = _col2im((gflat @ weight.data.T).reshape(b, h, w, -1), k, x.data.shape)
            return (gx, gw, gb)
        out._backward = backward
    return out
