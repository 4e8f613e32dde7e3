"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operation graph;
``backward()`` accumulates gradients by iterative topological traversal (the
recurrent chains here get thousands of nodes deep, so no recursion).

The module-level helpers (``exp``, ``concat``, ``softmax_rows``, ...) dispatch on
argument type: given plain ndarrays they run straight numpy, given Tensors they
build graph nodes. Network code written against these helpers therefore runs
identically in a fast no-gradient mode and a differentiable mode.
"""

from __future__ import annotations

import numpy as np

ArrayLike = "np.ndarray | Tensor | float | int"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array node in the reverse-mode graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    # -- graph mechanics -------------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    # -- basics ----------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        o = _wrap(other)
        out = Tensor(self.data + o.data, (self, o))

        def back(g):
            self._accum(_unbroadcast(g, self.data.shape))
            o._accum(_unbroadcast(g, o.data.shape))
        out._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        o = _wrap(other)
        out = Tensor(self.data * o.data, (self, o))

        def back(g):
            self._accum(_unbroadcast(g * o.data, self.data.shape))
            o._accum(_unbroadcast(g * self.data, o.data.shape))
        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _wrap(other)
        out = Tensor(self.data / o.data, (self, o))

        def back(g):
            self._accum(_unbroadcast(g / o.data, self.data.shape))
            o._accum(_unbroadcast(-g * self.data / (o.data ** 2), o.data.shape))
        out._backward = back
        return out

    def __rtruediv__(self, other):
        return _wrap(other) / self

    def __matmul__(self, other):
        o = _wrap(other)
        out = Tensor(self.data @ o.data, (self, o))

        def back(g):
            self._accum(g @ o.data.T)
            o._accum(self.data.T @ g)
        out._backward = back
        return out

    def __rmatmul__(self, other):
        return _wrap(other) @ self

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], (self,))

        def back(g):
            buf = np.zeros_like(self.data)
            np.add.at(buf, idx, g)
            self._accum(buf)
        out._backward = back
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, (self,))
        out._backward = lambda g: self._accum(g.T)
        return out

    # -- elementwise functions -----------------------------------------------------

    def exp(self):
        val = np.exp(self.data)
        out = Tensor(val, (self,))
        out._backward = lambda g: self._accum(g * val)
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))
        out._backward = lambda g: self._accum(g / self.data)
        return out

    def tanh(self):
        val = np.tanh(self.data)
        out = Tensor(val, (self,))
        out._backward = lambda g: self._accum(g * (1.0 - val ** 2))
        return out

    def sigmoid(self):
        val = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(val, (self,))
        out._backward = lambda g: self._accum(g * val * (1.0 - val))
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def back(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(gg, self.data.shape).copy())
        out._backward = back
        return out


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# -- dual-mode helpers -------------------------------------------------------------

def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Tensor) else np.log(x)


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def sigmoid(x):
    if isinstance(x, Tensor):
        return x.sigmoid()
    return 1.0 / (1.0 + np.exp(-x))


def asum(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        return x.sum(axis=axis, keepdims=keepdims)
    return np.sum(x, axis=axis, keepdims=keepdims)


def concat(parts, axis=0):
    if any(isinstance(p, Tensor) for p in parts):
        parts = [_wrap(p) for p in parts]
        data = np.concatenate([p.data for p in parts], axis=axis)
        out = Tensor(data, tuple(parts))
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def back(g):
            for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                p._accum(g[tuple(sl)])
        out._backward = back
        return out
    return np.concatenate(parts, axis=axis)


def detach(x):
    return x.data if isinstance(x, Tensor) else x


def to_float(x) -> float:
    return float(x.data) if isinstance(x, Tensor) else float(x)


def softmax_rows(x):
    """Row-wise softmax; the max shift is detached so gradients stay exact."""
    shift = detach(x).max(axis=-1, keepdims=True)
    e = exp(x - shift)
    return e / asum(e, axis=-1, keepdims=True)


def log_softmax_vec(x):
    """Log-softmax of a flat vector (stable, detached max shift)."""
    shift = float(detach(x).max())
    z = x - shift
    return z - log(asum(exp(z)))
