"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operation graph;
``backward()`` accumulates gradients by iterative topological traversal (the
graphs here get thousands of nodes deep, so no recursion).

The module-level helpers (``exp``, ``concat``, ``log_softmax_vec``, ...)
dispatch on argument type: given plain ndarrays they run straight numpy, given
Tensors they build graph nodes. Network code written against these helpers
therefore runs identically in a fast no-gradient mode and a differentiable
mode. The network's two loops, the GRU scan and multi-head attention, are
fused ops of this kind (``gru_scan``, ``attention``) that record one node per
call.
"""

from __future__ import annotations

import math

import numpy as np


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


def log_softmax_vec(x):
    """Log-softmax of a flat vector (stable, detached max shift)."""
    shift = float(detach(x).max())
    z = x - shift
    return z - log(asum(exp(z)))


# -- fused network ops --------------------------------------------------------------
#
# Each op below runs its inner loop on plain arrays and, when any input is a
# Tensor, records one graph node whose hand-written backward replays the
# gradient arithmetic of the equivalent elementwise graph expression for
# expression: the same operand order, the same per-step accumulation into
# shared weights, and parents listed so that ``Tensor.backward`` reaches the
# input projections in the same order. Gradients are therefore bit-identical
# to building the graph op by op, at one node per call.


def _any_tensor(args) -> bool:
    return any(isinstance(a, Tensor) for a in args)


def gru_scan(xz, xr, xh, uz, ur, uh):
    """Gated recurrent scan over input rows from a zero hidden state; returns
    the final ``(1, d)`` state. ``xz``/``xr``/``xh`` hold one row per step:
    the input projections of the update gate, the reset gate and the
    candidate; ``uz``/``ur``/``uh`` are the recurrent weights."""
    args = (xz, xr, xh, uz, ur, uh)
    xz_, xr_, xh_, uz_, ur_, uh_ = (detach(a) for a in args)
    n, d = xz_.shape
    h = np.zeros((1, d))
    track = _any_tensor(args)
    saved = []
    for i in range(n):
        z = sigmoid(xz_[i:i + 1] + h @ uz_)
        r = sigmoid(xr_[i:i + 1] + h @ ur_)
        rh = r * h
        cand = np.tanh(xh_[i:i + 1] + rh @ uh_)
        omz = 1.0 - z
        if track:
            saved.append((h, z, r, rh, cand, omz))
        h = omz * h + z * cand
    if not track:
        return h
    xz_t, xr_t, xh_t, uz_t, ur_t, uh_t = (_wrap(a) for a in args)

    def back(g):
        g_xz, g_xr, g_xh = np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d))
        for i in range(n - 1, -1, -1):
            h, z, r, rh, cand, omz = saved[i]
            g_z = g * cand + -(g * h)
            g_ah = (g * z) * (1.0 - cand ** 2)
            g_rh = g_ah @ uh_.T
            uh_t._accum(rh.T @ g_ah)
            g_ar = (g_rh * h) * r * (1.0 - r)
            ur_t._accum(h.T @ g_ar)
            g_az = g_z * z * (1.0 - z)
            uz_t._accum(h.T @ g_az)
            g_xz[i:i + 1] += g_az
            g_xr[i:i + 1] += g_ar
            g_xh[i:i + 1] += g_ah
            g = ((g * omz + g_az @ uz_.T) + g_rh * r) + g_ar @ ur_.T
        xz_t._accum(g_xz)
        xh_t._accum(g_xh)
        xr_t._accum(g_xr)

    # backward's depth-first walk visits the last parent first, so xr's
    # projection is reached first, as in the per-row graph
    return Tensor(h, (uz_t, ur_t, uh_t, xz_t, xh_t, xr_t), back)


def attention(q, k, v, n_heads: int):
    """Multi-head scaled dot-product attention of every row over every row;
    returns the heads side by side, ``(n, d)``, before any output
    projection. ``q``/``k``/``v`` are the ``(n, d)`` projections; head ``j``
    reads columns ``j * d / n_heads`` up to the next head's."""
    q_, k_, v_ = detach(q), detach(k), detach(v)
    dh = q_.shape[1] // n_heads
    scale = math.sqrt(dh)
    track = _any_tensor((q, k, v))
    heads, saved = [], []
    for j in range(n_heads):
        cols = (slice(None), slice(j * dh, (j + 1) * dh))
        s = (q_[cols] @ k_[cols].T) / scale
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        den = e.sum(axis=-1, keepdims=True)
        att = e / den
        heads.append(att @ v_[cols])
        if track:
            saved.append((cols, e, den, att))
    merged = heads[0] if n_heads == 1 else np.concatenate(heads, axis=1)
    if not track:
        return merged
    q_t, k_t, v_t = _wrap(q), _wrap(k), _wrap(v)

    def back(g):
        g_q, g_k, g_v = np.zeros_like(q_), np.zeros_like(k_), np.zeros_like(v_)
        for cols, e, den, att in saved:
            g_out = g[cols]
            g_att = g_out @ v_[cols].T
            g_v[cols] += att.T @ g_out
            g_den = _unbroadcast(-g_att * e / (den ** 2), den.shape)
            g_s = ((g_att / den + g_den) * e) / scale
            g_q[cols] += g_s @ k_[cols]
            g_k[cols] += (q_[cols].T @ g_s).T
        q_t._accum(g_q)
        k_t._accum(g_k)
        v_t._accum(g_v)

    return Tensor(merged, (q_t, k_t, v_t), back)
