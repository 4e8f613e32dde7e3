"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operation graph;
``backward()`` accumulates gradients into the leaves by iterative topological
traversal (the graphs here get thousands of nodes deep, so no recursion) and
consumes the graph as it goes.

The module-level helpers (``exp``, ``concat``, ``log_softmax``, ...) dispatch
on argument type: given plain ndarrays they run straight numpy, given Tensors
they build graph nodes. Network code written against these helpers
therefore runs identically in a fast no-gradient mode and a differentiable
mode. The network's two loops, the GRU scan and multi-head attention, are
fused ops of this kind over the row sets of many sub-steps at once
(``masked_gru_scan``, ``masked_attention``) that record one node per call.
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
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                # the pass consumes the graph: an inner node's gradient and the
                # values its backward kept are freed once passed to its parents
                node.grad, node._backward, node._parents = None, None, ()

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    # -- basics ----------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def reshape(self, shape):
        out = Tensor(self.data.reshape(shape), (self,))
        out._backward = lambda g: self._accum(g.reshape(self.data.shape))
        return out

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


# -- batched ops over row sets ------------------------------------------------------
#
# The network stacks row sets into one array: S sets of ``lengths[s] >= 1``
# rows each, concatenated in order, ``(sum(lengths), d)``. Each op below runs
# on plain arrays and, when any input is a Tensor, records one graph node with
# a hand-written backward, so the graph size does not depend on S or on the
# lengths. One set of plain arrays (a sampled sub-step) takes an unpadded path
# that gives the same values with less bookkeeping. The backwards of
# ``masked_attention`` and ``masked_gru_scan`` replay the gradient arithmetic
# of the equivalent elementwise graph expression for expression: the same
# operand order, the same per-step accumulation into shared weights, and
# parents listed so that ``Tensor.backward`` reaches the input projections in
# the same order. Their gradients are therefore bit-identical to building
# that graph op by op.


def _any_tensor(args) -> bool:
    return any(isinstance(a, Tensor) for a in args)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """First row of each set."""
    return np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``, broadcast elementwise."""
    if not _any_tensor((a, b)):
        return np.where(cond, a, b)
    a_t, b_t = _wrap(a), _wrap(b)

    def back(g):
        a_t._accum(_unbroadcast(np.where(cond, g, 0.0), a_t.data.shape))
        b_t._accum(_unbroadcast(np.where(cond, 0.0, g), b_t.data.shape))

    return Tensor(np.where(cond, a_t.data, b_t.data), (a_t, b_t), back)


def segment_sum(x, segments: np.ndarray, n: int):
    """``out[j]`` is the sum of the entries of the vector ``x`` whose segment
    id ``segments[i]`` is ``j``, added in index order; ``out`` has ``n``
    entries."""
    out = np.bincount(segments, weights=detach(x), minlength=n)
    if not isinstance(x, Tensor):
        return out
    return Tensor(out, (x,), lambda g: x._accum(g[segments]))


def log_softmax(x, lengths: np.ndarray):
    """Log-softmax within each set of the vector ``x``: set ``s`` is the next
    ``lengths[s] >= 1`` entries. The max shift is detached, so gradients
    stay exact."""
    x_ = detach(x)
    starts = _starts(lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    z = x_ - np.maximum.reduceat(x_, starts)[owner]
    e = np.exp(z)
    den = np.add.reduceat(e, starts)
    out = z - np.log(den)[owner]
    if not isinstance(x, Tensor):
        return out
    p = e / den[owner]
    return Tensor(out, (x,),
                  lambda g: x._accum(g - p * np.add.reduceat(g, starts)[owner]))


# Upper bound on the score cells one attention block holds per head: a padded
# block of sets x width x width, or a slice of query rows x keys of one set.
ATTENTION_CELLS = 1 << 20


def _length_classes(lengths: np.ndarray):
    """The sets, longest first, in groups whose lengths lie within a factor
    of two and whose padded score cells (sets x width^2) stay within
    ``ATTENTION_CELLS``; a set wider than that is a group of its own.
    Returns (set indices, padded width) per group. Padding a group to its
    longest set wastes at most half of each row and three quarters of each
    score matrix."""
    order = np.argsort(-lengths, kind="stable")
    groups, first = [], 0
    for i in range(1, len(order) + 1):
        width = int(lengths[order[first]])
        if (i == len(order) or 2 * lengths[order[i]] <= width
                or (i + 1 - first) * width ** 2 > ATTENTION_CELLS):
            groups.append((order[first:i], width))
            first = i
    return groups


def _head_slices(q, k, n_heads: int, neg, step: int):
    """Softmax attention weights of each head over the last two axes, query
    rows in slices of ``step``, keys offset by ``neg`` (``-inf`` masks one).
    Yields each slice's rows and head columns ``at``, the head's ``cols`` and
    the slice's ``e``, ``den`` and ``att``; its output is ``att @ v[cols]``."""
    dh = q.shape[-1] // n_heads
    scale = math.sqrt(dh)
    for j in range(n_heads):
        cols = (Ellipsis, slice(j * dh, (j + 1) * dh))
        k_t = k[cols].swapaxes(-1, -2)
        for lo in range(0, q.shape[-2], step):
            at = (Ellipsis, slice(lo, lo + step), cols[1])
            s = (q[at] @ k_t) / scale + neg
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            den = e.sum(axis=-1, keepdims=True)
            yield at, cols, e, den, e / den


def masked_attention(q, k, v, n_heads: int, lengths: np.ndarray):
    """Multi-head scaled dot-product attention inside each row set: a row
    attends to the rows of its own set. ``q``/``k``/``v`` are the stacked
    ``(sum(lengths), d)`` projections and head ``j`` reads columns ``j * d /
    n_heads`` up to the next head's. Returns the heads side by side, before
    any output projection. Sets of similar length are padded into one block
    and the padded keys masked. Both modes attend a block in slices of
    ``max(1, ATTENTION_CELLS // (sets x width))`` query rows, so no score
    array holds more than ``ATTENTION_CELLS`` cells per head; backward
    recomputes each slice from the block's q, k and v."""
    args = (q, k, v)
    q_, k_, v_ = (detach(a) for a in args)
    track = _any_tensor(args)
    out = np.empty_like(q_)
    if len(lengths) == 1 and not track:
        step = max(1, ATTENTION_CELLS // len(q_))
        for at, cols, _, _, att in _head_slices(q_, k_, n_heads, 0.0, step):
            out[at] = att @ v_[cols]
        return out
    starts = _starts(lengths)
    blocks = []
    for sets, width in _length_classes(lengths):
        valid = np.arange(width) < lengths[sets][:, None]
        # padded positions read the set's first row; they are masked as keys
        # and dropped as queries
        src = starts[sets][:, None] + np.where(valid, np.arange(width), 0)
        q3, k3, v3 = q_[src], k_[src], v_[src]
        neg = np.where(valid, 0.0, -np.inf)[:, None, :]
        step = max(1, ATTENTION_CELLS // (len(sets) * width))
        merged = np.empty(q3.shape)
        for at, cols, _, _, att in _head_slices(q3, k3, n_heads, neg, step):
            merged[at] = att @ v3[cols]
        out[src[valid]] = merged[valid]
        if track:
            blocks.append((src, valid, q3, k3, v3, neg, step))
    if not track:
        return out
    q_t, k_t, v_t = (_wrap(a) for a in args)
    scale = math.sqrt(q_.shape[1] // n_heads)

    def back(g):
        g_q, g_k, g_v = (np.zeros_like(q_) for _ in range(3))
        for src, valid, q3, k3, v3, neg, step in blocks:
            g3 = np.zeros(q3.shape)
            g3[valid] += g[src[valid]]
            g_q3, g_k3, g_v3 = (np.zeros(q3.shape) for _ in range(3))
            for at, cols, e, den, att in _head_slices(q3, k3, n_heads, neg, step):
                g_out = g3[at]
                g_att = g_out @ np.swapaxes(v3[cols], 1, 2)
                g_v3[cols] += np.swapaxes(att, 1, 2) @ g_out
                g_den = _unbroadcast(-g_att * e / (den ** 2), den.shape)
                g_s = ((g_att / den + g_den) * e) / scale
                g_q3[at] += g_s @ k3[cols]
                g_k3[cols] += np.swapaxes(np.swapaxes(q3[at], 1, 2) @ g_s, 1, 2)
            np.add.at(g_q, src, g_q3)
            np.add.at(g_k, src, g_k3)
            np.add.at(g_v, src, g_v3)
        q_t._accum(g_q)
        k_t._accum(g_k)
        v_t._accum(g_v)

    return Tensor(out, (q_t, k_t, v_t), back)


def masked_gru_scan(xz, xr, xh, uz, ur, uh, lengths: np.ndarray):
    """Gated recurrent scans over each row set in order, from a zero hidden
    state; returns the ``(S, d)`` final states. ``xz``/``xr``/``xh`` are the
    stacked ``(sum(lengths), d)`` input projections of the update gate, the
    reset gate and the candidate; ``uz``/``ur``/``uh`` are the recurrent
    weights. The scans run longest first, so that step i updates a prefix of
    the hidden states, and read their rows in time-major order."""
    args = (xz, xr, xh, uz, ur, uh)
    xz_, xr_, xh_, uz_, ur_, uh_ = (detach(a) for a in args)
    n_seq, d = len(lengths), xz_.shape[1]
    track = _any_tensor(args)
    if n_seq == 1 and not track:
        h = np.zeros((1, d))
        for i in range(xz_.shape[0]):
            z = sigmoid(xz_[i:i + 1] + h @ uz_)
            r = sigmoid(xr_[i:i + 1] + h @ ur_)
            cand = np.tanh(xh_[i:i + 1] + (r * h) @ uh_)
            h = (1.0 - z) * h + z * cand
        return h
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max())
    running = np.arange(steps)[:, None] < lengths[order]
    # active[i]: the sequences still running at step i, a prefix of ``order``;
    # time-major row i of step t is row ``first[t] + i`` of ``rows``
    active = running.sum(axis=1).tolist() + [0]
    first = np.concatenate([[0], np.cumsum(active[:steps])]).tolist()
    rows = (_starts(lengths)[order] + np.arange(steps)[:, None])[running]
    xz_t, xr_t, xh_t = xz_[rows], xr_[rows], xh_[rows]
    final = np.empty((n_seq, d))
    h = np.zeros((active[0], d))
    saved = []
    for i in range(steps):
        n, done, at = active[i], active[i + 1], slice(first[i], first[i + 1])
        hp = h[:n]
        z = sigmoid(xz_t[at] + hp @ uz_)
        r = sigmoid(xr_t[at] + hp @ ur_)
        rh = r * hp
        cand = np.tanh(xh_t[at] + rh @ uh_)
        omz = 1.0 - z
        if track:
            saved.append((hp, z, r, rh, cand, omz))
        h = omz * hp + z * cand
        final[done:n] = h[done:n]
    out = np.empty_like(final)
    out[order] = final
    if not track:
        return out
    xz_t_, xr_t_, xh_t_, uz_t, ur_t, uh_t = (_wrap(a) for a in args)

    def back(g_out):
        g_final = g_out[order]
        g_x = np.zeros((3, len(rows), d))  # z, r, h; time-major
        g = g_final[:active[steps - 1]]
        for i in range(steps - 1, -1, -1):
            n, at = active[i], slice(first[i], first[i + 1])
            hp, z, r, rh, cand, omz = saved[i]
            g_z = g * cand + -(g * hp)
            g_ah = (g * z) * (1.0 - cand ** 2)
            g_rh = g_ah @ uh_.T
            uh_t._accum(rh.T @ g_ah)
            g_ar = (g_rh * hp) * r * (1.0 - r)
            ur_t._accum(hp.T @ g_ar)
            g_az = g_z * z * (1.0 - z)
            uz_t._accum(hp.T @ g_az)
            g_x[0, at] += g_az
            g_x[1, at] += g_ar
            g_x[2, at] += g_ah
            g = ((g * omz + g_az @ uz_.T) + g_rh * r) + g_ar @ ur_.T
            if i:  # the sequences that ended at step i - 1 join
                g = np.concatenate([g, g_final[n:active[i - 1]]])
        g_in = np.empty_like(g_x)
        g_in[:, rows] = g_x
        xz_t_._accum(g_in[0])
        xh_t_._accum(g_in[2])
        xr_t_._accum(g_in[1])

    # backward's depth-first walk visits the last parent first, so xr's
    # projection is reached first, as in the per-row graph
    return Tensor(out, (uz_t, ur_t, uh_t, xz_t_, xh_t_, xr_t_), back)
