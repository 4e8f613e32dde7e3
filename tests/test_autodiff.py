import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from micod import autodiff, d2sn
from micod.autodiff import (Tensor, _length_classes, asum, concat, detach, exp, log_softmax,
                            masked_attention, masked_gru_scan, segment_sum, sigmoid, tanh, where)
from micod.env import OuterState


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + h
        fp = f(x)
        x[ix] = orig - h
        fm = f(x)
        x[ix] = orig
        g[ix] = (fp - fm) / (2 * h)
    return g


def check_op(build, shape, seed=0, tol=1e-5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)

    def f(arr):
        return float(detach(build(Tensor(arr))))

    t = Tensor(x)
    out = build(t)
    out.backward()
    num = numeric_grad(f, x.copy())
    assert np.allclose(t.grad, num, atol=tol), (t.grad, num)


def test_add_mul_broadcast():
    b = np.array([[1.0, 2.0, 3.0]])
    check_op(lambda t: ((t + Tensor(b)) * t).sum(), (4, 3))


def test_matmul_grad():
    w = np.arange(6.0).reshape(3, 2)
    check_op(lambda t: (t @ Tensor(w)).sum(), (4, 3))


def test_chain_exp_tanh_sigmoid():
    check_op(lambda t: (t.tanh().sigmoid().exp()).sum(), (3, 3))


def test_div_and_rsub():
    check_op(lambda t: ((1.0 - t) / (t * t + 2.0)).sum(), (3, 2))


def test_getitem_scalar_and_slice():
    check_op(lambda t: t[1, 2] * 3.0, (3, 4))
    check_op(lambda t: t[:, 1:3].sum(), (3, 4))


def test_getitem_fancy_rows_with_repeats():
    idx = np.array([0, 2, 0])
    check_op(lambda t: (t[idx] * t[idx]).sum(), (3, 4))


def test_transpose():
    check_op(lambda t: (t.T @ Tensor(np.ones((3, 2)))).sum(), (3, 4))


def test_concat_axis0_and_axis1():
    a = np.random.default_rng(1).normal(size=(2, 3))
    check_op(lambda t: concat([t, Tensor(a)], axis=0).sum() * 2.0, (2, 3))
    check_op(lambda t: (concat([t, t], axis=1) ** 0 if False else concat([t, t * 2.0], axis=1)).sum(), (2, 3))


def test_sum_axis_keepdims():
    check_op(lambda t: (t.sum(axis=0, keepdims=True) * Tensor(np.ones((1, 4)))).sum(), (3, 4))
    check_op(lambda t: t.sum(axis=1).sum(), (3, 4))


def test_log_softmax_one_set_matches_naive():
    rng = np.random.default_rng(3)
    z = rng.normal(size=7) * 10
    one = np.array([7])
    lp = log_softmax(z, one)
    assert np.allclose(np.exp(lp).sum(), 1.0, atol=1e-12)
    naive = z - np.log(np.exp(z - z.max()).sum()) - z.max()
    assert np.allclose(lp, naive, atol=1e-12)
    check_op(lambda t: log_softmax(t, one)[2], (7,))


def test_dual_mode_helpers_agree():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3))
    for fn in (exp, tanh, sigmoid):
        nd = fn(x)
        tt = detach(fn(Tensor(x)))
        assert np.array_equal(nd, tt)
    assert np.array_equal(asum(x, axis=1), detach(asum(Tensor(x), axis=1)))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_grad_accumulates_over_shared_use():
    x = np.array([[2.0]])
    t = Tensor(x)
    out = (t * t + t).sum()  # d/dx (x^2 + x) = 2x + 1 = 5
    out.backward()
    assert np.allclose(t.grad, [[5.0]])


def test_deep_chain_no_recursion_limit():
    t = Tensor(np.ones((1, 1)) * 0.5)
    cur = t
    for _ in range(5000):
        cur = cur * 1.0001
    cur.sum().backward()
    assert t.grad is not None and np.isfinite(t.grad).all()


# -- fused ops against the graph loops they replaced -------------------------------
#
# ``reference_*`` below is the network code that once built these layers out
# of elementwise graph nodes: one set of nodes per GRU row and per attention
# head. The masked batched ops, on one unpadded block, must reproduce its
# values and every input gradient bit for bit, in Tensor mode and in numpy
# mode, where one set takes the ops' unpadded path.


def reference_gru_scan(xz, xr, xh, uz, ur, uh):
    n = detach(xz).shape[0]
    h = np.zeros((1, detach(xz).shape[1]))
    for i in range(n):
        row = (slice(i, i + 1), slice(None))
        z = sigmoid(xz[row] + h @ uz)
        r = sigmoid(xr[row] + h @ ur)
        cand = tanh(xh[row] + (r * h) @ uh)
        h = (1.0 - z) * h + z * cand
    return h


def softmax_rows(x):
    """Row-wise softmax; the max shift is detached so gradients stay exact."""
    shift = detach(x).max(axis=-1, keepdims=True)
    e = exp(x - shift)
    return e / asum(e, axis=-1, keepdims=True)


def _log(x):
    """Elementwise log, a graph node when ``x`` is a Tensor."""
    if not isinstance(x, Tensor):
        return np.log(x)
    return Tensor(np.log(x.data), (x,), lambda g: x._accum(g / x.data))


def reference_log_softmax_vec(x):
    """Log-softmax of a flat vector (stable, detached max shift) out of
    elementwise graph nodes: the one-set softmax the network once used."""
    shift = float(detach(x).max())
    z = x - shift
    return z - _log(asum(exp(z)))


def test_softmax_rows_sums_to_one_and_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    probs = softmax_rows(x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    check_op(lambda t: (softmax_rows(t) * Tensor(x)).sum(), (4, 5))


def reference_attention(q, k, v, n_heads):
    dh = detach(q).shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        sl = (slice(None), slice(h * dh, (h + 1) * dh))
        qh, kh, vh = q[sl], k[sl], v[sl]
        att = softmax_rows((qh @ kh.T) / math.sqrt(dh))
        heads.append(att @ vh)
    return heads[0] if n_heads == 1 else concat(heads, axis=1)


# The same loops over stacked row sets, as graphs of elementwise nodes: what
# ``masked_attention`` and ``masked_gru_scan`` fuse into one node each.


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _swap(t):
    """Swap the last two axes."""
    return Tensor(np.swapaxes(t.data, -1, -2), (t,),
                  lambda g: t._accum(np.swapaxes(g, -1, -2)))


def _bmm(a, b):
    """Batched matrix product."""
    def back(g):
        a._accum(g @ np.swapaxes(b.data, -1, -2))
        b._accum(np.swapaxes(a.data, -1, -2) @ g)
    return Tensor(a.data @ b.data, (a, b), back)


def _starts(lengths):
    return np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)


def reference_masked_attention(q, k, v, n_heads, lengths):
    d = detach(q).shape[1]
    dh = d // n_heads
    q, k, v = (_as_tensor(a) for a in (q, k, v))
    starts = _starts(lengths)
    pieces, placed = [], []
    for sets, width in _length_classes(lengths):
        valid = np.arange(width) < lengths[sets][:, None]
        src = starts[sets][:, None] + np.where(valid, np.arange(width), 0)
        q3, k3, v3 = q[src], k[src], v[src]
        neg = np.where(valid, 0.0, -np.inf)[:, None, :]
        heads = []
        for h in range(n_heads):
            sl = (slice(None), slice(None), slice(h * dh, (h + 1) * dh))
            att = softmax_rows(_bmm(q3[sl], _swap(k3[sl])) / math.sqrt(dh) + neg)
            heads.append(_bmm(att, v3[sl]))
        merged = heads[0] if n_heads == 1 else concat(heads, axis=2)
        pieces.append(merged[valid])
        placed.append(src[valid])
    out = concat(pieces, axis=0) if len(pieces) > 1 else pieces[0]
    return out[np.argsort(np.concatenate(placed))]


def reference_masked_gru_scan(xz, xr, xh, uz, ur, uh, lengths):
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max())
    active = [int(np.count_nonzero(lengths > i)) for i in range(steps)] + [0]
    starts = _starts(lengths)[order]
    h = np.zeros((active[0], detach(xz).shape[1]))
    ended = []
    for i in range(steps):
        n, done = active[i], active[i + 1]
        rows = starts[:n] + i
        hp = h[:n]
        z = sigmoid(_as_tensor(xz)[rows] + hp @ uz)
        r = sigmoid(_as_tensor(xr)[rows] + hp @ ur)
        cand = tanh(_as_tensor(xh)[rows] + (r * hp) @ uh)
        h = (1.0 - z) * hp + z * cand
        if done < n:
            ended.append(h[done:n])
    final = concat(ended[::-1], axis=0) if len(ended) > 1 else ended[0]
    return final[np.argsort(order)]


GRU_INPUTS = ("xz", "xr", "xh", "uz", "ur", "uh")
ATT_INPUTS = ("q", "k", "v")


def gru_arrays(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    out = {name: rng.normal(size=(n, d)) for name in GRU_INPUTS[:3]}
    out.update({name: rng.normal(size=(d, d)) / math.sqrt(d) for name in GRU_INPUTS[3:]})
    return out


def att_arrays(n, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=(n, d)) for name in ATT_INPUTS}


def run_and_backprop(fn, arrays, tensor_names, weight):
    """Call ``fn`` with the named inputs as Tensors (the rest as ndarrays),
    backprop ``sum(out * weight)`` and return the value and the gradients."""
    inputs = {n: Tensor(a.copy()) if n in tensor_names else a.copy() for n, a in arrays.items()}
    out = fn(**inputs)
    (out * Tensor(weight)).sum().backward()
    return detach(out), {n: inputs[n].grad for n in tensor_names}


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("tensor_names", [GRU_INPUTS, ("xz", "xh", "uz"), ("ur",), ("xr", "uh")])
def test_gru_scan_bitwise_equals_row_loop(n, tensor_names):
    arrays = gru_arrays(n, seed=n)
    weight = np.random.default_rng(100 + n).normal(size=(1, 4))
    one_block = partial(masked_gru_scan, lengths=np.array([n]))
    val, grads = run_and_backprop(one_block, arrays, tensor_names, weight)
    ref_val, ref_grads = run_and_backprop(reference_gru_scan, arrays, tensor_names, weight)
    assert_bitwise(val, ref_val)
    for name in tensor_names:
        assert_bitwise(grads[name], ref_grads[name])
    assert_bitwise(one_block(**arrays), val)  # numpy mode
    assert_bitwise(reference_gru_scan(**arrays), val)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("tensor_names", [ATT_INPUTS, ("k",), ("q", "v")])
def test_attention_bitwise_equals_head_loop(n, n_heads, tensor_names):
    arrays = att_arrays(n, seed=10 * n + n_heads)
    weight = np.random.default_rng(n_heads).normal(size=(n, 8))
    one_block = partial(masked_attention, n_heads=n_heads, lengths=np.array([n]))
    val, grads = run_and_backprop(one_block, arrays, tensor_names, weight)
    ref_val, ref_grads = run_and_backprop(partial(reference_attention, n_heads=n_heads),
                                          arrays, tensor_names, weight)
    assert_bitwise(val, ref_val)
    for name in tensor_names:
        assert_bitwise(grads[name], ref_grads[name])
    assert_bitwise(one_block(**arrays), val)  # numpy mode
    assert_bitwise(reference_attention(**arrays, n_heads=n_heads), val)


# Stacked row sets of lengths LENGTHS: every check below crosses a sequence
# that ends early, a one-row set and sets padded together for attention.
LENGTHS = np.array([3, 7, 1, 5, 4, 2])
ROWS = int(LENGTHS.sum())


def _sets(lengths):
    starts = _starts(lengths)
    return [slice(a, a + n) for a, n in zip(starts, lengths)]


@pytest.mark.parametrize("tensor_names", [GRU_INPUTS, ("xz", "uh")])
def test_masked_gru_scan_bitwise_equals_graph_and_matches_each_sequence(tensor_names):
    arrays = gru_arrays(ROWS, seed=5)
    weight = np.random.default_rng(6).normal(size=(len(LENGTHS), 4))
    fused = partial(masked_gru_scan, lengths=LENGTHS)
    val, grads = run_and_backprop(fused, arrays, tensor_names, weight)
    ref_val, ref_grads = run_and_backprop(partial(reference_masked_gru_scan, lengths=LENGTHS),
                                          arrays, tensor_names, weight)
    assert_bitwise(val, ref_val)
    for name in tensor_names:
        assert_bitwise(grads[name], ref_grads[name])
    assert_bitwise(fused(**arrays), val)
    # set by set against the unbatched row loop
    sums = {}
    for s, rows in enumerate(_sets(LENGTHS)):
        block = {k: a[rows] if k in GRU_INPUTS[:3] else a for k, a in arrays.items()}
        one_val, one_grads = run_and_backprop(reference_gru_scan, block, tensor_names,
                                              weight[s:s + 1])
        np.testing.assert_allclose(val[s:s + 1], one_val, rtol=1e-12, atol=1e-15)
        for name in tensor_names:
            if name in GRU_INPUTS[:3]:
                np.testing.assert_allclose(grads[name][rows], one_grads[name],
                                           rtol=1e-12, atol=1e-15)
            else:
                sums[name] = sums.get(name, 0.0) + one_grads[name]
    for name, total in sums.items():
        np.testing.assert_allclose(grads[name], total, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_masked_attention_bitwise_equals_graph_and_matches_each_set(n_heads):
    arrays = att_arrays(ROWS, seed=7)
    weight = np.random.default_rng(8).normal(size=(ROWS, 8))
    fused = partial(masked_attention, n_heads=n_heads, lengths=LENGTHS)
    val, grads = run_and_backprop(fused, arrays, ATT_INPUTS, weight)
    ref_val, ref_grads = run_and_backprop(partial(reference_masked_attention, n_heads=n_heads,
                                                  lengths=LENGTHS),
                                          arrays, ATT_INPUTS, weight)
    assert_bitwise(val, ref_val)
    for name in ATT_INPUTS:
        assert_bitwise(grads[name], ref_grads[name])
    assert_bitwise(fused(**arrays), val)
    for rows in _sets(LENGTHS):
        block = {k: a[rows] for k, a in arrays.items()}
        one_val, one_grads = run_and_backprop(partial(reference_attention, n_heads=n_heads),
                                              block, ATT_INPUTS, weight[rows])
        np.testing.assert_allclose(val[rows], one_val, rtol=1e-12, atol=1e-15)
        for name in ATT_INPUTS:
            np.testing.assert_allclose(grads[name][rows], one_grads[name],
                                       rtol=1e-12, atol=1e-15)


def test_length_classes_pad_within_a_factor_of_two(monkeypatch):
    lengths = np.array([1, 9, 4, 5, 72, 36, 37, 2, 1])
    for bound, widths in ((autodiff.ATTENTION_CELLS, [72, 36, 9, 4, 2, 1]),
                          (64, [72, 37, 36, 9, 5, 2, 1])):
        monkeypatch.setattr(autodiff, "ATTENTION_CELLS", bound)
        classes = _length_classes(lengths)
        assert sorted(np.concatenate([sets for sets, _ in classes]).tolist()) == list(range(9))
        for sets, width in classes:
            assert width == lengths[sets].max() and 2 * lengths[sets].min() > width
            # a set wider than the bound is a group of its own
            assert len(sets) * width ** 2 <= bound or len(sets) == 1
        assert [w for _, w in classes] == widths


# With ATTENTION_CELLS patched to 64, one set of n rows is attended
# max(1, 64 // n) query rows at a time: the whole set at n = 7 and 8, two
# slices at n = 9.
@pytest.mark.parametrize("n", [7, 8, 9])
@pytest.mark.parametrize("n_heads", [1, 2])
def test_one_set_attention_in_query_slices(monkeypatch, n, n_heads):
    arrays = att_arrays(n, seed=40 + n)
    one_set = partial(masked_attention, n_heads=n_heads, lengths=np.array([n]))
    whole = one_set(**arrays)
    monkeypatch.setattr(autodiff, "ATTENTION_CELLS", 64)
    sliced = one_set(**arrays)
    if 64 // n >= n:
        assert_bitwise(sliced, whole)
    else:
        np.testing.assert_allclose(sliced, whole, rtol=1e-12, atol=1e-15)
    # Tensor mode attends the set in the same slices
    assert_bitwise(run_and_backprop(one_set, arrays, ATT_INPUTS, np.ones((n, 8)))[0], sliced)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_split_groups_agree_in_numpy_and_tensor_mode(monkeypatch, n_heads):
    arrays = att_arrays(ROWS, seed=11)
    weight = np.random.default_rng(12).normal(size=(ROWS, 8))
    fused = partial(masked_attention, n_heads=n_heads, lengths=LENGTHS)
    val, grads = run_and_backprop(fused, arrays, ATT_INPUTS, weight)
    # groups [7], [5], [4], [3, 2], [1]; both modes slice the sets of 7 and 5,
    # and backward recomputes the same slices
    monkeypatch.setattr(autodiff, "ATTENTION_CELLS", 20)
    split_val, split_grads = run_and_backprop(fused, arrays, ATT_INPUTS, weight)
    for got in (split_val, fused(**arrays)):
        np.testing.assert_allclose(got, val, rtol=1e-12, atol=1e-15)
    for name in ATT_INPUTS:
        np.testing.assert_allclose(split_grads[name], grads[name], rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("lengths", [[3000], [2, 3000, 1]])
def test_attention_memory_stays_within_the_bound(lengths):
    # one score matrix of 3,000 rows is 69 MiB; a slice of the bound is 8 MiB
    arrays = att_arrays(sum(lengths), d=32, seed=13)
    weight = np.random.default_rng(14).normal(size=(sum(lengths), 32))
    attend = partial(masked_attention, n_heads=2, lengths=np.array(lengths))
    tracemalloc.start()
    try:
        attend(**arrays)
        _, numpy_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run_and_backprop(attend, arrays, ATT_INPUTS, weight)
        _, tensor_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert numpy_peak <= 64 * 2**20
    # Tensor mode keeps no score array for backward, which holds a few slices
    assert tensor_peak <= 128 * 2**20


@pytest.mark.parametrize("n", [1, 2, 7])
def test_gru_scan_finite_difference_every_input(n):
    lengths = np.array([n, 1, max(n - 1, 1)])
    arrays = gru_arrays(int(lengths.sum()), seed=20 + n)
    weight = np.random.default_rng(n).normal(size=(3, 4))
    fused = partial(masked_gru_scan, lengths=lengths)
    _, grads = run_and_backprop(fused, arrays, GRU_INPUTS, weight)
    for name in GRU_INPUTS:
        def f(arr, name=name):
            return float((fused(**{**arrays, name: arr}) * weight).sum())
        num = numeric_grad(f, arrays[name].copy())
        assert np.allclose(grads[name], num, atol=1e-6), name


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_finite_difference_every_input(n, n_heads):
    lengths = np.array([n, 1, max(n - 1, 1)])
    arrays = att_arrays(int(lengths.sum()), seed=30 + n)
    weight = np.random.default_rng(n).normal(size=(int(lengths.sum()), 8))
    fused = partial(masked_attention, n_heads=n_heads, lengths=lengths)
    _, grads = run_and_backprop(fused, arrays, ATT_INPUTS, weight)
    for name in ATT_INPUTS:
        def f(arr, name=name):
            return float((fused(**{**arrays, name: arr}) * weight).sum())
        num = numeric_grad(f, arrays[name].copy())
        assert np.allclose(grads[name], num, atol=1e-6), name


def test_log_softmax_within_sets_values_and_finite_difference():
    rng = np.random.default_rng(9)
    lengths = np.array([3, 1, 5, 2])
    x = rng.normal(size=int(lengths.sum())) * 4
    lp = log_softmax(x, lengths)
    for rows in _sets(lengths):
        assert np.allclose(lp[rows], reference_log_softmax_vec(x[rows]), atol=1e-12)
    weight = Tensor(rng.normal(size=len(x)))
    check_op(lambda t: (log_softmax(t, lengths) * weight).sum(), x.shape)


def test_segment_sum_and_where_gradients():
    seg = np.array([2, 0, 2, 2, 1])
    rng = np.random.default_rng(10)
    x = rng.normal(size=5)
    assert np.array_equal(segment_sum(x, seg, 4), [x[1], x[4], x[0] + x[2] + x[3], 0.0])
    weight = Tensor(rng.normal(size=4))
    check_op(lambda t: (segment_sum(t, seg, 4) * weight).sum(), (5,))
    cond = np.array([[True, False, True]])
    other = rng.normal(size=(2, 3))
    check_op(lambda t: (where(cond, t, other) * Tensor(other)).sum(), (2, 3))
    check_op(lambda t: (where(cond, other, t) * Tensor(other)).sum(), (1, 3))


def _network_grads(monkeypatch, fused: bool):
    """Gradients of a teacher-forced replay plus critic over all parameters,
    through d2sn's fused ops or through the reference graphs."""
    if not fused:
        monkeypatch.setattr(d2sn, "masked_gru_scan", reference_masked_gru_scan)
        monkeypatch.setattr(d2sn, "masked_attention", reference_masked_attention)
    cfg = d2sn.D2snConfig(d_model=8, n_heads=2, g_dim=5)
    params = d2sn.init_params(cfg, seed=3, zero_heads=False)
    rng = np.random.default_rng(4)
    ids = np.array([(1, 1), (1, 2), (2, 1), (3, 3), (4, 2), (4, 4)], dtype=np.int64)
    state = OuterState(global_info=rng.normal(size=5), order_ids=ids[:, 0],
                       driver_ids=ids[:, 1], feature_matrix=rng.normal(size=(6, 12)))
    action = d2sn.ActionRecord(steps=[(0, 0), (0, 3), (0, 5), (1, None)], selected=[0, 3, 5],
                               held=[], exhaustive=False, logp=0.0)
    tensors = d2sn.as_tensors(params)
    lp, _, ent = d2sn.replay([(state, action)], tensors)
    v = d2sn.critic_value(state, tensors)
    (lp[0] * 0.7 + ent[0] * 0.3 + v * v).backward()
    return {n: t.grad for n, t in tensors.tensors.items()}


def test_network_gradients_bitwise_equal_through_fused_ops(monkeypatch):
    fused = _network_grads(monkeypatch, fused=True)
    ref = _network_grads(monkeypatch, fused=False)
    assert fused.keys() == ref.keys()
    unused = {n for n, g in fused.items() if g is None}
    assert unused == {n for n, g in ref.items() if g is None}
    assert unused == {"act_null", "v_null"}  # the empty-pool rows
    for name in fused.keys() - unused:
        assert_bitwise(fused[name], ref[name])
