import math
from functools import partial

import numpy as np
import pytest

from micod import d2sn
from micod.autodiff import (Tensor, asum, attention, concat, detach, exp, gru_scan, log,
                            log_softmax_vec, sigmoid, softmax_rows, tanh)
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


def test_chain_exp_log_tanh_sigmoid():
    check_op(lambda t: (t.tanh().sigmoid().exp()).sum(), (3, 3))
    check_op(lambda t: ((t * t) + 1.0).log().sum(), (2, 5))


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


def test_softmax_rows_sums_to_one_and_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    probs = softmax_rows(x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    check_op(lambda t: (softmax_rows(t) * Tensor(x)).sum(), (4, 5))


def test_log_softmax_vec_matches_naive():
    rng = np.random.default_rng(3)
    z = rng.normal(size=7) * 10
    lp = log_softmax_vec(z)
    assert np.allclose(np.exp(lp).sum(), 1.0, atol=1e-12)
    naive = z - np.log(np.exp(z - z.max()).sum()) - z.max()
    assert np.allclose(lp, naive, atol=1e-12)
    check_op(lambda t: log_softmax_vec(t)[2], (7,))


def test_dual_mode_helpers_agree():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3))
    for fn in (exp, log1p := (lambda v: log(v * v + 1.0)), tanh, sigmoid):
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
# head. ``gru_scan`` and ``attention`` must reproduce its values and every
# input gradient bit for bit, in numpy mode and in Tensor mode.


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


def reference_attention(q, k, v, n_heads):
    dh = detach(q).shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        sl = (slice(None), slice(h * dh, (h + 1) * dh))
        qh, kh, vh = q[sl], k[sl], v[sl]
        att = softmax_rows((qh @ kh.T) / math.sqrt(dh))
        heads.append(att @ vh)
    return heads[0] if n_heads == 1 else concat(heads, axis=1)


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
    val, grads = run_and_backprop(gru_scan, arrays, tensor_names, weight)
    ref_val, ref_grads = run_and_backprop(reference_gru_scan, arrays, tensor_names, weight)
    assert_bitwise(val, ref_val)
    for name in tensor_names:
        assert_bitwise(grads[name], ref_grads[name])
    assert_bitwise(gru_scan(**arrays), val)  # numpy mode
    assert_bitwise(reference_gru_scan(**arrays), val)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("tensor_names", [ATT_INPUTS, ("k",), ("q", "v")])
def test_attention_bitwise_equals_head_loop(n, n_heads, tensor_names):
    arrays = att_arrays(n, seed=10 * n + n_heads)
    weight = np.random.default_rng(n_heads).normal(size=(n, 8))
    val, grads = run_and_backprop(partial(attention, n_heads=n_heads), arrays,
                                  tensor_names, weight)
    ref_val, ref_grads = run_and_backprop(partial(reference_attention, n_heads=n_heads),
                                          arrays, tensor_names, weight)
    assert_bitwise(val, ref_val)
    for name in tensor_names:
        assert_bitwise(grads[name], ref_grads[name])
    assert_bitwise(attention(**arrays, n_heads=n_heads), val)  # numpy mode
    assert_bitwise(reference_attention(**arrays, n_heads=n_heads), val)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_gru_scan_finite_difference_every_input(n):
    arrays = gru_arrays(n, seed=20 + n)
    weight = np.random.default_rng(n).normal(size=(1, 4))
    _, grads = run_and_backprop(gru_scan, arrays, GRU_INPUTS, weight)
    for name in GRU_INPUTS:
        def f(arr, name=name):
            return float((gru_scan(**{**arrays, name: arr}) * weight).sum())
        num = numeric_grad(f, arrays[name].copy())
        assert np.allclose(grads[name], num, atol=1e-6), name


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_finite_difference_every_input(n, n_heads):
    arrays = att_arrays(n, seed=30 + n)
    weight = np.random.default_rng(n).normal(size=(n, 8))
    _, grads = run_and_backprop(partial(attention, n_heads=n_heads), arrays, ATT_INPUTS,
                                weight)
    for name in ATT_INPUTS:
        def f(arr, name=name):
            return float((attention(**{**arrays, name: arr}, n_heads=n_heads) * weight).sum())
        num = numeric_grad(f, arrays[name].copy())
        assert np.allclose(grads[name], num, atol=1e-6), name


def _network_grads(monkeypatch, fused: bool):
    """Gradients of a teacher-forced replay plus critic over all parameters,
    through d2sn's fused ops or through the reference loops."""
    if not fused:
        monkeypatch.setattr(d2sn, "gru_scan", reference_gru_scan)
        monkeypatch.setattr(d2sn, "attention", reference_attention)
    cfg = d2sn.D2snConfig(d_model=8, n_heads=2, d_feat=12, g_dim=5)
    params = d2sn.init_params(cfg, seed=3, zero_heads=False)
    rng = np.random.default_rng(4)
    ids = np.array([(1, 1), (1, 2), (2, 1), (3, 3), (4, 2), (4, 4)], dtype=np.int64)
    state = OuterState(global_info=rng.normal(size=5), order_ids=ids[:, 0],
                       driver_ids=ids[:, 1], feature_matrix=rng.normal(size=(6, 12)))
    action = d2sn.ActionRecord(steps=[(0, 0), (0, 3), (0, 5), (1, None)], selected=[0, 3, 5],
                               held=[], exhaustive=False, logp=0.0)
    tensors = d2sn.as_tensors(params)
    lp, _, ent = d2sn.log_prob(state, action, tensors, config=cfg, want_entropy=True)
    v = d2sn.critic_value(state, tensors, config=cfg)
    (lp * 0.7 + ent * 0.3 + v * v).backward()
    return {n: t.grad for n, t in tensors.items()}


def test_network_gradients_bitwise_equal_through_fused_ops(monkeypatch):
    fused = _network_grads(monkeypatch, fused=True)
    ref = _network_grads(monkeypatch, fused=False)
    assert fused.keys() == ref.keys()
    unused = {n for n, g in fused.items() if g is None}
    assert unused == {n for n, g in ref.items() if g is None}
    assert unused == {"act_null", "v_null"}  # the empty-pool rows
    for name in fused.keys() - unused:
        assert_bitwise(fused[name], ref[name])
