"""Batched replay checked against the per-transition replay it replaced.

``reference_log_prob`` is the teacher-forced walk that once scored recorded
actions one transition at a time: it re-encodes the remaining rows and
re-aggregates the sub-state at every sub-step, reads the two heads and sums
the sub-step log-probabilities and entropies left to right.
``reference_critic_value`` is the one-state critic. Both build their graphs
through the per-row GRU and per-head attention loops of ``test_autodiff``,
and the heads keep their own copies: the decision head as ``k @ q.T`` and a
vector log-softmax, so no head code is shared with what they check.

``d2sn.replay`` and ``d2sn.critic_values`` run a whole minibatch as one
program, so their sums run in another order: values must agree within 1e-12
and parameter gradients within 1e-10, relative.
"""

import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from micod import autodiff, d2sn
from micod.autodiff import Tensor, asum, concat, detach, exp, tanh
from micod.d2sn import ActionRecord, D2snConfig, as_tensors, critic_values, init_params, replay
from micod.env import IllegalActionError, OuterState, mask_after_selection
from test_autodiff import reference_attention, reference_gru_scan, reference_log_softmax_vec

CFG = D2snConfig(d_model=8, n_heads=2, g_dim=5)
PARAMS = init_params(CFG, seed=7, zero_heads=False)


# -- reference: the per-transition replay ----------------------------------------------


def _mha(x, P, prefix, n_heads):
    q = x @ P[prefix + "wq"] + P[prefix + "bq"]
    k = x @ P[prefix + "wk"] + P[prefix + "bk"]
    v = x @ P[prefix + "wv"] + P[prefix + "bv"]
    return reference_attention(q, k, v, n_heads) @ P[prefix + "wo"] + P[prefix + "bo"]


def _gru(x, P, prefix):
    xz = x @ P[prefix + "wz"] + P[prefix + "bz"]
    xr = x @ P[prefix + "wr"] + P[prefix + "br"]
    xh = x @ P[prefix + "wh"] + P[prefix + "bh"]
    return reference_gru_scan(xz, xr, xh, P[prefix + "uz"], P[prefix + "ur"], P[prefix + "uh"])


def reference_encode(pool_features, params):
    P = params.tensors
    if pool_features.shape[0] == 0:
        x = P["act_null"]
    else:
        x = pool_features @ P["emb_w"] + P["emb_b"]
    x = x + _mha(x, P, "enc_", params.config.n_heads)
    ffn = tanh(x @ P["enc_w1"] + P["enc_b1"]) @ P["enc_w2"] + P["enc_b2"]
    return x + ffn


def reference_aggregate(substate_features, params):
    P = params.tensors
    if substate_features.shape[0] == 0:
        x = P["act_null"]
    else:
        x = substate_features @ P["emb_w"] + P["emb_b"]
    return _gru(_mha(x, P, "dec_", params.config.n_heads), P, "gru_")


def reference_hold_log_probs(G, global_info, P):
    inp = concat([G, global_info.reshape(1, -1)], axis=1)
    hid = tanh(inp @ P["hold_w1"] + P["hold_b1"])
    return reference_log_softmax_vec((hid @ P["hold_w2"] + P["hold_b2"])[0, :])


def reference_decision_logits(R, G, global_info, P, d_model):
    """One scaled dot-product logit per row of ``R``, as ``k @ q.T``."""
    q = concat([G, global_info.reshape(1, -1)], axis=1) @ P["cq_w"] + P["cq_b"]
    k = R @ P["ck_w"] + P["ck_b"]
    return (k @ q.T)[:, 0] / math.sqrt(d_model)


def reference_log_prob(state, action, params):
    """(total, per-step list, entropy) of one recorded action."""
    P = params.tensors
    feats = state.feature_matrix
    n0 = state.n_pairs
    mask = np.ones(n0, dtype=bool)
    selected, step_logps = [], []
    entropy = 0.0
    k = 0
    while True:
        remaining = np.flatnonzero(mask)
        R = reference_encode(feats[remaining] if len(remaining) else feats[:0], params)
        sub_rows = np.concatenate([feats, feats[selected]], axis=0) if n0 else feats[:0]
        G = reference_aggregate(sub_rows, params)
        lp_hold = reference_hold_log_probs(G, state.global_info, P)
        if action.exhaustive:
            h, lp_h = 0, 0.0
        else:
            if k >= len(action.steps):
                raise IllegalActionError("replay ran past the recorded sub-actions")
            h, c_pool = action.steps[k]
            if h == 1 and c_pool is not None:
                raise IllegalActionError("recorded hold step must not carry a selection")
            lp_h = lp_hold[h]
            entropy = entropy + -asum(exp(lp_hold) * lp_hold)
        if h == 1:
            step_logps.append(lp_h)
            break
        if len(remaining) == 0:
            if action.steps[k][1] is not None:
                raise IllegalActionError(f"row {action.steps[k][1]} not available")
            step_logps.append(lp_h)
            break
        lp_vec = reference_log_softmax_vec(reference_decision_logits(R, G, state.global_info, P,
                                                                     params.config.d_model))
        c_pool = action.steps[k][1]
        if c_pool is None:
            raise IllegalActionError("recorded continue step carries no selection")
        pos = int(np.searchsorted(remaining, c_pool))
        if pos >= len(remaining) or remaining[pos] != c_pool:
            raise IllegalActionError(f"row {c_pool} not available at replay step {k}")
        entropy = entropy + -asum(exp(lp_vec) * lp_vec)
        step_logps.append(lp_h + lp_vec[pos])
        selected.append(c_pool)
        mask = mask_after_selection(state, mask, c_pool)
        k += 1
    if len(step_logps) != len(action.steps):
        raise IllegalActionError("replay ended at a different sub-step count")
    return reduce(add, step_logps), step_logps, entropy


def reference_critic_value(state, params):
    P = params.tensors
    feats = state.feature_matrix
    x = P["v_null"] if feats.shape[0] == 0 else feats @ P["v_emb_w"] + P["v_emb_b"]
    G = _gru(_mha(x, P, "v_", params.config.n_heads), P, "v_gru_")
    inp = concat([G, state.global_info.reshape(1, -1)], axis=1)
    return (tanh(inp @ P["v_w1"] + P["v_b1"]) @ P["v_w2"] + P["v_b2"])[0, 0]


# -- inputs ----------------------------------------------------------------------------


def make_state(n_rows, n_ids, rng):
    """A pool of ``n_rows`` (order, driver) rows over ``n_ids`` ids of each
    kind, so that rows share orders and drivers; sorted as the env sorts."""
    ids = np.unique(rng.integers(0, n_ids, size=(n_rows, 2)), axis=0)
    return OuterState(global_info=rng.normal(size=CFG.g_dim), order_ids=ids[:, 0],
                      driver_ids=ids[:, 1], feature_matrix=rng.normal(size=(len(ids), 12)))


def walk(state, rng, exhaustive, hold_p):
    """A legal recorded action: hold with probability ``hold_p`` at each
    sub-step (never, for an exhaustive action), otherwise select a random
    remaining row; the walk ends at a hold or when the pool drains."""
    mask = np.ones(state.n_pairs, dtype=bool)
    steps = []
    while True:
        remaining = np.flatnonzero(mask)
        if not exhaustive and rng.random() < hold_p:
            steps.append((1, None))
            break
        if not len(remaining):
            steps.append((0, None))
            break
        c = int(rng.choice(remaining))
        steps.append((0, c))
        mask = mask_after_selection(state, mask, c)
    return ActionRecord(steps=steps, selected=[c for _, c in steps if c is not None],
                        held=[], exhaustive=exhaustive, logp=0.0)


@st.composite
def transitions(draw, max_size=6):
    """1 to ``max_size`` transitions: empty and one-row pools, holds at step
    0, exhaustive actions and rows masked by a shared order or driver."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draw(st.integers(1, max_size))):
        n_rows = draw(st.sampled_from([0, 1, 2, 5, 9]))
        state = make_state(n_rows, draw(st.integers(1, 4)), rng)
        exhaustive = draw(st.booleans())
        hold_p = draw(st.sampled_from([0.0, 0.3, 1.0]))
        out.append((state, walk(state, rng, exhaustive, hold_p)))
    return out


def assert_close(got, want, rtol):
    np.testing.assert_allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                               rtol=rtol, atol=rtol * 1e-2)


def loss_weights(n):
    rng = np.random.default_rng(n)
    return rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)


def batched_grads(batch):
    """Gradients of one minibatch-shaped loss through the batched program."""
    w_lp, w_ent, w_v = loss_weights(len(batch))
    tensors = as_tensors(PARAMS)
    logp, _, ent = replay(batch, tensors)
    v = critic_values([s for s, _ in batch], tensors)
    asum(logp * w_lp + ent * w_ent + v * v * w_v).backward()
    return {n: t.grad for n, t in tensors.tensors.items()}


def reference_grads(batch):
    """The same loss as a sum of per-transition graphs."""
    w_lp, w_ent, w_v = loss_weights(len(batch))
    tensors = as_tensors(PARAMS)
    terms = []
    for i, (state, action) in enumerate(batch):
        lp, _, ent = reference_log_prob(state, action, tensors)
        v = reference_critic_value(state, tensors)
        terms.append(lp * w_lp[i] + ent * w_ent[i] + v * v * w_v[i])
    reduce(add, terms).backward()
    return {n: t.grad for n, t in tensors.tensors.items()}


def assert_same_grads(got, want):
    assert {n for n, g in got.items() if g is None} == {n for n, g in want.items() if g is None}
    for name, g in want.items():
        if g is not None:
            assert_close(got[name], g, 1e-10)


# -- checks ----------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(transitions())
def test_replay_values_equal_reference(batch):
    logp, step_lp, ent = replay(batch, PARAMS)
    values = critic_values([s for s, _ in batch], PARAMS)
    ref_steps = []
    for i, (state, action) in enumerate(batch):
        total, steps, entropy = reference_log_prob(state, action, PARAMS)
        assert_close(logp[i], total, 1e-12)
        assert_close(ent[i], entropy, 1e-12)
        assert_close(values[i], reference_critic_value(state, PARAMS), 1e-12)
        ref_steps.extend(steps)
    assert_close(step_lp, ref_steps, 1e-12)
    # the one-transition forms
    state, action = batch[0]
    total, steps = d2sn.log_prob(state, action, PARAMS)
    assert_close(total, logp[0], 1e-12)
    assert_close(replay([(state, action)], PARAMS)[2][0], ent[0], 1e-12)
    assert_close(steps, step_lp[:len(action.steps)], 1e-12)
    assert_close(d2sn.critic_value(state, PARAMS), values[0], 1e-12)


@settings(max_examples=30, deadline=None)
@given(transitions())
def test_minibatch_gradients_equal_reference_sum(batch):
    assert_same_grads(batched_grads(batch), reference_grads(batch))


@settings(max_examples=10, deadline=None)
@given(transitions(max_size=8))
def test_chunked_minibatch_equals_one_block(batch):
    whole = replay(batch, PARAMS)
    whole_grads = batched_grads(batch)
    saved = autodiff.ATTENTION_CELLS
    autodiff.ATTENTION_CELLS = 8  # blocks of a few tiny sets; wider sets alone, sliced
    try:
        split = replay(batch, PARAMS)
        split_values = critic_values([s for s, _ in batch], PARAMS)
        split_grads = batched_grads(batch)
    finally:
        autodiff.ATTENTION_CELLS = saved
    for got, want in zip(split, whole):
        assert_close(got, want, 1e-12)
    assert_close(split_values, critic_values([s for s, _ in batch], PARAMS), 1e-12)
    assert_same_grads(split_grads, whole_grads)


def _corruptions(state, action):
    """Recorded actions that break one rule of the walk."""
    steps = action.steps
    n = state.n_pairs
    yield [*steps, (1, None)]                       # a step past the end
    if len(steps) > 1:
        yield steps[:-1]                            # a missing last step
    yield [(1, 0)] + steps[1:]                      # a hold carrying a row
    yield [(0, None)] + steps[1:] if n else [(0, 0)]  # a continue without a row
    yield [(0, n)] + steps[1:]                      # a row past the pool
    picks = [k for k, (_, c) in enumerate(steps) if c is not None]
    if picks:
        k = picks[-1]
        yield steps[:k + 1] + [(0, steps[k][1])] + steps[k + 1:]  # a row already taken


@settings(max_examples=40, deadline=None)
@given(transitions(max_size=1), st.booleans())
def test_illegal_recorded_actions_still_raise(batch, with_legal_neighbour):
    (state, action), = batch
    for steps in _corruptions(state, action):
        bad = ActionRecord(steps=steps, selected=[], held=[], exhaustive=action.exhaustive,
                           logp=0.0)
        try:
            reference_log_prob(state, bad, PARAMS)
        except (IllegalActionError, IndexError):
            # the per-transition walk refused it (an exhaustive walk past the
            # recorded steps raised IndexError there)
            legal = [(state, action)] if with_legal_neighbour else []
            with pytest.raises(IllegalActionError):
                replay([*legal, (state, bad)], PARAMS)
        else:
            replay([(state, bad)], PARAMS)


def graph_size(out) -> int:
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def minibatch_loss_nodes(batch) -> int:
    tensors = as_tensors(PARAMS)
    logp, _, ent = replay(batch, tensors)
    v = critic_values([s for s, _ in batch], tensors)
    old = np.zeros(len(batch))
    return graph_size(asum(exp(logp - old)) + asum(ent) + asum(v * v))


def test_graph_nodes_independent_of_batch_and_pool_size():
    # every batch below reaches the same branches: no empty pool, a hold
    # head and a decision head
    rng = np.random.default_rng(11)

    def transition(n_rows):
        ids = np.stack([np.arange(n_rows), rng.integers(0, n_rows, size=n_rows)], axis=1)
        state = OuterState(global_info=rng.normal(size=CFG.g_dim), order_ids=ids[:, 0],
                           driver_ids=ids[:, 1], feature_matrix=rng.normal(size=(n_rows, 12)))
        action = walk(state, rng, exhaustive=False, hold_p=0.2)
        while action.steps[0][1] is None:
            action = walk(state, rng, exhaustive=False, hold_p=0.2)
        return state, action

    one = [transition(3)]
    many = [transition(int(n)) for n in rng.integers(1, 40, size=64)]
    assert minibatch_loss_nodes(one) == minibatch_loss_nodes(many)
    small, large = transition(3), transition(40)
    assert small[0].n_pairs == 3 and large[0].n_pairs == 40
    assert minibatch_loss_nodes([small]) == minibatch_loss_nodes([large])


def test_replay_with_numpy_and_tensor_parameters_agree_bitwise():
    rng = np.random.default_rng(12)
    batch = [(s, walk(s, rng, False, 0.3)) for s in (make_state(n, 3, rng) for n in (0, 4, 9))]
    fast = replay(batch, PARAMS)
    slow = replay(batch, as_tensors(PARAMS))
    for a, b in zip(fast, slow):
        assert detach(b).tobytes() == np.asarray(a).tobytes()
    assert isinstance(slow[0], Tensor)
