import math

import numpy as np
import pytest

from micod.autodiff import Tensor, to_float
from micod.d2sn import (ActionRecord, D2snConfig, D2snParams, aggregate, as_tensors,
                        critic_value, decision_head, encode, hold_head, init_params,
                        load_checkpoint, log_prob, sample_action, save_checkpoint)
from micod.env import IllegalActionError, OuterState

CFG = D2snConfig(d_model=16, n_heads=2, d_feat=12, g_dim=8)


@pytest.fixture(scope="module")
def params():
    return init_params(CFG, seed=1)


def make_state(pairs_spec, seed=0, g_dim=8):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(len(pairs_spec), 12))
    ids = np.array(pairs_spec, dtype=np.int64).reshape(len(pairs_spec), 2)
    return OuterState(global_info=rng.normal(size=g_dim), order_ids=ids[:, 0],
                      driver_ids=ids[:, 1], feature_matrix=feats)


# -- encoder -------------------------------------------------------------------

def test_encode_single_row(params):
    s = make_state([(1, 1)])
    R = encode(s.feature_matrix, params)
    assert R.shape == (1, CFG.d_model)
    assert np.all(np.isfinite(R))


def test_encode_rejects_nonfinite(params):
    bad = np.full((2, 12), np.nan)
    with pytest.raises(ValueError):
        encode(bad, params)


def test_encode_permutation_equivariance(params):
    s = make_state([(1, 1), (2, 1), (3, 2), (4, 2)], seed=3)
    perm = np.array([2, 0, 3, 1])
    R = encode(s.feature_matrix, params)
    R_perm = encode(s.feature_matrix[perm], params)
    assert np.allclose(R_perm, R[perm], atol=1e-12)


def test_encode_duplicate_rows_identical_outputs(params):
    row = np.random.default_rng(5).normal(size=12)
    feats = np.stack([row, row, row])
    R = encode(feats, params)
    assert np.allclose(R[0], R[1], atol=1e-12)
    assert np.allclose(R[1], R[2], atol=1e-12)


def test_encode_row_count_tracks_input(params):
    for n in (1, 5, 50, 200):
        feats = np.random.default_rng(n).normal(size=(n, 12))
        assert encode(feats, params).shape == (n, CFG.d_model)


# -- aggregation ------------------------------------------------------------------

def test_aggregate_fixed_size_output(params):
    for n in (1, 5, 50):
        feats = np.random.default_rng(n).normal(size=(n, 12))
        G = aggregate(feats, params)
        assert G.shape == (1, CFG.d_model)


def test_aggregate_single_row_is_one_gru_step_from_zero(params):
    # indirect check: output bounded by gru gate ranges and deterministic
    feats = np.random.default_rng(9).normal(size=(1, 12))
    a = aggregate(feats, params)
    b = aggregate(feats, params)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) < 1.0 + 1e-12)  # convex mix of 0 and tanh output


def test_aggregate_sensitive_to_appended_selection(params):
    rng = np.random.default_rng(11)
    base = rng.normal(size=(4, 12))
    extended = np.vstack([base, rng.normal(size=(1, 12))])
    assert not np.allclose(aggregate(base, params), aggregate(extended, params))


# -- heads -------------------------------------------------------------------------

def test_hold_head_uniform_at_init(params):
    s = make_state([(1, 1)])
    G = aggregate(s.feature_matrix, params)
    p = hold_head(G, s.global_info, params)
    assert p == pytest.approx((0.5, 0.5), abs=1e-12)


def test_hold_head_normalized_for_random_params():
    p_rand = init_params(CFG, seed=7, zero_heads=False)
    s = make_state([(1, 1), (2, 2)], seed=13)
    G = aggregate(s.feature_matrix, p_rand)
    p = hold_head(G, s.global_info, p_rand)
    assert 0.0 < p[0] < 1.0 and 0.0 < p[1] < 1.0
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-9)


def test_hold_head_saturates_with_large_logit(params):
    boosted = params.copy()
    boosted.tensors["hold_b2"] = np.array([[0.0, 50.0]])
    s = make_state([(1, 1)])
    G = aggregate(s.feature_matrix, boosted)
    p = hold_head(G, s.global_info, boosted)
    assert p[1] > 1.0 - 1e-9


def test_decision_head_single_row(params):
    s = make_state([(1, 1)])
    R = encode(s.feature_matrix, params)
    G = aggregate(s.feature_matrix, params)
    probs = decision_head(R, G, s.global_info, params)
    assert probs == pytest.approx([1.0])


def test_decision_head_masked_row_gets_exact_zero():
    p_rand = init_params(CFG, seed=3, zero_heads=False)
    s = make_state([(1, 1), (2, 2), (3, 3)], seed=17)
    R = encode(s.feature_matrix, p_rand)
    G = aggregate(s.feature_matrix, p_rand)
    mask = np.array([True, False, True])
    probs = decision_head(R, G, s.global_info, p_rand, mask=mask)
    assert probs[1] == 0.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_decision_head_all_masked_errors(params):
    s = make_state([(1, 1)])
    R = encode(s.feature_matrix, params)
    G = aggregate(s.feature_matrix, params)
    with pytest.raises(IllegalActionError):
        decision_head(R, G, s.global_info, params, mask=np.array([False]))


def test_decision_head_permutation_covariance():
    p_rand = init_params(CFG, seed=5, zero_heads=False)
    s = make_state([(1, 1), (2, 2), (3, 3), (4, 4)], seed=19)
    R = encode(s.feature_matrix, p_rand)
    G = aggregate(s.feature_matrix, p_rand)
    probs = decision_head(R, G, s.global_info, p_rand)
    perm = np.array([3, 1, 0, 2])
    R_perm = encode(s.feature_matrix[perm], p_rand)
    probs_perm = decision_head(R_perm, G, s.global_info, p_rand)
    assert np.allclose(probs_perm, probs[perm], atol=1e-12)


# -- sampling and replay ---------------------------------------------------------------

def test_sample_empty_pool_single_hold_step(params):
    s = make_state([])
    a = sample_action(s, params, np.random.default_rng(0))
    assert len(a.steps) == 1
    assert a.steps[0][1] is None
    assert a.selected == [] and a.held == []
    assert a.logp == pytest.approx(math.log(0.5))


def test_sample_force_exhaustive_two_disjoint_pairs(params):
    s = make_state([(1, 1), (2, 2)])
    a = sample_action(s, params, np.random.default_rng(0), force_exhaustive=True)
    assert sorted(a.selected) == [0, 1]
    picks = [step for step in a.steps if step[1] is not None]
    assert len(picks) == 2
    assert a.steps[-1] == (0, None)  # terminal evaluation after the pool drains
    assert a.held == []
    assert a.logp == pytest.approx(math.log(0.5))  # only decision factors: 1/2 then 1


def test_logp_hand_computation_uniform_heads(params):
    # pool: picking row 0 removes rows 0,1 (shared order), leaving row 2
    s = make_state([(1, 1), (1, 2), (2, 2)])
    action = ActionRecord(steps=[(0, 0), (0, 2), (1, None)], selected=[0, 2], held=[],
                          exhaustive=False, logp=0.0)
    total, per_step = log_prob(s, action, params)
    expected = (math.log(0.5) + math.log(1.0 / 3.0)) + (math.log(0.5) + 0.0) + math.log(0.5)
    assert to_float(total) == pytest.approx(expected, abs=1e-10)
    assert len(per_step) == 3


def test_sample_then_replay_logp_matches(params):
    rng = np.random.default_rng(42)
    for trial in range(25):
        s = make_state([(i, j) for i in range(3) for j in range(3)], seed=trial)
        a = sample_action(s, params, rng)
        total, per_step = log_prob(s, a, params)
        assert to_float(total) == pytest.approx(a.logp, abs=1e-12)
        for got, want in zip(per_step, a.step_logps):
            assert to_float(got) == pytest.approx(want, abs=1e-12)


def test_immediate_hold_logp_is_hold_probability(params):
    s = make_state([(1, 1)])
    action = ActionRecord(steps=[(1, None)], selected=[], held=[0],
                          exhaustive=False, logp=0.0)
    total, _ = log_prob(s, action, params)
    assert to_float(total) == pytest.approx(math.log(0.5))


def test_single_substep_outcomes_sum_to_one():
    p_rand = init_params(CFG, seed=21, zero_heads=False)
    s = make_state([(1, 1), (2, 2), (3, 3)], seed=23)
    R = encode(s.feature_matrix, p_rand)
    G = aggregate(s.feature_matrix, p_rand)
    hold = hold_head(G, s.global_info, p_rand)
    dec = decision_head(R, G, s.global_info, p_rand)
    total = hold[1] + hold[0] * dec.sum()
    assert total == pytest.approx(1.0, abs=1e-9)


def test_replay_rejects_illegal_row(params):
    s = make_state([(1, 1), (1, 2)])
    bad = ActionRecord(steps=[(0, 0), (0, 1), (1, None)], selected=[0, 1], held=[],
                       exhaustive=False, logp=0.0)
    with pytest.raises(IllegalActionError):
        log_prob(s, bad, params)  # row 1 shares the order of row 0


def test_sampling_deterministic_given_seed(params):
    s = make_state([(i, j) for i in range(4) for j in range(2)], seed=31)
    a = sample_action(s, params, np.random.default_rng(77))
    b = sample_action(s, params, np.random.default_rng(77))
    assert a == b


def test_selected_pairs_are_id_disjoint(params):
    rng = np.random.default_rng(3)
    for trial in range(20):
        s = make_state([(i, j) for i in range(4) for j in range(4)], seed=trial)
        a = sample_action(s, params, rng, force_exhaustive=bool(trial % 2))
        orders = s.order_ids[a.selected].tolist()
        drivers = s.driver_ids[a.selected].tolist()
        assert len(set(orders)) == len(orders)
        assert len(set(drivers)) == len(drivers)


# -- critic -------------------------------------------------------------------------

def test_critic_deterministic_and_finite(params):
    s = make_state([(1, 1), (2, 2)], seed=41)
    a = critic_value(s, params)
    b = critic_value(s, params)
    assert a == b
    assert np.isfinite(to_float(a))


def test_critic_empty_pool_uses_null_pathway(params):
    s = make_state([])
    v = critic_value(s, params)
    assert np.isfinite(to_float(v))


def test_critic_fixed_size_over_pool_range(params):
    for n in (1, 20, 200):
        s = make_state([(i, i) for i in range(n)], seed=n)
        assert np.isscalar(to_float(critic_value(s, params)))


# -- parameters and checkpoints ----------------------------------------------------------

def test_param_count_reported(params):
    assert params.param_count == sum(t.size for t in params.tensors.values())
    assert params.param_count > 0


def test_config_requires_divisible_heads():
    with pytest.raises(ValueError):
        D2snConfig(d_model=10, n_heads=3)


def test_all_params_finite(params):
    for name, t in params.tensors.items():
        assert np.all(np.isfinite(t)), name


def test_checkpoint_round_trip_byte_identical(tmp_path, params):
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(params, p1, extra={"note": 1})
    loaded, extra = load_checkpoint(p1)
    assert extra == {"note": 1}
    assert loaded.config == params.config
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
    save_checkpoint(loaded, p2, extra={"note": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    from micod.d2sn import CheckpointError
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncation_raises_checkpoint_error(tmp_path, params):
    from micod.d2sn import CheckpointError
    path = tmp_path / "a.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    for cut in (0, 8, 10, 14, 16, 20, 200, len(blob) // 2, len(blob) - 8, len(blob) - 1):
        (tmp_path / "cut.ckpt").write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_bad_header_raises_checkpoint_error(tmp_path, params):
    import json
    import struct
    from micod.d2sn import CheckpointError
    path = tmp_path / "a.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16:16 + hlen])
    for bad in (b"{not json", json.dumps([1, 2]).encode(),
                json.dumps({k: v for k, v in header.items() if k != "names"}).encode(),
                json.dumps({**header, "config": {"d_model": 7}}).encode()):
        (tmp_path / "bad.ckpt").write_bytes(blob[:12] + struct.pack("<I", len(bad)) + bad
                                            + blob[16 + hlen:])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.ckpt")


def test_checkpoint_tensor_names_and_shapes_must_match_config(tmp_path, params):
    from micod.d2sn import CheckpointError
    renamed = {("emb_weight" if n == "emb_w" else n): t for n, t in params.tensors.items()}
    save_checkpoint(D2snParams(params.config, renamed), tmp_path / "renamed.ckpt")
    with pytest.raises(CheckpointError, match="emb_w"):
        load_checkpoint(tmp_path / "renamed.ckpt")
    # same parameter count, different shape
    reshaped = dict(params.tensors, emb_w=params.tensors["emb_w"].reshape(-1, 12))
    save_checkpoint(D2snParams(params.config, reshaped), tmp_path / "reshaped.ckpt")
    with pytest.raises(CheckpointError, match="emb_w"):
        load_checkpoint(tmp_path / "reshaped.ckpt")
    # optimizer moments in resume snapshots are not part of the architecture
    snap = dict(params.tensors, opt_m_emb_w=np.zeros((3, 5)))
    save_checkpoint(D2snParams(params.config, snap), tmp_path / "snap.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "snap.ckpt")
    assert loaded.tensors["opt_m_emb_w"].shape == (3, 5)


def test_tensor_mode_matches_fast_mode(params):
    s = make_state([(1, 1), (2, 2), (3, 1)], seed=51)
    a = sample_action(s, params, np.random.default_rng(9))
    fast_total, _ = log_prob(s, a, params)
    tensors = as_tensors(params)
    slow_total, _ = log_prob(s, a, tensors, config=params.config)
    assert to_float(slow_total) == to_float(fast_total)
    assert to_float(critic_value(s, tensors, config=params.config)) == \
        to_float(critic_value(s, params))


# -- graph size ----------------------------------------------------------------------


def graph_size(out) -> int:
    """Number of nodes reachable from ``out``, leaves included."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_graph_size_does_not_grow_with_pool_rows(params):
    # one node per GRU scan and per attention call, whatever the row count
    tensors = as_tensors(params)
    small = make_state([(i, i) for i in range(3)], seed=61)
    large = make_state([(i, i) for i in range(40)], seed=62)
    agg = [graph_size(aggregate(s.feature_matrix, tensors, CFG)) for s in (small, large)]
    crit = [graph_size(critic_value(s, tensors, CFG)) for s in (small, large)]
    assert agg[0] == agg[1]
    assert crit[0] == crit[1]
