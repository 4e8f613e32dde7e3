import json
import math
import struct

import numpy as np
import pytest

from micod import d2sn
from micod.autodiff import Tensor, to_float
from micod.d2sn import (ActionRecord, D2snConfig, D2snParams, _decision_log_probs,
                        _hold_log_probs, aggregate, as_tensors, critic_value, encode,
                        init_params, load_checkpoint, log_prob, replay, sample_action,
                        save_checkpoint)
from micod.env import N_PAIR_FEATURES, IllegalActionError, OuterState

CFG = D2snConfig(d_model=16, n_heads=2, g_dim=8)


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


def holding(params):
    """``params`` with a hold head that holds at every sub-step."""
    boosted = params.copy()
    boosted.tensors["hold_b2"] = np.array([[0.0, 50.0]])
    return boosted


def test_sampling_and_replay_reject_nonfinite_pool(params):
    # a NaN pool feature, and a NaN global entry beside four finite rows
    bad_feature = make_state([(1, 1), (2, 2)])
    bad_feature.feature_matrix[1, 3] = np.nan
    bad_global = make_state([(1, 1), (1, 2), (2, 1), (2, 2)])
    bad_global.global_info[1] = np.nan
    for s, message in ((bad_feature, "non-finite pool features"),
                       (bad_global, "non-finite global info")):
        hold = ActionRecord(steps=[(1, None)], selected=[], held=list(range(s.n_pairs)),
                            exhaustive=False, logp=0.0)
        with pytest.raises(ValueError, match=message):
            sample_action(s, holding(params), np.random.default_rng(0))  # a hold at step 0
        with pytest.raises(ValueError, match=message):
            sample_action(s, params, np.random.default_rng(0), force_exhaustive=True)
        with pytest.raises(ValueError, match=message):
            log_prob(s, hold, params)


def test_sampling_rejects_global_info_of_another_width(params):
    s = make_state([(1, 1), (2, 2)], g_dim=5)
    with pytest.raises(ValueError, match=f"global info dim 5 != configured {CFG.g_dim}"):
        sample_action(s, params, np.random.default_rng(0))


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
#
# The heads run inside the walker; these tests read them through replay:
# ``step_prob`` is the probability of one recorded sub-step.


def step_prob(state, steps, params, k=0):
    action = ActionRecord(steps=steps, selected=[c for _, c in steps if c is not None],
                          held=[], exhaustive=False, logp=0.0)
    _, per_step = log_prob(state, action, params)
    return math.exp(to_float(per_step[k]))


def test_hold_head_uniform_at_init(params):
    s = make_state([(1, 1)])
    p_continue = step_prob(s, [(0, 0), (1, None)], params)  # the only row: decision 1
    p_hold = step_prob(s, [(1, None)], params)
    assert (p_continue, p_hold) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_hold_head_normalized_for_random_params():
    p_rand = init_params(CFG, seed=7, zero_heads=False)
    s = make_state([(1, 1), (2, 2)], seed=13)
    G = aggregate(s.feature_matrix, p_rand)
    p = np.exp(_hold_log_probs(G, s.global_info[None], p_rand.tensors)[0])
    assert 0.0 < p[0] < 1.0 and 0.0 < p[1] < 1.0
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-9)
    assert step_prob(s, [(1, None)], p_rand) == pytest.approx(p[1], abs=1e-12)


def test_hold_head_saturates_with_large_logit(params):
    s = make_state([(1, 1)])
    assert step_prob(s, [(1, None)], holding(params)) > 1.0 - 1e-9


def test_decision_head_single_row(params):
    s = make_state([(1, 1)])
    a = sample_action(s, params, np.random.default_rng(0), force_exhaustive=True)
    assert a.steps == [(0, 0), (0, None)]
    assert a.logp == pytest.approx(0.0)  # the decision head puts all mass on the row


def test_decision_head_masked_row_gets_exact_zero():
    # picking row 0 masks row 1 (same order): the next decision spreads its
    # whole mass over the rows left, and replaying row 1 is rejected
    p_rand = init_params(CFG, seed=3, zero_heads=False)
    s = make_state([(1, 1), (1, 2), (2, 3)], seed=17)
    mass = (step_prob(s, [(0, 0), (1, None)], p_rand, k=1)
            + step_prob(s, [(0, 0), (0, 2), (1, None)], p_rand, k=1))
    assert mass == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(IllegalActionError):
        step_prob(s, [(0, 0), (0, 1), (1, None)], p_rand)


def test_decision_head_all_masked_errors(params):
    s = make_state([(1, 1)])
    with pytest.raises(IllegalActionError):
        step_prob(s, [(0, 0), (0, 0)], params)  # the pool is empty after row 0


def test_decision_head_permutation_covariance():
    p_rand = init_params(CFG, seed=5, zero_heads=False)
    s = make_state([(1, 1), (2, 2), (3, 3), (4, 4)], seed=19)
    G = aggregate(s.feature_matrix, p_rand)

    def probs(feats):
        R = encode(feats, p_rand)
        return np.exp(_decision_log_probs(R, np.array([len(feats)]), G,
                                          s.global_info.reshape(1, -1), p_rand.tensors,
                                          CFG.d_model))

    perm = np.array([3, 1, 0, 2])
    assert np.allclose(probs(s.feature_matrix[perm]), probs(s.feature_matrix)[perm],
                       atol=1e-12)


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


def test_sampled_step_logps_match_replay_with_random_heads():
    # the default width, heads that are not uniform, pools of 1 to 40 rows
    p_rand = init_params(D2snConfig(g_dim=8), seed=9, zero_heads=False)
    rng = np.random.default_rng(11)
    for trial in range(200):
        n_ids = int(rng.integers(1, 11))
        ids = np.unique(rng.integers(0, n_ids, size=(int(rng.integers(1, 41)), 2)), axis=0)
        s = make_state([tuple(r) for r in ids.tolist()], seed=trial)
        a = sample_action(s, p_rand, rng, force_exhaustive=trial % 4 == 0)
        _, step_lp, _ = replay([(s, a)], p_rand)
        np.testing.assert_allclose(a.step_logps, step_lp, rtol=1e-12, atol=0)


def test_sampling_replay_and_critic_share_their_heads(params, monkeypatch):
    calls = []

    def spy(name):
        fn = getattr(d2sn, name)

        def wrapped(*args):
            calls.append(args[-1] if name == "_two_layer" else name)  # the prefix
            return fn(*args)
        return wrapped

    for name in ("_decision_log_probs", "_two_layer"):
        monkeypatch.setattr(d2sn, name, spy(name))
    s = make_state([(1, 1), (2, 2)], seed=5)
    sample_action(s, params, np.random.default_rng(0), force_exhaustive=True)
    assert calls == ["hold_", "_decision_log_probs"] * 2 + ["hold_"]
    calls.clear()
    action = ActionRecord(steps=[(0, 0), (1, None)], selected=[0], held=[1],
                          exhaustive=False, logp=0.0)
    replay([(s, action)], params)
    assert calls == ["hold_", "_decision_log_probs"]
    calls.clear()
    critic_value(s, params)
    assert calls == ["v_"]


def test_immediate_hold_logp_is_hold_probability(params):
    s = make_state([(1, 1)])
    action = ActionRecord(steps=[(1, None)], selected=[], held=[0],
                          exhaustive=False, logp=0.0)
    total, _ = log_prob(s, action, params)
    assert to_float(total) == pytest.approx(math.log(0.5))


def test_single_substep_outcomes_sum_to_one():
    p_rand = init_params(CFG, seed=21, zero_heads=False)
    s = make_state([(1, 1), (2, 2), (3, 3)], seed=23)
    total = step_prob(s, [(1, None)], p_rand)
    total += sum(step_prob(s, [(0, c), (1, None)], p_rand) for c in range(3))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_replay_rejects_illegal_row(params):
    s = make_state([(1, 1), (1, 2)])
    bad = ActionRecord(steps=[(0, 0), (0, 1), (1, None)], selected=[0, 1], held=[],
                       exhaustive=False, logp=0.0)
    with pytest.raises(IllegalActionError):
        log_prob(s, bad, params)  # row 1 shares the order of row 0


def test_sampling_encodes_once_per_selection(params, monkeypatch):
    encoded = []

    def counting_encode(rows, p):
        encoded.append(len(rows))
        return encode(rows, p)

    monkeypatch.setattr(d2sn, "encode", counting_encode)
    s = make_state([(1, 1), (1, 2), (2, 1), (3, 3), (4, 4)], seed=33)
    held = sample_action(s, holding(params), np.random.default_rng(0))
    assert held.steps == [(1, None)] and held.held == [0, 1, 2, 3, 4]
    assert encoded == []
    full = sample_action(s, params, np.random.default_rng(1), force_exhaustive=True)
    picks = len(full.selected)
    assert picks >= 3 and len(full.steps) == picks + 1
    assert len(encoded) == picks
    assert encoded[0] == 5  # the first selection reads the whole pool


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


@pytest.mark.parametrize("widths", [{"n_heads": 0}, {"d_model": 32.0}, {"g_dim": 2.5},
                                    {"n_heads": True}, {"g_dim": -8}, {"g_dim": "8"}])
def test_config_widths_must_be_integers_of_at_least_one(widths):
    with pytest.raises(ValueError, match="integers >= 1"):
        D2snConfig(**widths)


def test_config_accepts_numpy_integer_widths():
    cfg = D2snConfig(d_model=np.int64(16), n_heads=np.int32(2), g_dim=np.int64(8))
    assert init_params(cfg).tensors["emb_w"].shape == (N_PAIR_FEATURES, 16)


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


class _Unwritable:
    """A parameter whose bytes cannot be read, as when a save dies partway."""

    size = 1

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_checkpoint_save_that_fails_partway_keeps_the_earlier_file(tmp_path, params):
    path = tmp_path / "latest.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    tensors = dict(params.tensors)
    tensors[list(tensors)[9]] = _Unwritable()  # the 10th tensor fails
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(D2snParams(params.config, tensors), path)
    assert path.read_bytes() == blob
    load_checkpoint(path)
    assert [p.name for p in tmp_path.iterdir()] == ["latest.ckpt"]


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


def rewrite_header(path, new_header) -> None:
    """Replace the JSON header of the checkpoint at ``path`` with the bytes
    ``new_header(header)`` returns for its parsed header."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[12:16])
    bad = new_header(json.loads(blob[16:16 + hlen]))
    path.write_bytes(blob[:12] + struct.pack("<I", len(bad)) + bad + blob[16 + hlen:])


def test_checkpoint_bad_header_raises_checkpoint_error(tmp_path, params):
    from micod.d2sn import CheckpointError

    def config(**widths):
        return lambda h: json.dumps({**h, "config": {**h["config"], **widths}}).encode()

    for new_header in (lambda h: b"{not json", lambda h: json.dumps([1, 2]).encode(),
                       lambda h: json.dumps({k: v for k, v in h.items() if k != "names"}).encode(),
                       lambda h: json.dumps({**h, "config": {"d_model": 7}}).encode(),
                       lambda h: json.dumps({**h, "extra": 5}).encode(),
                       lambda h: json.dumps({**h, "extra": [1, 2]}).encode(),
                       config(n_heads=0), config(d_model=16.0), config(g_dim=2.5),
                       config(n_heads=True),
                       lambda h: json.dumps({**h, "param_count": h["param_count"] + 1}).encode()):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(params, path)
        rewrite_header(path, new_header)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _negative_first_dim(blob: bytes) -> bytes:
    """``blob`` with the first tensor's first dimension set to -1."""
    (hlen,) = struct.unpack("<I", blob[12:16])
    at = 16 + hlen + 4  # past the header and the first tensor's ndim
    return blob[:at] + struct.pack("<q", -1) + blob[at + 8:]


@pytest.mark.parametrize("damage,named", [
    (lambda blob: blob[:8] + struct.pack("<I", 2) + blob[12:], "unsupported version 2"),
    (_negative_first_dim, "negative shape"),
])
def test_checkpoint_rejects_bad_container(tmp_path, params, damage, named):
    from micod.d2sn import CheckpointError
    path = tmp_path / "bad.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CheckpointError, match=named):
        load_checkpoint(path)


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


@pytest.mark.parametrize("name", ["cq_b", "opt_m_emb_w"])
def test_checkpoint_rejects_non_finite_tensor(tmp_path, params, name):
    from micod.d2sn import CheckpointError
    tensors = dict(params.tensors, opt_m_emb_w=np.zeros((3, 5)))
    tensors[name] = tensors[name].copy()
    tensors[name][0, 1] = np.inf
    save_checkpoint(D2snParams(params.config, tensors), tmp_path / "inf.ckpt")
    with pytest.raises(CheckpointError, match=f"tensor {name} "):
        load_checkpoint(tmp_path / "inf.ckpt")


def test_tensor_mode_matches_fast_mode(params):
    s = make_state([(1, 1), (2, 2), (3, 1)], seed=51)
    a = sample_action(s, params, np.random.default_rng(9))
    fast_total, _ = log_prob(s, a, params)
    tensors = as_tensors(params)
    slow_total, _ = log_prob(s, a, tensors)
    assert to_float(slow_total) == to_float(fast_total)
    assert to_float(critic_value(s, tensors)) == \
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
    # one node per masked GRU scan and per masked attention call, whatever
    # the row count
    tensors = as_tensors(params)
    small = make_state([(i, i) for i in range(3)], seed=61)
    large = make_state([(i, i) for i in range(40)], seed=62)
    action = ActionRecord(steps=[(0, 0), (1, None)], selected=[0], held=[], exhaustive=False,
                          logp=0.0)
    agg = [graph_size(replay([(s, action)], tensors)[0]) for s in (small, large)]
    crit = [graph_size(critic_value(s, tensors)) for s in (small, large)]
    assert agg[0] == agg[1]
    assert crit[0] == crit[1]
