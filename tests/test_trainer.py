import hashlib
import math

import numpy as np
import pytest

from micod.autodiff import Tensor, to_float
from micod.core import Driver, EpisodeConfig, Location, Order
from micod.d2sn import D2snConfig, as_tensors, critic_value, init_params, log_prob
from micod.env import DispatchEnv, global_info_dim
from micod.scenario import Dataset
from micod.trainer import (AdamState, TrainConfig, Trajectory, clipped_objective,
                           collect_rollouts, compute_gae, make_adam, ppo_update, train)


def tiny_dataset(n_drivers=2, n_orders=2, episode_s=8.0):
    cfg = EpisodeConfig(episode_length_s=episode_s, batch_window_s=2.0, seed=0)
    drivers = [Driver(i, Location(100.0 * i, 50.0), 0.0) for i in range(n_drivers)]
    orders = [Order(j, Location(50.0, 100.0 * j + 10.0), Location(900.0, 900.0),
                    5.0 + j, 0.0, 600.0, 50.0) for j in range(n_orders)]
    return Dataset(config=cfg, drivers=drivers, orders=orders)


def net_config(ds):
    return D2snConfig(d_model=8, n_heads=2, g_dim=global_info_dim(ds.config))


# -- GAE -------------------------------------------------------------------------

def test_gae_single_step():
    adv, targets = compute_gae([1.0], [0.0], gamma=0.9, lam=0.95)
    assert adv[0] == 1.0
    assert targets[0] == 1.0


def test_gae_lambda_zero_is_td_residual():
    rng = np.random.default_rng(0)
    for _ in range(50):
        T = int(rng.integers(1, 30))
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)
        adv, _ = compute_gae(rewards, values, gamma=0.9, lam=0.0)
        v_next = np.append(values[1:], 0.0)
        td = rewards + 0.9 * v_next - values
        assert np.allclose(adv, td, atol=1e-10)


def test_gae_lambda_one_is_discounted_return_minus_value():
    rng = np.random.default_rng(1)
    for _ in range(50):
        T = int(rng.integers(1, 30))
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)
        adv, _ = compute_gae(rewards, values, gamma=0.5, lam=1.0)
        returns = np.zeros(T)
        acc = 0.0
        for t in range(T - 1, -1, -1):
            acc = rewards[t] + 0.5 * acc
            returns[t] = acc
        assert np.allclose(adv, returns - values, atol=1e-10)


def test_gae_hand_example():
    adv, _ = compute_gae([1.0, 1.0], [0.0, 0.0], gamma=0.5, lam=1.0)
    assert adv == pytest.approx([1.5, 1.0], abs=1e-12)


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        compute_gae([1.0, 2.0], [0.0], gamma=0.9, lam=0.95)


# -- clipped objective -----------------------------------------------------------------

def test_clip_arithmetic():
    assert clipped_objective(2.0, 1.0, 0.2) == pytest.approx(1.2)
    assert clipped_objective(0.5, 1.0, 0.2) == pytest.approx(0.5)
    assert clipped_objective(2.0, -1.0, 0.2) == pytest.approx(-2.0)
    assert clipped_objective(1.0, 3.0, 0.2) == pytest.approx(3.0)


# -- rollouts -----------------------------------------------------------------------

def test_rollout_empty_dataset_gives_full_zero_reward_trajectory():
    cfg = EpisodeConfig(seed=0)  # default 600 s / 2 s
    ds = Dataset(config=cfg, drivers=[], orders=[])
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda seed: DispatchEnv(ds, seed=seed), params, 1,
                             np.random.default_rng(0))
    assert len(trajs) == 1
    assert len(trajs[0]) == 300
    assert all(s.reward == 0.0 for s in trajs[0].steps)
    assert trajs[0].episode_reward == 0.0


def test_rollout_deterministic_given_seed():
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)

    def collect(seed):
        return collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 2,
                                np.random.default_rng(seed))

    a, b = collect(4), collect(4)
    assert [t.episode_reward for t in a] == [t.episode_reward for t in b]
    assert [[s.action.logp for s in t.steps] for t in a] == \
        [[s.action.logp for s in t.steps] for t in b]


def test_rollout_reward_sum_equals_ledger_tdi():
    ds = tiny_dataset(n_drivers=3, n_orders=3, episode_s=12.0)
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, reward_mode="TDI", seed=s),
                             params, 3, np.random.default_rng(7))
    for t in trajs:
        assert t.episode_reward == pytest.approx(t.metrics.tdi, abs=0.0)


# -- updates -------------------------------------------------------------------------

def test_ratio_identity_at_unchanged_params():
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 2,
                             np.random.default_rng(1))
    for traj in trajs:
        for rec in traj.steps:
            lp, _ = log_prob(rec.state, rec.action, params)
            ratio = math.exp(to_float(lp) - rec.action.logp)
            assert ratio == pytest.approx(1.0, abs=1e-8)


def test_ppo_update_improves_logp_of_positive_advantage_action():
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 1,
                             np.random.default_rng(2))
    traj = trajs[0]
    rec, other = [s for s in traj.steps if s.state.n_pairs > 0][:2]
    cfg = TrainConfig(lr=1e-3, epochs=1, minibatch_size=2, entropy_coef=0.0)
    before, _ = log_prob(rec.state, rec.action, params)
    before = to_float(before)
    # rewards 1 and -1 with zero critic at init: advantages normalize to +1
    # for rec and -1 for the other transition
    rec.reward, other.reward = 1.0, -1.0
    pair = [Trajectory(steps=[r], episode_reward=r.reward) for r in (rec, other)]
    ppo_update(pair, params, cfg, make_adam(params), np.random.default_rng(0))
    after, _ = log_prob(rec.state, rec.action, params)
    assert to_float(after) > before


def test_ppo_update_diagnostics_ratio_one_clipfrac_zero():
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 2,
                             np.random.default_rng(3))
    cfg = TrainConfig(lr=0.0, epochs=1, minibatch_size=512, entropy_coef=0.0)
    diag = ppo_update(trajs, params, cfg, make_adam(params), np.random.default_rng(0))
    assert diag["mean_ratio"] == pytest.approx(1.0, abs=1e-8)
    assert diag["clip_fraction"] == 0.0
    assert diag["entropy"] >= 0.0 and np.isfinite(diag["entropy"])


def test_critic_regression_loss_decreases_on_fixed_batch():
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 1,
                             np.random.default_rng(5))
    steps = trajs[0].steps[:4]
    targets = [1.0, -0.5, 2.0, 0.25]

    def critic_loss():
        return sum((to_float(critic_value(rec.state, params)) - tgt) ** 2
                   for rec, tgt in zip(steps, targets)) / len(steps)

    critic_opt = make_adam(params)
    losses = [critic_loss()]
    for _ in range(30):
        tensors = as_tensors(params)
        terms = []
        for rec, tgt in zip(steps, targets):
            v = critic_value(rec.state, tensors)
            terms.append((v - tgt) * (v - tgt))
        loss = terms[0]
        for t in terms[1:]:
            loss = loss + t
        loss = loss * (1.0 / len(terms))
        loss.backward()
        grads = {n: tensors.tensors[n].grad for n in params.critic_names()
                 if tensors.tensors[n].grad is not None}
        critic_opt.step(params.tensors, grads, lr=1e-2)
        losses.append(critic_loss())
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-6 for a, b in zip(losses[:10], losses[1:11]))


def test_adam_moves_toward_minimum():
    opt = AdamState(["x"], [(1, 1)])
    x = {"x": np.array([[5.0]])}
    for _ in range(400):
        g = {"x": 2.0 * x["x"]}  # d/dx x^2
        opt.step(x, g, lr=0.05)
    assert abs(x["x"][0, 0]) < 0.1


# -- train loop -----------------------------------------------------------------------

def test_train_zero_lr_keeps_params(tmp_path):
    ds = tiny_dataset()
    cfg = TrainConfig(lr=0.0, iterations=1, episodes_per_iter=2, seed=3)
    result = train(cfg, [ds], out_dir=str(tmp_path))
    fresh = init_params(result.params.config, seed=cfg.seed)
    for name in fresh.tensors:
        assert np.array_equal(fresh.tensors[name], result.params.tensors[name])


def test_train_curve_rows_equal_iterations(tmp_path):
    ds = tiny_dataset()
    cfg = TrainConfig(lr=1e-3, iterations=3, episodes_per_iter=1, epochs=1,
                      minibatch_size=16, seed=1)
    result = train(cfg, [ds], out_dir=str(tmp_path))
    assert len(result.curves) == 3
    curves_csv = (tmp_path / "curves.csv").read_text().strip().splitlines()
    assert len(curves_csv) == 4  # header + 3 rows


def test_train_resume_continues_from_checkpoint(tmp_path):
    ds = tiny_dataset()
    cfg = TrainConfig(lr=1e-3, iterations=2, episodes_per_iter=1, epochs=1, seed=5)
    first = train(cfg, [ds], out_dir=str(tmp_path))
    cfg2 = TrainConfig(lr=1e-3, iterations=4, episodes_per_iter=1, epochs=1, seed=5)
    resumed = train(cfg2, [ds], out_dir=str(tmp_path), resume=True)
    assert len(resumed.curves) == 2  # iterations 3 and 4 only
    assert resumed.curves[0]["iteration"] == 3
    assert [row["episodes"] for row in resumed.curves] == [3, 4]
    assert resumed.curves[0]["wallclock"] >= first.curves[-1]["wallclock"]
    assert resumed.curves[1]["wallclock"] >= resumed.curves[0]["wallclock"]
    straight = train(cfg2, [ds], out_dir=None)
    for name, t in straight.params.tensors.items():
        assert np.array_equal(resumed.params.tensors[name], t), name


CURVE_COLUMNS = ["iteration", "episodes", "mean_reward", "cr", "metric", "wallclock",
                 "policy_loss", "critic_loss", "entropy", "mean_ratio", "clip_fraction",
                 "approx_kl", "rollout_s", "update_s", "checkpoint_s"]


@pytest.mark.parametrize("lr", [1e-3, 0.0])
def test_curves_csv_diagnostics_stable_across_resume(tmp_path, lr):
    import csv

    ds = tiny_dataset()
    train(TrainConfig(lr=lr, iterations=2, episodes_per_iter=1, epochs=1, seed=7), [ds],
          out_dir=str(tmp_path))
    resumed = train(TrainConfig(lr=lr, iterations=3, episodes_per_iter=1, epochs=1, seed=7),
                    [ds], out_dir=str(tmp_path), resume=True)
    with open(tmp_path / "curves.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == CURVE_COLUMNS  # written once, by the first run
    assert [int(r[0]) for r in table[1:]] == [1, 2, 3]
    for r in table[1:]:
        assert len(r) == len(CURVE_COLUMNS)
        assert all(math.isfinite(float(x)) for x in r), r
    assert list(resumed.curves[0]) == CURVE_COLUMNS
    for r in table[1:]:
        row = dict(zip(CURVE_COLUMNS, map(float, r)))
        assert min(row["rollout_s"], row["update_s"], row["checkpoint_s"]) >= 0.0
        assert row["checkpoint_s"] > 0.0
        assert 0.0 <= row["clip_fraction"] <= 1.0 and row["mean_ratio"] > 0.0
        if lr == 0.0:
            assert row["approx_kl"] == 0.0 and row["mean_ratio"] == 1.0


def test_fresh_run_starts_the_curve_file_anew(tmp_path):
    import csv

    ds = tiny_dataset()
    for _ in range(2):  # two fresh runs into one directory
        train(TrainConfig(lr=0.0, iterations=2, episodes_per_iter=1, seed=7), [ds],
              out_dir=str(tmp_path))
    train(TrainConfig(lr=0.0, iterations=3, episodes_per_iter=1, seed=7), [ds],
          out_dir=str(tmp_path), resume=True)
    with open(tmp_path / "curves.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == CURVE_COLUMNS
    assert [r[0] for r in table[1:]] == ["1", "2", "3"]


def test_ppo_update_without_transitions_is_idle():
    from micod.trainer import IDLE_DIAGNOSTICS

    params = init_params(net_config(tiny_dataset()), seed=0)
    before = {n: t.copy() for n, t in params.tensors.items()}
    opt = make_adam(params)
    diag = ppo_update([], params, TrainConfig(), opt, np.random.default_rng(0))
    assert diag == {"transitions": 0, **IDLE_DIAGNOSTICS}
    assert opt.t == 0
    assert all(np.array_equal(before[n], t) for n, t in params.tensors.items())


def test_ppo_update_approx_kl_is_mean_negative_log_ratio():
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 2,
                             np.random.default_rng(3))
    cfg = TrainConfig(lr=1e-2, epochs=3, minibatch_size=2, entropy_coef=0.0)
    diag = ppo_update(trajs, params, cfg, make_adam(params), np.random.default_rng(0))
    assert np.isfinite(diag["approx_kl"])
    assert diag["approx_kl"] != 0.0  # later epochs replay under updated parameters
    # -log r >= 1 - r, so the mean of -log r is at least 1 - mean(r)
    assert diag["approx_kl"] >= 1.0 - diag["mean_ratio"] - 1e-12


def test_train_one_iteration_parameter_digest():
    """Fixed-seed training is bit-for-bit reproducible through a sampled
    update: each epoch draws 8 of the 12 transitions and replays them in
    minibatches of 3, 3 and 2."""
    ds = tiny_dataset(n_drivers=3, n_orders=4, episode_s=12.0)
    cfg = TrainConfig(lr=1e-2, iterations=1, episodes_per_iter=2, epochs=2, minibatch_size=3,
                      update_sample_size=8, entropy_coef=0.01, seed=5)
    diags = []
    result = train(cfg, [ds], net_config=net_config(ds),
                   progress=lambda row, diag: diags.append(diag))
    assert [d["transitions"] for d in diags] == [12]
    h = hashlib.sha256()
    for name in sorted(result.params.tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(result.params.tensors[name], dtype=np.float64).tobytes())
    assert h.hexdigest() == "7afa10f74bda3090bbbda81b7a212042a91b2bd29108dbc9f1b43673449fa509"


@pytest.mark.parametrize("key", ["iterations", "epochs", "minibatch_size", "episodes_per_iter"])
def test_train_config_rejects_sizes_below_one(key):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: 0})
    TrainConfig(**{key: 1})


def test_train_requires_datasets():
    with pytest.raises(ValueError):
        train(TrainConfig(), [], out_dir=None)


def test_non_finite_loss_aborts_with_diagnostics():
    from micod.trainer import TrainerError
    ds = tiny_dataset()
    params = init_params(net_config(ds), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, seed=s), params, 1,
                             np.random.default_rng(8))
    params.tensors["v_w2"][:] = np.nan  # poison the critic
    cfg = TrainConfig(lr=1e-3, epochs=1, minibatch_size=8)
    with pytest.raises(TrainerError) as err:
        ppo_update(trajs, params, cfg, make_adam(params), np.random.default_rng(0))
    assert "critic_loss" in err.value.diagnostics
