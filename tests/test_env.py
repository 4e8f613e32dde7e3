import numpy as np
import pytest

from micod import env as env_module
from micod.autodiff import to_float
from micod.core import Driver, EpisodeConfig, Location, Order
from micod.d2sn import ActionRecord, D2snConfig, init_params, log_prob, sample_action
from micod.env import (F_BATCH, F_BIAS, F_PATIENCE, F_PICKUP, F_PRICE, F_WAIT,
                       DispatchEnv, IllegalActionError, OuterState, global_info_dim,
                       mask_after_selection)
from micod.harness import make_policy, parse_policy_id, run_episode
from micod.matching import solve_pool
from micod.scenario import Dataset, ScenarioSpec, generate


def make_dataset(drivers, orders, **cfg_kwargs):
    cfg_kwargs.setdefault("match_radius_m", 3000.0)
    return Dataset(config=EpisodeConfig(**cfg_kwargs), drivers=drivers, orders=orders)


def order(oid, origin, price=10.0, appear=0.0, patience=600.0, trip=100.0,
          dest=Location(3000, 3000)):
    return Order(oid, origin, dest, price, appear, patience, trip)


def pool_state(pairs_spec):
    """OuterState with synthetic feature rows; pairs_spec = [(order, driver)]."""
    n = len(pairs_spec)
    feats = np.arange(n * 12, dtype=float).reshape(n, 12) / 100.0
    ids = np.array(pairs_spec, dtype=np.int64).reshape(n, 2)
    return OuterState(global_info=np.zeros(4), order_ids=ids[:, 0], driver_ids=ids[:, 1],
                      feature_matrix=feats)


def pool_ids(state):
    return list(zip(state.order_ids.tolist(), state.driver_ids.tolist()))


# -- reset / outer state -------------------------------------------------------

def test_reset_empty_dataset():
    env = DispatchEnv(make_dataset([], []), seed=0)
    s = env.reset()
    assert s.n_pairs == 0
    assert s.global_info.shape == (global_info_dim(env.config),)
    assert np.all(np.isfinite(s.global_info))


def test_unknown_reward_mode_and_step_before_reset_are_rejected():
    ds = make_dataset([], [])
    with pytest.raises(ValueError, match="reward mode"):
        DispatchEnv(ds, reward_mode="XYZ")
    with pytest.raises(RuntimeError, match="reset"):
        DispatchEnv(ds, seed=0).finalize_batch([], [])


def test_reset_deterministic():
    ds = make_dataset([Driver(0, Location(0, 0), 0.0)], [order(0, Location(10, 10))])
    a = DispatchEnv(ds, seed=5).reset()
    b = DispatchEnv(ds, seed=5).reset()
    assert np.array_equal(a.feature_matrix, b.feature_matrix)
    assert np.array_equal(a.global_info, b.global_info)


def test_reset_cross_product_pool():
    drivers = [Driver(i, Location(100 * i, 0), 0.0) for i in range(3)]
    orders = [order(j, Location(0, 100 * j)) for j in range(2)]
    env = DispatchEnv(make_dataset(drivers, orders), seed=0)
    s = env.reset()
    assert s.n_pairs == 6
    keys = pool_ids(s)
    assert keys == sorted(keys)


# -- features -------------------------------------------------------------------

def only_row(ds):
    """Feature row of the single pair in the initial pool."""
    s = DispatchEnv(ds, seed=0).reset()
    assert s.n_pairs == 1
    return s.feature_matrix[0]


def test_features_colocated_pair_distance_zero():
    ds = make_dataset([Driver(0, Location(50, 50), 0.0)], [order(0, Location(50, 50))])
    f = only_row(ds)
    assert f[F_PICKUP] == 0.0
    assert f[F_BIAS] == 1.0


def test_features_fresh_order():
    ds = make_dataset([Driver(0, Location(0, 0), 0.0)], [order(0, Location(10, 0))])
    f = only_row(ds)
    assert f[F_WAIT] == 0.0
    assert f[F_PATIENCE] == 1.0
    assert f[F_BATCH] == 0.0


def test_features_pair_at_exact_radius():
    ds = make_dataset([Driver(0, Location(0, 0), 0.0)], [order(0, Location(0, 3000))])
    assert only_row(ds)[F_PICKUP] == 1.0


# -- sub-state transitions --------------------------------------------------------
# The inner layer is mask_after_selection walked by d2sn's sampler/replayer.
# The policy below has uniform heads (init_params zeroes the hold output layer
# and the decision query) with the hold bias pinned to always or never hold.

def walk_params(always_hold):
    params = init_params(D2snConfig(d_model=8, n_heads=2, g_dim=4), seed=0)
    params.tensors["hold_b2"][:] = [[-1e3, 0.0]] if always_hold else [[0.0, -1e3]]
    return params


def record(steps):
    return ActionRecord(steps=steps, selected=[c for _, c in steps if c is not None],
                        held=[], exhaustive=False, logp=0.0)


def sample_starting_with(state, row):
    """A never-hold sampled action whose first sub-action selects ``row``."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = sample_action(state, walk_params(always_hold=False), rng)
        if a.steps[0] == (0, row):
            return a
    pytest.fail(f"no sampled action started by selecting row {row}")


def test_mask_after_selection_masks_related_rows():
    s = pool_state([(1, 1), (2, 1), (1, 2), (2, 2)])
    mask = mask_after_selection(s, np.ones(4, dtype=bool), 0)  # pick (o1, d1)
    assert np.flatnonzero(mask).tolist() == [3]  # only (o2, d2) survives
    a = sample_starting_with(s, 0)
    assert a.selected == [0, 3]


def test_hold_defers_everything():
    s = pool_state([(1, 1), (2, 1), (1, 2), (2, 2)])
    a = sample_action(s, walk_params(always_hold=True), np.random.default_rng(0))
    assert a.steps == [(1, None)]
    assert a.held == [0, 1, 2, 3]
    assert a.selected == []


def test_disjoint_sequence_ends_with_zero_held():
    s = pool_state([(1, 1), (2, 2)])
    mask = mask_after_selection(s, np.ones(2, dtype=bool), 0)
    assert not mask_after_selection(s, mask, 1).any()
    a = sample_starting_with(s, 0)
    assert a.steps == [(0, 0), (0, 1), (0, None)]
    assert a.selected == [0, 1]
    assert a.held == []
    total, per_step = log_prob(s, record(a.steps), walk_params(always_hold=False))
    assert len(per_step) == 3 and to_float(total) == a.logp


def test_mask_after_selection_rejects_masked_row():
    s = pool_state([(1, 1), (1, 2)])
    mask = mask_after_selection(s, np.ones(2, dtype=bool), 0)
    assert not mask.any()  # picking (1,1) masks (1,2): pool empty
    with pytest.raises(IllegalActionError):
        mask_after_selection(s, np.ones(2, dtype=bool), 5)
    with pytest.raises(IllegalActionError):
        mask_after_selection(s, mask, 1)
    with pytest.raises(IllegalActionError):
        log_prob(s, record([(0, 0), (0, 1)]), walk_params(always_hold=False))


def test_replay_rejects_hold_with_selection():
    s = pool_state([(1, 1)])
    with pytest.raises(IllegalActionError):
        log_prob(s, record([(1, 0)]), walk_params(always_hold=True))


# -- finalize / rewards -------------------------------------------------------------

def _two_pair_env(reward_mode):
    drivers = [Driver(0, Location(0, 0), 0.0), Driver(1, Location(4000, 0), 0.0)]
    orders = [order(0, Location(0, 500), price=10.0),
              order(1, Location(4000, 1500), price=15.0)]
    ds = make_dataset(drivers, orders)
    env = DispatchEnv(ds, reward_mode=reward_mode, seed=0)
    s = env.reset()
    rows = {key: i for i, key in enumerate(pool_ids(s))}
    return env, s, rows


def test_finalize_tdi_reward_sums_prices():
    env, s, rows = _two_pair_env("TDI")
    reward, _, done = env.finalize_batch([rows[(0, 0)], rows[(1, 1)]], [])
    assert reward == 25.0
    assert not done


def test_finalize_apd_reward_negative_km():
    env, s, rows = _two_pair_env("APD")
    reward, _, _ = env.finalize_batch([rows[(0, 0)], rows[(1, 1)]], [])
    assert reward == -2.0  # (500 + 1500) m -> 2.0 km


def test_finalize_zero_assignments_zero_reward():
    env, s, _ = _two_pair_env("TDI")
    reward, _, _ = env.finalize_batch([], list(range(s.n_pairs)))
    assert reward == 0.0


def test_episode_return_matches_ledger_tdi():
    env, s, _ = _two_pair_env("TDI")
    total = 0.0
    done = False
    state = s
    rng = np.random.default_rng(0)
    while not done:
        take = [int(rng.integers(0, state.n_pairs))] if state.n_pairs else []
        reward, state, done = env.finalize_batch(take, [])
        total += reward
    ledger = env.sim.ledger
    assert total == sum(ledger.batch_income_sums)
    assert env.metrics().tdi == ledger.sum_income


def test_done_after_episode_length():
    ds = make_dataset([], [], episode_length_s=6.0, batch_window_s=2.0)
    env = DispatchEnv(ds, seed=0)
    env.reset()
    flags = []
    for _ in range(3):
        _, _, done = env.finalize_batch([], [])
        flags.append(done)
    assert flags == [False, False, True]
    assert env.sim.ledger.finalized


def test_pool_size_varies_across_batches():
    # two disjoint windows with different entity counts -> differing pool sizes
    drivers = [Driver(0, Location(0, 0), 0.0), Driver(1, Location(60, 0), 2.5),
               Driver(2, Location(0, 60), 2.5)]
    orders = [order(0, Location(30, 0), appear=0.0), order(1, Location(0, 30), appear=2.5)]
    env = DispatchEnv(make_dataset(drivers, orders), seed=0)
    s0 = env.reset()
    assert s0.n_pairs == 1
    _, s1, _ = env.finalize_batch([], [0])
    assert s1.n_pairs == 6  # 3 drivers x 2 orders after the second window


# -- pool built from one snapshot, features on first read ---------------------------

@pytest.fixture(scope="module")
def small_world():
    return generate(ScenarioSpec("L2", 400, seed=0, scale_factor=0.05))


@pytest.mark.parametrize("mode", ["TDI", "APD"])
def test_classical_eval_never_builds_feature_matrix(small_world, mode, monkeypatch):
    builds = []

    def spy(*args):
        builds.append(args)
        return pool_context(*args)

    pool_context = env_module._pool_context
    monkeypatch.setattr(env_module, "_pool_context", spy)
    for policy_id in ["km", "greedy", "gs", "fixed_delay(3)"]:
        policy = make_policy(parse_policy_id(policy_id), mode)
        run_episode(small_world, policy, seed=0, reward_mode=mode)
    assert builds == []
    DispatchEnv(small_world, seed=0).reset().feature_matrix  # the spy sees a read
    assert len(builds) == 1


def km_states(dataset, read_at_once):
    """Every outer state of a km episode, the terminal one included, and the
    two cost columns of each as read while the episode ran."""
    env = DispatchEnv(dataset, seed=3)
    state, done = env.reset(), False
    states, costs = [state], []
    while True:
        if read_at_once:
            state.feature_matrix, state.global_info
        costs.append((state.feature(F_PICKUP).copy(), state.feature(F_PRICE).copy()))
        if done:
            return states, costs
        _, state, done = env.finalize_batch(solve_pool(state, "TDI", "km"), [])
        states.append(state)


def test_late_read_equals_read_at_once(small_world):
    late, late_costs = km_states(small_world, read_at_once=False)
    now, now_costs = km_states(small_world, read_at_once=True)
    assert len(late) == len(now) == small_world.config.n_batches + 1
    assert sum(s.n_pairs for s in late) > 0
    for a, b, (pickup_a, price_a), (pickup_b, price_b) in zip(late, now, late_costs, now_costs):
        # read only after the episode finished
        assert np.array_equal(a.order_ids, b.order_ids)
        assert a.feature_matrix.tobytes() == b.feature_matrix.tobytes()
        assert a.global_info.tobytes() == b.global_info.tobytes()
        assert pickup_a.tobytes() == pickup_b.tobytes()
        assert price_a.tobytes() == price_b.tobytes()


def test_cost_columns_equal_feature_matrix_columns(small_world):
    states, costs = km_states(small_world, read_at_once=False)
    for s, (pickup, price) in zip(states, costs):
        assert pickup.tobytes() == s.feature_matrix[:, F_PICKUP].tobytes()
        assert price.tobytes() == s.feature_matrix[:, F_PRICE].tobytes()
        assert s.feature(F_PICKUP).tobytes() == pickup.tobytes()  # now a slice


def test_entity_views_are_read_only(small_world):
    env = DispatchEnv(small_world, seed=0)
    state, done, written = env.reset(), False, 0
    while not done:
        for view, column in ((env.sim.idle, "x"), (env.sim.open_orders, "ox")):
            assert not view.flags.writeable
            if len(view):
                with pytest.raises(ValueError, match="read-only"):
                    view[column][0] = 0.0
                written += 1
        _, state, done = env.finalize_batch(solve_pool(state, "TDI", "km"), [])
    assert written > 0
