"""The array pool build checked against the per-pair reference it replaced.

``reference_*`` below is the scalar code that once built the pool: a double
loop over open orders and idle drivers deciding eligibility with
``core.distance``, then one feature row per pair with both points mapped to
their grid cell one at a time. ``SimState.eligible_pairs`` and
``DispatchEnv._build_outer`` must reproduce it bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from micod.core import Driver, EpisodeConfig, Location, Order, distance
from micod.env import (CELL_SCALE, COUNT_SCALE, F_BATCH, F_BIAS, F_DRIVER_SUPPLY,
                       F_IDLE, F_LOCAL_RATIO, F_ORIGIN_DEMAND, F_ORIGIN_SUPPLY, F_PATIENCE,
                       F_PICKUP, F_PRICE, F_TRIP, F_WAIT, N_PAIR_FEATURES, PRICE_SCALE,
                       RATIO_CAP, TIME_SCALE, TRIP_SCALE, DispatchEnv, global_info_dim)
from micod.scenario import Dataset
from micod.simulator import SimState

# -- the simulator's entity rows as the per-pair build read them --------------------


class IdleDriver(NamedTuple):
    position: Location
    idle_since: float


def columns(rows, *names):
    return zip(*(rows[name].tolist() for name in names))


def open_orders(sim) -> dict[int, Order]:
    """Open orders by id, rebuilt from the simulator's order rows."""
    return {i: Order(i, Location(ox, oy), Location(dx, dy), price, appear, patience, trip)
            for i, ox, oy, dx, dy, price, appear, patience, trip
            in columns(sim.open_orders, "id", "ox", "oy", "dx", "dy", "price", "appear",
                       "patience", "trip")}


def idle_drivers(sim) -> dict[int, IdleDriver]:
    """Idle drivers by id, rebuilt from the simulator's driver rows."""
    return {i: IdleDriver(Location(x, y), since)
            for i, x, y, since in columns(sim.idle, "id", "x", "y", "since")}


# -- reference: the per-pair build ------------------------------------------------


def reference_pairs(sim):
    r = sim.config.match_radius_m
    orders, idle = open_orders(sim), idle_drivers(sim)
    pairs = []
    for o_id in sorted(orders):
        origin = orders[o_id].origin
        for d_id in sorted(idle):
            if distance(idle[d_id].position, origin) <= r:
                pairs.append((d_id, o_id))
    return pairs


def reference_cell(p, cfg):
    assert 0.0 <= p.x <= cfg.fence_width_m and 0.0 <= p.y <= cfg.fence_height_m
    row = min(int(p.y // cfg.cell_size_m), cfg.grid_rows - 1)
    col = min(int(p.x // cfg.cell_size_m), cfg.grid_cols - 1)
    return row * cfg.grid_cols + col


def reference_demand_supply(sim):
    demand, supply = {}, {}
    for order in open_orders(sim).values():
        k = reference_cell(order.origin, sim.config)
        demand[k] = demand.get(k, 0) + 1
    for idle in idle_drivers(sim).values():
        k = reference_cell(idle.position, sim.config)
        supply[k] = supply.get(k, 0) + 1
    return demand, supply


def reference_feature_row(driver_id, order_id, sim, cells):
    cfg = sim.config
    idle = idle_drivers(sim)[driver_id]
    order = open_orders(sim)[order_id]
    demand_cells, supply_cells = cells

    pickup_m = np.hypot(idle.position.x - order.origin.x, idle.position.y - order.origin.y)
    waiting_s = sim.clock - order.appear_time
    origin_cell = reference_cell(order.origin, cfg)
    driver_cell = reference_cell(idle.position, cfg)
    origin_demand = demand_cells.get(origin_cell, 0)
    origin_supply = supply_cells.get(origin_cell, 0)

    f = np.empty(N_PAIR_FEATURES, dtype=np.float64)
    f[F_PICKUP] = pickup_m / cfg.match_radius_m
    f[F_PRICE] = order.price / PRICE_SCALE
    f[F_WAIT] = waiting_s / TIME_SCALE
    f[F_PATIENCE] = max(0.0, 1.0 - waiting_s / order.patience)
    f[F_IDLE] = (sim.clock - idle.idle_since) / TIME_SCALE
    f[F_TRIP] = order.trip_duration / TRIP_SCALE
    f[F_ORIGIN_DEMAND] = origin_demand / CELL_SCALE
    f[F_ORIGIN_SUPPLY] = origin_supply / CELL_SCALE
    f[F_DRIVER_SUPPLY] = supply_cells.get(driver_cell, 0) / CELL_SCALE
    f[F_LOCAL_RATIO] = min(origin_demand / max(origin_supply, 1), RATIO_CAP) / RATIO_CAP
    f[F_BATCH] = sim.clock / cfg.episode_length_s
    f[F_BIAS] = 1.0
    return f


def reference_global_info(sim, cells):
    cfg = sim.config
    demand_cells, supply_cells = cells
    n_demand, n_supply = len(open_orders(sim)), len(idle_drivers(sim))
    g = np.zeros(global_info_dim(cfg), dtype=np.float64)
    g[0] = n_demand / COUNT_SCALE
    g[1] = n_supply / COUNT_SCALE
    g[2] = min(n_demand / max(n_supply, 1), RATIO_CAP) / RATIO_CAP
    g[3] = sim.clock / cfg.episode_length_s
    for k, v in demand_cells.items():
        g[4 + k] = v / CELL_SCALE
    for k, v in supply_cells.items():
        g[4 + cfg.n_cells + k] = v / CELL_SCALE
    return g


def assert_matches_reference(state, sim):
    pairs = reference_pairs(sim)
    cells = reference_demand_supply(sim)
    feats = np.array([reference_feature_row(d, o, sim, cells) for d, o in pairs])
    assert np.array_equal(state.order_ids, [o for _, o in pairs])
    assert np.array_equal(state.driver_ids, [d for d, _ in pairs])
    assert np.array_equal(state.feature_matrix, feats.reshape(len(pairs), N_PAIR_FEATURES))
    assert np.array_equal(state.global_info, reference_global_info(sim, cells))


# -- random worlds, stepped a few batches --------------------------------------------

W, H = 6400.0, 4800.0
# plain floats plus cell edges and the fence boundary
xs = st.one_of(st.floats(0.0, W), st.sampled_from([0.0, 800.0, 2400.0, W]))
ys = st.one_of(st.floats(0.0, H), st.sampled_from([0.0, 800.0, 3000.0, H]))
times = st.floats(0.0, 9.0)

drivers_st = st.lists(st.tuples(xs, ys, times, st.floats(0.0, 0.3)), max_size=8)
orders_st = st.lists(st.tuples(xs, ys, xs, ys, st.floats(1.0, 40.0), times,
                               st.floats(1.0, 12.0), st.floats(0.0, 8.0)), max_size=10)


@settings(max_examples=60, deadline=None)
@given(drivers_st, orders_st, st.sampled_from([1500.0, 3000.0, 2290.335104302425]),
       st.integers(0, 3))
def test_array_pool_equals_per_pair_reference(drivers, orders, radius, seed):
    cfg = EpisodeConfig(episode_length_s=12.0, match_radius_m=radius,
                        pickup_speed_mps=400.0, seed=seed)
    ds = Dataset(config=cfg,
                 drivers=[Driver(i, Location(x, y), t, h)
                          for i, (x, y, t, h) in enumerate(drivers)],
                 orders=[Order(j, Location(ox, oy), Location(dx, dy), price, t, patience, trip)
                         for j, (ox, oy, dx, dy, price, t, patience, trip)
                         in enumerate(orders)])
    env = DispatchEnv(ds, seed=seed)
    state = env.reset()
    done = False
    while not done:
        assert_matches_reference(state, env.sim)
        # dispatch every other row that is still one-to-one, hold nothing
        used_o, used_d, selected = set(), set(), []
        for c in range(0, state.n_pairs, 2):
            o, d = int(state.order_ids[c]), int(state.driver_ids[c])
            if o not in used_o and d not in used_d:
                selected.append(c)
                used_o.add(o)
                used_d.add(d)
        _, state, done = env.finalize_batch(selected, [])
    assert_matches_reference(state, env.sim)


# -- boundary pairs where np.hypot and math.hypot round apart ------------------------


@pytest.mark.parametrize("origin,radius,eligible", [
    ((2711.6, 644.0), math.hypot(2711.6, 644.0), True),
    ((298.5, 2270.8), 2290.335104302425, False),
])
def test_boundary_pair_decided_by_distance(origin, radius, eligible):
    # a plain np.hypot <= radius decides these the other way
    assert (np.hypot(*origin) <= radius) != eligible
    cfg = EpisodeConfig(match_radius_m=radius)
    ds = Dataset(config=cfg, drivers=[Driver(0, Location(0.0, 0.0), 0.0)],
                 orders=[Order(0, Location(*origin), Location(1.0, 1.0), 5.0, 0.0, 30.0, 10.0)])
    sim = SimState(ds, seed=0)
    assert reference_pairs(sim) == ([(0, 0)] if eligible else [])
    assert np.array_equal(sim.eligible_pairs(), np.array(reference_pairs(sim)).reshape(-1, 2))
    assert DispatchEnv(ds, seed=0).reset().n_pairs == int(eligible)
