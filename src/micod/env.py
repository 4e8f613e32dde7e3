"""Two-layer decision process over the simulator.

The outer layer observes, once per batch, a global context vector plus the
variable-size pool of eligible order-driver pairs, and is rewarded when the
batch's assignments execute. The pool is one row per pair: ``order_ids`` and
``driver_ids`` hold the ids and ``feature_matrix`` the context features, all
in (order id, driver id) order. The inner layer walks sub-states, tracked as a
boolean mask over pool rows: each sub-action either ends the batch (hold,
deferring every remaining row) or selects one row, and
:func:`mask_after_selection` then removes every row sharing its order or
driver. :class:`micod.d2sn._Walk` is the walker that samples and replays
these sub-actions; :meth:`DispatchEnv.finalize_batch` executes the result.

Reward per completed batch:
  TDI mode: sum of assigned order prices.
  APD mode: negative sum of assigned pickup distances, in kilometers
  (meters / 1000) to keep magnitudes near unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EpisodeConfig, cell_index, cell_of
from .scenario import Dataset
from .simulator import SimState

# Pair feature schema (12 columns). Normalizers keep magnitudes near [0, 1].
F_PICKUP = 0          # pickup distance / match radius
F_PRICE = 1           # price / PRICE_SCALE
F_WAIT = 2            # order waiting time so far / TIME_SCALE
F_PATIENCE = 3        # remaining patience fraction
F_IDLE = 4            # driver idle time / TIME_SCALE
F_TRIP = 5            # trip duration / TRIP_SCALE
F_ORIGIN_DEMAND = 6   # open orders in the origin cell / CELL_SCALE
F_ORIGIN_SUPPLY = 7   # idle drivers in the origin cell / CELL_SCALE
F_DRIVER_SUPPLY = 8   # idle drivers in the driver's cell / CELL_SCALE
F_LOCAL_RATIO = 9     # origin-cell demand/supply ratio, capped / RATIO_CAP
F_BATCH = 10          # batch index fraction of the episode
F_BIAS = 11           # constant 1
N_PAIR_FEATURES = 12

PRICE_SCALE = 20.0
TIME_SCALE = 60.0
TRIP_SCALE = 600.0
CELL_SCALE = 10.0
RATIO_CAP = 5.0
COUNT_SCALE = 100.0


class IllegalActionError(ValueError):
    """Sub-action referenced a removed row or violated hold semantics."""


@dataclass
class OuterState:
    """Per-batch observation: fixed-size global vector and the pair pool, one
    row per pair in (order id, driver id) order."""

    global_info: np.ndarray
    order_ids: np.ndarray       # int64, one per pool row
    driver_ids: np.ndarray      # int64, one per pool row
    feature_matrix: np.ndarray  # n_pairs x N_PAIR_FEATURES

    @property
    def n_pairs(self) -> int:
        return len(self.order_ids)


def mask_after_selection(state: OuterState, mask: np.ndarray, c: int) -> np.ndarray:
    """Clear every still-available row sharing the chosen row's order or driver
    (including the chosen row itself)."""
    if c < 0 or c >= state.n_pairs or not mask[c]:
        raise IllegalActionError(f"row {c} is not available")
    o, d = state.order_ids[c], state.driver_ids[c]
    return mask & (state.order_ids != o) & (state.driver_ids != d)


def features_of(driver_id: int, order_id: int, sim: SimState,
                _cells: tuple[dict, dict] | None = None) -> np.ndarray:
    """Feature row for an eligible (driver, order) pair in the current batch."""
    cfg = sim.config
    idle = sim.idle[driver_id]
    order = sim.open_orders[order_id]
    if _cells is None:
        _cells = _cell_counts(sim)
    demand_cells, supply_cells = _cells

    pickup_m = np.hypot(idle.position.x - order.origin.x, idle.position.y - order.origin.y)
    waiting_s = sim.clock - order.appear_time
    origin_cell = cell_index(cell_of(order.origin, cfg), cfg)
    driver_cell = cell_index(cell_of(idle.position, cfg), cfg)
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


def _cell_counts(sim: SimState) -> tuple[dict[int, int], dict[int, int]]:
    cfg = sim.config
    demand: dict[int, int] = {}
    supply: dict[int, int] = {}
    for order in sim.open_orders.values():
        k = cell_index(cell_of(order.origin, cfg), cfg)
        demand[k] = demand.get(k, 0) + 1
    for idle in sim.idle.values():
        k = cell_index(cell_of(idle.position, cfg), cfg)
        supply[k] = supply.get(k, 0) + 1
    return demand, supply


def _id_pairs(state: OuterState, rows: list[int]) -> list[tuple[int, int]]:
    """(driver_id, order_id) of each pool row, as Python ints."""
    rows = np.asarray(rows, dtype=np.int64)
    return list(zip(state.driver_ids[rows].tolist(), state.order_ids[rows].tolist()))


def global_info_dim(cfg: EpisodeConfig) -> int:
    return 4 + 2 * cfg.n_cells


class DispatchEnv:
    """Episode-scoped environment. ``reset`` builds the initial outer state;
    ``finalize_batch`` executes the batch's selections, records held pairs,
    and returns (reward, next outer state, done)."""

    def __init__(self, dataset: Dataset, reward_mode: str | None = None,
                 seed: int | None = None, radius: float | None = None):
        self.dataset = dataset
        self.config = dataset.config
        self.reward_mode = reward_mode or self.config.reward_mode
        if self.reward_mode not in ("APD", "TDI"):
            raise ValueError(f"reward mode must be APD or TDI, got {self.reward_mode!r}")
        self.seed = self.config.seed if seed is None else seed
        self.radius = self.config.match_radius_m if radius is None else radius
        self.sim: SimState | None = None

    def reset(self) -> OuterState:
        self.sim = SimState(self.dataset, seed=self.seed)
        state = self._build_outer()
        self._last_state = state
        return state

    def _build_outer(self) -> OuterState:
        sim = self._require_sim()
        cfg = self.config
        cells = _cell_counts(sim)
        pairs = sim.eligible_pairs(self.radius)

        driver_ids, order_ids = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2).T.copy()
        feats = np.empty((len(pairs), N_PAIR_FEATURES), dtype=np.float64)
        for i, (d_id, o_id) in enumerate(pairs):
            feats[i] = features_of(d_id, o_id, sim, _cells=cells)

        demand_cells, supply_cells = cells
        n_demand = len(sim.open_orders)
        n_supply = len(sim.idle)
        g = np.zeros(global_info_dim(cfg), dtype=np.float64)
        g[0] = n_demand / COUNT_SCALE
        g[1] = n_supply / COUNT_SCALE
        g[2] = min(n_demand / max(n_supply, 1), RATIO_CAP) / RATIO_CAP
        g[3] = sim.clock / cfg.episode_length_s
        for k, v in demand_cells.items():
            g[4 + k] = v / CELL_SCALE
        for k, v in supply_cells.items():
            g[4 + cfg.n_cells + k] = v / CELL_SCALE
        return OuterState(global_info=g, order_ids=order_ids, driver_ids=driver_ids,
                          feature_matrix=feats)

    def finalize_batch(self, selected: list[int], held: list[int],
                       state: OuterState | None = None) -> tuple[float, OuterState, bool]:
        """Execute selected pool rows as assignments and record held rows,
        then advance one batch window."""
        sim = self._require_sim()
        if state is None:
            state = self._last_state
        sim.step_batch(_id_pairs(state, selected), _id_pairs(state, held))

        if self.reward_mode == "TDI":
            reward = sim.ledger.batch_income_sums[-1]
        else:
            reward = -sim.ledger.batch_pickup_sums[-1] / 1000.0

        done = sim.episode_over
        if done:
            sim.finish()
        nxt = self._build_outer()
        self._last_state = nxt
        return reward, nxt, done

    def metrics(self):
        from .simulator import episode_metrics
        return episode_metrics(self._require_sim().ledger)

    def _require_sim(self) -> SimState:
        if self.sim is None:
            raise RuntimeError("call reset() before stepping the environment")
        return self.sim

    # finalize_batch defaults to the most recent outer state it produced
    _last_state: OuterState | None = None
