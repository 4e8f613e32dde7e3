"""Two-layer decision process over the simulator.

The outer layer observes, once per batch, a global context vector plus the
variable-size pool of eligible order-driver pairs, and is rewarded when the
batch's assignments execute. The pool is one row per pair: ``order_ids`` and
``driver_ids`` hold the ids and ``feature_matrix`` the context features, all
in (order id, driver id) order. Each batch's pool is built from one snapshot
of the simulator's open-order and idle-driver rows (with their grid cells),
which the eligible-pair search shares. The ids and the two cost columns
(pickup distance, price) are computed at once; the feature matrix and the
global vector on their first read, from that snapshot, every column an array
expression over the pool rows. A classical solver reads one cost column
(:meth:`OuterState.feature`) and never pays for the rest; the network reads
everything. The inner layer walks sub-states, tracked as a
boolean mask over pool rows: each sub-action either ends the batch (hold,
deferring every remaining row) or selects one row, and
:func:`mask_after_selection` then removes every row sharing its order or
driver. :func:`micod.d2sn.sample_action` samples these sub-actions and
:func:`micod.d2sn.replay` replays recorded ones;
:meth:`DispatchEnv.finalize_batch` executes the result.

Reward per completed batch:
  TDI mode: sum of assigned order prices.
  APD mode: negative sum of assigned pickup distances, in kilometers
  (meters / 1000) to keep magnitudes near unity.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import EpisodeConfig
from .scenario import Dataset
from .simulator import SimState, episode_metrics

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


class OuterState:
    """Per-batch observation: fixed-size global vector and the pair pool, one
    row per pair in (order id, driver id) order.

    A caller-built state is given ``global_info`` and ``feature_matrix``. An
    env-built state (:meth:`from_snapshot`) holds the two cost columns and
    computes both on their first read, from the snapshot of the batch it was
    built from; it then drops the snapshot."""

    def __init__(self, global_info: np.ndarray | None, order_ids: np.ndarray,
                 driver_ids: np.ndarray, feature_matrix: np.ndarray | None):
        self.order_ids = order_ids    # int64, one per pool row
        self.driver_ids = driver_ids  # int64, one per pool row
        self._global_info = global_info
        self._feature_matrix = feature_matrix  # n_pairs x N_PAIR_FEATURES
        self._costs: dict[int, np.ndarray] = {}
        self._build = None

    @classmethod
    def from_snapshot(cls, order_ids: np.ndarray, driver_ids: np.ndarray,
                      costs: dict[int, np.ndarray], build) -> "OuterState":
        """A state whose ``costs`` columns are known and whose
        ``build(costs)`` returns ``(global_info, feature_matrix)`` when either
        is first read."""
        state = cls(None, order_ids, driver_ids, None)
        state._costs, state._build = costs, build
        return state

    def _materialize(self) -> None:
        self._global_info, self._feature_matrix = self._build(self._costs)
        self._costs, self._build = {}, None

    @property
    def global_info(self) -> np.ndarray:
        if self._build is not None:
            self._materialize()
        return self._global_info

    @property
    def feature_matrix(self) -> np.ndarray:
        if self._build is not None:
            self._materialize()
        return self._feature_matrix

    def feature(self, j: int) -> np.ndarray:
        """Pool feature column ``j``; a known cost column is read without
        building the others."""
        column = self._costs.get(j)
        return self.feature_matrix[:, j] if column is None else column

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


def global_info_dim(cfg: EpisodeConfig) -> int:
    return 4 + 2 * cfg.n_cells


def _pool_context(o: np.ndarray, d: np.ndarray, oi: np.ndarray, di: np.ndarray,
                  clock: float, cfg: EpisodeConfig,
                  costs: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The global vector and the feature matrix of one batch's pool, from the
    batch's open-order rows ``o`` and idle-driver rows ``d``, each pool row's
    rows ``oi`` / ``di`` in them, the clock and the config. Every column is
    an array expression over the pool rows; the cost columns are copied in."""
    waiting_s = clock - o["appear"]
    o_cell, d_cell = o["cell"], d["cell"]
    demand = np.bincount(o_cell, minlength=cfg.n_cells)
    supply = np.bincount(d_cell, minlength=cfg.n_cells)
    origin_demand = demand[o_cell[oi]]
    origin_supply = supply[o_cell[oi]]

    feats = np.empty((len(oi), N_PAIR_FEATURES), dtype=np.float64)
    for j, column in costs.items():
        feats[:, j] = column
    feats[:, F_WAIT] = waiting_s[oi] / TIME_SCALE
    feats[:, F_PATIENCE] = np.maximum(0.0, 1.0 - waiting_s / o["patience"])[oi]
    feats[:, F_IDLE] = (clock - d["since"][di]) / TIME_SCALE
    feats[:, F_TRIP] = o["trip"][oi] / TRIP_SCALE
    feats[:, F_ORIGIN_DEMAND] = origin_demand / CELL_SCALE
    feats[:, F_ORIGIN_SUPPLY] = origin_supply / CELL_SCALE
    feats[:, F_DRIVER_SUPPLY] = supply[d_cell[di]] / CELL_SCALE
    feats[:, F_LOCAL_RATIO] = np.minimum(origin_demand / np.maximum(origin_supply, 1),
                                         RATIO_CAP) / RATIO_CAP
    feats[:, F_BATCH] = clock / cfg.episode_length_s
    feats[:, F_BIAS] = 1.0

    n_demand, n_supply = len(o), len(d)
    g = np.empty(global_info_dim(cfg), dtype=np.float64)
    g[0] = n_demand / COUNT_SCALE
    g[1] = n_supply / COUNT_SCALE
    g[2] = min(n_demand / max(n_supply, 1), RATIO_CAP) / RATIO_CAP
    g[3] = clock / cfg.episode_length_s
    g[4:] = np.concatenate([demand, supply]) / CELL_SCALE
    return g, feats


class DispatchEnv:
    """Episode-scoped environment. ``reset`` builds the initial outer state;
    ``finalize_batch`` executes the batch's selections, records held pairs,
    and returns (reward, next outer state, done)."""

    def __init__(self, dataset: Dataset, reward_mode: str | None = None,
                 seed: int | None = None):
        self.dataset = dataset
        self.config = dataset.config
        self.reward_mode = reward_mode or self.config.reward_mode
        if self.reward_mode not in ("APD", "TDI"):
            raise ValueError(f"reward mode must be APD or TDI, got {self.reward_mode!r}")
        self.seed = self.config.seed if seed is None else seed
        self.sim: SimState | None = None

    def reset(self) -> OuterState:
        self.sim = SimState(self.dataset, seed=self.seed)
        self._last_state = self._build_outer()
        return self._last_state

    def _build_outer(self) -> OuterState:
        """The batch's pool from one snapshot of the simulator's open-order
        and idle-driver rows: the ids, each pool row's entity rows and the two
        cost columns now, the rest on first read (:func:`_pool_context`)."""
        sim = self._require_sim()
        cfg = self.config
        driver_ids, order_ids = sim.eligible_pairs().T
        oi, di, dist = sim.eligible_rows()  # pool row -> entity rows, and its distance
        o, d = sim.open_orders, sim.idle
        costs = {F_PICKUP: dist / cfg.match_radius_m, F_PRICE: o["price"][oi] / PRICE_SCALE}
        return OuterState.from_snapshot(order_ids, driver_ids, costs,
                                        partial(_pool_context, o, d, oi, di, sim.clock, cfg))

    def finalize_batch(self, selected: list[int],
                       held: list[int]) -> tuple[float, OuterState, bool]:
        """Execute selected rows of the last returned outer state as
        assignments and record its held rows, then advance one batch window."""
        sim = self._require_sim()
        state = self._last_state
        selected, held = np.asarray(selected, dtype=np.int64), np.asarray(held, dtype=np.int64)
        # (driver_id, order_id) per row; np.array(...).T is cheaper than np.column_stack
        sim.step_batch(np.array([state.driver_ids[selected], state.order_ids[selected]]).T,
                       np.array([state.driver_ids[held], state.order_ids[held]]).T)

        if self.reward_mode == "TDI":
            reward = sim.ledger.batch_income_sums[-1]
        else:
            reward = -sim.ledger.batch_pickup_sums[-1] / 1000.0

        done = sim.episode_over
        if done:
            sim.finish()
        self._last_state = self._build_outer()
        return reward, self._last_state, done

    def metrics(self):
        return episode_metrics(self._require_sim().ledger)

    def _require_sim(self) -> SimState:
        if self.sim is None:
            raise RuntimeError("call reset() before stepping the environment")
        return self.sim
