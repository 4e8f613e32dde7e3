"""Batch-mode dispatch world.

Each batch executes the accepted assignments, records held candidates, then
advances the clock by one window: trips complete and release their drivers at
the order destination, the next window's arrivals spawn, over-patience orders
cancel, and idle drivers may drop offline.

Drivers and orders are entity tables: one id-sorted numpy structured array
per kind, one row per entity of the episode, built once. A ``state`` column
walks each row from pending to available (to serving, for drivers) to gone;
every lifecycle step is a masked column write, and no row is ever inserted,
deleted or re-sorted. A step whose mask is known to be empty is skipped:
arrivals are read from an arrival-time index, and completions wait for the
earliest trip end. Order states (open / serving / completed / cancelled) and
driver states (idle / serving / departed) always partition the appeared counts.

Each batch has one read-only view, built whole on first use and dropped by
every mutator: the idle-driver rows, the open-order rows and the pair search
over them. A batch is checked whole before any of it is written, so a
rejected batch leaves the world unchanged.

Income and pickup distance accrue at assignment time, summed once per batch so
episode reward streams can be compared against the ledger bit-for-bit. Held
pairs stream into a running count, pickup sum and price sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .core import DomainError, EpisodeConfig, cell_ids
from .scenario import Dataset


class ConstraintViolationError(ValueError):
    """Assignment broke one-to-one or referenced an unavailable entity."""


class SimulationStateError(RuntimeError):
    """Operation invoked at the wrong lifecycle point."""


# lifecycle states of the ``state`` column
PENDING, AVAILABLE, SERVING, GONE = range(4)

# ``x``/``y`` is the position (the destination while serving) and ``cell`` its
# grid cell, ``since`` the time the driver last became idle, ``done`` the
# completion time of its trip.
DRIVER_DTYPE = np.dtype([("id", np.int64), ("x", np.float64), ("y", np.float64),
                         ("cell", np.int64), ("appear", np.float64), ("hazard", np.float64),
                         ("since", np.float64), ("done", np.float64), ("state", np.int8)])
# ``cell`` is the origin's grid cell, ``dcell`` the destination's.
ORDER_DTYPE = np.dtype([("id", np.int64), ("ox", np.float64), ("oy", np.float64),
                        ("cell", np.int64), ("dx", np.float64), ("dy", np.float64),
                        ("dcell", np.int64), ("price", np.float64), ("appear", np.float64),
                        ("patience", np.float64), ("trip", np.float64), ("state", np.int8)])


@dataclass
class MetricsLedger:
    appeared_orders: int = 0
    appeared_drivers: int = 0
    completed_orders: int = 0
    cancelled_orders: int = 0
    sum_pickup_distance: float = 0.0
    sum_income: float = 0.0
    served_driver_ids: set[int] = field(default_factory=set)
    batch_pickup_sums: list[float] = field(default_factory=list)
    batch_income_sums: list[float] = field(default_factory=list)
    held_pairs: int = 0
    held_pickup_sum: float = 0.0  # summed pair by pair, in hold order
    held_price_sum: float = 0.0
    held_distinct_order_ids: set[int] = field(default_factory=set)
    held_distinct_driver_ids: set[int] = field(default_factory=set)
    finalized: bool = False


@dataclass
class MetricsReport:
    """Episode-level metric suite; ratios are None when their denominator
    is empty (never reported as zero)."""

    cr: float
    apd: float | None
    tdi: float
    hold_apd_ratio: float | None
    hold_o_ratio: float
    hold_tdi_ratio: float | None
    hold_d_ratio: float
    order_sr: float
    driver_sr: float
    appeared_orders: int
    completed_orders: int
    cancelled_orders: int
    appeared_drivers: int

    def to_flat_dict(self) -> dict[str, float | int | None]:
        return asdict(self)


def _table(dtype: np.dtype, rows: list[tuple], kind: str) -> np.ndarray:
    table = np.array(rows, dtype=dtype)
    table.sort(order="id", kind="stable")
    if np.any(table["id"][1:] == table["id"][:-1]):
        raise DomainError(f"duplicate {kind} ids")
    return table


def _lookup(table: np.ndarray, table_ids: np.ndarray,
            ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of each id in the id-sorted ``table``, and whether it is available.
    ``table_ids`` is a contiguous copy of the id column, which searches about
    twice as fast as the strided field."""
    if not len(table):
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    rows = np.minimum(table_ids.searchsorted(ids), len(table) - 1)
    return rows, (table_ids[rows] == ids) & (table["state"][rows] == AVAILABLE)


def _running_sum(total: float, values: np.ndarray) -> float:
    """``reduce(add, values, total)`` at array speed: ``np.add.accumulate``
    adds left to right, unlike the pairwise ``np.sum``."""
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


class SimState:
    """One episode's world state. Single-threaded; run independent instances
    in parallel instead of sharing one."""

    def __init__(self, dataset: Dataset, seed: int | None = None):
        self.config: EpisodeConfig = dataset.config
        self.clock: float = 0.0
        self.drivers = drivers = _table(DRIVER_DTYPE, [
            (d.id, d.position.x, d.position.y, 0, d.appear_time, d.offline_hazard,
             d.appear_time, math.inf, PENDING) for d in dataset.drivers], "driver")
        self.orders = orders = _table(ORDER_DTYPE, [
            (o.id, o.origin.x, o.origin.y, 0, o.destination.x, o.destination.y, 0, o.price,
             o.appear_time, o.patience, o.trip_duration, PENDING)
            for o in dataset.orders], "order")
        drivers["cell"] = cell_ids(drivers["x"], drivers["y"], self.config)
        orders["cell"] = cell_ids(orders["ox"], orders["oy"], self.config)
        orders["dcell"] = cell_ids(orders["dx"], orders["dy"], self.config)
        # read-only contiguous copies of the columns that every batch reads and
        # nothing writes after this: per-batch scans of them run about 7% of a
        # scale-1.0 episode faster than over the strided table fields
        self._driver_ids, self._order_ids = drivers["id"].copy(), orders["id"].copy()
        self._hazard, self._appear, self._patience = (
            drivers["hazard"].copy(), orders["appear"].copy(), orders["patience"].copy())
        self._may_leave = self._hazard > 0.0
        for column in (self._driver_ids, self._order_ids, self._hazard, self._appear,
                       self._patience, self._may_leave):
            column.flags.writeable = False
        self.ledger = MetricsLedger()
        self.rng = np.random.default_rng(self.config.seed if seed is None else seed)
        # each table, the ledger count of its appeared rows, its rows in
        # arrival order and their arrival times; a row appears once, when the
        # clock first passes it
        self._arrivals = [(t, count, np.argsort(t["appear"], kind="stable"), np.sort(t["appear"]))
                          for t, count in ((drivers, "appeared_drivers"),
                                           (orders, "appeared_orders"))]
        self._next_done = math.inf  # the earliest trip completion, inf when none is due
        self._batch = None  # :meth:`_view`, reset by every mutator after this
        self._spawn_until(self.clock + self.config.batch_window_s)

    # -- views -------------------------------------------------------------------

    def _view(self) -> tuple[np.ndarray, ...]:
        """The batch view, built whole on first use: the idle drivers' rows,
        the open orders' rows, then the pair search's ids, order rows, driver
        rows and distances. All are read-only copies."""
        if self._batch is None:
            idle, open_ = (t.compress(t["state"] == AVAILABLE) for t in (self.drivers, self.orders))
            self._batch = (idle, open_, *self._eligible(idle, open_))
            for a in self._batch:
                a.flags.writeable = False
        return self._batch

    @property
    def idle(self) -> np.ndarray:
        """Rows of the idle drivers, in id order, from the batch view."""
        return self._view()[0]

    @property
    def open_orders(self) -> np.ndarray:
        """Rows of the open orders, in id order, from the batch view."""
        return self._view()[1]

    @property
    def serving(self) -> np.ndarray:
        """Rows of the drivers on a trip, in id order."""
        return self.drivers.compress(self.drivers["state"] == SERVING)

    @property
    def departed(self) -> np.ndarray:
        """Ids of the drivers that went offline."""
        return self.drivers["id"][self.drivers["state"] == GONE]

    # -- lifecycle ---------------------------------------------------------------

    def _spawn_until(self, limit: float) -> None:
        """Pending rows appearing before ``limit`` become available."""
        for table, count, order, times in self._arrivals:
            start, stop = getattr(self.ledger, count), int(np.searchsorted(times, limit))
            if stop > start:
                table["state"][order[start:stop]] = AVAILABLE
                setattr(self.ledger, count, stop)

    def _pickups(self, d_rows: np.ndarray, o_rows: np.ndarray) -> list[float]:
        """Pickup distance of each pair of rows, as :func:`~micod.core.distance`."""
        dx = self.drivers["x"][d_rows] - self.orders["ox"][o_rows]
        dy = self.drivers["y"][d_rows] - self.orders["oy"][o_rows]
        return list(map(math.hypot, dx.tolist(), dy.tolist()))

    def step_batch(self,
                   assignments: list[tuple[int, int]] | np.ndarray,
                   held_pairs: list[tuple[int, int]] | np.ndarray | None = None) -> None:
        """Execute one batch: ``assignments`` and ``held_pairs`` are
        (driver_id, order_id) pairs over currently idle drivers / open orders,
        as tuples or as the rows of an n x 2 integer array; an entity assigned
        in the batch cannot also be held. Every pair is checked before
        anything is written."""
        if self.ledger.finalized:
            raise SimulationStateError("episode already finished")
        ledger, drivers, orders = self.ledger, self.drivers, self.orders

        n_assigned, n_held = len(assignments), 0 if held_pairs is None else len(held_pairs)
        if n_assigned:
            ids = np.asarray(assignments, dtype=np.int64).reshape(-1, 2)
            d_rows, d_ok = _lookup(drivers, self._driver_ids, ids[:, 0])
            o_rows, o_ok = _lookup(orders, self._order_ids, ids[:, 1])
            seen_d, seen_o = set(), set()
            for (d_id, o_id), idle, open_ in zip(ids.tolist(), d_ok.tolist(), o_ok.tolist()):
                if d_id in seen_d or o_id in seen_o:
                    raise ConstraintViolationError(
                        f"double assignment: driver {d_id} / order {o_id}")
                if not idle:
                    raise ConstraintViolationError(f"driver {d_id} is not idle")
                if not open_:
                    raise ConstraintViolationError(f"order {o_id} is not open")
                seen_d.add(d_id)
                seen_o.add(o_id)
        if n_held:
            held = np.asarray(held_pairs, dtype=np.int64).reshape(-1, 2)
            hd_rows, hd_ok = _lookup(drivers, self._driver_ids, held[:, 0])
            ho_rows, ho_ok = _lookup(orders, self._order_ids, held[:, 1])
            if n_assigned:  # an entity assigned in this batch is not available to hold
                for table, rows, ok, taken in ((drivers, hd_rows, hd_ok, d_rows),
                                               (orders, ho_rows, ho_ok, o_rows)):
                    assigned = np.zeros(len(table), dtype=bool)
                    assigned[taken] = True
                    ok &= ~assigned[rows]
            if not (hd_ok.all() and ho_ok.all()):  # the first unavailable pair, driver first
                bad = int(np.flatnonzero(~(hd_ok & ho_ok))[0])
                d_id, o_id = held[bad].tolist()
                raise ConstraintViolationError(f"held driver {d_id} is not idle" if not hd_ok[bad]
                                               else f"held order {o_id} is not open")

        self._batch = None
        batch_pickup = batch_income = 0.0
        if n_assigned:
            pickups = self._pickups(d_rows, o_rows)
            batch_pickup = reduce(add, pickups, 0.0)
            batch_income = reduce(add, orders["price"][o_rows].tolist(), 0.0)
            pickup_s = np.array(pickups) / self.config.pickup_speed_mps
            done = self.clock + pickup_s + orders["trip"][o_rows]
            drivers["done"][d_rows] = done
            self._next_done = min(self._next_done, float(done.min()))
            drivers["x"][d_rows] = orders["dx"][o_rows]
            drivers["y"][d_rows] = orders["dy"][o_rows]
            drivers["cell"][d_rows] = orders["dcell"][o_rows]
            drivers["state"][d_rows] = SERVING
            orders["state"][o_rows] = GONE
        ledger.sum_pickup_distance += batch_pickup
        ledger.sum_income += batch_income
        ledger.batch_pickup_sums.append(batch_pickup)
        ledger.batch_income_sums.append(batch_income)

        if n_held:
            ledger.held_pairs += len(held)
            ledger.held_pickup_sum = _running_sum(ledger.held_pickup_sum,
                                                  self._pickups(hd_rows, ho_rows))
            ledger.held_price_sum = _running_sum(ledger.held_price_sum, orders["price"][ho_rows])
            ledger.held_distinct_driver_ids.update(held[:, 0].tolist())
            ledger.held_distinct_order_ids.update(held[:, 1].tolist())

        self.clock += self.config.batch_window_s
        if self._next_done <= self.clock:
            self._release((drivers["state"] == SERVING) & (drivers["done"] <= self.clock))
        self._spawn_until(self.clock + self.config.batch_window_s)
        self._cancel((orders["state"] == AVAILABLE)
                     & (self.clock - self._appear >= self._patience))
        # one uniform draw per idle driver with a positive hazard, in id order
        at_risk = ((drivers["state"] == AVAILABLE) & self._may_leave).nonzero()[0]
        if len(at_risk):
            leave = self.rng.random(len(at_risk)) < self._hazard[at_risk]
            drivers["state"][at_risk[leave]] = GONE

    def _release(self, due: np.ndarray) -> None:
        """Complete the ``due`` trips; each driver idles at its destination from the trip's end."""
        rows = np.flatnonzero(due)
        drivers = self.drivers
        if len(rows):
            drivers["since"][rows] = drivers["done"][rows]
            drivers["state"][rows] = AVAILABLE
            self.ledger.completed_orders += len(rows)
            self.ledger.served_driver_ids.update(drivers["id"][rows].tolist())
        serving = drivers["state"] == SERVING
        self._next_done = float(drivers["done"][serving].min()) if serving.any() else math.inf

    def _cancel(self, expired: np.ndarray) -> None:
        """Cancel the open orders ``expired`` marks."""
        n = int(np.count_nonzero(expired))
        if n:
            self.orders["state"][expired] = GONE
            self.ledger.cancelled_orders += n

    def finish(self) -> None:
        """Terminate the episode: in-flight trips complete (service is
        deterministic once dispatched) and still-open orders cancel."""
        if self.ledger.finalized:
            return
        self._batch = None
        self._cancel(self.orders["state"] == AVAILABLE)
        self._release(self.drivers["state"] == SERVING)
        self.ledger.finalized = True

    # -- queries -----------------------------------------------------------------

    @property
    def episode_over(self) -> bool:
        return self.clock >= self.config.episode_length_s - 1e-9

    def eligible_pairs(self) -> np.ndarray:
        """n x 2 int64 array of (driver_id, order_id) rows within the match
        radius, in (order id, driver id) order; read-only, searched once per
        batch. One ``np.hypot`` broadcast decides all but the pairs within a
        few ulps of the radius, where it may round apart from
        :func:`~micod.core.distance`, which decides those."""
        return self._view()[2]

    def eligible_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each eligible pair's row in :attr:`open_orders`, its row in
        :attr:`idle` and its ``np.hypot`` distance, from the same search as
        :meth:`eligible_pairs`."""
        return self._view()[3:]

    def _eligible(self, d: np.ndarray,
                  o: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if not len(o) or not len(d):  # a third of batches in small worlds
            none = np.empty(0, dtype=np.int64)
            return np.empty((0, 2), dtype=np.int64), none, none, np.empty(0)
        r = self.config.match_radius_m
        tol = 4 * math.ulp(r)
        dx = d["x"] - o["ox"][:, None]
        dy = d["y"] - o["oy"][:, None]
        dist = np.hypot(dx, dy)
        rows, cols = (dist <= r + tol).nonzero()
        pair_dist = dist[rows, cols]
        near = (pair_dist >= r - tol).nonzero()[0]
        if len(near):
            keep = np.ones(len(rows), dtype=bool)
            keep[near] = [h <= r for h in map(math.hypot, dx[rows[near], cols[near]].tolist(),
                                               dy[rows[near], cols[near]].tolist())]
            rows, cols, pair_dist = rows[keep], cols[keep], pair_dist[keep]
        return np.array([d["id"][cols], o["id"][rows]]).T, rows, cols, pair_dist

    def order_state_counts(self) -> dict[str, int]:
        return {"open": len(self.open_orders), "serving": len(self.serving),
                "completed": self.ledger.completed_orders,
                "cancelled": self.ledger.cancelled_orders}

    def driver_state_counts(self) -> dict[str, int]:
        return {"idle": len(self.idle), "serving": len(self.serving),
                "departed": len(self.departed)}

    def assert_conservation(self) -> None:
        oc = self.order_state_counts()
        if sum(oc.values()) != self.ledger.appeared_orders:
            raise SimulationStateError(f"order conservation broken: {oc} vs "
                                       f"{self.ledger.appeared_orders} appeared")
        dc = self.driver_state_counts()
        if sum(dc.values()) != self.ledger.appeared_drivers:
            raise SimulationStateError(f"driver conservation broken: {dc} vs "
                                       f"{self.ledger.appeared_drivers} appeared")


def episode_metrics(ledger: MetricsLedger) -> MetricsReport:
    """Episode metric suite from a finalized ledger."""
    if not ledger.finalized:
        raise SimulationStateError("episode_metrics requires a finished episode")
    n_app_o = ledger.appeared_orders
    n_app_d = ledger.appeared_drivers
    n_done = ledger.completed_orders

    cr = n_done / n_app_o if n_app_o else 0.0
    apd = ledger.sum_pickup_distance / n_done if n_done else None

    if ledger.held_pairs:
        mean_held_pickup = ledger.held_pickup_sum / ledger.held_pairs
        mean_held_price = ledger.held_price_sum / ledger.held_pairs
        hold_apd = mean_held_pickup / apd if apd else None
        mean_done_price = ledger.sum_income / n_done if n_done else None
        hold_tdi = mean_held_price / mean_done_price if mean_done_price else None
    else:
        hold_apd = hold_tdi = 0.0

    return MetricsReport(
        cr=cr,
        apd=apd,
        tdi=ledger.sum_income,
        hold_apd_ratio=hold_apd,
        hold_o_ratio=len(ledger.held_distinct_order_ids) / n_app_o if n_app_o else 0.0,
        hold_tdi_ratio=hold_tdi,
        hold_d_ratio=len(ledger.held_distinct_driver_ids) / n_app_d if n_app_d else 0.0,
        order_sr=cr,  # each order is served at most once
        driver_sr=len(ledger.served_driver_ids) / n_app_d if n_app_d else 0.0,
        appeared_orders=n_app_o, completed_orders=n_done,
        cancelled_orders=ledger.cancelled_orders, appeared_drivers=n_app_d,
    )
