"""Batch-mode dispatch world.

Each batch executes the accepted assignments, records held candidates, then
advances the clock by one window: trips complete and release their drivers at
the order destination, the next window's arrivals spawn, over-patience orders
cancel, and idle drivers may drop offline. Entity bookkeeping is exact: order
states (open / serving / completed / cancelled) and driver states (idle /
serving / departed) always partition the appeared counts.

Income and pickup distance accrue at assignment time, summed once per batch so
episode reward streams can be compared against the ledger bit-for-bit.
:meth:`SimState.eligible_pairs` finds the candidate pairs in one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Driver, EpisodeConfig, Location, Order, distance
from .scenario import Dataset


class ConstraintViolationError(ValueError):
    """Assignment broke one-to-one or referenced an unavailable entity."""


class SimulationStateError(RuntimeError):
    """Operation invoked at the wrong lifecycle point."""


@dataclass
class HeldPair:
    driver_id: int
    order_id: int
    pickup_m: float
    price: float


@dataclass
class _Trip:
    driver_id: int
    order_id: int
    complete_time: float
    destination: Location


@dataclass
class _IdleDriver:
    driver: Driver
    position: Location
    idle_since: float


@dataclass
class MetricsLedger:
    appeared_orders: int = 0
    appeared_drivers: int = 0
    completed_orders: int = 0
    cancelled_orders: int = 0
    sum_pickup_distance: float = 0.0
    sum_income: float = 0.0
    served_order_ids: set[int] = field(default_factory=set)
    served_driver_ids: set[int] = field(default_factory=set)
    batch_pickup_sums: list[float] = field(default_factory=list)
    batch_income_sums: list[float] = field(default_factory=list)
    held_batches: list[list[HeldPair]] = field(default_factory=list)
    held_distinct_order_ids: set[int] = field(default_factory=set)
    held_distinct_driver_ids: set[int] = field(default_factory=set)
    finalized: bool = False

    def all_held(self) -> list[HeldPair]:
        return [hp for batch in self.held_batches for hp in batch]


@dataclass
class MetricsReport:
    """Episode-level metric suite; ratios are None when their denominator
    is empty (never reported as zero)."""

    appeared_orders: int
    completed_orders: int
    cancelled_orders: int
    appeared_drivers: int
    cr: float
    apd: float | None
    tdi: float
    hold_apd_ratio: float | None
    hold_o_ratio: float
    hold_tdi_ratio: float | None
    hold_d_ratio: float
    order_sr: float
    driver_sr: float

    def to_flat_dict(self) -> dict[str, float | int | None]:
        return {
            "cr": self.cr,
            "apd": self.apd,
            "tdi": self.tdi,
            "hold_apd_ratio": self.hold_apd_ratio,
            "hold_o_ratio": self.hold_o_ratio,
            "hold_tdi_ratio": self.hold_tdi_ratio,
            "hold_d_ratio": self.hold_d_ratio,
            "order_sr": self.order_sr,
            "driver_sr": self.driver_sr,
            "appeared_orders": self.appeared_orders,
            "completed_orders": self.completed_orders,
            "cancelled_orders": self.cancelled_orders,
            "appeared_drivers": self.appeared_drivers,
        }


class SimState:
    """One episode's world state. Single-threaded; run independent instances
    in parallel instead of sharing one."""

    def __init__(self, dataset: Dataset, seed: int | None = None):
        self.config: EpisodeConfig = dataset.config
        self.clock: float = 0.0
        self.idle: dict[int, _IdleDriver] = {}
        self.open_orders: dict[int, Order] = {}
        self.serving: list[_Trip] = []
        self.departed: set[int] = set()
        self.ledger = MetricsLedger()
        self._events = dataset.events()
        self._next_event = 0
        self._driver_by_id = {d.id: d for d in dataset.drivers}
        self.rng = np.random.default_rng(self.config.seed if seed is None else seed)
        self.terminated = False
        self._spawn_until(self.clock + self.config.batch_window_s)

    # -- lifecycle ------------------------------------------------------------

    def _spawn_until(self, limit: float) -> None:
        while self._next_event < len(self._events):
            ev = self._events[self._next_event]
            if ev.appear_time >= limit:
                break
            self._next_event += 1
            if isinstance(ev, Driver):
                self.idle[ev.id] = _IdleDriver(ev, ev.position, ev.appear_time)
                self.ledger.appeared_drivers += 1
            else:
                self.open_orders[ev.id] = ev
                self.ledger.appeared_orders += 1

    def step_batch(self,
                   assignments: list[tuple[int, int]],
                   held_pairs: list[tuple[int, int]] | None = None) -> "SimState":
        """Execute one batch: ``assignments`` and ``held_pairs`` are
        (driver_id, order_id) tuples over currently idle drivers / open orders.
        """
        if self.terminated:
            raise SimulationStateError("episode already terminated")
        held_pairs = held_pairs or []

        seen_d: set[int] = set()
        seen_o: set[int] = set()
        for d_id, o_id in assignments:
            if d_id in seen_d or o_id in seen_o:
                raise ConstraintViolationError(
                    f"double assignment: driver {d_id} / order {o_id}")
            if d_id not in self.idle:
                raise ConstraintViolationError(f"driver {d_id} is not idle")
            if o_id not in self.open_orders:
                raise ConstraintViolationError(f"order {o_id} is not open")
            seen_d.add(d_id)
            seen_o.add(o_id)

        batch_pickup = 0.0
        batch_income = 0.0
        for d_id, o_id in assignments:
            idle = self.idle.pop(d_id)
            order = self.open_orders.pop(o_id)
            pickup_m = distance(idle.position, order.origin)
            pickup_s = pickup_m / self.config.pickup_speed_mps
            batch_pickup += pickup_m
            batch_income += order.price
            self.serving.append(_Trip(
                driver_id=d_id, order_id=o_id,
                complete_time=self.clock + pickup_s + order.trip_duration,
                destination=order.destination,
            ))
        self.ledger.sum_pickup_distance += batch_pickup
        self.ledger.sum_income += batch_income
        self.ledger.batch_pickup_sums.append(batch_pickup)
        self.ledger.batch_income_sums.append(batch_income)

        held_records: list[HeldPair] = []
        for d_id, o_id in held_pairs:
            if d_id not in self.idle:
                raise ConstraintViolationError(f"held driver {d_id} is not idle")
            if o_id not in self.open_orders:
                raise ConstraintViolationError(f"held order {o_id} is not open")
            order = self.open_orders[o_id]
            held_records.append(HeldPair(
                driver_id=d_id, order_id=o_id,
                pickup_m=distance(self.idle[d_id].position, order.origin),
                price=order.price,
            ))
            self.ledger.held_distinct_driver_ids.add(d_id)
            self.ledger.held_distinct_order_ids.add(o_id)
        self.ledger.held_batches.append(held_records)

        self.clock += self.config.batch_window_s
        self._complete_trips()
        self._spawn_until(self.clock + self.config.batch_window_s)
        self._cancel_expired()
        self._offline_departures()
        return self

    def _complete_trips(self) -> None:
        due = [t for t in self.serving if t.complete_time <= self.clock]
        self.serving = [t for t in self.serving if t.complete_time > self.clock]
        self._release(due)

    def _release(self, trips: list[_Trip]) -> None:
        """Complete ``trips`` in (completion time, driver id) order, leaving
        each driver idle at its destination."""
        for trip in sorted(trips, key=lambda t: (t.complete_time, t.driver_id)):
            drv = self._driver_by_id[trip.driver_id]
            self.idle[trip.driver_id] = _IdleDriver(drv, trip.destination, trip.complete_time)
            self.ledger.completed_orders += 1
            self.ledger.served_order_ids.add(trip.order_id)
            self.ledger.served_driver_ids.add(trip.driver_id)

    def _cancel_expired(self) -> None:
        for o_id in sorted(self.open_orders):
            order = self.open_orders[o_id]
            if self.clock - order.appear_time >= order.patience:
                del self.open_orders[o_id]
                self.ledger.cancelled_orders += 1

    def _offline_departures(self) -> None:
        for d_id in sorted(self.idle):
            hazard = self.idle[d_id].driver.offline_hazard
            if hazard > 0.0 and self.rng.random() < hazard:
                del self.idle[d_id]
                self.departed.add(d_id)

    def finish(self) -> None:
        """Terminate the episode: in-flight trips complete (service is
        deterministic once dispatched) and still-open orders cancel."""
        if self.terminated:
            return
        for o_id in sorted(self.open_orders):
            del self.open_orders[o_id]
            self.ledger.cancelled_orders += 1
        self._release(self.serving)
        self.serving = []
        self.terminated = True
        self.ledger.finalized = True

    # -- queries ---------------------------------------------------------------

    @property
    def episode_over(self) -> bool:
        return self.clock >= self.config.episode_length_s - 1e-9

    def eligible_pairs(self) -> np.ndarray:
        """n x 2 int64 array of (driver_id, order_id) rows within the match
        radius, in (order id, driver id) order. One ``np.hypot`` broadcast
        decides all but the pairs within a few ulps of the radius, where it
        may round apart from :func:`~micod.core.distance`, which decides those."""
        if not self.open_orders or not self.idle:  # a third of batches in small worlds
            return np.empty((0, 2), dtype=np.int64)
        r = self.config.match_radius_m
        o_ids = np.array(sorted(self.open_orders), dtype=np.int64)
        d_ids = np.array(sorted(self.idle), dtype=np.int64)
        origins = [self.open_orders[o].origin for o in o_ids.tolist()]
        positions = [self.idle[d].position for d in d_ids.tolist()]
        o_xy = np.array([(p.x, p.y) for p in origins])
        d_xy = np.array([(p.x, p.y) for p in positions])
        dist = np.hypot(d_xy[:, 0] - o_xy[:, :1], d_xy[:, 1] - o_xy[:, 1:])
        eligible = dist <= r
        near = np.nonzero(np.abs(dist - r) <= 4 * np.spacing(r))
        eligible[near] = [distance(positions[j], origins[i]) <= r for i, j in zip(*near)]
        rows, cols = np.nonzero(eligible)
        return np.array([d_ids[cols], o_ids[rows]]).T

    def order_state_counts(self) -> dict[str, int]:
        return {
            "open": len(self.open_orders),
            "serving": len(self.serving),
            "completed": self.ledger.completed_orders,
            "cancelled": self.ledger.cancelled_orders,
        }

    def driver_state_counts(self) -> dict[str, int]:
        return {
            "idle": len(self.idle),
            "serving": len(self.serving),
            "departed": len(self.departed),
        }

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
        raise SimulationStateError("episode_metrics requires a terminated episode")
    n_app_o = ledger.appeared_orders
    n_app_d = ledger.appeared_drivers
    n_done = ledger.completed_orders

    cr = n_done / n_app_o if n_app_o else 0.0
    apd = ledger.sum_pickup_distance / n_done if n_done else None

    held = ledger.all_held()
    if held:
        mean_held_pickup = sum(h.pickup_m for h in held) / len(held)
        mean_held_price = sum(h.price for h in held) / len(held)
        hold_apd = mean_held_pickup / apd if apd else None
        mean_done_price = ledger.sum_income / n_done if n_done else None
        hold_tdi = mean_held_price / mean_done_price if mean_done_price else None
    else:
        hold_apd = 0.0
        hold_tdi = 0.0

    return MetricsReport(
        appeared_orders=n_app_o,
        completed_orders=n_done,
        cancelled_orders=ledger.cancelled_orders,
        appeared_drivers=n_app_d,
        cr=cr,
        apd=apd,
        tdi=ledger.sum_income,
        hold_apd_ratio=hold_apd,
        hold_o_ratio=len(ledger.held_distinct_order_ids) / n_app_o if n_app_o else 0.0,
        hold_tdi_ratio=hold_tdi,
        hold_d_ratio=len(ledger.held_distinct_driver_ids) / n_app_d if n_app_d else 0.0,
        order_sr=len(ledger.served_order_ids) / n_app_o if n_app_o else 0.0,
        driver_sr=len(ledger.served_driver_ids) / n_app_d if n_app_d else 0.0,
    )
