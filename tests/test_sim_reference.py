"""The entity-table simulator checked against the dict-of-objects one it replaced.

``ReferenceSim`` below is the simulator as it was before drivers and orders
became rows of id-sorted arrays: idle drivers and open orders in dicts of
objects, in-flight trips in a list, arrivals consumed from the merged event
stream by a cursor, and one ``HeldPair`` record kept per held pair. Both
simulators are driven with the same random assignments and holds to
``finish()``; after every batch their ledgers, idle drivers, open orders,
serving and departed drivers and random streams must agree bit for bit.
"""

import copy
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from micod.core import Driver, EpisodeConfig, Location, Order, distance
from micod.scenario import Dataset
from micod.simulator import ConstraintViolationError, SimState, SimulationStateError

# -- reference: the dict-of-objects simulator ----------------------------------------


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
class ReferenceLedger:
    appeared_orders: int = 0
    appeared_drivers: int = 0
    completed_orders: int = 0
    cancelled_orders: int = 0
    sum_pickup_distance: float = 0.0
    sum_income: float = 0.0
    served_order_ids: set = field(default_factory=set)
    served_driver_ids: set = field(default_factory=set)
    batch_pickup_sums: list = field(default_factory=list)
    batch_income_sums: list = field(default_factory=list)
    held_batches: list = field(default_factory=list)
    held_distinct_order_ids: set = field(default_factory=set)
    held_distinct_driver_ids: set = field(default_factory=set)
    finalized: bool = False

    def all_held(self) -> list[HeldPair]:
        return [hp for batch in self.held_batches for hp in batch]


class ReferenceSim:
    def __init__(self, dataset: Dataset, seed: int):
        self.config = dataset.config
        self.clock = 0.0
        self.idle: dict[int, _IdleDriver] = {}
        self.open_orders: dict[int, Order] = {}
        self.serving: list[_Trip] = []
        self.departed: set[int] = set()
        self.ledger = ReferenceLedger()
        self._events = dataset.events()
        self._next_event = 0
        self._driver_by_id = {d.id: d for d in dataset.drivers}
        self.rng = np.random.default_rng(seed)
        self.terminated = False
        self._spawn_until(self.clock + self.config.batch_window_s)

    def _spawn_until(self, limit):
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

    def step_batch(self, assignments, held_pairs=None):
        if self.terminated:
            raise SimulationStateError("episode already finished")
        held_pairs = held_pairs or []
        seen_d, seen_o = set(), set()
        for d_id, o_id in assignments:
            if d_id in seen_d or o_id in seen_o:
                raise ConstraintViolationError("double assignment")
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
            self.serving.append(_Trip(d_id, o_id, self.clock + pickup_s + order.trip_duration,
                                      order.destination))
        self.ledger.sum_pickup_distance += batch_pickup
        self.ledger.sum_income += batch_income
        self.ledger.batch_pickup_sums.append(batch_pickup)
        self.ledger.batch_income_sums.append(batch_income)

        held_records = []
        for d_id, o_id in held_pairs:
            if d_id not in self.idle:
                raise ConstraintViolationError(f"held driver {d_id} is not idle")
            if o_id not in self.open_orders:
                raise ConstraintViolationError(f"held order {o_id} is not open")
            order = self.open_orders[o_id]
            held_records.append(HeldPair(d_id, o_id,
                                         distance(self.idle[d_id].position, order.origin),
                                         order.price))
            self.ledger.held_distinct_driver_ids.add(d_id)
            self.ledger.held_distinct_order_ids.add(o_id)
        self.ledger.held_batches.append(held_records)

        self.clock += self.config.batch_window_s
        due = [t for t in self.serving if t.complete_time <= self.clock]
        self.serving = [t for t in self.serving if t.complete_time > self.clock]
        self._release(due)
        self._spawn_until(self.clock + self.config.batch_window_s)
        for o_id in sorted(self.open_orders):
            order = self.open_orders[o_id]
            if self.clock - order.appear_time >= order.patience:
                del self.open_orders[o_id]
                self.ledger.cancelled_orders += 1
        for d_id in sorted(self.idle):
            hazard = self.idle[d_id].driver.offline_hazard
            if hazard > 0.0 and self.rng.random() < hazard:
                del self.idle[d_id]
                self.departed.add(d_id)

    def _release(self, trips):
        for trip in sorted(trips, key=lambda t: (t.complete_time, t.driver_id)):
            drv = self._driver_by_id[trip.driver_id]
            self.idle[trip.driver_id] = _IdleDriver(drv, trip.destination, trip.complete_time)
            self.ledger.completed_orders += 1
            self.ledger.served_order_ids.add(trip.order_id)
            self.ledger.served_driver_ids.add(trip.driver_id)

    def finish(self):
        if self.terminated:
            return
        for o_id in sorted(self.open_orders):
            del self.open_orders[o_id]
            self.ledger.cancelled_orders += 1
        self._release(self.serving)
        self.serving = []
        self.terminated = True
        self.ledger.finalized = True


# -- comparison --------------------------------------------------------------------


def left_to_right_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def assert_same_world(sim: SimState, ref: ReferenceSim):
    a, b = sim.ledger, ref.ledger
    for name in ("appeared_orders", "appeared_drivers", "completed_orders",
                 "cancelled_orders", "sum_pickup_distance", "sum_income",
                 "served_driver_ids", "batch_pickup_sums", "batch_income_sums",
                 "held_distinct_order_ids", "held_distinct_driver_ids", "finalized"):
        assert getattr(a, name) == getattr(b, name), name
    assert len(b.served_order_ids) == a.completed_orders  # each order is served at most once
    held = b.all_held()
    assert a.held_pairs == len(held)
    assert a.held_pickup_sum == left_to_right_sum(h.pickup_m for h in held)
    assert a.held_price_sum == left_to_right_sum(h.price for h in held)

    assert sim.clock == ref.clock
    idle = sim.idle
    ref_idle = [ref.idle[i] for i in sorted(ref.idle)]
    assert idle["id"].tolist() == sorted(ref.idle)
    assert idle["x"].tolist() == [i.position.x for i in ref_idle]
    assert idle["y"].tolist() == [i.position.y for i in ref_idle]
    assert idle["since"].tolist() == [i.idle_since for i in ref_idle]
    assert sim.open_orders["id"].tolist() == sorted(ref.open_orders)
    assert len(sim.serving) == len(ref.serving)
    assert sorted(sim.departed.tolist()) == sorted(ref.departed)
    assert sim.rng.bit_generator.state == ref.rng.bit_generator.state
    sim.assert_conservation()


def random_batch(ref: ReferenceSim, rng: np.random.Generator, last_held=()):
    """One-to-one assignments over idle x open, plus held pairs (repeats
    allowed) over what stays available. ``last_held`` are the pairs of the
    last batch that held any. While one of their orders is open and its
    driver is away (serving, or assigned now), nothing is held, so that the
    pair is often held again after its driver has moved; otherwise each of
    them still available is held again with probability 3/4, and up to four
    random pairs join."""
    idle, open_ = sorted(ref.idle), sorted(ref.open_orders)
    d_perm = rng.permutation(idle).tolist()
    o_perm = rng.permutation(open_).tolist()
    k = int(rng.integers(0, min(len(idle), len(open_)) + 1))
    assignments = list(zip(d_perm[:k], o_perm[:k]))
    rest_d, rest_o = d_perm[k:], o_perm[k:]
    if any(d not in rest_d and o in rest_o for d, o in last_held):
        return assignments, []
    held = [(d, o) for d, o in last_held if d in rest_d and o in rest_o and rng.random() < 0.75]
    if rest_d and rest_o:
        for _ in range(int(rng.integers(0, 5))):
            held.append((rest_d[int(rng.integers(len(rest_d)))],
                         rest_o[int(rng.integers(len(rest_o)))]))
    return assignments, held


# -- random worlds --------------------------------------------------------------------

# few distinct points and durations, so completion times often coincide
points = st.sampled_from([0.0, 300.0, 600.0, 1200.0, 2500.0]) | st.floats(0.0, 4800.0)
durations = st.sampled_from([0.0, 2.0, 4.0, 6.0]) | st.floats(0.0, 20.0)
appear = st.sampled_from([0.0, 1.0, 2.0, 7.5]) | st.floats(0.0, 24.0)
hazard = st.sampled_from([0.0, 0.0, 0.2]) | st.floats(0.0, 0.6)
patience = st.sampled_from([2.0, 4.0, 5.0]) | st.floats(0.5, 30.0)

drivers_st = st.lists(st.tuples(points, points, appear, hazard), max_size=8)
orders_st = st.lists(st.tuples(points, points, points, points, st.floats(1.0, 40.0),
                               appear, patience, durations), max_size=10)
ids_st = st.lists(st.integers(0, 1000), min_size=10, max_size=10, unique=True)


@settings(max_examples=80, deadline=None)
@given(drivers_st, orders_st, ids_st, ids_st, st.integers(0, 2**16))
def test_entity_tables_match_dict_reference(drivers, orders, driver_ids, order_ids, seed):
    cfg = EpisodeConfig(episode_length_s=24.0, pickup_speed_mps=300.0, seed=seed)
    ds = Dataset(config=cfg,
                 drivers=[Driver(i, Location(x, y), t, h)
                          for i, (x, y, t, h) in zip(driver_ids, drivers)],
                 orders=[Order(j, Location(ox, oy), Location(dx, dy), price, t, pat, trip)
                         for j, (ox, oy, dx, dy, price, t, pat, trip) in zip(order_ids, orders)])
    rng = np.random.default_rng(seed)
    # a pair held again after its driver moved needs a patient order and a
    # short trip, so each world is driven by four random decision sequences
    for _ in range(4):
        sim, ref = SimState(ds, seed=seed), ReferenceSim(ds, seed=seed)
        assert_same_world(sim, ref)
        last_held = []
        while not sim.episode_over:
            assignments, held = random_batch(ref, rng, last_held)
            sim.step_batch(assignments, held)
            ref.step_batch(assignments, held)
            assert_same_world(sim, ref)
            last_held = held or last_held
        sim.finish()
        ref.finish()
        assert_same_world(sim, ref)


# -- invalid input ---------------------------------------------------------------------


def small_world():
    drivers = [Driver(3, Location(0, 0), 0.0), Driver(8, Location(100, 0), 0.0),
               Driver(9, Location(0, 100), 5.0)]
    orders = [Order(4, Location(0, 500), Location(900, 900), 10.0, 0.0, 600.0, 100.0),
              Order(6, Location(200, 0), Location(900, 900), 12.0, 0.0, 600.0, 100.0)]
    return Dataset(config=EpisodeConfig(), drivers=drivers, orders=orders)


# each invalid batch, and its valid part
INVALID_BATCHES = [
    ([(3, 4), (3, 6)], [], [(3, 4)], []),              # driver twice
    ([(3, 4), (8, 4)], [], [(3, 4)], []),              # order twice
    ([(5, 4)], [], [], []),                            # unknown driver
    ([(9, 4)], [], [], []),                            # driver not yet appeared
    ([(3, 5)], [], [], []),                            # unknown order
    ([], [(3, 4), (7, 6)], [], [(3, 4)]),              # held driver unknown
    ([], [(3, 4), (8, 7)], [], [(3, 4)]),              # held order unknown
    ([(3, 4)], [(3, 6)], [(3, 4)], []),                # held driver assigned in the same batch
    ([(3, 4)], [(8, 4)], [(3, 4)], []),                # held order assigned in the same batch
]


@pytest.mark.parametrize("assignments,held", [batch[:2] for batch in INVALID_BATCHES])
def test_invalid_input_rejected_by_both(assignments, held):
    for sim in (SimState(small_world(), seed=0), ReferenceSim(small_world(), seed=0)):
        with pytest.raises(ConstraintViolationError):
            sim.step_batch(assignments, held)


@pytest.mark.parametrize("assignments,held,valid_assignments,valid_held", INVALID_BATCHES)
def test_rejected_batch_leaves_the_world_unchanged(assignments, held, valid_assignments,
                                                   valid_held):
    """A batch is checked whole before any of it is written: after a rejected
    batch the clock, ledger, entity tables and batch view are as before, and
    the batch's valid part then steps as it would have on a fresh world."""
    sim = SimState(small_world(), seed=0)
    before = (sim.clock, copy.deepcopy(sim.ledger), sim.drivers.copy(), sim.orders.copy(),
              sim.idle.copy(), sim.open_orders.copy(), sim.eligible_pairs().copy())
    with pytest.raises(ConstraintViolationError):
        sim.step_batch(assignments, held)
    after = (sim.clock, sim.ledger, sim.drivers, sim.orders, sim.idle, sim.open_orders,
             sim.eligible_pairs())
    assert before[:2] == after[:2]
    for name, old, new in zip(("drivers", "orders", "idle", "open_orders", "eligible_pairs"),
                              before[2:], after[2:]):
        assert np.array_equal(old, new), name
    ref = ReferenceSim(small_world(), seed=0)
    sim.step_batch(valid_assignments, valid_held)
    ref.step_batch(valid_assignments, valid_held)
    assert_same_world(sim, ref)


def test_serving_driver_rejected_by_both():
    for sim in (SimState(small_world(), seed=0), ReferenceSim(small_world(), seed=0)):
        sim.step_batch([(3, 4)], [])
        with pytest.raises(ConstraintViolationError):
            sim.step_batch([(3, 6)], [])
        with pytest.raises(ConstraintViolationError):
            sim.step_batch([], [(8, 4)])  # order 4 is taken
        sim.finish()
        with pytest.raises(SimulationStateError):
            sim.step_batch([], [])


def test_pair_held_again_after_its_driver_moved():
    """A held pair's pickup distance is measured from where its driver is now:
    here the pair is held, not held while its driver serves another order, and
    held again from the driver's new position, 1,800 m away instead of 1,200 m.
    A distance reused from an earlier hold would make the sum 2,400 m."""
    drivers = [Driver(3, Location(0, 0), 0.0)]
    orders = [Order(4, Location(0, 1200), Location(900, 900), 10.0, 0.0, 600.0, 100.0),
              Order(6, Location(0, 0), Location(0, 3000), 12.0, 0.0, 600.0, 2.0)]
    ds = Dataset(config=EpisodeConfig(), drivers=drivers, orders=orders)
    sim, ref = SimState(ds, seed=0), ReferenceSim(ds, seed=0)
    for assignments, held in (([], [(3, 4)]),   # held 1,200 m from order 4
                              ([(3, 6)], []),   # serves order 6, idle at (0, 3000) after it
                              ([], [(3, 4)])):  # held again, now 1,800 m away
        sim.step_batch(assignments, held)
        ref.step_batch(assignments, held)
        assert_same_world(sim, ref)
    assert sim.ledger.held_pickup_sum == 1200.0 + 1800.0
