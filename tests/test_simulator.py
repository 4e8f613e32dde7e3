import copy

import numpy as np
import pytest

from micod.core import DomainError, Driver, EpisodeConfig, Location, Order
from micod.scenario import Dataset, ScenarioSpec, generate
from micod.simulator import (ConstraintViolationError, MetricsLedger, SimState,
                             SimulationStateError, episode_metrics)


def make_dataset(drivers, orders, **cfg_kwargs):
    cfg = EpisodeConfig(**cfg_kwargs)
    return Dataset(config=cfg, drivers=drivers, orders=orders)


def order(oid, origin, price=10.0, appear=0.0, patience=600.0, trip=100.0,
          dest=Location(3000, 3000)):
    return Order(oid, origin, dest, price, appear, patience, trip)


def test_empty_world_clock_advances():
    sim = SimState(make_dataset([], []), seed=0)
    sim.step_batch([], [])
    assert sim.clock == 2.0
    assert sim.ledger.appeared_orders == 0
    assert sim.ledger.batch_income_sums == [0.0]


def test_single_assignment_accounting():
    drivers = [Driver(0, Location(0, 0), 0.0)]
    orders = [order(0, Location(0, 500), price=10.0)]
    sim = SimState(make_dataset(drivers, orders), seed=0)
    sim.step_batch([(0, 0)], [])
    assert sim.ledger.sum_pickup_distance == 500.0
    assert sim.ledger.sum_income == 10.0
    assert len(sim.serving) == 1


def test_patience_cancellation_at_clock_30():
    drivers = []
    orders = [order(0, Location(0, 500), appear=0.0, patience=30.0)]
    sim = SimState(make_dataset(drivers, orders), seed=0)
    for i in range(14):
        sim.step_batch([], [])
        assert sim.ledger.cancelled_orders == 0, f"cancelled early at batch {i}"
    sim.step_batch([], [])  # clock reaches 30
    assert sim.clock == 30.0
    assert sim.ledger.cancelled_orders == 1


def test_double_assignment_rejected():
    drivers = [Driver(0, Location(0, 0), 0.0)]
    orders = [order(0, Location(0, 500)), order(1, Location(100, 0))]
    sim = SimState(make_dataset(drivers, orders), seed=0)
    with pytest.raises(ConstraintViolationError):
        sim.step_batch([(0, 0), (0, 1)], [])


def test_assigning_missing_entities_rejected():
    sim = SimState(make_dataset([Driver(0, Location(0, 0), 0.0)], []), seed=0)
    with pytest.raises(ConstraintViolationError):
        sim.step_batch([(0, 99)], [])
    with pytest.raises(ConstraintViolationError):
        sim.step_batch([(99, 0)], [])


def test_trip_completion_releases_driver_at_destination():
    dest = Location(2000, 2000)
    drivers = [Driver(0, Location(0, 0), 0.0)]
    # pickup 600 m -> 100 s at 6 m/s; trip 50 s; completes at t = 150
    orders = [order(0, Location(0, 600), trip=50.0, dest=dest)]
    sim = SimState(make_dataset(drivers, orders), seed=0)
    sim.step_batch([(0, 0)], [])
    for _ in range(73):
        sim.step_batch([], [])
    assert 0 not in sim.idle["id"]  # clock 148, trip still running
    sim.step_batch([], [])  # clock 150 = completion time
    (idle,) = sim.idle[sim.idle["id"] == 0]
    assert Location(idle["x"], idle["y"]) == dest
    assert sim.ledger.completed_orders == 1
    assert sim.ledger.served_driver_ids == {0}


def test_eligible_pairs_radius_and_order():
    drivers = [Driver(0, Location(0, 0), 0.0), Driver(1, Location(5000, 0), 0.0)]
    orders = [order(0, Location(0, 300)), order(1, Location(100, 0))]
    sim = SimState(make_dataset(drivers, orders, match_radius_m=3000.0), seed=0)
    pairs = sim.eligible_pairs()
    # driver 1 is 5000 m away: excluded
    assert np.array_equal(pairs, [[0, 0], [0, 1]]) and pairs.dtype == np.int64
    sim = SimState(make_dataset(drivers, orders, match_radius_m=6000.0), seed=0)
    assert np.array_equal(sim.eligible_pairs(), [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_one_driver_one_order_in_radius():
    drivers = [Driver(0, Location(0, 0), 0.0)]
    orders = [order(0, Location(0, 300))]
    sim = SimState(make_dataset(drivers, orders, match_radius_m=3000.0), seed=0)
    assert np.array_equal(sim.eligible_pairs(), [[0, 0]])


def test_held_pairs_recorded():
    drivers = [Driver(0, Location(0, 0), 0.0)]
    orders = [order(0, Location(0, 600), price=4.0)]
    sim = SimState(make_dataset(drivers, orders), seed=0)
    sim.step_batch([], [(0, 0)])
    assert sim.ledger.held_pairs == 1
    assert sim.ledger.held_pickup_sum == 600.0 and sim.ledger.held_price_sum == 4.0
    assert sim.ledger.held_distinct_driver_ids == {0}
    assert sim.ledger.held_distinct_order_ids == {0}


def test_duplicate_entity_ids_rejected():
    with pytest.raises(DomainError, match="driver"):
        SimState(make_dataset([Driver(4, Location(0, 0), 0.0), Driver(4, Location(9, 9), 1.0)],
                              []), seed=0)
    with pytest.raises(DomainError, match="order"):
        SimState(make_dataset([], [order(2, Location(0, 0)), order(2, Location(5, 5))]), seed=0)


def test_held_pair_must_reference_available_entities():
    sim = SimState(make_dataset([Driver(0, Location(0, 0), 0.0)], []), seed=0)
    with pytest.raises(ConstraintViolationError):
        sim.step_batch([], [(0, 5)])


def test_conservation_random_walk():
    ds = generate(ScenarioSpec("L2", 400, seed=13, scale_factor=0.05))
    sim = SimState(ds, seed=13)
    rng = np.random.default_rng(0)
    while not sim.episode_over:
        pairs = sim.eligible_pairs().tolist()
        chosen = []
        used_d, used_o = set(), set()
        for d, o in pairs:
            if d not in used_d and o not in used_o and rng.random() < 0.3:
                chosen.append((d, o))
                used_d.add(d)
                used_o.add(o)
        sim.step_batch(chosen, [])
        sim.assert_conservation()
    sim.finish()
    sim.assert_conservation()
    counts = sim.order_state_counts()
    assert counts["open"] == 0 and counts["serving"] == 0


def test_finish_twice_changes_nothing():
    ds = generate(ScenarioSpec("L2", 400, seed=13, scale_factor=0.05))
    sim = SimState(ds, seed=13)
    for _ in range(5):
        sim.step_batch(sim.eligible_pairs()[:1].tolist(), [])
    sim.finish()
    ledger = copy.deepcopy(sim.ledger)
    orders, drivers = sim.order_state_counts(), sim.driver_state_counts()
    sim.finish()
    assert sim.ledger == ledger
    assert (sim.order_state_counts(), sim.driver_state_counts()) == (orders, drivers)


@pytest.mark.parametrize("count,named", [("appeared_orders", "order conservation"),
                                         ("appeared_drivers", "driver conservation")])
def test_conservation_check_catches_a_corrupted_ledger(count, named):
    ds = generate(ScenarioSpec("L2", 400, seed=13, scale_factor=0.05))
    sim = SimState(ds, seed=13)
    sim.step_batch([], [])
    sim.assert_conservation()
    setattr(sim.ledger, count, getattr(sim.ledger, count) + 1)
    with pytest.raises(SimulationStateError, match=named):
        sim.assert_conservation()


def test_determinism_same_seed_same_ledger():
    ds = generate(ScenarioSpec("L3", 400, seed=21, scale_factor=0.05))

    def run(seed):
        sim = SimState(ds, seed=seed)
        while not sim.episode_over:
            pairs = sim.eligible_pairs().tolist()
            take = pairs[: len(pairs) // 2]
            used_d, used_o, chosen = set(), set(), []
            for d, o in take:
                if d not in used_d and o not in used_o:
                    chosen.append((d, o))
                    used_d.add(d)
                    used_o.add(o)
            sim.step_batch(chosen, [])
        sim.finish()
        return sim.ledger

    a, b = run(5), run(5)
    assert a == b
    assert a.sum_income == b.sum_income


def test_metrics_cr():
    ledger = MetricsLedger(appeared_orders=100, completed_orders=80,
                           cancelled_orders=20, appeared_drivers=90, finalized=True)
    report = episode_metrics(ledger)
    assert report.cr == 0.8


def test_metrics_no_held_pairs():
    ledger = MetricsLedger(appeared_orders=10, completed_orders=6, cancelled_orders=4,
                           appeared_drivers=8, sum_pickup_distance=6000.0,
                           sum_income=50.0, served_driver_ids={0, 1, 2}, finalized=True)
    report = episode_metrics(ledger)
    assert report.hold_apd_ratio == 0.0
    assert report.hold_o_ratio == 0.0
    assert report.hold_tdi_ratio == 0.0
    assert report.hold_d_ratio == 0.0
    assert report.order_sr == report.cr  # served marks at completion


def test_metrics_hold_apd_ratio():
    ledger = MetricsLedger(appeared_orders=10, completed_orders=5, cancelled_orders=5,
                           appeared_drivers=10, sum_pickup_distance=6000.0,
                           sum_income=50.0, finalized=True)
    ledger.held_pairs, ledger.held_pickup_sum, ledger.held_price_sum = 1, 1800.0, 10.0
    ledger.held_distinct_driver_ids.add(0)
    ledger.held_distinct_order_ids.add(0)
    report = episode_metrics(ledger)
    assert report.apd == 1200.0
    assert report.hold_apd_ratio == pytest.approx(1.5)


def test_metrics_apd_absent_when_nothing_completed():
    ledger = MetricsLedger(appeared_orders=5, cancelled_orders=5, appeared_drivers=3,
                           finalized=True)
    report = episode_metrics(ledger)
    assert report.apd is None
    assert report.cr == 0.0


def test_metrics_require_finalized():
    with pytest.raises(SimulationStateError):
        episode_metrics(MetricsLedger())


def test_offline_hazard_departures_are_seeded():
    drivers = [Driver(i, Location(0, 0), 0.0, offline_hazard=0.5) for i in range(20)]
    ds = make_dataset(drivers, [])

    def departed(seed):
        sim = SimState(ds, seed=seed)
        sim.step_batch([], [])
        return set(sim.departed)

    assert departed(3) == departed(3)
    assert 0 < len(departed(3)) < 20
