import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from micod.core import (DomainError, Driver, EpisodeConfig, Location, Order, OutOfFenceError,
                        cell_ids, distance)

CFG = EpisodeConfig()


def test_distance_identity():
    assert distance(Location(0, 0), Location(0, 0)) == 0.0


def test_distance_3_4_5():
    assert distance(Location(0, 0), Location(3, 4)) == 5.0


def test_distance_hand_computation():
    assert distance(Location(100, 200), Location(400, 600)) == 500.0


coords = st.floats(min_value=0.0, max_value=4800.0, allow_nan=False)


@given(coords, coords, coords, coords, coords, coords)
def test_distance_is_a_metric(ax, ay, bx, by, cx, cy):
    a, b, c = Location(ax, ay), Location(bx, by), Location(cx, cy)
    assert distance(a, a) == 0.0
    assert distance(a, b) == distance(b, a)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9
    assert distance(a, b) >= 0.0


def _cfg(cell=1000.0):
    return EpisodeConfig(fence_width_m=6000.0, fence_height_m=5000.0, cell_size_m=cell)


# The cell tests keep the names of the scalar helpers that cell_ids replaced,
# so their ids stay comparable with earlier runs of the suite.

def _cell(x, y, cfg):
    """(row, col) of one point, from its flat cell_ids index."""
    return divmod(int(cell_ids([x], [y], cfg)[0]), cfg.grid_cols)


def test_cell_of_origin():
    assert _cell(0, 0, _cfg()) == (0, 0)


def test_cell_of_interior_boundary():
    assert _cell(999, 0, _cfg()) == (0, 0)


def test_cell_of_row_from_y():
    assert _cell(1000, 2500, _cfg()) == (2, 1)


def test_cell_of_out_of_fence():
    with pytest.raises(OutOfFenceError):
        cell_ids([-1], [0], _cfg())
    with pytest.raises(OutOfFenceError):
        cell_ids([0], [5001], _cfg())


def test_cell_of_fence_edge_maps_to_last_cell():
    cfg = _cfg()
    assert _cell(6000, 5000, cfg) == (cfg.grid_rows - 1, cfg.grid_cols - 1)


@given(st.floats(0, 6400, allow_nan=False), st.floats(0, 4800, allow_nan=False))
def test_cell_of_partitions_fence(x, y):
    row, col = _cell(x, y, CFG)
    assert 0 <= row < CFG.grid_rows
    assert 0 <= col < CFG.grid_cols
    # deterministic under repeated calls
    assert (row, col) == _cell(x, y, CFG)


def test_cell_ids_is_elementwise_and_names_first_outside_point():
    cfg = _cfg()
    xs, ys = [0, 999, 1000, 6000], [0, 0, 2500, 5000]
    assert cell_ids(xs, ys, cfg).tolist() == [
        int(cell_ids([x], [y], cfg)[0]) for x, y in zip(xs, ys)]
    assert cell_ids([], [], cfg).dtype == np.int64
    with pytest.raises(OutOfFenceError) as err:
        cell_ids([10, 6000.5, -1], [10, 10, 10], cfg)
    assert err.value.index == 1


@pytest.mark.parametrize("field,value", [
    ("match_radius_m", float("nan")), ("pickup_speed_mps", float("nan")),
    ("fence_width_m", float("nan")), ("cell_size_m", float("nan")),
    ("episode_length_s", float("inf")), ("batch_window_s", float("nan")),
    ("fence_height_m", float("inf")),
])
def test_episode_config_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        EpisodeConfig(**{field: value})


@pytest.mark.parametrize("field,value,named", [
    ("episode_length_s", 0.0, "episode_length_s"), ("batch_window_s", -2.0, "batch_window_s"),
    ("fence_width_m", 0.0, "fence"), ("fence_height_m", -1.0, "fence"),
    ("cell_size_m", 0.0, "cell"), ("match_radius_m", 0.0, "match_radius_m"),
    ("pickup_speed_mps", -6.0, "pickup_speed_mps"), ("reward_mode", "XYZ", "reward_mode"),
])
def test_episode_config_rejects_out_of_range(field, value, named):
    with pytest.raises(DomainError, match=named):
        EpisodeConfig(**{field: value})


def test_episode_config_defaults_give_300_batches():
    assert CFG.n_batches == 300


def test_episode_config_rejects_indivisible_window():
    with pytest.raises(DomainError):
        EpisodeConfig(episode_length_s=601.0, batch_window_s=2.0)


def test_order_validation():
    good = dict(id=0, origin=Location(0, 0), destination=Location(1, 1),
                price=5.0, appear_time=0.0, patience=30.0, trip_duration=60.0)
    Order(**good)
    with pytest.raises(DomainError):
        Order(**{**good, "price": 0.0})
    with pytest.raises(DomainError):
        Order(**{**good, "patience": 0.0})
    with pytest.raises(DomainError, match="appear_time"):
        Order(**{**good, "appear_time": -1.0})
    with pytest.raises(DomainError, match="trip_duration"):
        Order(**{**good, "trip_duration": -1.0})


def test_driver_validation():
    Driver(id=0, position=Location(0, 0), appear_time=0.0, offline_hazard=0.0)
    with pytest.raises(DomainError):
        Driver(id=0, position=Location(0, 0), appear_time=0.0, offline_hazard=1.0)
    with pytest.raises(DomainError, match="appear_time"):
        Driver(id=0, position=Location(0, 0), appear_time=-1.0)


def test_in_fence():
    cell_ids([0], [0], CFG)  # inside: no error
    with pytest.raises(OutOfFenceError):
        cell_ids([-0.1], [0], CFG)
