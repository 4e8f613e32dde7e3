import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from micod.core import DomainError, Driver, EpisodeConfig, Location, Order
from micod.scenario import (CAPACITY_BINS, RATIO_BANDS, Dataset, DatasetParseError,
                            ScenarioSpec, classify, generate, load, save,
                            scaled_capacity_range)


def test_generate_l1_400_full_scale():
    ds = generate(ScenarioSpec("L1", 400, seed=7, scale_factor=1.0))
    assert 300 <= len(ds.drivers) <= 400
    assert 1.0 <= ds.ds_ratio() < 1.1


def test_generate_l4_800_tenth_scale_within_scaled_table_bounds():
    ds = generate(ScenarioSpec("L4", 800, seed=11, scale_factor=0.1))
    assert 55 <= len(ds.drivers) <= 80
    assert 2.0 <= ds.ds_ratio() <= 4.0


def test_generate_is_deterministic():
    spec = ScenarioSpec("L2", 550, seed=42, scale_factor=0.2)
    assert generate(spec) == generate(spec)


def test_generate_rejects_bad_scale():
    with pytest.raises(Exception):
        ScenarioSpec("L1", 400, seed=0, scale_factor=0.0)


@pytest.mark.parametrize("level,cap,named", [("L5", 400, "unknown level"),
                                             ("L1", 500, "unknown capacity bin")])
def test_spec_rejects_unknown_level_and_bin(level, cap, named):
    with pytest.raises(DomainError, match=named):
        ScenarioSpec(level, cap)


@pytest.mark.parametrize("scale", [0.0, -0.5, 1.5])
def test_scaled_capacity_range_rejects_scale_outside_unit_interval(scale):
    with pytest.raises(DomainError, match="scale_factor"):
        scaled_capacity_range(400, scale)


def test_ds_ratio_without_drivers():
    base = generate(ScenarioSpec("L1", 400, seed=3, scale_factor=0.05))
    assert Dataset(config=base.config, drivers=[], orders=base.orders).ds_ratio() == math.inf
    assert Dataset(config=base.config, drivers=[], orders=[]).ds_ratio() == 0.0


def test_events_sorted_by_time():
    ds = generate(ScenarioSpec("L3", 550, seed=3, scale_factor=0.1))
    times = [e.appear_time for e in ds.events()]
    assert times == sorted(times)
    assert all(0 <= t < ds.config.episode_length_s for t in times)


def test_classify_l1_400():
    ds = generate(ScenarioSpec("L1", 400, seed=1))
    ds = Dataset(config=ds.config, drivers=ds.drivers[:350], orders=ds.orders[:370],
                 scale_factor=1.0)
    assert classify(ds) == ("L1", 400)


def test_classify_l3_550():
    base = generate(ScenarioSpec("L3", 800, seed=2))
    drivers = (base.drivers * 3)[:500]
    drivers = [Driver(i, d.position, d.appear_time, d.offline_hazard)
               for i, d in enumerate(drivers)]
    orders = (base.orders * 3)[:900]
    orders = [Order(i, o.origin, o.destination, o.price, o.appear_time, o.patience,
                    o.trip_duration) for i, o in enumerate(orders)]
    ds = Dataset(config=base.config, drivers=drivers, orders=orders, scale_factor=1.0)
    assert classify(ds) == ("L3", 550)


def test_classify_unclassified_ratio_below_one():
    base = generate(ScenarioSpec("L1", 400, seed=3))
    ds = Dataset(config=base.config, drivers=base.drivers[:100], orders=base.orders[:50],
                 scale_factor=1.0)
    assert classify(ds) is None


def test_classify_unclassified_driver_count_outside_every_bin():
    # ratio 1.05 is in L1, but 100 drivers at scale 1 is below the 400 bin's 300
    base = generate(ScenarioSpec("L1", 400, seed=3))
    ds = Dataset(config=base.config, drivers=base.drivers[:100], orders=base.orders[:105],
                 scale_factor=1.0)
    assert classify(ds) is None


def test_classify_empty_dataset():
    ds = Dataset(config=EpisodeConfig(), drivers=[], orders=[])
    assert classify(ds) is None


@pytest.mark.parametrize("level", list(RATIO_BANDS))
@pytest.mark.parametrize("cap", CAPACITY_BINS)
def test_generate_classify_round_trip(level, cap):
    for seed in range(5):
        ds = generate(ScenarioSpec(level, cap, seed=seed, scale_factor=0.1))
        assert classify(ds) == (level, cap)


def test_scaled_capacity_ranges_are_disjoint_and_ordered():
    for scale in (1.0, 0.5, 0.25, 0.1):
        ranges = [scaled_capacity_range(c, scale) for c in CAPACITY_BINS]
        for (lo, hi) in ranges:
            assert lo <= hi
        for (_, hi_prev), (lo_next, _) in zip(ranges, ranges[1:]):
            assert lo_next == hi_prev + 1


def test_save_load_round_trip(tmp_path):
    ds = generate(ScenarioSpec("L2", 400, seed=9, scale_factor=0.1))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    assert load(path) == ds


def test_save_load_empty_dataset(tmp_path):
    ds = Dataset(config=EpisodeConfig(), drivers=[], orders=[])
    path = tmp_path / "empty.jsonl"
    save(ds, path)
    loaded = load(path)
    assert loaded == ds
    assert loaded.drivers == [] and loaded.orders == []


def test_load_truncated_file_reports_line(tmp_path):
    ds = generate(ScenarioSpec("L1", 400, seed=5, scale_factor=0.1))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    text = path.read_text()
    (tmp_path / "broken.jsonl").write_text(text[: len(text) // 2])
    with pytest.raises(DatasetParseError):
        load(tmp_path / "broken.jsonl")


def test_load_missing_header(tmp_path):
    path = tmp_path / "noheader.jsonl"
    path.write_text('{"kind":"driver","id":0,"x":1,"y":1,"appear_time":0,"offline_hazard":0}\n')
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("kind,field,value,reported", [
    ("order", "price", float("nan"), "price"),
    ("order", "patience", float("nan"), "patience"),
    ("order", "appear_time", float("inf"), "appear_time"),
    ("order", "trip_duration", float("nan"), "trip_duration"),
    ("order", "ox", float("nan"), "origin_x"),
    ("order", "dy", float("-inf"), "destination_y"),
    ("driver", "x", float("nan"), "x"),
    ("driver", "appear_time", float("nan"), "appear_time"),
    ("driver", "offline_hazard", float("nan"), "offline_hazard"),
])
def test_load_rejects_non_finite_values_with_line(tmp_path, kind, field, value, reported):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, start=1)
                   if json.loads(line)["kind"] == kind)
    rec = json.loads(lines[line_no - 1])
    rec[field] = value
    lines[line_no - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert err.value.line_no == line_no
    assert reported in str(err.value)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 5.0, 0.0, -0.1])
def test_load_rejects_bad_scale_factor_on_line_one(tmp_path, scale):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["scale_factor"] = scale
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert err.value.line_no == 1
    assert "scale_factor" in str(err.value)


@pytest.mark.parametrize("kind,field,value", [
    ("driver", "x", -0.5), ("driver", "y", 4800.5),
    ("order", "ox", 6401.0), ("order", "oy", -1.0),
    ("order", "dx", -1.0), ("order", "dy", 4801.0),
])
def test_load_rejects_points_outside_fence_with_line(tmp_path, kind, field, value):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, start=1)
                   if json.loads(line)["kind"] == kind)
    rec = json.loads(lines[line_no - 1])
    rec[field] = value
    lines[line_no - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert err.value.line_no == line_no
    assert "outside fence" in str(err.value)


def test_load_accepts_points_on_the_fence_edge(tmp_path):
    cfg = EpisodeConfig()
    ds = Dataset(config=cfg,
                 drivers=[Driver(0, Location(cfg.fence_width_m, cfg.fence_height_m), 0.0)],
                 orders=[Order(0, Location(0.0, 0.0), Location(cfg.fence_width_m, 0.0),
                               5.0, 0.0, 30.0, 10.0)])
    path = tmp_path / "edge.jsonl"
    save(ds, path)
    assert load(path) == ds


@pytest.mark.parametrize("kind", ["driver", "order"])
def test_load_rejects_duplicate_ids_with_line(tmp_path, kind):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    first = next(line for line in lines if json.loads(line)["kind"] == kind)
    path.write_text("\n".join(lines + [first]) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert err.value.line_no == len(lines) + 1
    assert f"duplicate {kind} id" in str(err.value)


@pytest.mark.parametrize("kind", ["driver", "order"])
@pytest.mark.parametrize("bad_id", [0.7, True, "3"])
def test_load_rejects_non_integer_ids_with_line(tmp_path, kind, bad_id):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    lines[at] = json.dumps({**json.loads(lines[at]), "id": bad_id})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert err.value.line_no == at + 1
    assert f"{kind} id must be an integer" in str(err.value)


def test_load_skips_blank_lines(tmp_path):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["", "   "] + lines[2:]) + "\n\n")
    loaded = load(path)
    assert (loaded.drivers, loaded.orders) == (ds.drivers, ds.orders)


def test_load_rejects_unknown_record_kind_with_line(tmp_path):
    ds = generate(ScenarioSpec("L2", 400, seed=3, scale_factor=0.05))
    path = tmp_path / "ds.jsonl"
    save(ds, path)
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "kind": "rider"})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load(path)
    assert err.value.line_no == 3
    assert "unknown record kind 'rider'" in str(err.value)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetParseError):
        load(path)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(RATIO_BANDS)), st.sampled_from(CAPACITY_BINS),
       st.integers(0, 10_000))
def test_generated_ratio_and_count_always_in_band(level, cap, seed):
    ds = generate(ScenarioSpec(level, cap, seed=seed, scale_factor=0.1))
    lo, hi = RATIO_BANDS[level]
    assert lo <= ds.ds_ratio() <= hi
    clo, chi = scaled_capacity_range(cap, 0.1)
    assert clo <= len(ds.drivers) <= chi


# sha256 of the saved bytes of every dataset in ``_pinned_grid``: a change
# to how generation draws must keep every number and its order.
GENERATED_BYTES_DIGEST = "e70ec74b12a1f933ff5477e355e2515a01e92341d7860a248297a82c99c8f51c"


def _pinned_grid():
    for level in sorted(RATIO_BANDS):
        for cap in CAPACITY_BINS:
            for scale in (0.05, 0.1):
                for seed in (0, 1):
                    yield ScenarioSpec(level, cap, seed=seed, scale_factor=scale), None
    yield ScenarioSpec("L4", 800, seed=3, scale_factor=1.0), None
    yield (ScenarioSpec("L4", 400, seed=5, scale_factor=0.1),
           EpisodeConfig(episode_length_s=300.0, batch_window_s=2.0, match_radius_m=1000.0))


def test_generated_bytes_are_pinned(tmp_path):
    """Generation draws the same numbers in the same order: every level and
    bin at two small scales, one scale-1.0 dataset and one with the C09
    episode config save to the pinned bytes."""
    h = hashlib.sha256()
    path = tmp_path / "d.jsonl"
    for spec, config in _pinned_grid():
        save(generate(spec, config=config), path)
        h.update(path.read_bytes())
    assert h.hexdigest() == GENERATED_BYTES_DIGEST
