import csv
import json
import os

import numpy as np
import pytest

from micod.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main, parse_config_file
from micod.core import Driver, EpisodeConfig, Location, Order
from micod.harness import (EvalPlan, PolicySpec, UsageError, cmd_eval, cmd_generate,
                           cmd_report, make_policy, parse_policy_id, run_episode)
from micod.scenario import Dataset, ScenarioSpec, generate, save


def small_dataset(path, seed=0):
    ds = generate(ScenarioSpec("L2", 400, seed=seed, scale_factor=0.05))
    save(ds, path)
    return ds


# -- policy ids ------------------------------------------------------------------

def test_parse_policy_ids():
    assert parse_policy_id("km") == PolicySpec(kind="km")
    assert parse_policy_id("fixed_delay(3)") == PolicySpec(kind="fixed_delay", delay=3)
    spec = parse_policy_id("d2sn(path/to.ckpt)")
    assert spec.kind == "d2sn" and spec.checkpoint == "path/to.ckpt"
    spec = parse_policy_id("d2sn_h-(x.ckpt)")
    assert spec.kind == "d2sn_h-"


def test_parse_policy_id_rejects_unknown():
    with pytest.raises(UsageError):
        parse_policy_id("quantum")
    with pytest.raises(UsageError):
        parse_policy_id("fixed_delay(0)")


def test_missing_checkpoint_fails_before_episodes(tmp_path):
    from micod.harness import DataError
    with pytest.raises(DataError):
        make_policy(PolicySpec(kind="d2sn", checkpoint=str(tmp_path / "nope.ckpt")), "TDI")


# -- episode running ------------------------------------------------------------------

def constrained_dataset():
    """Each order has exactly one driver in radius; no hazard, generous patience."""
    cfg = EpisodeConfig(episode_length_s=20.0, batch_window_s=2.0, match_radius_m=500.0)
    drivers = [Driver(i, Location(3000.0 * i + 100.0, 100.0), 0.0) for i in range(2)]
    orders = [Order(i, Location(3000.0 * i + 300.0, 100.0), Location(3000.0 * i + 100.0, 900.0),
                    4.0 + i, 0.0, 600.0, 30.0) for i in range(2)]
    return Dataset(config=cfg, drivers=drivers, orders=orders)


def test_km_on_fully_constrained_instance_same_cr_across_seeds():
    ds = constrained_dataset()
    policy = make_policy(PolicySpec(kind="km"), "TDI")
    crs = set()
    for seed in range(5):
        report, _ = run_episode(ds, policy, seed, "TDI")
        crs.add(report.cr)
    assert crs == {1.0}


def test_greedy_apd_never_below_km_single_batch():
    # single-batch dataset: per-batch optimality comparison is valid here
    cfg = EpisodeConfig(episode_length_s=2.0, batch_window_s=2.0)
    drivers = [Driver(0, Location(0, 0), 0.0), Driver(1, Location(100, 0), 0.0)]
    orders = [Order(0, Location(0, 90), Location(500, 500), 5.0, 0.0, 600.0, 30.0),
              Order(1, Location(120, 40), Location(500, 500), 5.0, 0.0, 600.0, 30.0)]
    ds = Dataset(config=cfg, drivers=drivers, orders=orders)
    km_report, _ = run_episode(ds, make_policy(PolicySpec(kind="km"), "APD"), 0, "APD")
    greedy_report, _ = run_episode(ds, make_policy(PolicySpec(kind="greedy"), "APD"), 0, "APD")
    km_total = km_report.apd * km_report.completed_orders
    greedy_total = greedy_report.apd * greedy_report.completed_orders
    assert greedy_total >= km_total - 1e-9


def test_fixed_delay_one_equals_km():
    ds = constrained_dataset()
    km_report, km_reward = run_episode(ds, make_policy(PolicySpec(kind="km"), "TDI"), 0, "TDI")
    fd = make_policy(PolicySpec(kind="fixed_delay", delay=1), "TDI")
    fd_report, fd_reward = run_episode(ds, fd, 0, "TDI")
    assert fd_reward == km_reward
    assert fd_report.tdi == km_report.tdi


def test_fixed_delay_holds_are_recorded():
    ds = constrained_dataset()
    fd = make_policy(PolicySpec(kind="fixed_delay", delay=5), "TDI")
    report, _ = run_episode(ds, fd, 0, "TDI")
    assert report.hold_o_ratio > 0.0
    assert report.hold_d_ratio > 0.0


def test_d2sn_policy_ids_run_through_eval(tmp_path):
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    ckpt = str(tmp_path / "net.ckpt")
    params = init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0)
    save_checkpoint(params, ckpt)

    out = str(tmp_path / "results.csv")
    plan = EvalPlan(policies=[parse_policy_id(f"d2sn({ckpt})"),
                              parse_policy_id(f"d2sn_h-({ckpt})")],
                    dataset_paths=[ds_path], seeds=[0, 1], reward_mode="TDI")
    rows = cmd_eval(plan, out)
    runs = [r for r in rows if r["kind"] == "run"]
    assert len(runs) == 4
    ablated = [r for r in runs if r["policy"].startswith("d2sn_h-")]
    assert all(r["hold_o_ratio"] == 0.0 and r["hold_d_ratio"] == 0.0 for r in ablated)
    sampled = [r for r in runs if not r["policy"].startswith("d2sn_h-")]
    assert any(r["hold_o_ratio"] > 0.0 for r in sampled)  # untrained net holds often


# -- eval / CSV -----------------------------------------------------------------------

def test_cmd_eval_writes_runs_and_aggregates(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    out = str(tmp_path / "results.csv")
    plan = EvalPlan(policies=[PolicySpec(kind="km"), PolicySpec(kind="greedy")],
                    dataset_paths=[ds_path], seeds=[0, 1, 2], reward_mode="TDI")
    rows = cmd_eval(plan, out)
    runs = [r for r in rows if r["kind"] == "run"]
    aggs = [r for r in rows if r["kind"] in ("mean", "std")]
    assert len(runs) == 6
    assert len(aggs) == 4  # mean+std per policy
    with open(out) as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
    assert len(got) == len(rows)
    for r in got:
        if r["kind"] != "run":
            continue
        assert 0.0 <= float(r["cr"]) <= 1.0
        assert 0.0 <= float(r["order_sr"]) <= 1.0


def test_cmd_eval_aggregate_recomputable(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    out = str(tmp_path / "results.csv")
    plan = EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=[ds_path],
                    seeds=[0, 1, 2, 3], reward_mode="TDI")
    rows = cmd_eval(plan, out)
    runs = [r for r in rows if r["kind"] == "run"]
    mean_row = next(r for r in rows if r["kind"] == "mean")
    std_row = next(r for r in rows if r["kind"] == "std")
    tdis = [r["tdi"] for r in runs]
    assert mean_row["tdi"] == pytest.approx(np.mean(tdis), abs=1e-12)
    assert std_row["tdi"] == pytest.approx(np.std(tdis), abs=1e-12)


def test_cmd_eval_byte_deterministic(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    plan = EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=[ds_path],
                    seeds=[0, 1], reward_mode="TDI")
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    cmd_eval(plan, out1, include_wallclock=False)
    cmd_eval(plan, out2, include_wallclock=False)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cmd_eval_missing_dataset(tmp_path):
    from micod.harness import DataError
    plan = EvalPlan(policies=[PolicySpec(kind="km")],
                    dataset_paths=[str(tmp_path / "missing.jsonl")])
    with pytest.raises(DataError):
        cmd_eval(plan, str(tmp_path / "out.csv"))


# -- report ---------------------------------------------------------------------------

def test_cmd_report_renders_tables(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    out = str(tmp_path / "results.csv")
    cmd_eval(EvalPlan(policies=[PolicySpec(kind="km"), PolicySpec(kind="gs")],
                      dataset_paths=[ds_path], seeds=[0, 1]), out)
    text = cmd_report(out)
    assert "km" in text and "gs" in text
    assert "hold behavior" in text


def test_cmd_report_writes_machine_readable_aggregates(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    results = str(tmp_path / "results.csv")
    cmd_eval(EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=[ds_path],
                      seeds=[0, 1]), results)
    out = str(tmp_path / "report.txt")
    cmd_report(results, out)
    assert os.path.exists(out)
    agg = out + ".agg.csv"
    assert os.path.exists(agg)
    with open(agg) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["stat"] for r in rows} == {"mean", "std"}
    assert all(r["policy"] == "km" for r in rows)


def test_cmd_report_empty_csv_warns(tmp_path):
    path = tmp_path / "empty.csv"
    from micod.harness import RESULT_COLUMNS
    path.write_text(",".join(RESULT_COLUMNS) + "\n")
    text = cmd_report(str(path))
    assert "warning" in text


def test_cmd_report_schema_drift(tmp_path):
    path = tmp_path / "drift.csv"
    path.write_text("policy,cr\nkm,0.5\n")
    from micod.harness import DataError
    with pytest.raises(DataError):
        cmd_report(str(path))


def test_report_hand_checked_stats(tmp_path):
    from micod.harness import RESULT_COLUMNS, _write_rows
    rows = []
    for seed, (cr, tdi) in enumerate([(0.5, 10.0), (0.7, 30.0)]):
        row = {c: "" for c in RESULT_COLUMNS}
        row.update({"kind": "run", "policy": "km", "level": "L1", "capacity_bin": "400",
                    "dataset": "x", "seed": seed, "cr": cr, "tdi": tdi, "apd": None,
                    "hold_apd_ratio": 0.0, "hold_o_ratio": 0.0, "hold_tdi_ratio": 0.0,
                    "hold_d_ratio": 0.0, "order_sr": cr, "driver_sr": cr, "wallclock": ""})
        rows.append(row)
    path = str(tmp_path / "toy.csv")
    _write_rows(path, rows)
    text = cmd_report(path)
    assert "20+/-10" in text  # tdi mean 20, std 10
    assert "0.6+/-0.1" in text  # cr


# -- generate --------------------------------------------------------------------------

def test_cmd_generate_files_classify_back(tmp_path):
    paths = cmd_generate("L1", 400, count=5, scale=0.1, seed=7, out_dir=str(tmp_path))
    assert len(paths) == 5
    from micod.scenario import classify, load
    for p in paths:
        assert classify(load(p)) == ("L1", 400)
    assert os.path.exists(tmp_path / "manifest.json")


def test_cmd_generate_reproducible(tmp_path):
    a = cmd_generate("L2", 550, 1, 0.1, 3, str(tmp_path / "a"))
    b = cmd_generate("L2", 550, 1, 0.1, 3, str(tmp_path / "b"))
    assert open(a[0]).read() == open(b[0]).read()


# -- CLI ------------------------------------------------------------------------------

def test_cli_generate_and_eval_round_trip(tmp_path):
    out_dir = str(tmp_path / "data")
    rc = main(["generate", "--level", "L1", "--bin", "400", "--count", "2",
               "--scale", "0.05", "--seed", "3", "--out", out_dir])
    assert rc == EXIT_OK
    results = str(tmp_path / "res.csv")
    rc = main(["eval", "--policy", "km", "--policy", "fixed_delay(3)",
               "--dataset", os.path.join(out_dir, "*.jsonl"),
               "--seeds", "2", "--mode", "TDI", "--out", results])
    assert rc == EXIT_OK
    rc = main(["report", "--results", results])
    assert rc == EXIT_OK


def test_cli_eval_accepts_config_file(tmp_path):
    data_dir = str(tmp_path / "data")
    main(["generate", "--level", "L2", "--bin", "400", "--count", "1",
          "--scale", "0.05", "--seed", "4", "--out", data_dir])
    cfg = tmp_path / "eval.cfg"
    results = str(tmp_path / "res.csv")
    cfg.write_text(
        f"policies = km, greedy\n"
        f"datasets = {os.path.join(data_dir, '*.jsonl')}\n"
        f"seeds = 2\n"
        f"mode = TDI\n"
        f"out = {results}\n"
    )
    assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    assert os.path.exists(results)


def test_cli_generate_accepts_config_file(tmp_path):
    cfg = tmp_path / "gen.cfg"
    out_dir = str(tmp_path / "out")
    cfg.write_text(f"level = L1\nbin = 400\ncount = 1\nscale = 0.05\nout = {out_dir}\n")
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    assert len(list((tmp_path / "out").glob("*.jsonl"))) == 1


def test_cli_usage_errors():
    assert main(["generate", "--level", "L9", "--bin", "400", "--out", "x"]) == EXIT_USAGE
    assert main(["eval", "--policy", "nope", "--dataset", "x", "--out", "y"]) == EXIT_USAGE


def test_cli_scale_zero_usage_error(tmp_path):
    rc = main(["generate", "--level", "L1", "--bin", "400", "--scale", "0",
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


def test_cli_data_error_on_missing_dataset(tmp_path):
    rc = main(["eval", "--policy", "km", "--dataset", str(tmp_path / "nothing.jsonl"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("field", ["price", "patience"])
def test_cli_eval_non_finite_dataset_is_data_error(tmp_path, field):
    path = tmp_path / "d.jsonl"
    small_dataset(str(path))
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "order")
    rec = json.loads(lines[i])
    rec[field] = float("nan")
    lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--policy", "km", "--dataset", str(path), "--seeds", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA


def test_cli_eval_truncated_checkpoint_is_data_error(tmp_path):
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:200])
    rc = main(["eval", "--policy", f"d2sn({ckpt})", "--dataset", ds_path, "--seeds", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA


def test_cli_train_smoke(tmp_path):
    data_dir = str(tmp_path / "data")
    main(["generate", "--level", "L1", "--bin", "400", "--count", "1",
          "--scale", "0.02", "--seed", "1", "--out", data_dir])
    config = tmp_path / "train.cfg"
    config.write_text(
        "datasets = " + os.path.join(data_dir, "*.jsonl") + "\n"
        "iterations = 1\n"
        "episodes_per_iter = 1\n"
        "epochs = 1\n"
        "lr = 0.0\n"
        "# comment lines are fine\n"
    )
    out_dir = str(tmp_path / "run")
    rc = main(["train", "--config", str(config), "--out", out_dir])
    assert rc == EXIT_OK
    assert os.path.exists(os.path.join(out_dir, "final.ckpt"))
    assert os.path.exists(os.path.join(out_dir, "curves.csv"))


def _edit_record(path, kind, **fields):
    """Rewrite the first record of ``kind`` with ``fields`` changed; returns
    its line number."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    rec = json.loads(lines[i])
    if kind == "config":
        rec["config"].update(fields)
    else:
        rec.update(fields)
    lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return i + 1


def _eval_one(tmp_path, path):
    return main(["eval", "--policy", "km", "--dataset", str(path), "--seeds", "1",
                 "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize("field,value", [
    ("match_radius_m", float("nan")), ("pickup_speed_mps", float("nan")),
    ("fence_width_m", float("nan")), ("cell_size_m", float("nan")),
    ("episode_length_s", float("inf")),
])
def test_cli_eval_non_finite_episode_config_is_data_error(tmp_path, capsys, field, value):
    path = tmp_path / "d.jsonl"
    small_dataset(str(path))
    assert _edit_record(path, "config", **{field: value}) == 1
    assert _eval_one(tmp_path, path) == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [float("nan"), 5.0])
def test_cli_eval_bad_scale_factor_is_data_error(tmp_path, capsys, scale):
    path = tmp_path / "d.jsonl"
    small_dataset(str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["scale_factor"] = scale
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    assert _eval_one(tmp_path, path) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1" in err and "scale_factor" in err


def _duplicate_first(path, kind):
    """Append a second record with the id of the first record of ``kind``."""
    lines = path.read_text().splitlines()
    rec = next(json.loads(line) for line in lines if json.loads(line)["kind"] == kind)
    path.write_text("\n".join(lines + [json.dumps(rec)]) + "\n")
    return len(lines) + 1


@pytest.mark.parametrize("kind,fields", [
    ("driver", {"x": -1.0}), ("order", {"oy": 4801.0}), ("order", {"dx": 6400.5}),
    ("driver", None), ("order", None),
])
def test_cli_eval_out_of_fence_or_duplicate_entity_is_data_error(tmp_path, capsys,
                                                                 kind, fields):
    path = tmp_path / "d.jsonl"
    small_dataset(str(path))
    if fields is None:
        line_no = _duplicate_first(path, kind)
    else:
        line_no = _edit_record(path, kind, **fields)
    assert _eval_one(tmp_path, path) == EXIT_DATA
    assert f"line {line_no}:" in capsys.readouterr().err


def test_cli_eval_config_bad_seeds_is_data_error(tmp_path, capsys):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"policies = km\ndatasets = {ds_path}\nseeds = abc\n"
                   f"out = {tmp_path / 'o.csv'}\n")
    assert main(["eval", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "seeds" in err


def test_cli_generate_config_bad_scale_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"level = L1\nbin = 400\nscale = big\nout = {tmp_path / 'out'}\n")
    assert main(["generate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "scale" in err


@pytest.mark.parametrize("key", ["minibatch_size", "episodes_per_iter"])
def test_cli_train_zero_size_is_data_error(tmp_path, capsys, key):
    small_dataset(str(tmp_path / "d.jsonl"))
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {tmp_path / 'd.jsonl'}\niterations = 1\n{key} = 0\n")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(config) in err and key in err
    assert not (out_dir / "curves.csv").exists()


def test_cli_eval_zero_seeds_is_usage_error(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    out = tmp_path / "o.csv"
    rc = main(["eval", "--policy", "km", "--dataset", ds_path, "--seeds", "0",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_cli_train_bad_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("datasets = none.jsonl\nwhatever = 3\n")
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n# note\nb = two words\n")
    assert parse_config_file(str(cfg)) == {"a": "1", "b": "two words"}


def test_eval_plan_validation():
    with pytest.raises(UsageError):
        EvalPlan(policies=[], dataset_paths=["x"])
    with pytest.raises(UsageError):
        EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=["x"],
                 reward_mode="XXX")


def test_eval_plan_rejects_empty_seed_list():
    with pytest.raises(UsageError, match="seed"):
        EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=["x"], seeds=[])
