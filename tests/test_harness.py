import csv
import json
import os

import numpy as np
import pytest

from micod.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, parse_config_file
from micod.core import Driver, EpisodeConfig, Location, Order
from micod.harness import (EvalPlan, PolicySpec, UsageError, cmd_eval, cmd_generate,
                           cmd_report, make_policy, parse_policy_id, read_results_csv,
                           run_episode)
from micod.scenario import Dataset, ScenarioSpec, generate, save
from test_golden import _without_wallclock


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


def test_make_policy_rejects_unknown_kind():
    with pytest.raises(UsageError, match="unhandled policy kind 'bogus'"):
        make_policy(PolicySpec("bogus"), "TDI")


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
    cmd_eval(plan, out1)
    cmd_eval(plan, out2)
    assert _without_wallclock(out1) == _without_wallclock(out2)


def test_cmd_eval_missing_dataset(tmp_path):
    from micod.harness import DataError
    plan = EvalPlan(policies=[PolicySpec(kind="km")],
                    dataset_paths=[str(tmp_path / "missing.jsonl")])
    with pytest.raises(DataError):
        cmd_eval(plan, str(tmp_path / "out.csv"))


def test_cmd_eval_missing_output_directory_runs_no_episode(tmp_path, capsys, monkeypatch):
    import micod.harness
    from micod.harness import DataError

    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    episodes = []
    monkeypatch.setattr(micod.harness, "run_episode", lambda *args: episodes.append(args))
    out = str(tmp_path / "missing" / "r.csv")
    plan = EvalPlan(policies=[PolicySpec(kind="km"), PolicySpec(kind="gs")],
                    dataset_paths=[ds_path], seeds=[0, 1, 2])
    with pytest.raises(DataError, match="missing"):
        cmd_eval(plan, out)
    rc = main(["eval", "--policy", "km", "--policy", "gs", "--dataset", ds_path,
               "--seeds", "3", "--out", out])
    assert rc == EXIT_DATA
    assert out in capsys.readouterr().err
    assert episodes == []


def test_cli_eval_out_that_is_a_directory_runs_no_episode(tmp_path, capsys, monkeypatch):
    import micod.harness
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    ckpt = str(tmp_path / "net.ckpt")
    save_checkpoint(init_params(D2snConfig(g_dim=global_info_dim(ds.config))), ckpt)
    loads, episodes = [], []
    monkeypatch.setattr(micod.harness, "load_checkpoint",
                        lambda path: loads.append(path) or micod.d2sn.load_checkpoint(path))
    monkeypatch.setattr(micod.harness, "run_episode", lambda *args: episodes.append(args))
    out = tmp_path / "outdir"
    out.mkdir()
    rc = main(["eval", "--policy", "km", "--policy", f"d2sn({ckpt})", "--dataset", ds_path,
               "--seeds", "2", "--out", str(out)])
    assert rc == EXIT_DATA
    assert str(out) in capsys.readouterr().err
    assert loads == [] and episodes == []


@pytest.mark.parametrize("argv", [
    ["report", "--results", "{results}", "--out", "{dir}"],
    ["report", "--results", "{dir}"],
    ["eval", "--policy", "km", "--dataset", "{dir}", "--seeds", "1", "--out", "{out}"],
    ["eval", "--config", "{dir}"],
    ["train", "--config", "{train_cfg}", "--out", "{results}"],
], ids=["report-out", "report-results", "eval-dataset", "eval-config", "train-out"])
def test_cli_path_of_the_wrong_kind_is_data_error(tmp_path, capsys, argv):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    results = tmp_path / "results.csv"
    cmd_eval(EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=[ds_path], seeds=[0]),
             str(results))
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(f"datasets = {ds_path}\niterations = 1\nepisodes_per_iter = 1\n")
    (tmp_path / "dir").mkdir()
    paths = {"results": results, "dir": tmp_path / "dir", "out": tmp_path / "o.csv",
             "train_cfg": train_cfg}
    assert main([a.format(**paths) for a in argv]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


def test_eval_order_sr_equals_cr_on_every_run(tmp_path):
    """Each order is served at most once, so the served-order ratio is the
    completion ratio, for holding and non-holding policies alike."""
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    ckpt = str(tmp_path / "net.ckpt")
    save_checkpoint(init_params(D2snConfig(g_dim=global_info_dim(ds.config))), ckpt)
    plan = EvalPlan(policies=[parse_policy_id(p)
                              for p in ("km", "fixed_delay(3)", f"d2sn({ckpt})")],
                    dataset_paths=[ds_path], seeds=[0, 1])
    runs = [r for r in cmd_eval(plan, str(tmp_path / "r.csv")) if r["kind"] == "run"]
    assert len(runs) == 6
    assert all(r["order_sr"] == r["cr"] for r in runs)
    assert any(r["hold_o_ratio"] > 0 for r in runs)  # the holding policies held orders


def test_one_policy_instance_gives_the_reports_of_fresh_ones(tmp_path):
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    datasets = [generate(ScenarioSpec("L2", 400, seed=s, scale_factor=0.05)) for s in (0, 1)]
    ckpt = str(tmp_path / "net.ckpt")
    save_checkpoint(init_params(D2snConfig(g_dim=global_info_dim(datasets[0].config))), ckpt)
    for spec in (parse_policy_id("fixed_delay(3)"), parse_policy_id(f"d2sn({ckpt})")):
        shared = make_policy(spec, "TDI")
        for ds in datasets:
            for seed in (2, 0, 1):
                fresh = make_policy(spec, "TDI")
                assert run_episode(ds, shared, seed, "TDI") == run_episode(ds, fresh, seed, "TDI")


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
    path.write_text("")  # not even a header
    assert read_results_csv(str(path)) == []
    assert cmd_report(str(path)).startswith("warning: no run rows found")


def test_read_results_csv_of_a_missing_file(tmp_path):
    from micod.harness import DataError
    with pytest.raises(DataError, match="results file not found"):
        read_results_csv(str(tmp_path / "none.csv"))


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


def test_cli_report_non_numeric_metric_is_data_error(tmp_path, capsys):
    from micod.harness import RESULT_COLUMNS, _write_rows
    row = {c: "0.5" for c in RESULT_COLUMNS}
    row.update({"kind": "run", "policy": "km", "level": "L1", "capacity_bin": "400",
                "dataset": "x", "seed": 0, "cr": "abc"})
    path = str(tmp_path / "one.csv")
    _write_rows(path, [row])
    assert main(["report", "--results", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}:2" in err and "cr" in err and "'abc'" in err


def test_cmd_report_tables_are_the_eval_aggregates(tmp_path):
    paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
    save(generate(ScenarioSpec("L2", 400, seed=0, scale_factor=0.05)), paths[0])
    save(generate(ScenarioSpec("L4", 550, seed=1, scale_factor=0.05)), paths[1])
    results = tmp_path / "results.csv"
    cmd_eval(EvalPlan(policies=[PolicySpec(kind="km"), parse_policy_id("fixed_delay(3)")],
                      dataset_paths=paths, seeds=[0, 1, 2], reward_mode="APD"), str(results))
    with open(results, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:  # as cmd_eval writes an episode that completes no order
        if row["policy"] == "km":
            row["apd"] = row["hold_apd_ratio"] = ""
    with open(results, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    def shown(value, spec):
        return "-" if value in ("", None) else f"{float(value):{spec}}"

    tables = {}
    for block in cmd_report(str(results)).strip().split("\n\n"):
        title, _, *lines = block.splitlines()
        tables[title] = {line.split()[0]: line.split()[1:] for line in lines}
    cells = {(r["level"], r["capacity_bin"]) for r in rows}
    assert len(cells) == 2
    for level, cap in cells:
        table = tables[f"== cell level={level} capacity<={cap} =="]
        for policy in ("km", "fixed_delay(3)"):
            mean, std = (next(r for r in rows if r["kind"] == stat and r["policy"] == policy
                              and (r["level"], r["capacity_bin"]) == (level, cap))
                         for stat in ("mean", "std"))
            assert table[policy] == [
                "-" if not mean[c] else f"{float(mean[c]):.4g}+/-{float(std[c]):.2g}"
                for c in ("tdi", "apd", "cr")]
        assert table["km"][1] == "-"
    hold = tables["== hold behavior (means over all runs per policy) =="]
    for policy in ("km", "fixed_delay(3)"):
        runs = [r for r in rows if r["kind"] == "run" and r["policy"] == policy]
        assert hold[policy] == [
            shown(np.mean([float(r[c]) for r in runs]) if runs[0][c] else None, ".4g")
            for c in ("hold_apd_ratio", "hold_o_ratio", "hold_tdi_ratio", "hold_d_ratio",
                      "order_sr", "driver_sr")]
    assert hold["km"][0] == "-"


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


@pytest.mark.parametrize("count,seed,named", [(0, 0, "count"), (1, -1, "seed")])
def test_cmd_generate_rejects_bad_count_and_seed(tmp_path, count, seed, named):
    out = tmp_path / "out"
    with pytest.raises(UsageError, match=named):
        cmd_generate("L1", 400, count, 0.05, seed, str(out))
    assert not out.exists()


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


def test_cli_usage_errors(capsys):
    assert main(["generate", "--level", "L9", "--bin", "400", "--out", "x"]) == EXIT_USAGE
    assert main(["eval", "--policy", "nope", "--dataset", "x", "--out", "y"]) == EXIT_USAGE
    capsys.readouterr()
    for argv, needs in ((["generate", "--level", "L1", "--bin", "400"], "--level, --bin"),
                        (["eval", "--policy", "km", "--out", "y"], "--policy, --dataset")):
        assert main(argv) == EXIT_USAGE
        assert f"needs {needs} and --out" in capsys.readouterr().err


def test_cli_unexpected_exception_is_runtime_error(tmp_path, capsys, monkeypatch):
    import micod.cli

    def fail(*args, **kwargs):
        raise RuntimeError("disk on fire")
    monkeypatch.setattr(micod.cli, "cmd_report", fail)
    assert main(["report", "--results", str(tmp_path / "r.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: disk on fire\n"


@pytest.mark.parametrize("command,text,named", [
    ("generate", None, "config file not found"),
    ("eval", "policies = km\nseeds 2\n", ":2: expected key = value"),
    ("train", "iterations = 1\n", "missing 'datasets' entry"),
])
def test_cli_config_file_errors_are_data_errors(tmp_path, capsys, command, text, named):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "train" else [])
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and named in err
    assert not out.exists()


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


def test_cli_eval_checkpoint_with_zero_heads_is_data_error(tmp_path, capsys):
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim
    from test_d2sn import rewrite_header

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0), ckpt)
    rewrite_header(ckpt, lambda h: json.dumps({**h, "config": {**h["config"], "n_heads": 0}})
                   .encode())
    rc = main(["eval", "--policy", f"d2sn({ckpt})", "--dataset", ds_path, "--seeds", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA
    assert str(ckpt) in capsys.readouterr().err


def test_cli_non_finite_checkpoint_is_data_error(tmp_path, capsys, monkeypatch):
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    params = init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0)
    params.tensors["hold_b2"][0, 0] = np.nan
    params.tensors["cq_b"][0, 1] = np.inf
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(params, ckpt)
    out = tmp_path / "o.csv"
    rc = main(["eval", "--policy", f"d2sn({ckpt})", "--dataset", ds_path, "--seeds", "1",
               "--out", str(out)])
    assert rc == EXIT_DATA
    assert "tensor hold_b2" in capsys.readouterr().err
    assert not out.exists()
    # a resume snapshot whose optimizer moments went non-finite
    params = init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0)
    params.tensors["opt_v_emb_w"] = np.full(params.tensors["emb_w"].shape, np.nan)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(params, out_dir / "latest.ckpt", extra={"iteration": 1})
    _no_rollouts(monkeypatch)
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {ds_path}\niterations = 2\nepisodes_per_iter = 1\n")
    rc = main(["train", "--config", str(config), "--out", str(out_dir), "--resume"])
    assert rc == EXIT_DATA
    assert "tensor opt_v_emb_w" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "generate"])
@pytest.mark.parametrize("out", ["outfile", os.path.join("outfile", "sub")])
def test_cli_out_under_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, command, out):
    import micod.cli
    import micod.d2sn
    import micod.scenario

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    for module, name in [(micod.scenario, "load"), (micod.d2sn, "init_params"),
                         (micod.cli, "cmd_generate")]:
        monkeypatch.setattr(module, name, refuse)
    ds_path = tmp_path / "d.jsonl"
    small_dataset(str(ds_path))
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {ds_path}\niterations = 1\nepisodes_per_iter = 1\n")
    (tmp_path / "outfile").write_text("")
    out = str(tmp_path / out)
    argv = {"train": ["train", "--config", str(config), "--out", out],
            "generate": ["generate", "--level", "L1", "--bin", "400", "--out", out]}[command]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: --out {out}: ")


def _resume_snapshot(tmp_path, drop=(), d_model=32, **extra):
    """A train config over a small dataset and a run directory whose
    ``latest.ckpt`` is a well-formed snapshot after one iteration of a
    ``d_model``-wide network, less the entries and tensors named in ``drop``
    and with ``extra`` entries changed."""
    from micod.d2sn import D2snConfig, init_params, save_checkpoint
    from micod.env import global_info_dim

    ds_path = tmp_path / "d.jsonl"
    ds = small_dataset(str(ds_path))
    params = init_params(D2snConfig(d_model=d_model, g_dim=global_info_dim(ds.config)), seed=0)
    for name in list(params.tensors):
        params.tensors["opt_m_" + name] = np.zeros_like(params.tensors[name])
        params.tensors["opt_v_" + name] = np.zeros_like(params.tensors[name])
    state = {"iteration": 1, "episodes": 1, "wallclock": 0.5, "opt_t": 1,
             "rng_state": np.random.default_rng(0).bit_generator.state, **extra}
    for key in drop:
        state.pop(key, None)
        params.tensors.pop(key, None)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(params, out_dir / "latest.ckpt", extra=state)
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {ds_path}\niterations = 1\nepisodes_per_iter = 1\n")
    return ["train", "--config", str(config), "--out", str(out_dir), "--resume"]


def test_cli_train_resumes_a_complete_snapshot(tmp_path):
    assert main(_resume_snapshot(tmp_path)) == EXIT_OK


def test_cli_train_resume_prints_the_resumed_parameter_count(tmp_path, capsys):
    from micod.d2sn import load_checkpoint

    argv = _resume_snapshot(tmp_path, d_model=8)
    assert main(argv) == EXIT_OK
    final, _ = load_checkpoint(tmp_path / "run" / "final.ckpt")
    assert final.config.d_model == 8
    assert f"model parameters: {final.param_count}\n" in capsys.readouterr().out


@pytest.mark.parametrize("named", ["rng_state", "opt_t", "iteration", "episodes", "wallclock",
                                   "opt_m_emb_w", "opt_v_v_b2"])
def test_cli_train_resume_requires_every_state_entry(tmp_path, capsys, monkeypatch, named):
    _no_rollouts(monkeypatch)
    assert main(_resume_snapshot(tmp_path, drop=(named,))) == EXIT_DATA
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("named,value", [("rng_state", 5), ("iteration", "x"), ("opt_t", -1),
                                         ("episodes", 1.5), ("wallclock", "later")])
def test_cli_train_resume_rejects_malformed_state_entry(tmp_path, capsys, monkeypatch, named,
                                                        value):
    _no_rollouts(monkeypatch)
    assert main(_resume_snapshot(tmp_path, **{named: value})) == EXIT_DATA
    assert named in capsys.readouterr().err


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


def test_cli_eval_config_bad_mode_is_data_error(tmp_path, capsys):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"policies = km\ndatasets = {ds_path}\nmode = XYZ\n"
                   f"out = {tmp_path / 'o.csv'}\n")
    assert main(["eval", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "mode" in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_generate_config_bad_scale_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"level = L1\nbin = 400\nscale = big\nout = {tmp_path / 'out'}\n")
    assert main(["generate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "scale" in err


@pytest.mark.parametrize("key", ["minibatch_size", "episodes_per_iter", "iterations"])
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


def test_cli_eval_negative_seed_is_usage_error(tmp_path):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    out = tmp_path / "o.csv"
    rc = main(["eval", "--policy", "km", "--dataset", ds_path, "--seed", "-3",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_cli_generate_negative_seed_is_usage_error(tmp_path):
    out = tmp_path / "out"
    rc = main(["generate", "--level", "L1", "--bin", "400", "--seed", "-1", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_cli_train_negative_seed_is_data_error(tmp_path, capsys):
    small_dataset(str(tmp_path / "d.jsonl"))
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {tmp_path / 'd.jsonl'}\niterations = 1\nseed = -2\n")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(config) in err and "seed" in err
    assert not (out_dir / "curves.csv").exists()


@pytest.mark.parametrize("command,key,value", [
    ("generate", "count", "0"), ("generate", "scale", "5"), ("generate", "scale", "0"),
    ("generate", "seed", "-1"), ("eval", "seeds", "0"), ("eval", "seed", "-4"),
])
def test_cli_config_out_of_range_value_is_data_error(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    if command == "generate":
        cfg.write_text(f"level = L1\nbin = 400\n{key} = {value}\nout = {out}\n")
    else:
        ds_path = str(tmp_path / "d.jsonl")
        small_dataset(ds_path)
        cfg.write_text(f"policies = km\ndatasets = {ds_path}\n{key} = {value}\nout = {out}\n")
    assert main([command, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and f"bad value for {key}" in err and "--" not in err
    assert not out.exists()


def test_cli_config_repeated_key_is_data_error(tmp_path, capsys):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    out = tmp_path / "out"
    configs = {
        "generate": f"seed = 1\nlevel = L1\nbin = 400\nseed = 2\nout = {out}\n",
        "eval": f"policies = km\ndatasets = {ds_path}\nseeds = 1\nseeds = 2\nout = {out}\n",
        "train": f"datasets = {ds_path}\niterations = 1\n\n# again\niterations = 2\n",
    }
    lines = {"generate": 4, "eval": 4, "train": 5}
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "train" else [])
        assert main(argv) == EXIT_DATA, command
        err = capsys.readouterr().err
        key = {"generate": "seed", "eval": "seeds", "train": "iterations"}[command]
        assert f"{cfg}:{lines[command]}:" in err and repr(key) in err, err
        assert not out.exists()


def test_cli_generate_config_unknown_level_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"level = L9\nbin = 400\nout = {tmp_path / 'out'}\n")
    assert main(["generate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "level" in err
    assert not (tmp_path / "out").exists()


def test_cli_generate_config_unknown_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"level = L1\nbin = 400\nscale = 0.05\nsead = 7\nout = {tmp_path / 'out'}\n")
    assert main(["generate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "'sead'" in err
    assert not (tmp_path / "out").exists()


def test_cli_eval_config_unknown_key_is_data_error(tmp_path, capsys):
    ds_path = str(tmp_path / "d.jsonl")
    small_dataset(ds_path)
    cfg = tmp_path / "eval.cfg"
    out = tmp_path / "o.csv"
    cfg.write_text(f"policies = km\ndatasets = {ds_path}\nsedes = 2\nout = {out}\n")
    assert main(["eval", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg) in err and "'sedes'" in err
    assert not out.exists()


def test_cli_train_bad_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("datasets = none.jsonl\nwhatever = 3\n")
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def _train_with(tmp_path, settings):
    """Run ``micod train`` on a small dataset with extra config lines."""
    small_dataset(str(tmp_path / "d.jsonl"))
    config = tmp_path / "train.cfg"
    settings = {"iterations": 1, "episodes_per_iter": 1, **settings}
    lines = [f"datasets = {tmp_path / 'd.jsonl'}"] + [f"{k} = {v}" for k, v in settings.items()]
    config.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "run"
    return main(["train", "--config", str(config), "--out", str(out_dir)]), config, out_dir


@pytest.mark.parametrize("key,value", [
    ("update_sample_size", "-1"), ("update_sample_size", "0"),
    ("clip_eps", "nan"), ("grad_clip", "nan"), ("gamma", "nan"),
    ("gamma", "1.5"), ("gamma", "-0.1"), ("clip_eps", "0"),
    ("lr", "nan"), ("lr", "-0.001"), ("entropy_coef", "inf"),
    ("reward_mode", "XYZ"),
    # keys of removed TrainConfig fields: rejected as unknown keys
    ("force_exhaustive", "ture"), ("normalize_adv", "2"),
])
def test_cli_train_bad_setting_is_data_error(tmp_path, capsys, key, value):
    rc, config, out_dir = _train_with(tmp_path, {key: value})
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert str(config) in err and key in err
    assert not (out_dir / "curves.csv").exists()


def test_cli_train_removed_critic_target_is_unknown_key(tmp_path, capsys):
    # keys of TrainConfig fields that were removed
    for key, value in (("critic_target", "current"), ("force_exhaustive", "1"),
                       ("normalize_adv", "0")):
        rc, config, _ = _train_with(tmp_path, {key: value})
        assert rc == EXIT_DATA
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_cli_train_accepts_every_train_config_field(tmp_path):
    import dataclasses

    from micod.trainer import TrainConfig

    settings = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    settings.update(iterations=1, episodes_per_iter=1, epochs=1, update_sample_size=2)
    assert set(settings) == {f.name for f in dataclasses.fields(TrainConfig)}
    rc, _, out_dir = _train_with(tmp_path, settings)
    assert rc == EXIT_OK
    assert (out_dir / "curves.csv").exists()


def _no_rollouts(monkeypatch):
    import micod.trainer

    def refuse(*args, **kwargs):
        raise AssertionError("a rollout ran before the datasets were checked")
    monkeypatch.setattr(micod.trainer, "collect_rollouts", refuse)


@pytest.mark.parametrize("episodes", [1, 4])
def test_cli_train_datasets_of_different_grids_is_data_error(tmp_path, capsys, monkeypatch,
                                                             episodes):
    import shutil

    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    small_dataset(str(first))
    shutil.copy(first, second)
    _edit_record(second, "config", cell_size_m=1600.0)  # a coarser grid: fewer global inputs
    _no_rollouts(monkeypatch)
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {first},{second}\niterations = 1\n"
                      f"episodes_per_iter = {episodes}\n")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out_dir)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert str(second) in captured.err
    assert "model parameters" not in captured.out
    assert not out_dir.exists()


# Checkpoints that do not fit a dataset: a network for another global-info
# width, a hand-written one whose ``emb_w`` reads 5 pair features, and one
# whose header config still carries ``d_feat``. Each names what is wrong.
MISFITS = [{"g_dim": 7}, {"emb_w_rows": 5}, {"d_feat": 12}]


def save_misfit(path, ds, net, extra=None) -> str:
    """Save the checkpoint ``net`` describes for dataset ``ds`` at ``path``;
    returns the text the data error must hold besides the checkpoint path."""
    from micod.d2sn import D2snConfig, D2snParams, init_params, save_checkpoint
    from micod.env import global_info_dim
    from test_d2sn import rewrite_header

    params = init_params(D2snConfig(g_dim=net.get("g_dim", global_info_dim(ds.config))), seed=0)
    if "emb_w_rows" in net:
        params = D2snParams(params.config, {**params.tensors,
                                            "emb_w": params.tensors["emb_w"][:net["emb_w_rows"]]})
    save_checkpoint(params, path, extra=extra)
    if "d_feat" in net:
        rewrite_header(path, lambda h: json.dumps(
            {**h, "config": {**h["config"], "d_feat": net["d_feat"]}}).encode())
        return "d_feat"
    return "emb_w" if "emb_w_rows" in net else "g_dim"


@pytest.mark.parametrize("net", MISFITS)
def test_cli_train_resume_from_checkpoint_that_does_not_fit_is_data_error(
        tmp_path, capsys, monkeypatch, net):
    ds_path = tmp_path / "d.jsonl"
    ds = small_dataset(str(ds_path))
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    latest = out_dir / "latest.ckpt"
    named = save_misfit(latest, ds, net, extra={"iteration": 1})
    _no_rollouts(monkeypatch)
    config = tmp_path / "train.cfg"
    config.write_text(f"datasets = {ds_path}\niterations = 2\nepisodes_per_iter = 1\n")
    rc = main(["train", "--config", str(config), "--out", str(out_dir), "--resume"])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert str(latest) in captured.err and named in captured.err
    if "g_dim" in net:  # a network that loads is checked against each dataset
        assert str(ds_path) in captured.err
    assert "model parameters" not in captured.out
    assert not (out_dir / "curves.csv").exists()


@pytest.mark.parametrize("net", MISFITS)
@pytest.mark.parametrize("after_km", [False, True])
def test_cli_eval_checkpoint_that_does_not_fit_is_data_error(tmp_path, capsys, monkeypatch,
                                                             net, after_km):
    import micod.harness

    ds_path = str(tmp_path / "d.jsonl")
    ds = small_dataset(ds_path)
    ckpt = tmp_path / "net.ckpt"
    named = save_misfit(ckpt, ds, net)

    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before the checkpoint was checked")
    monkeypatch.setattr(micod.harness, "run_episode", no_episodes)
    policies = ["--policy", "km"] if after_km else []
    out = tmp_path / "o.csv"
    rc = main(["eval", *policies, "--policy", f"d2sn({ckpt})", "--dataset", ds_path,
               "--seeds", "1", "--out", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and named in err
    if "g_dim" in net:
        assert ds_path in err
    assert not out.exists()


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n# note\nb = two words\n")
    assert parse_config_file(str(cfg)) == {"a": "1", "b": "two words"}


def test_eval_plan_validation():
    with pytest.raises(UsageError):
        EvalPlan(policies=[], dataset_paths=["x"])
    with pytest.raises(UsageError, match="at least one dataset"):
        EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=[])
    with pytest.raises(UsageError):
        EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=["x"],
                 reward_mode="XXX")


def test_eval_plan_rejects_empty_seed_list():
    with pytest.raises(UsageError, match="seed"):
        EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=["x"], seeds=[])


def test_eval_plan_rejects_negative_seed():
    with pytest.raises(UsageError, match="seed"):
        EvalPlan(policies=[PolicySpec(kind="km")], dataset_paths=["x"], seeds=[0, -1])
