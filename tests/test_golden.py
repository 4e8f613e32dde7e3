"""Golden behaviour check: exact outputs pinned for fixed seeds.

Refactors that claim to keep behaviour must leave these bytes alone. The eval
check runs every classical policy plus an untrained network policy
(``init_params(seed=0)``) on one scale-0.05 L2/400 dataset at seed 0, in TDI
and in APD mode, and compares each CSV, without its wallclock column, line by
line. The training check runs two tiny PPO iterations and compares a sha256
digest of the sorted parameter names and their float64 bytes.

If a change is meant to alter behaviour, re-record the pins from the new
code and say so in the change log; never loosen the comparison.
"""

import csv
import hashlib

import numpy as np

from micod import scenario
from micod.core import EpisodeConfig
from micod.d2sn import D2snConfig, init_params, save_checkpoint
from micod.env import global_info_dim
from micod.harness import EvalPlan, cmd_eval, parse_policy_id
from micod.scenario import ScenarioSpec, generate
from micod.trainer import TrainConfig, train

GOLDEN_EVAL_CSV = """\
kind,policy,level,capacity_bin,dataset,seed,cr,apd,tdi,hold_apd_ratio,hold_o_ratio,hold_tdi_ratio,hold_d_ratio,order_sr,driver_sr
run,km,L2,400,L2_400.jsonl,0,0.9583333333333334,1007.6562076101351,123.42,0.0,0.0,0.0,0.0,0.9583333333333334,0.85
run,greedy,L2,400,L2_400.jsonl,0,0.9583333333333334,1007.6562076101351,123.42,0.0,0.0,0.0,0.0,0.9583333333333334,0.85
run,gs,L2,400,L2_400.jsonl,0,0.9583333333333334,1007.6562076101351,123.42,0.0,0.0,0.0,0.0,0.9583333333333334,0.85
run,fixed_delay(3),L2,400,L2_400.jsonl,0,1.0,948.4795704648174,125.73999999999998,1.0310595853693514,0.7916666666666666,1.2096798382149114,0.9,1.0,0.85
run,d2sn(init.ckpt),L2,400,L2_400.jsonl,0,0.9583333333333334,965.214772898573,117.55,1.037649205325152,0.625,1.194400091614044,0.85,0.9583333333333334,0.9
mean,d2sn(init.ckpt),L2,400,,,0.9583333333333334,965.214772898573,117.55,1.037649205325152,0.625,1.194400091614044,0.85,0.9583333333333334,0.9
std,d2sn(init.ckpt),L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,fixed_delay(3),L2,400,,,1.0,948.4795704648174,125.73999999999998,1.0310595853693514,0.7916666666666666,1.2096798382149114,0.9,1.0,0.85
std,fixed_delay(3),L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,greedy,L2,400,,,0.9583333333333334,1007.6562076101351,123.42,0.0,0.0,0.0,0.0,0.9583333333333334,0.85
std,greedy,L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,gs,L2,400,,,0.9583333333333334,1007.6562076101351,123.42,0.0,0.0,0.0,0.0,0.9583333333333334,0.85
std,gs,L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,km,L2,400,,,0.9583333333333334,1007.6562076101351,123.42,0.0,0.0,0.0,0.0,0.9583333333333334,0.85
std,km,L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
"""

# the same eval in APD mode, whose solvers read the pickup column
GOLDEN_EVAL_APD_CSV = """\
kind,policy,level,capacity_bin,dataset,seed,cr,apd,tdi,hold_apd_ratio,hold_o_ratio,hold_tdi_ratio,hold_d_ratio,order_sr,driver_sr
run,km,L2,400,L2_400.jsonl,0,0.9583333333333334,639.4325894635512,117.14999999999999,0.0,0.0,0.0,0.0,0.9583333333333334,0.75
run,greedy,L2,400,L2_400.jsonl,0,0.9583333333333334,639.4325894635512,117.14999999999999,0.0,0.0,0.0,0.0,0.9583333333333334,0.75
run,gs,L2,400,L2_400.jsonl,0,0.9583333333333334,639.4325894635512,117.14999999999999,0.0,0.0,0.0,0.0,0.9583333333333334,0.75
run,fixed_delay(3),L2,400,L2_400.jsonl,0,0.9583333333333334,629.8083018028235,117.14999999999999,1.4246336849737296,0.75,1.280695452174326,0.85,0.9583333333333334,0.85
run,d2sn(init.ckpt),L2,400,L2_400.jsonl,0,0.9583333333333334,965.214772898573,117.55,1.037649205325152,0.625,1.194400091614044,0.85,0.9583333333333334,0.9
mean,d2sn(init.ckpt),L2,400,,,0.9583333333333334,965.214772898573,117.55,1.037649205325152,0.625,1.194400091614044,0.85,0.9583333333333334,0.9
std,d2sn(init.ckpt),L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,fixed_delay(3),L2,400,,,0.9583333333333334,629.8083018028235,117.14999999999999,1.4246336849737296,0.75,1.280695452174326,0.85,0.9583333333333334,0.85
std,fixed_delay(3),L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,greedy,L2,400,,,0.9583333333333334,639.4325894635512,117.14999999999999,0.0,0.0,0.0,0.0,0.9583333333333334,0.75
std,greedy,L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,gs,L2,400,,,0.9583333333333334,639.4325894635512,117.14999999999999,0.0,0.0,0.0,0.0,0.9583333333333334,0.75
std,gs,L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
mean,km,L2,400,,,0.9583333333333334,639.4325894635512,117.14999999999999,0.0,0.0,0.0,0.0,0.9583333333333334,0.75
std,km,L2,400,,,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
"""

GOLDEN_TRAIN_DIGEST = "72d2d183c8225bbb6799de97e64347e3a17cdcbbeb600eb1470b5b862cd481d0"

POLICIES = ["km", "greedy", "gs", "fixed_delay(3)", "d2sn(init.ckpt)"]


def _spec():
    return ScenarioSpec("L2", 400, seed=0, scale_factor=0.05)


def _without_wallclock(path) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wallclock")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)


def test_golden_eval_csv(tmp_path, monkeypatch):
    # relative paths keep the dataset and checkpoint names out of tmp_path
    monkeypatch.chdir(tmp_path)
    ds = generate(_spec())
    scenario.save(ds, "L2_400.jsonl")
    save_checkpoint(init_params(D2snConfig(g_dim=global_info_dim(ds.config)), seed=0),
                    "init.ckpt")
    for mode, pinned in (("TDI", GOLDEN_EVAL_CSV), ("APD", GOLDEN_EVAL_APD_CSV)):
        plan = EvalPlan(policies=[parse_policy_id(p) for p in POLICIES],
                        dataset_paths=["L2_400.jsonl"], seeds=[0], reward_mode=mode)
        cmd_eval(plan, f"{mode}.csv")
        assert _without_wallclock(f"{mode}.csv") == pinned


def test_golden_train_digest():
    ds = generate(_spec(), config=EpisodeConfig(episode_length_s=20.0, seed=0))
    cfg = TrainConfig(iterations=2, episodes_per_iter=2, epochs=1, minibatch_size=8,
                      lr=1e-3, seed=0)
    net = D2snConfig(d_model=8, n_heads=2, g_dim=global_info_dim(ds.config))
    result = train(cfg, [ds], net_config=net)
    h = hashlib.sha256()
    for name in sorted(result.params.tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(result.params.tensors[name], dtype=np.float64).tobytes())
    assert h.hexdigest() == GOLDEN_TRAIN_DIGEST
