"""The benchmark's workloads: the inputs of each case, one round of work
through the package's public entry points, and the checks on its outputs.

A round is one call of the entry point a user runs: ``harness.cmd_eval`` for
``eval_classical``, ``trainer.train`` (one iteration) for ``train_ppo``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os
import shutil
import time

import numpy as np

from micod import harness, scenario, trainer
from micod.core import EpisodeConfig
from micod.scenario import Dataset, ScenarioSpec

LEVEL, CAPACITY_BIN = "L4", 400

CLASSICAL_POLICIES = ["km", "greedy", "gs", "fixed_delay(5)"]

# Train datasets follow the acceptance suite's C09 family.
TRAIN_EPISODE = EpisodeConfig(episode_length_s=300.0, batch_window_s=2.0,
                              match_radius_m=1000.0, reward_mode="TDI", seed=0)
TRAIN_DATASETS = 6


def train_config(seed: int) -> trainer.TrainConfig:
    """The C09 training configuration, cut to one iteration per round."""
    return trainer.TrainConfig(lr=3e-3, iterations=1, episodes_per_iter=8, epochs=2,
                               minibatch_size=64, update_sample_size=320,
                               entropy_coef=0.001, gamma=0.99, lam=0.95, seed=seed)


def sized_dataset(scale: float, n_drivers: int, n_orders: int, seed: int,
                  config: EpisodeConfig | None = None) -> Dataset:
    """An L4 / <=400 dataset with exactly ``n_drivers`` drivers and
    ``n_orders`` orders, so that throughput is stated at a fixed input size.

    The generator draws its own counts, so this takes the first generator seed
    in ``seed * 1000, seed * 1000 + 1, ...`` whose dataset is at least that
    large and keeps a random subset of it, renumbered in arrival order."""
    for attempt in range(1000):
        spec = ScenarioSpec(LEVEL, CAPACITY_BIN, seed=seed * 1000 + attempt, scale_factor=scale)
        ds = scenario.generate(spec, config=config)
        if len(ds.drivers) >= n_drivers and len(ds.orders) >= n_orders:
            break
    else:
        raise RuntimeError(f"no generated dataset reaches {n_drivers} drivers / {n_orders} orders")
    rng = np.random.default_rng(seed)

    def keep(entities, n):
        idx = np.sort(rng.choice(len(entities), size=n, replace=False))
        return [dataclasses.replace(entities[int(i)], id=k) for k, i in enumerate(idx)]

    out = Dataset(config=ds.config, drivers=keep(ds.drivers, n_drivers),
                  orders=keep(ds.orders, n_orders), scale_factor=scale,
                  meta={**ds.meta, "sized_from_seed": spec.seed})
    if scenario.classify(out) != (LEVEL, CAPACITY_BIN):
        raise RuntimeError(f"sized dataset classifies as {scenario.classify(out)}")
    return out


def row_digest(fields: list[str]) -> str:
    return hashlib.sha256("\x1f".join(fields).encode()).hexdigest()[:16]


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.tensors[name], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class Round:
    """One call of the entry point, holding one operation: an episode
    (eval) or an iteration (train)."""

    wall_s: float   # the whole call
    op_s: float     # the operation: the episode's wallclock, or the iteration
    key: str        # the policy id, or "iteration"
    digest: str     # of the operation's output
    problem: str | None = None  # why the output check failed
    matches_reference: bool | None = None


# -- workloads ----------------------------------------------------------------------
#
# A workload draws its inputs from a fixed population of ``n_cases`` cases;
# case k is built from k alone, and reference.json holds the seed code's
# output digests for every case. A run with workload seed s runs cases
# (s * stride + r) % n_cases for r = 0, 1, ..., one per round, so its time
# averages over as many independent inputs as fit in the run. ``stride`` is
# about the number of rounds a run completes, so that neighbouring seeds get
# different cases.


class EvalWorkload:
    """``cmd_eval`` of one classical policy on one sized dataset and env seed
    per case; the policy rotates with the case number, so every run holds an
    even mix of the four."""

    name = "eval_classical"
    trains = False
    episodes_per_op = 1
    n_cases, stride = 512, 110

    def prepare(self, workdir: str, case: int) -> dict:
        ds = sized_dataset(1.0, 300, 600, seed=case)
        path = os.path.join(workdir, f"case{case}.jsonl")
        scenario.save(ds, path)
        policy = harness.parse_policy_id(CLASSICAL_POLICIES[case % len(CLASSICAL_POLICIES)])
        plan = harness.EvalPlan(policies=[policy], dataset_paths=[path], seeds=[case],
                                reward_mode="TDI")
        return {"plan": plan, "out_csv": os.path.join(workdir, "eval.csv")}

    def run_round(self, ctx: dict) -> Round:
        t0 = time.perf_counter()
        rows = harness.cmd_eval(ctx["plan"], ctx["out_csv"])
        wall = time.perf_counter() - t0
        with open(ctx["out_csv"], newline="") as fh:
            table = list(csv.reader(fh))
        wall_col = table[0].index("wallclock")
        (line,) = [r[:wall_col] + r[wall_col + 1:] for r in table[1:] if r[0] == "run"]
        (row,) = [r for r in rows if r["kind"] == "run"]
        rnd = Round(wall_s=wall, op_s=row["wallclock"], key=row["policy"],
                    digest=row_digest(line))
        closed = row["completed_orders"] + row["cancelled_orders"]
        if closed != row["appeared_orders"]:
            rnd.problem = (f"{row['appeared_orders']} orders appeared but "
                           f"{closed} completed or cancelled")
        return rnd


class TrainWorkload:
    """One ``train`` iteration per case, from the initial parameters."""

    name = "train_ppo"
    trains = True
    episodes_per_op = train_config(0).episodes_per_iter
    n_cases, stride = 48, 10

    def prepare(self, workdir: str, case: int) -> dict:
        paths = []
        for i in range(TRAIN_DATASETS):
            ds = sized_dataset(0.1, 33, 100, seed=case * TRAIN_DATASETS + i, config=TRAIN_EPISODE)
            paths.append(os.path.join(workdir, f"case{case}_{i}.jsonl"))
            scenario.save(ds, paths[-1])
        return {"datasets": [scenario.load(p) for p in paths], "cfg": train_config(case),
                "out_dir": os.path.join(workdir, "train_run")}

    def run_round(self, ctx: dict) -> Round:
        shutil.rmtree(ctx["out_dir"], ignore_errors=True)
        seen: list[tuple[dict, dict]] = []
        t0 = time.perf_counter()
        result = trainer.train(ctx["cfg"], ctx["datasets"], out_dir=ctx["out_dir"],
                               reward_mode="TDI", progress=lambda row, diag: seen.append((row, diag)))
        wall = time.perf_counter() - t0
        rnd = Round(wall_s=wall, op_s=wall, key="iteration",
                    digest=params_digest(result.params))
        if len(seen) != 1:
            rnd.problem = f"expected one iteration, saw {len(seen)}"
        else:
            row, diag = seen[0]
            losses = (diag.get("policy_loss"), diag.get("critic_loss"))
            if row["mean_reward"] != row["metric"]:
                rnd.problem = (f"mean_reward {row['mean_reward']!r} != ledger income "
                               f"{row['metric']!r}")
            elif not all(isinstance(x, float) and math.isfinite(x) for x in losses):
                rnd.problem = f"non-finite losses {losses}"
        return rnd


WORKLOADS = {w.name: w for w in (EvalWorkload(), TrainWorkload())}
