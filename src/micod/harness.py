"""Experiment orchestration: policy registry, episode runner, multi-seed
evaluation with CSV emission, and report rendering.

Policy ids accepted everywhere: ``greedy``, ``km``, ``gs``,
``fixed_delay(k)``, ``d2sn(checkpoint)``, ``d2sn_h-(checkpoint)``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import matching, scenario
from .d2sn import D2snConfig, D2snParams, load_checkpoint, sample_action
from .env import DispatchEnv, OuterState, global_info_dim
from .scenario import Dataset, ScenarioSpec
from .simulator import MetricsReport


class UsageError(ValueError):
    """Bad flags, ids or config values."""


class DataError(ValueError):
    """Missing or malformed input artifacts."""


RESULT_COLUMNS = [
    "kind", "policy", "level", "capacity_bin", "dataset", "seed",
    "cr", "apd", "tdi",
    "hold_apd_ratio", "hold_o_ratio", "hold_tdi_ratio", "hold_d_ratio",
    "order_sr", "driver_sr", "wallclock",
]

_POLICY_RE = re.compile(r"^(greedy|km|gs)$|^fixed_delay\((\d+)\)$"
                        r"|^(d2sn|d2sn_h-)\((.+)\)$")


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    delay: int | None = None
    checkpoint: str | None = None

    @property
    def id(self) -> str:
        if self.kind == "fixed_delay":
            return f"fixed_delay({self.delay})"
        if self.kind in ("d2sn", "d2sn_h-"):
            return f"{self.kind}({self.checkpoint})"
        return self.kind


def parse_policy_id(text: str) -> PolicySpec:
    m = _POLICY_RE.match(text.strip())
    if not m:
        raise UsageError(f"unknown policy id {text!r}; expected greedy, km, gs, "
                         f"fixed_delay(k), d2sn(ckpt) or d2sn_h-(ckpt)")
    if m.group(1):
        return PolicySpec(kind=m.group(1))
    if m.group(2):
        delay = int(m.group(2))
        if delay < 1:
            raise UsageError("fixed_delay(k) requires k >= 1")
        return PolicySpec(kind="fixed_delay", delay=delay)
    return PolicySpec(kind=m.group(3), checkpoint=m.group(4))


@dataclass
class EvalPlan:
    policies: list[PolicySpec]
    dataset_paths: list[str]
    seeds: list[int] = field(default_factory=lambda: list(range(30)))
    reward_mode: str = "TDI"

    def __post_init__(self):
        if self.reward_mode not in ("APD", "TDI"):
            raise UsageError(f"reward mode must be APD or TDI, got {self.reward_mode!r}")
        if not self.policies:
            raise UsageError("evaluation plan needs at least one policy")
        if not self.dataset_paths:
            raise UsageError("evaluation plan needs at least one dataset")
        if not self.seeds:
            raise UsageError("evaluation plan needs at least one seed")
        if min(self.seeds) < 0:
            raise UsageError(f"seeds must be non-negative, got {min(self.seeds)}")


class OneShotPolicy:
    """greedy / km / gs run on every batch's pool, holding nothing;
    unmatched rows are one-to-one leftovers, not deliberate deferrals."""

    def __init__(self, solver: str, reward_mode: str):
        self.solver = solver
        self.reward_mode = reward_mode

    def reset(self, total_batches: int, seed: int = 0) -> None:
        pass

    def act(self, state: OuterState) -> tuple[list[int], list[int]]:
        return matching.solve_pool(state, self.reward_mode, self.solver), []


class D2snPolicy:
    """Sampled rollout of a trained network; the hold-disabled flavor pins
    every hold decision to continue."""

    def __init__(self, params: D2snParams, force_exhaustive: bool = False):
        self.params = params
        self.force_exhaustive = force_exhaustive
        self._rng = np.random.default_rng(0)

    def reset(self, total_batches: int, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def act(self, state: OuterState) -> tuple[list[int], list[int]]:
        action = sample_action(state, self.params, self._rng,
                               force_exhaustive=self.force_exhaustive)
        return action.selected, action.held


def make_policy(spec: PolicySpec, reward_mode: str):
    """One policy instance for every episode of ``spec``: :func:`run_episode`
    resets its per-episode state. Checkpoints load (and fail) here, before
    any episode runs, and so does the KM solver's scipy, outside every
    episode's wallclock."""
    if spec.kind in ("km", "fixed_delay"):
        import scipy.optimize  # noqa: F401
    if spec.kind in ("greedy", "km", "gs"):
        return OneShotPolicy(spec.kind, reward_mode)
    if spec.kind == "fixed_delay":
        return matching.FixedDelayPolicy(spec.delay, reward_mode)
    if spec.kind in ("d2sn", "d2sn_h-"):
        if not spec.checkpoint or not os.path.exists(spec.checkpoint):
            raise DataError(f"checkpoint not found: {spec.checkpoint}")
        params, _ = load_checkpoint(spec.checkpoint)
        return D2snPolicy(params, force_exhaustive=(spec.kind == "d2sn_h-"))
    raise UsageError(f"unhandled policy kind {spec.kind!r}")


def run_episode(dataset: Dataset, policy, seed: int,
                reward_mode: str) -> tuple[MetricsReport, float]:
    """One full episode; returns the metric report and the reward sum."""
    env = DispatchEnv(dataset, reward_mode=reward_mode, seed=seed)
    state = env.reset()
    policy.reset(dataset.config.n_batches, seed=seed)
    total = 0.0
    done = False
    while not done:
        selected, held = policy.act(state)
        reward, state, done = env.finalize_batch(selected, held)
        total += reward
    return env.metrics(), total


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def check_network_fits(net: D2snConfig, source: str,
                       datasets: list[tuple[str, Dataset]]) -> None:
    """Raise :class:`DataError` naming ``source`` and the dataset unless a
    network of shape ``net`` reads every dataset's global info (every network
    reads the pair features)."""
    for path, ds in datasets:
        g_dim = global_info_dim(ds.config)
        if net.g_dim != g_dim:
            raise DataError(f"{source} does not fit dataset {path}: network g_dim={net.g_dim}; "
                            f"dataset needs g_dim={g_dim}")


def cmd_eval(plan: EvalPlan, out_csv: str) -> list[dict]:
    """Run every (policy, dataset, seed) episode; per-run rows first, then a
    mean and std aggregate block per policy and taxonomy cell."""
    out_dir = os.path.dirname(out_csv) or "."
    if not os.path.isdir(out_dir):
        raise DataError(f"output directory not found: {out_dir} (for {out_csv})")
    if os.path.isdir(out_csv):
        raise DataError(f"output path is a directory: {out_csv}")
    policies = [(spec, make_policy(spec, plan.reward_mode)) for spec in plan.policies]

    datasets: list[tuple[str, Dataset, str, str]] = []
    for path in plan.dataset_paths:
        if not os.path.exists(path):
            raise DataError(f"dataset not found: {path}")
        ds = scenario.load(path)
        cell = scenario.classify(ds)
        level, cap = (cell if cell else ("NA", "NA"))
        datasets.append((path, ds, str(level), str(cap)))

    # A network that does not fit a dataset fails here, before any episode.
    for spec, policy in policies:
        if isinstance(policy, D2snPolicy):
            check_network_fits(policy.params.config, f"checkpoint {spec.checkpoint}",
                               [(path, ds) for path, ds, _, _ in datasets])

    rows = []
    for spec, policy in policies:
        for path, ds, level, cap in datasets:
            for seed in plan.seeds:
                t0 = time.monotonic()
                report, _ = run_episode(ds, policy, seed, plan.reward_mode)
                wall = time.monotonic() - t0
                rows.append({"kind": "run", "policy": spec.id, "level": level,
                             "capacity_bin": cap, "dataset": os.path.basename(path),
                             "seed": seed, **report.to_flat_dict(),
                             "wallclock": wall})

    rows.extend(_aggregate_rows(rows))
    _write_rows(out_csv, rows)
    return rows


_METRIC_COLS = ["cr", "apd", "tdi", "hold_apd_ratio", "hold_o_ratio",
                "hold_tdi_ratio", "hold_d_ratio", "order_sr", "driver_sr"]


def _aggregate_rows(run_rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in run_rows:
        groups.setdefault((row["policy"], row["level"], row["capacity_bin"]), []).append(row)
    out = []
    for (policy, level, cap) in sorted(groups):
        rows = groups[(policy, level, cap)]
        for stat in ("mean", "std"):
            agg = {"kind": stat, "policy": policy, "level": level, "capacity_bin": cap,
                   "dataset": "", "seed": "", "wallclock": ""}
            for col in _METRIC_COLS:
                vals = [r[col] for r in rows if r[col] is not None]
                if not vals:
                    agg[col] = None
                elif stat == "mean":
                    agg[col] = float(np.mean(vals))
                else:
                    agg[col] = float(np.std(vals))
            out.append(agg)
    return out


def _write_rows(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in RESULT_COLUMNS])


def read_results_csv(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise DataError(f"results file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        missing = [c for c in RESULT_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"results file {path} is missing columns: {missing}")
        return list(reader)


def cmd_report(results_csv: str, out_path: str | None = None) -> str:
    """Render per-cell comparison tables (task metric over CR) and the
    hold-behavior table from an evaluation CSV. When ``out_path`` is given the
    human-readable table goes there and a machine-readable aggregate CSV is
    written next to it with suffix ``.agg.csv``."""
    runs = runs_with_floats(results_csv, read_results_csv(results_csv))
    cell_stats = _aggregate_rows(runs)
    buf = io.StringIO()
    if not runs:
        buf.write("warning: no run rows found; empty report\n")
    else:
        for level, cap in sorted({(r["level"], r["capacity_bin"]) for r in runs}):
            buf.write(f"== cell level={level} capacity<={cap} ==\n")
            buf.write(f"{'policy':<28} {'tdi (mean+/-std)':<24} {'apd':<24} {'cr':<20}\n")
            for mean, std in zip(cell_stats[::2], cell_stats[1::2]):  # mean then std per group
                if (mean["level"], mean["capacity_bin"]) == (level, cap):
                    buf.write(f"{mean['policy']:<28} {_mstd(mean, std, 'tdi'):<24} "
                              f"{_mstd(mean, std, 'apd'):<24} {_mstd(mean, std, 'cr'):<20}\n")
            buf.write("\n")
        buf.write("== hold behavior (means over all runs per policy) ==\n")
        buf.write(f"{'policy':<28} {'hold_apd':<12} {'hold_o':<12} {'hold_tdi':<12} "
                  f"{'hold_d':<12} {'order_sr':<12} {'driver_sr':<12}\n")
        policy_stats = _aggregate_rows([{**r, "level": "", "capacity_bin": ""} for r in runs])
        for mean in policy_stats[::2]:
            vals = ["-" if mean[c] is None else f"{mean[c]:.4g}"
                    for c in ("hold_apd_ratio", "hold_o_ratio", "hold_tdi_ratio",
                              "hold_d_ratio", "order_sr", "driver_sr")]
            buf.write(f"{mean['policy']:<28} " + " ".join(f"{v:<12}" for v in vals) + "\n")
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        agg_path = out_path + ".agg.csv"
        with open(agg_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "level", "capacity_bin", "stat"] + _METRIC_COLS)
            for row in cell_stats:
                writer.writerow([row["policy"], row["level"], row["capacity_bin"],
                                 row["kind"]] + [_fmt(row[c]) for c in _METRIC_COLS])
    return text


def runs_with_floats(path: str, rows: list[dict]) -> list[dict]:
    """The run rows among the rows read from the results CSV ``path``, typed
    for aggregation. A metric cell that is not a number raises
    :class:`DataError` naming the file, its line and the column."""
    typed = []
    for line, r in enumerate(rows, start=2):  # line 1 is the header
        if r["kind"] != "run":
            continue
        row = dict(r)
        for col in _METRIC_COLS:
            try:
                row[col] = float(r[col]) if r[col] not in ("", None) else None
            except ValueError:
                raise DataError(f"{path}:{line}: column {col} is not a number: "
                                f"{r[col]!r}") from None
        typed.append(row)
    return typed


def _mstd(mean: dict, std: dict, col: str) -> str:
    """``col`` of one aggregate mean row and its std row, as mean+/-std."""
    if mean[col] is None:
        return "-"
    return f"{mean[col]:.4g}+/-{std[col]:.2g}"


def cmd_generate(level: str, capacity_bin: int, count: int, scale: float,
                 seed: int, out_dir: str) -> list[str]:
    """Write ``count`` datasets plus a manifest; returns the file paths."""
    if count < 1:
        raise UsageError("count must be >= 1")
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    manifest_lines = []
    for i in range(count):
        spec = ScenarioSpec(level=level, capacity_bin=capacity_bin,
                            seed=seed + i, scale_factor=scale)
        ds = scenario.generate(spec)
        name = f"{level}_{capacity_bin}_s{seed + i}.jsonl"
        path = os.path.join(out_dir, name)
        scenario.save(ds, path)
        paths.append(path)
        cell = scenario.classify(ds)
        manifest_lines.append({
            "file": name, "level": level, "capacity_bin": capacity_bin,
            "seed": seed + i, "scale_factor": scale,
            "drivers": len(ds.drivers), "orders": len(ds.orders),
            "realized_ratio": ds.ds_ratio(),
            "classified": list(cell) if cell else None,
        })
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest_lines, fh, indent=2)
        fh.write("\n")
    return paths
