"""Clipped-objective policy optimization over the two-layer environment.

Credit assignment follows the batch structure: every sub-action in a batch
shares that batch's reward and advantage, and the policy ratio multiplies the
sub-step probabilities via teacher-forced replay. The critic regresses on
advantage-plus-value targets with its own parameters; one Adam optimizer
steps both networks, each with its own gradient clipping.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import asum, detach, exp, to_float, where
from .d2sn import (ActionRecord, CheckpointError, D2snConfig, D2snParams, as_tensors,
                   critic_values, init_params, load_checkpoint, replay, sample_action,
                   save_checkpoint)
# One-state forms of the network, also reachable here: tools that wrap the
# package's layers by name (perfbench/tracing.py) look them up on this module.
from .d2sn import critic_value, log_prob  # noqa: F401
from .env import DispatchEnv, OuterState, global_info_dim


class TrainerError(RuntimeError):
    """Training aborted; carries the diagnostics that tripped it."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class TrainConfig:
    gamma: float = 0.99
    lam: float = 0.95
    clip_eps: float = 0.2
    # 3e-4 is the stable desk-scale default; 2e-3 mirrors the larger
    # production-size configuration.
    lr: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 64
    iterations: int = 10
    episodes_per_iter: int = 8
    entropy_coef: float = 0.01
    grad_clip: float = 0.5
    update_sample_size: int | None = None  # cap on replays per epoch
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.lam <= 1.0:
            raise ValueError("gamma and lam must be in [0, 1]")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be positive")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.update_sample_size is not None and self.update_sample_size < 1:
            raise ValueError(f"update_sample_size must be >= 1, got {self.update_sample_size}")
        for name in ("iterations", "epochs", "minibatch_size", "episodes_per_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class StepRecord:
    state: OuterState
    action: ActionRecord
    reward: float
    value: float


@dataclass
class Trajectory:
    steps: list[StepRecord]
    episode_reward: float
    metrics: object | None = None

    def __len__(self):
        return len(self.steps)


def collect_rollouts(env_factory, params: D2snParams, n_episodes: int,
                     rng: np.random.Generator) -> list[Trajectory]:
    """Roll episodes under the current parameters. Inner sub-transitions carry
    no reward of their own; one record per batch stores the shared reward, the
    sampled action and its total log-probability. The critic values every
    batch of an episode in one call once the episode ends."""
    out: list[Trajectory] = []
    for _ in range(n_episodes):
        env_seed = int(rng.integers(0, 2**31 - 1))
        sample_seed = int(rng.integers(0, 2**31 - 1))
        env = env_factory(env_seed)
        ep_rng = np.random.default_rng(sample_seed)
        state = env.reset()
        visited: list[tuple[OuterState, ActionRecord, float]] = []
        total = 0.0
        done = False
        while not done:
            action = sample_action(state, params, ep_rng)
            reward, nxt, done = env.finalize_batch(action.selected, action.held)
            visited.append((state, action, reward))
            total += reward
            state = nxt
        values = critic_values([s for s, _, _ in visited], params).tolist()
        steps = [StepRecord(state=s, action=a, reward=r, value=v)
                 for (s, a, r), v in zip(visited, values)]
        out.append(Trajectory(steps=steps, episode_reward=total, metrics=env.metrics()))
    return out


def compute_gae(rewards, values, gamma: float, lam: float):
    """Reverse-scan advantage estimation with terminal bootstrap 0; value
    targets are advantage + value."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ValueError(f"rewards/values length mismatch: {rewards.shape} vs {values.shape}")
    T = len(rewards)
    adv = np.zeros(T)
    running = 0.0
    for t in range(T - 1, -1, -1):
        v_next = values[t + 1] if t + 1 < T else 0.0
        delta = rewards[t] + gamma * v_next - values[t]
        running = delta + gamma * lam * running
        adv[t] = running
    return adv, adv + values


def clipped_objective(ratio, advantage, eps: float):
    """Pessimistic clipped surrogate per transition (dual-mode, elementwise):
    ``ratio * advantage``, or the clipped ratio's constant ``clip(ratio) *
    advantage`` where that is lower."""
    unclipped = ratio * advantage
    clipped = np.clip(detach(ratio), 1.0 - eps, 1.0 + eps) * advantage
    return where(detach(unclipped) <= clipped, unclipped, clipped)


class AdamState:
    """Per-tensor first/second moment accumulators."""

    def __init__(self, names, shapes, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros(s) for n, s in zip(names, shapes)}
        self.v = {n: np.zeros(s) for n, s in zip(names, shapes)}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for n, g in grads.items():
            self.m[n] = self.beta1 * self.m[n] + (1 - self.beta1) * g
            self.v[n] = self.beta2 * self.v[n] + (1 - self.beta2) * g * g
            tensors[n] -= lr * (self.m[n] / b1c) / (np.sqrt(self.v[n] / b2c) + self.eps)


def _clipped_grads(leaves: dict, names: list[str], max_norm: float) -> dict[str, np.ndarray]:
    """The gradients of the leaves ``names`` that got one, scaled together to
    a total norm of at most ``max_norm`` when that is positive."""
    grads = {n: leaves[n].grad for n in names if leaves[n].grad is not None}
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        grads = {n: g * scale for n, g in grads.items()}
    return grads


# Diagnostics of an update phase that replays nothing (no transitions, or
# ``lr == 0``), in the column order curves.csv writes them.
IDLE_DIAGNOSTICS = {"policy_loss": 0.0, "critic_loss": 0.0, "entropy": 0.0,
                    "mean_ratio": 1.0, "clip_fraction": 0.0, "approx_kl": 0.0}


def ppo_update(trajectories: list[Trajectory], params: D2snParams, cfg: TrainConfig,
               opt: AdamState, rng: np.random.Generator) -> dict:
    """One optimization phase over freshly collected trajectories. Mutates
    ``params`` in place and returns diagnostics: the transition count, the
    losses of the last minibatch, and over every replay the mean entropy,
    the mean and clipped share of the policy ratio, and ``approx_kl``, the
    mean of -log(ratio)."""
    records = [rec for traj in trajectories for rec in traj.steps]
    if not records:
        return {"transitions": 0, **IDLE_DIAGNOSTICS}
    gae = [compute_gae([s.reward for s in traj.steps], [s.value for s in traj.steps],
                       cfg.gamma, cfg.lam) for traj in trajectories]
    advantages = np.concatenate([adv for adv, _ in gae])
    targets = np.concatenate([tgt for _, tgt in gae])
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    ratios: list[float] = []
    log_ratios: list[float] = []
    entropies: list[float] = []
    last = {"policy_loss": float("nan"), "critic_loss": float("nan")}

    for _ in range(cfg.epochs):
        pool = np.arange(len(records))
        if cfg.update_sample_size is not None and cfg.update_sample_size < len(records):
            pool = rng.choice(len(records), size=cfg.update_sample_size, replace=False)
        pool = pool[rng.permutation(len(pool))]
        for start in range(0, len(pool), cfg.minibatch_size):
            batch = pool[start:start + cfg.minibatch_size]
            recs = [records[i] for i in batch]
            tensors = as_tensors(params)

            logp, _, ent = replay([(rec.state, rec.action) for rec in recs], tensors)
            log_ratio = logp - np.array([rec.action.logp for rec in recs])
            ratio = exp(log_ratio)
            ratios.extend(detach(ratio).tolist())
            log_ratios.extend(detach(log_ratio).tolist())
            entropies.extend(detach(ent).tolist())
            err = critic_values([rec.state for rec in recs], tensors) - targets[batch]

            inv = 1.0 / len(batch)
            policy_loss = -asum(clipped_objective(ratio, advantages[batch], cfg.clip_eps)) * inv
            entropy_mean = asum(ent) * inv
            critic_loss = asum(err * err) * inv
            total = policy_loss + critic_loss - cfg.entropy_coef * entropy_mean

            if not np.isfinite(to_float(total)):
                raise TrainerError("non-finite loss", {
                    "policy_loss": to_float(policy_loss),
                    "critic_loss": to_float(critic_loss),
                    "entropy": to_float(entropy_mean),
                    "ratios_tail": ratios[-len(batch):],
                })
            last = {"policy_loss": to_float(policy_loss),
                    "critic_loss": to_float(critic_loss)}
            total.backward()

            grads = {}
            for names in (params.actor_names(), params.critic_names()):  # clipped apart
                grads.update(_clipped_grads(tensors.tensors, names, cfg.grad_clip))
            opt.step(params.tensors, grads, cfg.lr)

    ratios_arr = np.array(ratios)
    eps = cfg.clip_eps
    return {
        "transitions": len(records),
        "mean_ratio": float(ratios_arr.mean()),
        "clip_fraction": float(((ratios_arr < 1 - eps) | (ratios_arr > 1 + eps)).mean()),
        "policy_loss": last["policy_loss"],
        "critic_loss": last["critic_loss"],
        "entropy": float(np.mean(entropies)),
        "approx_kl": -float(np.mean(log_ratios)),
    }


@dataclass
class TrainResult:
    params: D2snParams
    curves: list[dict]
    checkpoint_path: str | None = None


def make_adam(params: D2snParams) -> AdamState:
    """One optimizer over every parameter, the actor's first."""
    names = params.actor_names() + params.critic_names()
    return AdamState(names, [params.tensors[n].shape for n in names])


def _load_resume(path: str, rng: np.random.Generator):
    """The parameters, optimizer and ``(iteration, episodes, wallclock)``
    counters of the resume snapshot at ``path``, with ``rng`` set to its
    generator state. A missing or malformed entry raises
    :class:`CheckpointError` naming it."""
    loaded, extra = load_checkpoint(path)
    params = D2snParams(loaded.config,
                        {n: t for n, t in loaded.tensors.items() if not n.startswith("opt_")})
    opt = make_adam(params)
    for n in opt.m:
        for key, moments in (("opt_m_" + n, opt.m), ("opt_v_" + n, opt.v)):
            if key not in loaded.tensors or loaded.tensors[key].shape != moments[n].shape:
                raise CheckpointError(f"{path}: missing or misshapen optimizer tensor {key}")
            moments[n] = loaded.tensors[key]

    def entry(key: str, kinds=(int,)):
        value = extra.get(key)
        if isinstance(value, bool) or not isinstance(value, kinds) or not 0 <= value < math.inf:
            raise CheckpointError(f"{path}: missing or malformed resume entry {key!r}: {value!r}")
        return value

    opt.t = entry("opt_t")
    counters = entry("iteration"), entry("episodes"), float(entry("wallclock", (int, float)))
    try:
        rng.bit_generator.state = extra["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: missing or malformed resume entry 'rng_state': "
                              f"{exc!r}") from exc
    return params, opt, counters


def train(cfg: TrainConfig, datasets, out_dir: str | None = None,
          reward_mode: str | None = None, net_config: D2snConfig | None = None,
          resume: bool = False, progress=None, eval_hook=None) -> TrainResult:
    """Iterate collect -> advantage estimation -> update, snapshotting a
    resumable checkpoint and a learning-curve row per iteration. A row holds
    the iteration's outcome, the update diagnostics (``IDLE_DIAGNOSTICS``
    when ``lr == 0``) and the seconds spent in rollout, update and
    checkpoint. A resumed run appends its rows to ``curves.csv``; any other
    run starts the file anew.

    ``eval_hook(iteration, params) -> bool`` may stop training early.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("train() needs at least one dataset")
    mode = reward_mode or datasets[0].config.reward_mode
    if net_config is None:
        net_config = D2snConfig(g_dim=global_info_dim(datasets[0].config))

    rng = np.random.default_rng(cfg.seed)
    start_iter = 0
    episode_counter = 0
    wallclock_before = 0.0  # seconds spent in earlier runs of a resumed training
    curves: list[dict] = []
    latest = os.path.join(out_dir, "latest.ckpt") if out_dir else None

    resumed = bool(resume and latest and os.path.exists(latest))
    if resumed:
        params, opt, (start_iter, episode_counter, wallclock_before) = _load_resume(latest, rng)
    else:
        params = init_params(net_config, seed=cfg.seed)
        opt = make_adam(params)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    t0 = time.monotonic()
    for it in range(start_iter, cfg.iterations):
        def factory(seed: int, _ds=datasets):
            return DispatchEnv(_ds[seed % len(_ds)], reward_mode=mode, seed=seed)

        t_rollout = time.monotonic()
        trajectories = collect_rollouts(factory, params, cfg.episodes_per_iter, rng)
        episode_counter += len(trajectories)
        t_update = time.monotonic()
        if cfg.lr != 0.0:
            diag = ppo_update(trajectories, params, cfg, opt, rng)
        else:
            diag = {"transitions": sum(len(t) for t in trajectories), **IDLE_DIAGNOSTICS}
        t_done = time.monotonic()

        mean_reward = float(np.mean([t.episode_reward for t in trajectories]))
        metric_vals = [t.metrics.tdi if mode == "TDI" else (t.metrics.apd or 0.0)
                       for t in trajectories]
        row = {
            "iteration": it + 1,
            "episodes": episode_counter,
            "mean_reward": mean_reward,
            "cr": float(np.mean([t.metrics.cr for t in trajectories])),
            "metric": float(np.mean(metric_vals)),
            "wallclock": wallclock_before + time.monotonic() - t0,
            **{k: diag[k] for k in IDLE_DIAGNOSTICS},
            "rollout_s": t_update - t_rollout,
            "update_s": t_done - t_update,
            "checkpoint_s": 0.0,
        }
        curves.append(row)

        if out_dir:
            t_checkpoint = time.monotonic()
            snap = D2snParams(params.config, dict(params.tensors))
            for n in opt.m:
                snap.tensors["opt_m_" + n] = opt.m[n]
                snap.tensors["opt_v_" + n] = opt.v[n]
            save_checkpoint(snap, latest, extra={
                "iteration": it + 1,
                "episodes": episode_counter,
                "wallclock": row["wallclock"],
                "opt_t": opt.t,
                "rng_state": rng.bit_generator.state,
            })
            row["checkpoint_s"] = time.monotonic() - t_checkpoint
            _write_curve(os.path.join(out_dir, "curves.csv"), row, resumed or it > start_iter)
        if progress:
            progress(row, diag)
        if eval_hook is not None and eval_hook(it + 1, params):
            break

    final_path = None
    if out_dir:
        final_path = os.path.join(out_dir, "final.ckpt")
        save_checkpoint(params, final_path)
    return TrainResult(params=params, curves=curves, checkpoint_path=final_path)


def _write_curve(path: str, row: dict, append: bool) -> None:
    """Add ``row`` after the rows of the curve file at ``path`` when
    ``append``, else start the file anew with it; a new file gets the header."""
    new = not (append and os.path.exists(path))
    with open(path, "w" if new else "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row.keys()))
        if new:
            writer.writeheader()
        writer.writerow(row)
