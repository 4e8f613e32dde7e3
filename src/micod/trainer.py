"""Clipped-objective policy optimization over the two-layer environment.

Credit assignment follows the batch structure: every sub-action in a batch
shares that batch's reward and advantage, and the policy ratio multiplies the
sub-step probabilities via teacher-forced replay. The critic regresses on
advantage-plus-value targets with its own parameters and optimizer state.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, to_float
from .d2sn import (ActionRecord, D2snConfig, D2snParams, as_tensors, critic_value,
                   init_params, load_checkpoint, log_prob, sample_action,
                   save_checkpoint)
from .env import DispatchEnv, OuterState


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
    normalize_adv: bool = True
    critic_target: str = "current"  # or "next_state" (literal published form)
    update_sample_size: int | None = None  # cap on replays per epoch
    force_exhaustive: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.lam <= 1.0:
            raise ValueError("gamma and lam must be in [0, 1]")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be positive")
        for name in ("epochs", "minibatch_size", "episodes_per_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.critic_target not in ("current", "next_state"):
            raise ValueError("critic_target must be 'current' or 'next_state'")


@dataclass
class StepRecord:
    state: OuterState
    action: ActionRecord
    reward: float
    value: float
    logp_old: float


@dataclass
class Trajectory:
    steps: list[StepRecord]
    episode_reward: float
    metrics: object | None = None

    def __len__(self):
        return len(self.steps)


def collect_rollouts(env_factory, params: D2snParams, n_episodes: int,
                     rng: np.random.Generator,
                     force_exhaustive: bool = False) -> list[Trajectory]:
    """Roll episodes under the current parameters. Inner sub-transitions carry
    no reward of their own; one record per batch stores the shared reward, the
    sampled action and its total log-probability."""
    out: list[Trajectory] = []
    for _ in range(n_episodes):
        env_seed = int(rng.integers(0, 2**31 - 1))
        sample_seed = int(rng.integers(0, 2**31 - 1))
        env = env_factory(env_seed)
        ep_rng = np.random.default_rng(sample_seed)
        state = env.reset()
        steps: list[StepRecord] = []
        total = 0.0
        done = False
        while not done:
            action = sample_action(state, params, ep_rng, force_exhaustive=force_exhaustive)
            value = to_float(critic_value(state, params))
            reward, nxt, done = env.finalize_batch(action.selected, action.held, state=state)
            steps.append(StepRecord(state=state, action=action, reward=reward,
                                    value=value, logp_old=action.logp))
            total += reward
            state = nxt
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
    """Pessimistic clipped surrogate for one transition (dual-mode)."""
    unclipped = ratio * advantage
    lo, hi = 1.0 - eps, 1.0 + eps
    r = to_float(ratio)
    if r < lo:
        clipped = lo * advantage
    elif r > hi:
        clipped = hi * advantage
    else:
        clipped = ratio * advantage
    if to_float(unclipped) <= to_float(clipped):
        return unclipped
    return clipped


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


def _clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for n in grads:
            grads[n] = grads[n] * scale
    return total


# Diagnostics of an update phase that replays nothing (no transitions, or
# ``lr == 0``), in the column order curves.csv writes them.
IDLE_DIAGNOSTICS = {"policy_loss": 0.0, "critic_loss": 0.0, "entropy": 0.0,
                    "mean_ratio": 1.0, "clip_fraction": 0.0, "approx_kl": 0.0}


def ppo_update(trajectories: list[Trajectory], params: D2snParams, cfg: TrainConfig,
               actor_opt: AdamState, critic_opt: AdamState,
               rng: np.random.Generator) -> dict:
    """One optimization phase over freshly collected trajectories. Mutates
    ``params`` in place and returns diagnostics: the transition count, the
    losses of the last minibatch, and over every replay the mean entropy,
    the mean and clipped share of the policy ratio, and ``approx_kl``, the
    mean of -log(ratio)."""
    flat: list[tuple[StepRecord, float, float]] = []  # (record, advantage, target)
    for traj in trajectories:
        rewards = [s.reward for s in traj.steps]
        values = [s.value for s in traj.steps]
        adv, targets = compute_gae(rewards, values, cfg.gamma, cfg.lam)
        if cfg.critic_target == "next_state":
            next_vals = np.array(values[1:] + [0.0])
            targets = adv + next_vals
        for rec, a, tgt in zip(traj.steps, adv, targets):
            flat.append((rec, float(a), float(tgt)))
    if not flat:
        return {"transitions": 0, **IDLE_DIAGNOSTICS}

    if cfg.normalize_adv:
        a = np.array([x[1] for x in flat])
        mu, sd = a.mean(), a.std()
        flat = [(rec, (adv - mu) / (sd + 1e-8), tgt) for (rec, adv, tgt) in flat]

    actor_names = params.actor_names()
    critic_names = params.critic_names()
    ratios: list[float] = []
    log_ratios: list[float] = []
    entropies: list[float] = []
    last = {"policy_loss": float("nan"), "critic_loss": float("nan")}

    for _ in range(cfg.epochs):
        pool = flat
        if cfg.update_sample_size is not None and cfg.update_sample_size < len(flat):
            idx = rng.choice(len(flat), size=cfg.update_sample_size, replace=False)
            pool = [flat[int(i)] for i in idx]
        order = rng.permutation(len(pool))
        for start in range(0, len(pool), cfg.minibatch_size):
            batch = [pool[int(i)] for i in order[start:start + cfg.minibatch_size]]
            tensors = as_tensors(params)

            policy_terms = []
            entropy_terms = []
            critic_terms = []
            for rec, adv, tgt in batch:
                lp, _, ent = log_prob(rec.state, rec.action, tensors,
                                      config=params.config, want_entropy=True)
                if isinstance(lp, Tensor):
                    ratio = (lp - rec.logp_old).exp()
                else:
                    ratio = math.exp(lp - rec.logp_old)
                ratios.append(to_float(ratio))
                log_ratios.append(to_float(lp) - rec.logp_old)
                policy_terms.append(clipped_objective(ratio, adv, cfg.clip_eps))
                entropy_terms.append(ent)
                entropies.append(to_float(ent))
                v = critic_value(rec.state, tensors, config=params.config)
                critic_terms.append((v - tgt) * (v - tgt))

            inv = 1.0 / len(batch)
            policy_loss = -sum_terms(policy_terms) * inv
            entropy_mean = sum_terms(entropy_terms) * inv
            critic_loss = sum_terms(critic_terms) * inv
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
            if not isinstance(total, Tensor):
                continue  # nothing differentiable in this batch
            total.backward()

            a_grads = {n: tensors[n].grad for n in actor_names if tensors[n].grad is not None}
            c_grads = {n: tensors[n].grad for n in critic_names if tensors[n].grad is not None}
            _clip_grads(a_grads, cfg.grad_clip)
            _clip_grads(c_grads, cfg.grad_clip)
            actor_opt.step(params.tensors, a_grads, cfg.lr)
            critic_opt.step(params.tensors, c_grads, cfg.lr)

    ratios_arr = np.array(ratios) if ratios else np.array([1.0])
    eps = cfg.clip_eps
    return {
        "transitions": len(flat),
        "mean_ratio": float(ratios_arr.mean()),
        "clip_fraction": float(((ratios_arr < 1 - eps) | (ratios_arr > 1 + eps)).mean()),
        "policy_loss": last["policy_loss"],
        "critic_loss": last["critic_loss"],
        "entropy": float(np.mean(entropies)) if entropies else 0.0,
        "approx_kl": -float(np.mean(log_ratios)) if log_ratios else 0.0,
    }


def sum_terms(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


@dataclass
class TrainResult:
    params: D2snParams
    curves: list[dict]
    checkpoint_path: str | None = None


def make_adam(params: D2snParams, names: list[str]) -> AdamState:
    return AdamState(names, [params.tensors[n].shape for n in names])


def train(cfg: TrainConfig, datasets, out_dir: str | None = None,
          reward_mode: str | None = None, net_config: D2snConfig | None = None,
          params: D2snParams | None = None, resume: bool = False,
          progress=None, eval_hook=None) -> TrainResult:
    """Iterate collect -> advantage estimation -> update, snapshotting a
    resumable checkpoint and a learning-curve row per iteration. A row holds
    the iteration's outcome, the update diagnostics (``IDLE_DIAGNOSTICS``
    when ``lr == 0``) and the seconds spent in rollout, update and
    checkpoint.

    ``eval_hook(iteration, params) -> bool`` may stop training early.
    """
    from .env import global_info_dim

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

    if params is None:
        params = init_params(net_config, seed=cfg.seed)
    actor_opt = make_adam(params, params.actor_names())
    critic_opt = make_adam(params, params.critic_names())

    if resume and latest and os.path.exists(latest):
        loaded, extra = load_checkpoint(latest)
        opt_state = {n: t for n, t in loaded.tensors.items() if n.startswith("opt_")}
        params = D2snParams(loaded.config,
                            {n: t for n, t in loaded.tensors.items() if not n.startswith("opt_")})
        for n in params.actor_names():
            if "opt_m_" + n in opt_state:
                actor_opt.m[n] = opt_state["opt_m_" + n]
                actor_opt.v[n] = opt_state["opt_v_" + n]
        for n in params.critic_names():
            if "opt_m_" + n in opt_state:
                critic_opt.m[n] = opt_state["opt_m_" + n]
                critic_opt.v[n] = opt_state["opt_v_" + n]
        actor_opt.t = int(extra.get("actor_opt_t", 0))
        critic_opt.t = int(extra.get("critic_opt_t", 0))
        start_iter = int(extra.get("iteration", 0))
        episode_counter = int(extra.get("episodes", 0))
        wallclock_before = float(extra.get("wallclock", 0.0))
        if "rng_state" in extra:
            rng.bit_generator.state = extra["rng_state"]

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    t0 = time.monotonic()
    for it in range(start_iter, cfg.iterations):
        def factory(seed: int, _ds=datasets):
            return DispatchEnv(_ds[seed % len(_ds)], reward_mode=mode, seed=seed)

        t_rollout = time.monotonic()
        trajectories = collect_rollouts(factory, params, cfg.episodes_per_iter, rng,
                                        force_exhaustive=cfg.force_exhaustive)
        episode_counter += len(trajectories)
        t_update = time.monotonic()
        if cfg.lr != 0.0:
            diag = ppo_update(trajectories, params, cfg, actor_opt, critic_opt, rng)
        else:
            diag = {"transitions": sum(len(t) for t in trajectories), **IDLE_DIAGNOSTICS}
        t_done = time.monotonic()

        mean_reward = float(np.mean([t.episode_reward for t in trajectories]))
        crs = [t.metrics.cr for t in trajectories if t.metrics is not None]
        metric_vals = [t.metrics.tdi if mode == "TDI" else (t.metrics.apd or 0.0)
                       for t in trajectories if t.metrics is not None]
        row = {
            "iteration": it + 1,
            "episodes": episode_counter,
            "mean_reward": mean_reward,
            "cr": float(np.mean(crs)) if crs else 0.0,
            "metric": float(np.mean(metric_vals)) if metric_vals else 0.0,
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
            for n in params.actor_names():
                snap.tensors["opt_m_" + n] = actor_opt.m[n]
                snap.tensors["opt_v_" + n] = actor_opt.v[n]
            for n in params.critic_names():
                snap.tensors["opt_m_" + n] = critic_opt.m[n]
                snap.tensors["opt_v_" + n] = critic_opt.v[n]
            save_checkpoint(snap, latest, extra={
                "iteration": it + 1,
                "episodes": episode_counter,
                "wallclock": row["wallclock"],
                "actor_opt_t": actor_opt.t,
                "critic_opt_t": critic_opt.t,
                "rng_state": rng.bit_generator.state,
            })
            row["checkpoint_s"] = time.monotonic() - t_checkpoint
            _append_curve(os.path.join(out_dir, "curves.csv"), row)
        if progress:
            progress(row, diag)
        if eval_hook is not None and eval_hook(it + 1, params):
            break

    final_path = None
    if out_dir:
        final_path = os.path.join(out_dir, "final.ckpt")
        save_checkpoint(params, final_path, extra={"iterations": cfg.iterations})
    return TrainResult(params=params, curves=curves, checkpoint_path=final_path)


def _append_curve(path: str, row: dict) -> None:
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row.keys()))
        if not exists:
            writer.writeheader()
        writer.writerow(row)
