"""Auto-regressive dispatch policy network and its value-independent critic.

The actor handles two axes of variability: a permutation-equivariant encoder
embeds however many candidate pairs the batch offers, and a recurrent
aggregation squeezes the growing sub-state (initial pool plus already-selected
pairs, in order) into one fixed-size context vector. Two heads read that
context: a binary hold head that can end the batch early, and a cross-attention
decision head scoring each remaining pair. A complete batch action is the
sequence of sampled sub-actions; its probability is the product of the
per-sub-step head probabilities.

The critic mirrors the decoder trunk with its own parameters but sees only the
outer state (pool plus global context), never sub-states or actions.

All forward code is written against :mod:`micod.autodiff` dual-mode helpers:
pass raw ndarray parameters for fast sampling, or Tensor parameters to get
exact reverse-mode gradients through the same arithmetic.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import (Tensor, asum, attention, concat, detach, exp, gru_scan,
                       log_softmax_vec, tanh, to_float)
from .env import N_PAIR_FEATURES, IllegalActionError, OuterState, mask_after_selection


@dataclass(frozen=True)
class D2snConfig:
    """Network sizes. Desk-scale defaults keep finite-difference checks and
    CPU training fast; widths are free, so larger production-like models are
    one config away."""

    d_model: int = 32
    n_heads: int = 2
    d_feat: int = N_PAIR_FEATURES
    g_dim: int = 100

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if min(self.d_model, self.n_heads, self.d_feat, self.g_dim) < 1:
            raise ValueError("all dimensions must be positive")


@dataclass
class D2snParams:
    """Named parameter tensors plus the config that shaped them."""

    config: D2snConfig
    tensors: dict[str, np.ndarray]

    @property
    def param_count(self) -> int:
        return sum(int(t.size) for t in self.tensors.values())

    def actor_names(self) -> list[str]:
        return [n for n in self.tensors if not n.startswith("v_")]

    def critic_names(self) -> list[str]:
        return [n for n in self.tensors if n.startswith("v_")]

    def copy(self) -> "D2snParams":
        return D2snParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def init_params(cfg: D2snConfig, seed: int = 0, zero_heads: bool = True) -> D2snParams:
    """Fan-in scaled uniform init; the hold output layer and the decision
    query projection start at zero so the initial policy is uniform.
    ``zero_heads=False`` randomizes those layers too (useful when a test needs
    gradient flow through every parameter)."""
    rng = np.random.default_rng(seed)
    d, f, g = cfg.d_model, cfg.d_feat, cfg.g_dim
    t: dict[str, np.ndarray] = {}

    def w(name: str, rows: int, cols: int, zero: bool = False):
        if zero and zero_heads:
            t[name] = np.zeros((rows, cols))
        else:
            s = 1.0 / math.sqrt(rows)
            t[name] = rng.uniform(-s, s, size=(rows, cols))

    def b(name: str, cols: int):
        t[name] = np.zeros((1, cols))

    def attn_block(prefix: str):
        for nm in ("wq", "wk", "wv", "wo"):
            w(prefix + nm, d, d)
        for nm in ("bq", "bk", "bv", "bo"):
            b(prefix + nm, d)

    def gru_block(prefix: str):
        for nm in ("wz", "wr", "wh"):
            w(prefix + nm, d, d)
        for nm in ("uz", "ur", "uh"):
            w(prefix + nm, d, d)
        for nm in ("bz", "br", "bh"):
            b(prefix + nm, d)

    # actor
    w("emb_w", f, d); b("emb_b", d)
    attn_block("enc_")
    w("enc_w1", d, 2 * d); b("enc_b1", 2 * d)
    w("enc_w2", 2 * d, d); b("enc_b2", d)
    attn_block("dec_")
    gru_block("gru_")
    t["act_null"] = rng.uniform(-1.0 / math.sqrt(d), 1.0 / math.sqrt(d), size=(1, d))
    w("hold_w1", d + g, d); b("hold_b1", d)
    w("hold_w2", d, 2, zero=True); b("hold_b2", 2)
    w("cq_w", d + g, d, zero=True); b("cq_b", d)
    w("ck_w", d, d); b("ck_b", d)

    # critic: same decoder-shaped trunk, independent parameters
    w("v_emb_w", f, d); b("v_emb_b", d)
    attn_block("v_")
    gru_block("v_gru_")
    t["v_null"] = rng.uniform(-1.0 / math.sqrt(d), 1.0 / math.sqrt(d), size=(1, d))
    w("v_w1", d + g, d); b("v_b1", d)
    w("v_w2", d, 1, zero=True); b("v_b2", 1)

    return D2snParams(cfg, t)


def as_tensors(params: D2snParams) -> dict[str, "Tensor"]:
    return {k: Tensor(v) for k, v in params.tensors.items()}


def _P(params) -> dict:
    return params.tensors if isinstance(params, D2snParams) else params


def _cfg_of(params, fallback: D2snConfig | None = None) -> D2snConfig:
    if isinstance(params, D2snParams):
        return params.config
    if fallback is None:
        raise ValueError("raw tensor dicts need an explicit config")
    return fallback


# -- forward pieces -------------------------------------------------------------


def _mha(x, P: dict, prefix: str, n_heads: int):
    q = x @ P[prefix + "wq"] + P[prefix + "bq"]
    k = x @ P[prefix + "wk"] + P[prefix + "bk"]
    v = x @ P[prefix + "wv"] + P[prefix + "bv"]
    return attention(q, k, v, n_heads) @ P[prefix + "wo"] + P[prefix + "bo"]


def _gru_scan(x_rows, P: dict, prefix: str):
    """Consume rows in order from a zero hidden state; returns (1, d)."""
    xz = x_rows @ P[prefix + "wz"] + P[prefix + "bz"]
    xr = x_rows @ P[prefix + "wr"] + P[prefix + "br"]
    xh = x_rows @ P[prefix + "wh"] + P[prefix + "bh"]
    return gru_scan(xz, xr, xh, P[prefix + "uz"], P[prefix + "ur"], P[prefix + "uh"])


def encode(pool_features: np.ndarray, params, config: D2snConfig | None = None):
    """Pool rows -> latent rows, one per input row (permutation-equivariant;
    an empty pool encodes the learned null row instead)."""
    cfg = _cfg_of(params, config)
    P = _P(params)
    if not np.all(np.isfinite(pool_features)):
        raise ValueError("non-finite pool features")
    if pool_features.shape[0] == 0:
        x = P["act_null"]
    else:
        x = pool_features @ P["emb_w"] + P["emb_b"]
    x = x + _mha(x, P, "enc_", cfg.n_heads)
    ffn = tanh(x @ P["enc_w1"] + P["enc_b1"]) @ P["enc_w2"] + P["enc_b2"]
    return x + ffn


def aggregate(substate_features: np.ndarray, params, config: D2snConfig | None = None):
    """Variable-size sub-state rows -> one fixed-size context vector. Rows are
    attended as a set, then consumed in order by the recurrent cell so the
    selection chronology is preserved."""
    cfg = _cfg_of(params, config)
    P = _P(params)
    if substate_features.shape[0] == 0:
        x = P["act_null"]
    else:
        x = substate_features @ P["emb_w"] + P["emb_b"]
    x = _mha(x, P, "dec_", cfg.n_heads)
    return _gru_scan(x, P, "gru_")


def _hold_log_probs(G, global_info: np.ndarray, P: dict):
    inp = concat([G, global_info.reshape(1, -1)], axis=1)
    hid = tanh(inp @ P["hold_w1"] + P["hold_b1"])
    logits = hid @ P["hold_w2"] + P["hold_b2"]
    return log_softmax_vec(logits[0, :])


def hold_head(G, global_info: np.ndarray, params) -> np.ndarray:
    """Binary stop distribution as (p_continue, p_hold)."""
    lp = _hold_log_probs(G, global_info, _P(params))
    return np.exp(detach(lp))


def _decision_logits(R, G, global_info: np.ndarray, P: dict, d_model: int):
    q = concat([G, global_info.reshape(1, -1)], axis=1) @ P["cq_w"] + P["cq_b"]
    k = R @ P["ck_w"] + P["ck_b"]
    return (k @ q.T)[:, 0] / math.sqrt(d_model)


def decision_head(R, G, global_info: np.ndarray, params,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """Probability over pool rows: scaled dot-product between the fixed-size
    query and one key per row; masked rows get exactly zero."""
    cfg_d = detach(_P(params)["ck_w"]).shape[0]
    logits = detach(_decision_logits(R, G, global_info, _P(params), cfg_d))
    n = logits.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    avail = np.flatnonzero(mask)
    if len(avail) == 0:
        raise IllegalActionError("decision head invoked with every row masked")
    z = logits[avail]
    z = z - z.max()
    e = np.exp(z)
    probs = np.zeros(n)
    probs[avail] = e / e.sum()
    return probs


# -- action sampling and replay ----------------------------------------------------


@dataclass
class ActionRecord:
    """A complete batch action: ordered sub-actions plus bookkeeping needed to
    execute it (selected/held pool rows) and to replay its probability."""

    steps: list[tuple[int, int | None]]  # (h, pool row or None)
    selected: list[int]
    held: list[int]
    exhaustive: bool
    logp: float
    step_logps: list[float] = field(default_factory=list)


class _Walk:
    """The inner-layer sub-state machine: walks one batch from the full pool,
    narrowing the available-row mask with :func:`mask_after_selection` after
    each selection until a hold or an empty pool ends it. Sampling and
    teacher-forced replay share this engine, so both paths run the exact same
    arithmetic and enforce the same sub-action rules."""

    def __init__(self, state: OuterState, params, config: D2snConfig | None = None,
                 rng: np.random.Generator | None = None,
                 action: ActionRecord | None = None,
                 force_exhaustive: bool = False,
                 want_entropy: bool = False):
        self.state = state
        self.cfg = _cfg_of(params, config)
        self.P = _P(params)
        self.rng = rng
        self.action = action
        self.force_exhaustive = force_exhaustive if action is None else action.exhaustive
        self.want_entropy = want_entropy
        if state.global_info.shape[0] != self.cfg.g_dim:
            raise ValueError(f"global info dim {state.global_info.shape[0]} != "
                             f"configured {self.cfg.g_dim}")

    def run(self):
        feats = self.state.feature_matrix
        n0 = self.state.n_pairs
        mask = np.ones(n0, dtype=bool)
        selected: list[int] = []
        steps: list[tuple[int, int | None]] = []
        step_logps = []
        entropy = 0.0
        held: list[int] = []
        k = 0
        while True:
            remaining = np.flatnonzero(mask)
            enc_in = feats[remaining] if len(remaining) else feats[:0]
            R = encode(enc_in, self.P, self.cfg)
            sub_rows = np.concatenate([feats, feats[selected]], axis=0) if n0 else feats[:0]
            G = aggregate(sub_rows, self.P, self.cfg)

            lp_hold = _hold_log_probs(G, self.state.global_info, self.P)
            h, lp_h = self._pick_h(lp_hold, k)
            if self.want_entropy and not self.force_exhaustive:
                p = exp(lp_hold)
                entropy = entropy + -asum(p * lp_hold)

            if h == 1:
                steps.append((1, None))
                step_logps.append(lp_h)
                held = [int(i) for i in remaining]
                break
            if len(remaining) == 0:
                if self.action is not None and self.action.steps[k][1] is not None:
                    raise IllegalActionError(f"row {self.action.steps[k][1]} not available "
                                             f"at replay step {k}")
                steps.append((0, None))
                step_logps.append(lp_h)
                break

            logits = _decision_logits(R, G, self.state.global_info, self.P, self.cfg.d_model)
            lp_vec = log_softmax_vec(logits)
            c_local, lp_c = self._pick_c(lp_vec, remaining, k)
            if self.want_entropy:
                p = exp(lp_vec)
                entropy = entropy + -asum(p * lp_vec)
            c_pool = int(remaining[c_local])
            steps.append((0, c_pool))
            step_logps.append(lp_h + lp_c)
            selected.append(c_pool)
            mask = mask_after_selection(self.state, mask, c_pool)
            k += 1

        total = step_logps[0]
        for t in step_logps[1:]:
            total = total + t
        return steps, selected, held, step_logps, total, entropy

    def _pick_h(self, lp_hold, k: int):
        if self.force_exhaustive:
            return 0, 0.0
        if self.action is not None:
            if k >= len(self.action.steps):
                raise IllegalActionError("replay ran past the recorded sub-actions")
            h, c_pool = self.action.steps[k]
            if h == 1 and c_pool is not None:
                raise IllegalActionError("recorded hold step must not carry a selection")
        else:
            p_hold = float(np.exp(detach(lp_hold)[1]))
            h = 1 if self.rng.random() < p_hold else 0
        return h, lp_hold[h]

    def _pick_c(self, lp_vec, remaining: np.ndarray, k: int):
        if self.action is not None:
            c_pool = self.action.steps[k][1]
            if c_pool is None:
                raise IllegalActionError("recorded continue step carries no selection")
            pos = int(np.searchsorted(remaining, c_pool))
            if pos >= len(remaining) or remaining[pos] != c_pool:
                raise IllegalActionError(f"row {c_pool} not available at replay step {k}")
        else:
            probs = np.exp(detach(lp_vec))
            cum = np.cumsum(probs)
            pos = int(np.searchsorted(cum, self.rng.random(), side="right"))
            pos = min(pos, len(remaining) - 1)
        return pos, lp_vec[pos]


def sample_action(state: OuterState, params, rng: np.random.Generator,
                  force_exhaustive: bool = False,
                  config: D2snConfig | None = None) -> ActionRecord:
    """Roll the auto-regressive sub-step loop forward, sampling each head.
    ``force_exhaustive`` pins every hold decision to continue (the
    hold-disabled ablation); selection stops only when the pool drains."""
    steps, selected, held, step_logps, total, _ = _Walk(
        state, params, config, rng=rng, force_exhaustive=force_exhaustive).run()
    return ActionRecord(
        steps=steps, selected=selected, held=held, exhaustive=force_exhaustive,
        logp=to_float(total), step_logps=[to_float(x) for x in step_logps],
    )


def log_prob(state: OuterState, action: ActionRecord, params,
             config: D2snConfig | None = None, want_entropy: bool = False):
    """Teacher-forced replay of a recorded action. With Tensor parameters the
    returned values are differentiable. Returns (total, per-step list) or
    (total, per-step, entropy) when ``want_entropy``."""
    steps, _, _, step_logps, total, entropy = _Walk(
        state, params, config, action=action, want_entropy=want_entropy).run()
    if len(steps) != len(action.steps):
        raise IllegalActionError("replay terminated at a different sub-step count")
    if want_entropy:
        return total, step_logps, entropy
    return total, step_logps


def critic_value(state: OuterState, params, config: D2snConfig | None = None):
    """State value from the critic trunk; sees only (pool, global info)."""
    cfg = _cfg_of(params, config)
    P = _P(params)
    feats = state.feature_matrix
    if feats.shape[0] == 0:
        x = P["v_null"]
    else:
        x = feats @ P["v_emb_w"] + P["v_emb_b"]
    x = _mha(x, P, "v_", cfg.n_heads)
    G = _gru_scan(x, P, "v_gru_")
    inp = concat([G, state.global_info.reshape(1, -1)], axis=1)
    hid = tanh(inp @ P["v_w1"] + P["v_b1"])
    out = hid @ P["v_w2"] + P["v_b2"]
    return out[0, 0]


# -- checkpoint container -----------------------------------------------------------

_MAGIC = b"MICODNET"
_VERSION = 1


def save_checkpoint(params: D2snParams, path, extra: dict | None = None) -> None:
    """Versioned binary container: magic, version, JSON header (config echo,
    parameter count, tensor name order, extras), then each tensor with a shape
    prefix. Byte-identical across save/load/save."""
    names = list(params.tensors.keys())
    header = {
        "config": asdict(params.config),
        "param_count": params.param_count,
        "names": names,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            arr = np.ascontiguousarray(params.tensors[name], dtype=np.float64)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())


class CheckpointError(ValueError):
    pass


def load_checkpoint(path) -> tuple[D2snParams, dict]:
    """Read a container written by :func:`save_checkpoint`. A short read, a
    malformed header, or tensor names and shapes other than those
    ``init_params`` gives the stored config all raise :class:`CheckpointError`.
    Tensors prefixed ``opt_`` (optimizer moments in resume snapshots) are read
    but not checked against the architecture."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated {what}")
            return fh.read(n)

        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (hlen,) = struct.unpack("<I", read(4, "header length"))
        try:
            header = json.loads(read(hlen, "header").decode("utf-8"))
            cfg = D2snConfig(**header["config"])
            names = [str(n) for n in header["names"]]
            param_count = int(header["param_count"])
            extra = header.get("extra", {})
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad header: {exc!r}") from exc
        tensors: dict[str, np.ndarray] = {}
        for name in names:
            (ndim,) = struct.unpack("<I", read(4, f"tensor {name}"))
            shape = struct.unpack(f"<{ndim}q", read(8 * ndim, f"tensor {name}"))
            if any(n < 0 for n in shape):
                raise CheckpointError(f"{path}: negative shape {shape} for tensor {name}")
            count = int(np.prod(shape)) if ndim else 1
            buf = read(8 * count, f"tensor {name}")
            tensors[name] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
    params = D2snParams(cfg, tensors)
    if params.param_count != param_count:
        raise CheckpointError(f"{path}: parameter count mismatch")
    expected = {n: t.shape for n, t in init_params(cfg).tensors.items()}
    found = {n: t.shape for n, t in tensors.items() if not n.startswith("opt_")}
    if found != expected:
        missing = sorted(expected.keys() - found.keys())
        unknown = sorted(found.keys() - expected.keys())
        reshaped = sorted(n for n in expected.keys() & found.keys() if found[n] != expected[n])
        raise CheckpointError(f"{path}: tensors do not match the configured architecture "
                              f"(missing {missing}, unknown {unknown}, reshaped {reshaped})")
    return params, extra
