"""Auto-regressive dispatch policy network and its value-independent critic.

The actor handles two axes of variability: a permutation-equivariant encoder
embeds however many candidate pairs the batch offers, and a recurrent
aggregation squeezes the growing sub-state (initial pool plus already-selected
pairs, in order) into one fixed-size context vector. Two heads read that
context: a binary hold head that can end the batch early, and a cross-attention
decision head scoring each remaining pair. A complete batch action is the
sequence of sampled sub-actions; its probability is the product of the
per-sub-step head probabilities.

:func:`sample_action` and :func:`replay` share one sub-state walk and one
network over stacked row sets, written against :mod:`micod.autodiff`
dual-mode helpers. Sampling runs it on one set per sub-step with plain
arrays; replay stacks the row sets of every sub-step of many transitions and
runs it once over them. Pass :class:`D2snParams` holding ndarrays for values
only, or the Tensor copy :func:`as_tensors` makes to get exact reverse-mode
gradients through the same arithmetic; the graph it builds has the same nodes
however many sub-steps and rows it holds.

The critic runs the aggregator's trunk with its own parameters but sees only
the outer state (pool plus global context), never sub-states or actions;
:func:`critic_values` runs it over many states at once.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field, asdict
from functools import reduce
from operator import add

import numpy as np

from .autodiff import (Tensor, asum, concat, exp, log_softmax, masked_attention, masked_gru_scan,
                       segment_sum, tanh, where)
from .env import N_PAIR_FEATURES, IllegalActionError, OuterState, mask_after_selection


@dataclass(frozen=True)
class D2snConfig:
    """Network sizes. Desk-scale defaults keep finite-difference checks and
    CPU training fast; widths are free, so larger production-like models are
    one config away."""

    d_model: int = 32
    n_heads: int = 2
    g_dim: int = 100

    def __post_init__(self):
        widths = (self.d_model, self.n_heads, self.g_dim)
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool) and w >= 1
                   for w in widths):
            raise ValueError(f"all dimensions must be integers >= 1, got {widths}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


@dataclass
class D2snParams:
    """Named parameter arrays (or autodiff Tensors, from :func:`as_tensors`)
    plus the config that shaped them."""

    config: D2snConfig
    tensors: dict[str, np.ndarray | Tensor]

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
    d, f, g = cfg.d_model, N_PAIR_FEATURES, cfg.g_dim
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


def as_tensors(params: D2snParams) -> D2snParams:
    """The same parameters as graph leaves, one :class:`Tensor` per array."""
    return D2snParams(params.config, {k: Tensor(v) for k, v in params.tensors.items()})


# -- the network over row sets ---------------------------------------------------------
#
# Every pass reads S row sets stacked into one ``(sum of lengths, d)`` array,
# with a length per set: replay stacks many sub-steps, sampling passes one set.
# Given one set of plain arrays, the fused attention and GRU ops take their
# unpadded path.


def _embed_rows(row_sets: list[np.ndarray], P: dict, w: str, b: str, null: str):
    """Embed S row sets stacked in order: returns the embedded rows and each
    set's length. An empty set reads as one row, the learned ``null`` row."""
    lengths = np.array([max(len(r), 1) for r in row_sets])
    empty = lengths > np.array([len(r) for r in row_sets])
    if empty.all():
        return P[null] + np.zeros((len(row_sets), 1)), lengths
    blank = np.zeros((1, P[w].shape[0]))
    x = np.concatenate([r if len(r) else blank for r in row_sets]) @ P[w] + P[b]
    if empty.any():
        first = np.zeros(int(lengths.sum()), dtype=bool)
        first[(np.cumsum(lengths) - lengths)[empty]] = True
        x = where(first[:, None], P[null], x)
    return x, lengths


def _mha(x, P: dict, prefix: str, n_heads: int, lengths: np.ndarray):
    q = x @ P[prefix + "wq"] + P[prefix + "bq"]
    k = x @ P[prefix + "wk"] + P[prefix + "bk"]
    v = x @ P[prefix + "wv"] + P[prefix + "bv"]
    return masked_attention(q, k, v, n_heads, lengths) @ P[prefix + "wo"] + P[prefix + "bo"]


def _gru(x, P: dict, prefix: str, lengths: np.ndarray):
    xz = x @ P[prefix + "wz"] + P[prefix + "bz"]
    xr = x @ P[prefix + "wr"] + P[prefix + "br"]
    xh = x @ P[prefix + "wh"] + P[prefix + "bh"]
    return masked_gru_scan(xz, xr, xh, P[prefix + "uz"], P[prefix + "ur"], P[prefix + "uh"],
                           lengths)


def _trunk(row_sets: list[np.ndarray], params: D2snParams, critic: bool = False):
    """One ``(S, d)`` context row per row set: the rows are embedded, attended
    as a set, then consumed in order by the recurrent cell, so the selection
    chronology is preserved. The aggregator and the critic run it, each with
    its own parameters."""
    P = params.tensors
    w, b, null, attn, gru = (("v_emb_w", "v_emb_b", "v_null", "v_", "v_gru_") if critic
                             else ("emb_w", "emb_b", "act_null", "dec_", "gru_"))
    x, lengths = _embed_rows(row_sets, P, w, b, null)
    return _gru(_mha(x, P, attn, params.config.n_heads, lengths), P, gru, lengths)


def _encode(row_sets: list[np.ndarray], params: D2snParams):
    """Latent rows of S row sets stacked in order, one per input row
    (permutation-equivariant within each set), and each set's length."""
    P = params.tensors
    x, lengths = _embed_rows(row_sets, P, "emb_w", "emb_b", "act_null")
    x = x + _mha(x, P, "enc_", params.config.n_heads, lengths)
    return x + tanh(x @ P["enc_w1"] + P["enc_b1"]) @ P["enc_w2"] + P["enc_b2"], lengths


def encode(pool_features: np.ndarray, params: D2snParams):
    """Pool rows -> latent rows, the one-set case of the encoder (an empty
    pool encodes the learned null row instead)."""
    return _encode([pool_features], params)[0]


def aggregate(substate_features: np.ndarray, params: D2snParams):
    """Variable-size sub-state rows -> one fixed-size ``(1, d)`` context
    vector, the one-set case of the aggregator trunk."""
    return _trunk([substate_features], params)


def _two_layer(G, infos: np.ndarray, P: dict, prefix: str):
    """``tanh([G, infos] @ w1 + b1) @ w2 + b2`` over S context and global info
    rows, with the hold head's (``hold_``) or the critic's (``v_``) weights."""
    hid = tanh(concat([G, infos], axis=1) @ P[prefix + "w1"] + P[prefix + "b1"])
    return hid @ P[prefix + "w2"] + P[prefix + "b2"]


def _hold_log_probs(G, infos: np.ndarray, P: dict):
    """Hold head: log (p_continue, p_hold) of S sub-steps, ``(S, 2)``, from
    their context rows ``G`` and global info rows ``infos``."""
    logits = _two_layer(G, infos, P, "hold_").reshape((-1,))
    return log_softmax(logits, np.full(len(infos), 2)).reshape((len(infos), 2))


def _decision_log_probs(R, lengths: np.ndarray, G, infos: np.ndarray, P: dict,
                        d_model: int):
    """Decision head: log-probabilities within each of S stacked row sets of
    latent rows ``R``, scored by a scaled dot product with the query of set
    s's context row ``G[s]`` and global info row ``infos[s]``."""
    q = concat([G, infos], axis=1) @ P["cq_w"] + P["cq_b"]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    logits = asum((R @ P["ck_w"] + P["ck_b"]) * q[owner], axis=1) / math.sqrt(d_model)
    return log_softmax(logits, lengths)


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


def _check_state(state: OuterState, config: D2snConfig) -> None:
    g = state.global_info
    if g.shape[0] != config.g_dim:
        raise ValueError(f"global info dim {g.shape[0]} != configured {config.g_dim}")
    # ``.all()`` costs about 1 us less than ``np.all``, on every sampled and
    # replayed state
    if not np.isfinite(g).all():
        raise ValueError("non-finite global info")
    if not np.isfinite(state.feature_matrix).all():
        raise ValueError("non-finite pool features")


# -- the sub-state walk ---------------------------------------------------------------


def _walk(state: OuterState, choose):
    """The sub-state machine. From the full pool, sub-step k asks
    ``choose(k, remaining rows, rows selected so far)`` for its sub-action
    ``(h, c)``. A hold (``h == 1``) or an empty pool ends the walk; otherwise
    row ``c`` is selected and :func:`mask_after_selection` clears it and every
    row sharing its order or driver (raising unless it is available). Returns
    the sub-steps as ``(h, remaining rows, selected row or None)`` and the
    selected rows in order."""
    mask = np.ones(state.n_pairs, dtype=bool)
    steps, selected = [], []
    while True:
        remaining = np.flatnonzero(mask)
        h, c = choose(len(steps), remaining, selected)
        if h == 1 or len(remaining) == 0:
            steps.append((h, remaining, None))
            return steps, selected
        mask = mask_after_selection(state, mask, c)
        steps.append((0, remaining, c))
        selected.append(c)


def sample_action(state: OuterState, params: D2snParams, rng: np.random.Generator,
                  force_exhaustive: bool = False) -> ActionRecord:
    """Roll the auto-regressive sub-step walk forward, sampling each head;
    the encoder runs only on sub-steps that select a row.
    ``force_exhaustive`` pins every hold decision to continue (the
    hold-disabled ablation); selection stops only when the pool drains."""
    _check_state(state, params.config)
    P = params.tensors
    feats = state.feature_matrix
    info = state.global_info.reshape(1, -1)
    step_logps = []

    def choose(k, remaining, selected):
        G = aggregate(np.concatenate([feats, feats[selected]], axis=0), params)
        lp_hold = _hold_log_probs(G, info, P)[0]
        if force_exhaustive:
            h, lp_h = 0, 0.0
        else:
            h = 1 if rng.random() < float(np.exp(lp_hold[1])) else 0
            lp_h = lp_hold[h]
        if h == 1 or len(remaining) == 0:
            step_logps.append(lp_h)
            return h, None
        R = encode(feats[remaining], params)
        lp_vec = _decision_log_probs(R, np.array([len(remaining)]), G, info, P,
                                     params.config.d_model)
        cum = np.cumsum(np.exp(lp_vec))
        pos = min(int(np.searchsorted(cum, rng.random(), side="right")), len(remaining) - 1)
        step_logps.append(lp_h + lp_vec[pos])
        return 0, int(remaining[pos])

    steps, selected = _walk(state, choose)
    h, remaining, _ = steps[-1]
    return ActionRecord(
        steps=[(h_k, c) for h_k, _, c in steps], selected=selected,
        held=[int(i) for i in remaining] if h == 1 else [], exhaustive=force_exhaustive,
        logp=float(reduce(add, step_logps)), step_logps=[float(x) for x in step_logps],
    )


def _teacher_forced(state: OuterState, action: ActionRecord, config: D2snConfig):
    """The walk of a recorded action, checking each sub-action as sampling
    would allow it (an illegal one raises :class:`IllegalActionError`)."""
    _check_state(state, config)
    recorded = action.steps

    def choose(k, remaining, selected):
        if k >= len(recorded):
            raise IllegalActionError("replay ran past the recorded sub-actions")
        h, c = recorded[k]
        if action.exhaustive:
            h = 0
        elif h == 1 and c is not None:
            raise IllegalActionError("recorded hold step must not carry a selection")
        if h == 0 and c is None and len(remaining):
            raise IllegalActionError("recorded continue step carries no selection")
        if h == 0 and c is not None and not len(remaining):
            raise IllegalActionError(f"row {c} not available at replay step {k}")
        return h, c

    walked = _walk(state, choose)
    if len(walked[0]) != len(recorded):
        raise IllegalActionError("replay ended at a different sub-step count")
    return walked


# -- replay: many sub-steps as one program ---------------------------------------------


def _substep_log_probs(agg_rows, global_info, h, holds, dec, enc_rows, pos,
                       params: D2snParams):
    """Log-probability and entropy of S sub-steps, as two length-S vectors.
    Sub-step s reads the aggregator rows ``agg_rows[s]`` and its global info
    row; its hold head counts where ``holds[s]`` (not an exhaustive action),
    scoring the recorded ``h[s]``. The sub-steps ``dec`` select a row: the
    decision head scores position ``pos[j]`` among the rows still available,
    ``enc_rows[j]``. Only sub-steps that a head reads are aggregated, so a
    parameter no head reaches gets no gradient, as in a per-sub-step graph."""
    P = params.tensors
    n = len(agg_rows)
    lp, ent = np.zeros(n), np.zeros(n)
    read = holds.copy()
    read[dec] = True
    used = np.flatnonzero(read)
    if not len(used):
        return lp, ent
    G = _trunk([agg_rows[s] for s in used], params)
    if holds.any():
        lp_hold = _hold_log_probs(G, global_info[used], P)
        on = holds[used].astype(np.float64)
        lp = segment_sum(lp_hold[np.arange(len(used)), h[used]] * on, used, n)
        ent = segment_sum(-asum(exp(lp_hold) * lp_hold, axis=1) * on, used, n)
    if len(dec):
        R, lengths = _encode(enc_rows, params)
        lp_dec = _decision_log_probs(R, lengths, G[np.searchsorted(used, dec)], global_info[dec],
                                     P, params.config.d_model)
        lp = lp + segment_sum(lp_dec[np.cumsum(lengths) - lengths + pos], dec, n)
        ent = ent + segment_sum(-(exp(lp_dec) * lp_dec), np.repeat(dec, lengths), n)
    return lp, ent


def replay(transitions, params: D2snParams):
    """Teacher-forced replay of recorded actions: every sub-step of every
    ``(state, action)`` pair in one program. Returns ``(logp, step_logp,
    entropy)``: each action's log-probability, the log-probabilities of all
    sub-steps in order, and each action's summed head entropy. With Tensor
    parameters (:func:`as_tensors`) they are differentiable."""
    seg, agg_rows, infos, h, holds = [], [], [], [], []
    dec, enc_rows, pos = [], [], []
    for t, (state, action) in enumerate(transitions):
        steps, selected = _teacher_forced(state, action, params.config)
        feats = state.feature_matrix
        rows = np.concatenate([feats, feats[selected]], axis=0)
        for k, (h_k, remaining, c) in enumerate(steps):
            if c is not None:
                dec.append(len(seg))
                enc_rows.append(feats[remaining])
                pos.append(np.searchsorted(remaining, c))
            seg.append(t)
            agg_rows.append(rows[:state.n_pairs + k])
            infos.append(state.global_info)
            h.append(h_k)
            holds.append(not action.exhaustive)
    seg, dec, h, pos = (np.array(a, dtype=np.int64) for a in (seg, dec, h, pos))
    infos, holds = np.array(infos), np.array(holds, dtype=bool)
    step_lp, step_ent = _substep_log_probs(agg_rows, infos, h, holds, dec, enc_rows, pos,
                                           params)
    n = len(transitions)
    return segment_sum(step_lp, seg, n), step_lp, segment_sum(step_ent, seg, n)


def log_prob(state: OuterState, action: ActionRecord, params: D2snParams):
    """Teacher-forced replay of one recorded action, the one-transition case
    of :func:`replay`. Returns (total, per-step list)."""
    logp, step_lp, _ = replay([(state, action)], params)
    return logp[0], [step_lp[k] for k in range(len(action.steps))]


def critic_values(states: list[OuterState], params: D2snParams):
    """State values of many outer states from the critic trunk in one
    program; the critic sees only each state's pool and global info."""
    G = _trunk([s.feature_matrix for s in states], params, critic=True)
    return _two_layer(G, np.array([s.global_info for s in states]), params.tensors, "v_")[:, 0]


def critic_value(state: OuterState, params: D2snParams):
    """State value of one outer state, the one-state case of
    :func:`critic_values`."""
    return critic_values([state], params)[0]


# -- checkpoint container -----------------------------------------------------------

_MAGIC = b"MICODNET"
_VERSION = 1


def save_checkpoint(params: D2snParams, path, extra: dict | None = None) -> None:
    """Versioned binary container: magic, version, JSON header (config echo,
    parameter count, tensor name order, extras), then each tensor with a shape
    prefix. Byte-identical across save/load/save. The file is written beside
    ``path`` and moved onto it whole, so a save that fails partway leaves any
    earlier file at ``path`` as it was."""
    names = list(params.tensors.keys())
    header = {
        "config": asdict(params.config),
        "param_count": params.param_count,
        "names": names,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name in names:
                arr = np.ascontiguousarray(params.tensors[name], dtype=np.float64)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class CheckpointError(ValueError):
    pass


def load_checkpoint(path) -> tuple[D2snParams, dict]:
    """Read a container written by :func:`save_checkpoint`. A short read, a
    malformed header, tensor names and shapes other than those
    ``init_params`` gives the stored config, or a NaN or infinite entry all
    raise :class:`CheckpointError`. Tensors prefixed ``opt_`` (optimizer
    moments in resume snapshots) are read but not checked against the
    architecture."""
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
            extra = dict(header.get("extra", {}))
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
    bad = next((n for n, t in tensors.items() if not np.isfinite(t).all()), None)
    if bad is not None:
        raise CheckpointError(f"{path}: tensor {bad} holds a non-finite value")
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
