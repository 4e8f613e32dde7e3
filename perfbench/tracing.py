"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces the public functions and methods of each layer
(module attributes, class methods, and the names ``harness`` and ``trainer``
import from ``d2sn``) with wrappers that record a span: name, start, end, the
enclosing span, and whether ``trainer.ppo_update`` is an ancestor (replay) or
not (sampling). Spans stay in memory; ``summarize`` turns them into the
per-layer metrics and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

import numpy as np

from micod import autodiff, d2sn, env, harness, matching, scenario, simulator, trainer

NAME, START, END, PARENT, REPLAY = range(5)


def unit_of(metric: str) -> str:
    if metric.endswith(("_ms_p50", "_ms_p99")):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_rate", "_frac")):
        return "ratio"
    return "count"


# (owner, attribute, span name, count hook). A hook receives the tracer, the
# call's arguments and its result, and adds to the per-round counts.
def _layers():
    def pool_rows(t, args, state):
        t.add("env.pool_rows", state.n_pairs)
        t.peak("env.pool_rows_max", state.n_pairs)

    def sampled_rows(metric):
        def hook(t, args, _):
            if not t.in_replay():
                t.add(metric, args[0].shape[0])
        return hook

    def sampled_action(t, args, action):
        t.add("d2sn.substeps", len(action.steps))
        t.add("d2sn.actions", 1)
        t.add("d2sn.held_actions", 1 if action.steps[-1][0] == 1 else 0)

    return [
        (env.DispatchEnv, "reset", "env.reset", pool_rows),
        (env.DispatchEnv, "finalize_batch", "env.finalize_batch",
         lambda t, a, r: pool_rows(t, a, r[1])),
        (simulator.SimState, "step_batch", "simulator.step_batch", None),
        (simulator.SimState, "eligible_pairs", "simulator.eligible_pairs",
         lambda t, a, pairs: t.add("simulator.eligible_pairs.pairs", len(pairs))),
        (matching, "pool_cost_matrix", "matching.pool_cost_matrix",
         lambda t, a, r: t.add("matching.cells", r[0].values.size)),
        (matching, "km_match", "matching.km_match", None),
        (matching, "greedy_match", "matching.greedy_match", None),
        (matching, "prefs_from_cost", "matching.prefs_from_cost", None),
        (matching, "gs_match", "matching.gs_match", None),
        (harness, "cmd_eval", "harness.cmd_eval", None),
        (trainer, "train", "trainer.train", None),
        (harness.OneShotPolicy, "act", "harness.act", None),
        (harness.D2snPolicy, "act", "harness.act", None),
        (matching.FixedDelayPolicy, "act", "harness.act", None),
        (d2sn, "encode", "d2sn.encode", sampled_rows("d2sn.encode.rows")),
        (d2sn, "aggregate", "d2sn.aggregate", sampled_rows("d2sn.aggregate.rows")),
        (d2sn, "sample_action", "d2sn.sample_action", sampled_action),
        (harness, "sample_action", "d2sn.sample_action", sampled_action),
        (trainer, "sample_action", "d2sn.sample_action", sampled_action),
        (d2sn, "critic_value", "d2sn.critic_value", None),
        (trainer, "critic_value", "d2sn.critic_value", None),
        (d2sn, "log_prob", "d2sn.log_prob", None),
        (trainer, "log_prob", "d2sn.log_prob", None),
        (autodiff.Tensor, "backward", "autodiff.backward",
         lambda t, a, r: t.add("autodiff.backward.calls", 1)),
        (trainer, "collect_rollouts", "trainer.collect_rollouts", None),
        (trainer, "ppo_update", "trainer.ppo_update",
         lambda t, a, diag: t.add("trainer.transitions", diag["transitions"])),
        (trainer.AdamState, "step", "trainer.adam_step", None),
        (trainer, "save_checkpoint", "trainer.checkpoint", None),
        (scenario, "generate", "scenario.generate", None),
        (scenario, "load", "scenario.load", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- counts -------------------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts[name], value)

    def in_replay(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][REPLAY]

    def take_counts(self) -> dict[str, float]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    # -- spans --------------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        starts_replay = name == "trainer.ppo_update"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            replay = starts_replay or (parent >= 0 and spans[parent][REPLAY])
            rec = [name, clock(), 0.0, parent, replay]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in _layers():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str, t0: float) -> None:
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[REPLAY]] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "replay"],
                       "spans": rows}, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Time one wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (clock() - t0 - bare) / calls)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list], round_spans: list[tuple[int, int]],
              round_counts: list[dict[str, float]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, per round, from all spans (set-up and untimed case
    preparation run only ``scenario`` calls) and each round's counts. Also
    returns each layer's self time summed over the spans of the timed rounds."""
    rounds = max(len(round_counts), 1)
    in_round = [False] * len(spans)
    for lo, hi in round_spans:
        in_round[lo:hi] = [True] * (hi - lo)
    self_s: dict[tuple[str, bool], float] = defaultdict(float)
    total_s: dict[tuple[str, bool], float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    act_ms = []
    for s, own, timed in zip(spans, self_times(spans), in_round):
        key = (s[NAME], s[REPLAY])
        self_s[key] += own
        total_s[key] += s[END] - s[START]
        if s[NAME] == "harness.act":
            act_ms.append(1e3 * (s[END] - s[START]))
        if timed:
            layer = s[NAME].split(".")[0]
            if layer == "d2sn":
                layer = "d2sn.replay" if s[REPLAY] else "d2sn.sample"
            layer_s[layer] += own

    def per_round(table, name, replay=None):
        if replay is None:
            return (table[(name, False)] + table[(name, True)]) / rounds
        return table[(name, replay)] / rounds

    m = {}
    for name in ("env.finalize_batch", "env.reset", "simulator.step_batch",
                 "simulator.eligible_pairs", "matching.pool_cost_matrix", "matching.km_match",
                 "matching.greedy_match", "matching.prefs_from_cost", "matching.gs_match",
                 "harness.cmd_eval", "d2sn.sample_action", "d2sn.log_prob",
                 "autodiff.backward", "trainer.adam_step"):
        m[name + ".self_s"] = per_round(self_s, name)
    for name in ("d2sn.encode", "d2sn.aggregate", "d2sn.critic_value"):
        m[name + ".sample_s"] = per_round(self_s, name, False)
        m[name + ".replay_s"] = per_round(self_s, name, True)
    for name, metric in (("trainer.collect_rollouts", "trainer.collect_rollouts.s"),
                         ("trainer.ppo_update", "trainer.ppo_update.s"),
                         ("trainer.checkpoint", "trainer.checkpoint_s"),
                         ("scenario.generate", "scenario.generate.s"),
                         ("scenario.load", "scenario.load.s")):
        m[metric] = per_round(total_s, name)
    m["harness.act_ms_p50"] = float(np.percentile(act_ms, 50)) if act_ms else 0.0
    m["harness.act_ms_p99"] = float(np.percentile(act_ms, 99)) if act_ms else 0.0

    total: dict[str, float] = defaultdict(float)
    for counts in round_counts:
        for k, v in counts.items():
            total[k] += v
    for name in ("env.pool_rows", "simulator.eligible_pairs.pairs", "matching.cells",
                 "d2sn.encode.rows", "d2sn.aggregate.rows", "d2sn.substeps",
                 "autodiff.backward.calls", "trainer.transitions"):
        m[name] = total[name] / rounds
    m["env.pool_rows_max"] = max((c.get("env.pool_rows_max", 0) for c in round_counts),
                                 default=0)
    actions = total["d2sn.actions"]
    m["d2sn.hold_rate"] = total["d2sn.held_actions"] / actions if actions else 0.0
    return m, dict(layer_s)
