"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracing.py`` wraps named functions and methods of the package
from outside. Renaming one of them breaks only the benchmark's traced mode,
so this test installs the tracer, runs one tiny evaluation, checks that the
pool and pair-search counts arrive, and checks that ``uninstall`` restores
every original attribute.
"""

import importlib.util
from pathlib import Path

from micod import scenario
from micod.harness import EvalPlan, cmd_eval, parse_policy_id
from micod.scenario import ScenarioSpec, generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attribute(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_counts_a_tiny_eval_and_restores_every_attribute(tmp_path):
    tracing = load_tracing()
    layers = [(owner, attr) for owner, attr, _, _ in tracing._layers()]
    originals = [attribute(owner, attr) for owner, attr in layers]

    path = str(tmp_path / "d.jsonl")
    scenario.save(generate(ScenarioSpec("L2", 400, seed=0, scale_factor=0.05)), path)
    plan = EvalPlan(policies=[parse_policy_id("km")], dataset_paths=[path], seeds=[0])
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a renamed layer raises KeyError here
        assert all(attribute(o, a) is not f for (o, a), f in zip(layers, originals))
        cmd_eval(plan, str(tmp_path / "out.csv"))
    finally:
        tracer.uninstall()
    counts = tracer.take_counts()
    assert counts["env.pool_rows"] > 0
    assert counts["simulator.eligible_pairs.pairs"] > 0
    assert all(attribute(o, a) is f for (o, a), f in zip(layers, originals))
