"""A micod process imports scipy only for the KM solver: importing the
package and running generate, report, train or a non-KM eval leave
``scipy.optimize`` unloaded, and an eval that runs KM loads it before its
first episode, outside every episode's wallclock.

Each check runs in a fresh interpreter, since other tests load scipy here.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import micod

PACKAGE_ROOT = os.path.dirname(os.path.dirname(micod.__file__))


def _python(code: str, cwd) -> list[str]:
    pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_micod_leaves_scipy_unloaded(tmp_path):
    assert _python("""
        import sys
        import micod, micod.cli, micod.harness, micod.matching, micod.trainer
        print("scipy.optimize" in sys.modules)
        """, tmp_path) == ["False"]


def test_generate_eval_report_and_train_without_km_leave_scipy_unloaded(tmp_path):
    (tmp_path / "train.cfg").write_text("datasets = data/*.jsonl\niterations = 1\n"
                                        "episodes_per_iter = 1\nepochs = 1\n")
    assert _python("""
        import sys
        from micod.cli import main
        for argv in (
                ["generate", "--level", "L1", "--bin", "400", "--scale", "0.02",
                 "--seed", "1", "--out", "data"],
                ["eval", "--policy", "greedy", "--policy", "gs", "--dataset", "data/*.jsonl",
                 "--seeds", "1", "--out", "results.csv"],
                ["report", "--results", "results.csv"],
                ["train", "--config", "train.cfg", "--out", "run"]):
            assert main(argv) == 0, argv
            assert "scipy.optimize" not in sys.modules, argv[0]
        print("ok")
        """, tmp_path)[-1] == "ok"
    assert (tmp_path / "run" / "final.ckpt").exists()


@pytest.mark.parametrize("policy,loaded", [("km", True), ("fixed_delay(2)", True),
                                           ("greedy", False), ("gs", False)])
def test_cmd_eval_loads_the_km_solver_before_the_first_episode(tmp_path, policy, loaded):
    seen = _python(f"""
        import sys
        from micod import harness, scenario
        from micod.scenario import ScenarioSpec

        scenario.save(scenario.generate(ScenarioSpec("L2", 400, seed=0, scale_factor=0.02)),
                      "d.jsonl")
        run_episode = harness.run_episode

        def recording(*args):
            print("scipy.optimize" in sys.modules)
            return run_episode(*args)

        harness.run_episode = recording
        plan = harness.EvalPlan(policies=[harness.parse_policy_id({policy!r})],
                                dataset_paths=["d.jsonl"], seeds=[0, 1])
        harness.cmd_eval(plan, "out.csv")
        """, tmp_path)
    assert seen == [str(loaded)] * 2
