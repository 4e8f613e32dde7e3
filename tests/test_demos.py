"""The quick demos run to completion against the current package.

Demo 04 trains for minutes and stays a manual check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_generate_and_inspect_datasets.py",
    "02_batch_matching_baselines.py",
    "03_two_layer_environment.py",
    "05_eval_and_hold_report.py",
])
def test_demo_runs(tmp_path, demo):
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
