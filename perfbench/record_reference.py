"""Record the outputs the current code gives on every case of every workload
into ``perfbench/reference.json``: the digest of the classical-policy ``cmd_eval``
run row (without wallclock) and of the parameters after one training
iteration.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Named workloads are re-recorded; the others keep their recorded digests.

The committed file was recorded from the seed code. The benchmark counts a
classical episode whose rows differ from it as failed, so re-record only for a
change that is meant to alter those outputs, and say so in that change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(names: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    path = HERE / "reference.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        out[name] = {}
        workdir = os.path.join(".perfbench_work", name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        for case in range(workload.n_cases):
            rnd = workload.run_round(workload.prepare(workdir, case))
            if rnd.problem is not None:
                raise SystemExit(f"{name} case {case}: {rnd.problem}")
            out[name][str(case)] = rnd.digest
            print(name, case, rnd.key, rnd.digest, flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
