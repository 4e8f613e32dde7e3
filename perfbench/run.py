"""micod benchmark: one workload, timed through the package's public entry
points, with its outputs checked.

    python3 perfbench/run.py --workload eval_classical --seed 0 --seconds 60 --trace 0

Run from anywhere; it works in the checkout that holds this file and imports
the package from ``src/``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` wraps each layer's public functions and prints the per-layer
metrics instead. Human-readable lines come first; the last line of standard
output is one JSON object. See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"   # inputs and outputs of the rounds, relative to ROOT
RUNS_DIR = ".perfbench_runs"   # run records and spans, kept after the run
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "episodes_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["eval_classical", "train_ppo"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_threads() -> dict[str, str]:
    """One process, no extra threads: MICOD_THREADS unset and BLAS thread
    variables 1 unless set, never above nproc. Returns the variables in effect."""
    os.environ.pop("MICOD_THREADS", None)
    ncpu = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= ncpu:
            value = str(ncpu)
        os.environ[var] = value
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the repository around ROOT, read from .git without running git;
    'unknown' in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_digest() -> str:
    """Digest of the package and of the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args, blas) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas,
        "git_commit": git_commit(), "code_digest": code_digest(),
    }


class RepeatMismatch(RuntimeError):
    """Two runs of the same code did different amounts of work."""


def check_exact_repeat(round_counts: list[tuple[int, dict]], key: str, store: Path) -> None:
    """A case's work counts depend only on the case and the code, so every
    round of a case, in this run or an earlier run of the same code (``key``),
    must count the same."""
    seen = json.loads(store.read_text()) if store.exists() else {}
    for case, counts in round_counts:
        case_key = f"{key}/case{case}"
        counts = json.loads(json.dumps(counts))
        if case_key in seen and seen[case_key] != counts:
            raise RepeatMismatch(f"{case_key}: counts {counts} != {seen[case_key]} "
                                 f"from an earlier round")
        seen[case_key] = counts
    store.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    blas = limit_threads()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        import tracing
    except ImportError as exc:
        print(f"perfbench: cannot import the micod package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workload = workloads.WORKLOADS[args.workload]
    first = (args.seed * workload.stride) % workload.n_cases
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    runs_dir = Path(RUNS_DIR)
    runs_dir.mkdir(exist_ok=True)
    workdir = os.path.join(WORK_DIR, args.workload)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    try:
        # set-up builds the first case's inputs, as a user builds them before
        # the first timed call
        setup_times = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            ctx = workload.prepare(workdir, first)
            setup_times.append(time.perf_counter() - t0)

        rounds, cases, round_spans, round_counts, problems = [], [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            case = (first + len(cases)) % workload.n_cases
            if cases:
                ctx = workload.prepare(workdir, case)  # untimed
            cases.append(case)
            if tracer:
                tracer.take_counts()
                lo = len(tracer.spans)
            try:
                rnd = workload.run_round(ctx)
            except Exception:  # an operation that raises counts as failed
                problems.append(traceback.format_exc())
                rnd = None
            if tracer:
                round_spans.append((lo, len(tracer.spans)))
                round_counts.append((case, tracer.take_counts()))
            if rnd is not None:
                rounds.append(rnd)
                want = reference[str(case)]
                if workload.trains:
                    rnd.matches_reference = rnd.digest == want
                elif rnd.problem is None and rnd.digest != want:
                    rnd.problem = (f"case {case} {rnd.key}: row differs from the seed "
                                   f"code's (digest {rnd.digest}, reference {want})")
                if rnd.problem is not None:
                    problems.append(rnd.problem)
            # stop when less than half a typical round is left, so that a run
            # measures --seconds on average however long its rounds are
            typical = statistics.median(r.wall_s for r in rounds) if rounds else 0.0
            if deadline - time.perf_counter() < typical / 2:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:5]:
        print(f"FAILED: {problem.rstrip()}", file=sys.stderr)

    attempted, failed = len(cases), len(problems)
    ok = [rnd for rnd in rounds if rnd.problem is None]
    round_wall = sum(rnd.wall_s for rnd in rounds)
    record = run_record(args, blas)
    record.update({
        "cases": cases, "import_s": import_s, "setup_runs_s": setup_times,
        "round_wall_s": [rnd.wall_s for rnd in rounds],
        "op_s": [rnd.op_s for rnd in rounds],
        "attempted": attempted, "failed": failed,
    })
    if workload.trains:
        record["digest_matches"] = sum(rnd.matches_reference for rnd in rounds)
        record["digests_compared"] = len(rounds)

    lines = [f"workload {args.workload} seed {args.seed}: cases {cases[0]}..{cases[-1]} "
             f"of {workload.n_cases}, {len(rounds)} rounds in {round_wall:.2f} s, "
             f"nproc {record['nproc']}"]
    if tracer:
        try:
            check_exact_repeat(round_counts, f"{args.workload}/{record['code_digest']}",
                               runs_dir / "counts.json")
        except RepeatMismatch as exc:
            print(f"perfbench: exact-repeat check failed: {exc}", file=sys.stderr)
            return 3
        metrics, layer_s = tracing.summarize(tracer.spans, round_spans,
                                             [c for _, c in round_counts])
        n_spans = sum(hi - lo for lo, hi in round_spans)
        metrics["trace_overhead_frac"] = (n_spans * tracing.span_cost_s() / round_wall
                                          if round_wall else 0.0)
        shares = {k: v / round_wall for k, v in sorted(layer_s.items())} if round_wall else {}
        record.update({"per_layer": metrics, "layer_self_share": shares,
                       "case_counts": round_counts})
        tracer.dump(str(runs_dir / f"{args.workload}_seed{args.seed}_spans.json.gz"), T_START)
        lines.append("share of round wall time, by layer self time: " +
                     ", ".join(f"{k} {v:.1%}" for k, v in
                               sorted(shares.items(), key=lambda kv: -kv[1])))
        out = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in sorted(metrics.items())}
    else:
        op_s = [rnd.op_s for rnd in ok]
        # a median per policy: the policies' episode times form separate
        # clusters, and a median pooled over them lands in a sparse tail
        by_key: dict[str, list[float]] = {}
        for rnd in ok:
            by_key.setdefault(rnd.key, []).append(rnd.op_s)
        key_p50 = {k: statistics.median(v) for k, v in sorted(by_key.items())}
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "episodes_per_s": (len(ok) * workload.episodes_per_op / round_wall
                               if round_wall else 0.0),
            "op_s_p50": statistics.geometric_mean(key_p50.values()) if key_p50 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["end_to_end"] = metrics
        record["op_s_p50_by_key"] = key_p50
        alias = "train_iter_s" if workload.trains else "episode_s_p50"
        unit = "iterations" if workload.trains else "episodes"
        lines.append(f"{alias} = {metrics['op_s_p50']:.4f} s (op_s_p50, geometric mean of "
                     f"the medians per {'key' if workload.trains else 'policy'} over "
                     f"{len(op_s)} {unit}: " +
                     ", ".join(f"{k} {v:.4f} s of {len(by_key[k])}" for k, v in key_p50.items())
                     + ")")
        if len(op_s) >= 20:  # the highest percentile with 10 samples beyond it
            pct = int(100 * (1 - 10 / len(op_s)))
            lines.append(f"op_s_p{pct} = {statistics.quantiles(op_s, n=100)[pct - 1]:.4f} s")
        out = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}

    lines.append(f"failed operations: {failed} of {attempted} "
                 f"({failed / attempted:.1%})")
    if "digest_matches" in record:
        lines.append(f"output digests matching the seed code: {record['digest_matches']} "
                     f"of {record['digests_compared']} (reported, not counted as failures)")
    for k, v in out.items():
        lines.append(f"{k} = {v['value']:.6g} {v['unit']}")
    (runs_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
