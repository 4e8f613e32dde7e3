"""Command-line surface: ``micod generate|train|eval|report``.

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime error.
Config files are line-oriented ``key = value`` with ``#`` comments.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys

from .d2sn import CheckpointError, D2snConfig, init_params, load_checkpoint
from .env import global_info_dim
from .harness import (DataError, EvalPlan, UsageError, check_network_fits, cmd_eval, cmd_generate,
                      cmd_report, parse_policy_id)
from .scenario import CAPACITY_BINS, RATIO_BANDS, DatasetParseError, classify, load
from .trainer import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def parse_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise DataError(f"{path}:{line_no}: key {key!r} is set again")
            out[key] = value
    return out


def _check_keys(cfgd: dict[str, str], path: str, known) -> None:
    """A config key the command does not read is a data error naming file and key."""
    for key in cfgd:
        if key not in known:
            raise DataError(f"{path}: unknown key {key!r}")


def _setting(flag, cfgd: dict[str, str], path: str, key: str, convert, default=None):
    """``flag`` if given, else ``convert(cfgd[key])``, else ``default``. A
    config value that does not convert is a data error naming file and key."""
    if flag is not None:
        return flag
    if key not in cfgd:
        return default
    try:
        return convert(cfgd[key])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise DataError(f"{path}: bad value for {key}: {exc}") from exc


def _check_out_dir(out: str) -> None:
    """``--out`` names a directory to create or reuse. Its nearest existing
    path must be a directory, or nothing is read or built."""
    nearest = out
    while nearest and not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if nearest and not os.path.isdir(nearest):
        raise DataError(f"--out {out}: {nearest} exists and is not a directory")


def _ranged(convert, ok, rule: str):
    """``convert``, rejecting values that fail ``ok``: a flag's ``type=`` and
    the ``_setting`` converter of the config key alike."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _one_of(choices, convert=str):
    """Converter for ``_setting`` that also rejects values outside ``choices``."""
    return _ranged(convert, lambda value: value in choices, f"one of {list(choices)}")


_count = _ranged(int, lambda n: n >= 1, ">= 1")
_seed = _ranged(int, lambda n: n >= 0, ">= 0")
_scale = _ranged(float, lambda x: 0 < x <= 1, "in (0, 1]")

# Config-file converter for each ``TrainConfig`` field type.
_CONVERTERS = {"float": float, "int": int, "int | None": int}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="micod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize benchmark datasets")
    g.add_argument("--config", default=None,
                   help="key = value file supplying defaults for the flags below")
    g.add_argument("--level", choices=sorted(RATIO_BANDS))
    g.add_argument("--bin", type=int, choices=CAPACITY_BINS)
    g.add_argument("--count", type=_count, default=None)
    g.add_argument("--scale", type=_scale, default=None)
    g.add_argument("--seed", type=_seed, default=None)
    g.add_argument("--out", default=None)

    e = sub.add_parser("eval", help="evaluate policies over datasets and seeds")
    e.add_argument("--config", default=None,
                   help="key = value file supplying defaults for the flags below")
    e.add_argument("--policy", action="append", default=None,
                   help="policy id; repeatable (greedy, km, gs, fixed_delay(k), "
                        "d2sn(ckpt), d2sn_h-(ckpt))")
    e.add_argument("--dataset", action="append", default=None,
                   help="dataset file or glob; repeatable")
    e.add_argument("--seeds", type=_count, default=None, help="number of seeds")
    e.add_argument("--seed", type=_seed, default=None, help="first seed")
    e.add_argument("--mode", choices=["APD", "TDI"], default=None)
    e.add_argument("--out", default=None, help="results CSV path")

    r = sub.add_parser("report", help="render tables from a results CSV")
    r.add_argument("--results", required=True)
    r.add_argument("--out", default=None)

    t = sub.add_parser("train", help="train the dispatch policy")
    t.add_argument("--config", required=True, help="key = value training config")
    t.add_argument("--out", required=True, help="checkpoint/curves directory")
    t.add_argument("--resume", action="store_true")
    return parser


def _run_train(args) -> int:
    _check_out_dir(args.out)
    raw = parse_config_file(args.config)
    dataset_field = raw.pop("datasets", None)
    if not dataset_field:
        raise DataError(f"{args.config}: missing 'datasets' entry")
    paths: list[str] = []
    for pattern in dataset_field.split(","):
        hits = sorted(glob.glob(pattern.strip()))
        if not hits:
            raise DataError(f"no datasets match {pattern.strip()!r}")
        paths.extend(hits)
    reward_mode = _setting(None, raw, args.config, "reward_mode", _one_of(("APD", "TDI")))
    raw.pop("reward_mode", None)

    converters = {f.name: _CONVERTERS[f.type] for f in dataclasses.fields(TrainConfig)}
    _check_keys(raw, args.config, converters)
    kwargs = {key: _setting(None, raw, args.config, key, converters[key]) for key in raw}
    try:
        cfg = TrainConfig(**kwargs)
    except ValueError as exc:
        raise DataError(f"{args.config}: {exc}") from exc
    datasets = [load(p) for p in paths]
    net = D2snConfig(g_dim=global_info_dim(datasets[0].config))
    # One network reads every dataset: the one the first dataset shapes, or
    # the one a resumed run continues.
    named = list(zip(paths, datasets))
    check_network_fits(net, f"the network shaped by dataset {paths[0]}", named)
    latest = os.path.join(args.out, "latest.ckpt")
    if args.resume and os.path.exists(latest):
        net = load_checkpoint(latest)[0].config
        check_network_fits(net, f"checkpoint {latest}", named)
    print(f"model parameters: {init_params(net).param_count}")

    def progress(row, diag):
        print(f"iter {row['iteration']:4d}  episodes {row['episodes']:5d}  "
              f"mean_reward {row['mean_reward']:10.3f}  cr {row['cr']:.3f}  "
              f"ratio {diag.get('mean_ratio', 1.0):.3f}  "
              f"clip {diag.get('clip_fraction', 0.0):.2f}")

    result = train(cfg, datasets, out_dir=args.out, reward_mode=reward_mode,
                   net_config=net, resume=args.resume, progress=progress)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"curves: {os.path.join(args.out, 'curves.csv')}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "generate":
            cfgd = parse_config_file(args.config) if args.config else {}
            _check_keys(cfgd, args.config, ("level", "bin", "count", "scale", "seed", "out"))
            level = _setting(args.level, cfgd, args.config, "level", _one_of(RATIO_BANDS))
            cap = _setting(args.bin, cfgd, args.config, "bin", _one_of(CAPACITY_BINS, int), 0)
            count = _setting(args.count, cfgd, args.config, "count", _count, 1)
            scale = _setting(args.scale, cfgd, args.config, "scale", _scale, 1.0)
            seed = _setting(args.seed, cfgd, args.config, "seed", _seed, 0)
            out = args.out or cfgd.get("out")
            if not level or not cap or not out:
                raise UsageError("generate needs --level, --bin and --out "
                                 "(flags or config entries)")
            _check_out_dir(out)
            paths = cmd_generate(level, cap, count, scale, seed, out)
            for path in paths:
                ds = load(path)
                cell = classify(ds)
                print(f"{path}: drivers={len(ds.drivers)} orders={len(ds.orders)} "
                      f"ratio={ds.ds_ratio():.3f} cell={cell or 'unclassified'}")
        elif args.command == "eval":
            cfgd = parse_config_file(args.config) if args.config else {}
            _check_keys(cfgd, args.config,
                        ("policies", "datasets", "seeds", "seed", "mode", "out"))
            policy_ids = args.policy or [p.strip() for p in
                                         cfgd.get("policies", "").split(",") if p.strip()]
            dataset_args = args.dataset or [p.strip() for p in
                                            cfgd.get("datasets", "").split(",") if p.strip()]
            n_seeds = _setting(args.seeds, cfgd, args.config, "seeds", _count, 30)
            first_seed = _setting(args.seed, cfgd, args.config, "seed", _seed, 0)
            mode = _setting(args.mode, cfgd, args.config, "mode", _one_of(("APD", "TDI")), "TDI")
            out = args.out or cfgd.get("out")
            if not policy_ids or not dataset_args or not out:
                raise UsageError("eval needs --policy, --dataset and --out "
                                 "(flags or config entries)")
            policies = [parse_policy_id(p) for p in policy_ids]
            paths: list[str] = []
            for pattern in dataset_args:
                hits = sorted(glob.glob(pattern))
                if hits:
                    paths.extend(hits)
                else:
                    paths.append(pattern)  # surfaced as DataError by cmd_eval
            plan = EvalPlan(policies=policies, dataset_paths=paths,
                            seeds=list(range(first_seed, first_seed + n_seeds)),
                            reward_mode=mode)
            rows = cmd_eval(plan, out)
            n_runs = sum(1 for r in rows if r["kind"] == "run")
            print(f"wrote {n_runs} runs (+aggregates) to {out}")
        elif args.command == "report":
            text = cmd_report(args.results, args.out)
            print(text, end="")
        elif args.command == "train":
            return _run_train(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, DataError, DatasetParseError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
