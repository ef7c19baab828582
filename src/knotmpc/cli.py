"""Command line front end.

``knotmpc run <config-file-or-preset>`` executes one experiment and
writes its CSV, from a TOML config file (``knotmpc.bench`` describes its
keys) or a preset name; ``knotmpc presets`` lists the bundled experiment
presets, and ``--write DIR`` also writes each as ``<name>.toml``.  Exit
codes: 0 on success, 1 on a bad config, 2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .bench import PRESETS, ConfigError, dump_config, load_config, preset_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knotmpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file or preset name")
    run.add_argument("config", help="path to a TOML config file, or a preset name")
    run.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    run.add_argument("--out", default=".", metavar="DIR", help="directory for the output CSV")
    run.add_argument("--workers", type=int, default=None, help="trial-level process count")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")

    pre = sub.add_parser("presets", help="list bundled presets")
    pre.add_argument("--write", metavar="DIR", default=None, help="also write each preset as a TOML config file")
    return parser


def _cmd_run(args) -> int:
    if os.path.exists(args.config):
        cfg = load_config(args.config)
    elif args.config in PRESETS:
        cfg = preset_config(args.config)
    else:
        raise ConfigError(f"{args.config!r} is neither a config file nor a preset name")

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = replace(cfg, **overrides)
        cfg.validate()

    rows = run_experiment(cfg, out_dir=args.out)
    print(f"{cfg.experiment}: {len(rows)} rows -> {os.path.join(args.out, cfg.out)}")
    return 0


def _cmd_presets(args) -> int:
    width = max(len(name) for name in PRESETS)
    for name in sorted(PRESETS):
        print(f"{name:<{width}}  {PRESETS[name][1]}")
    if args.write is not None:
        os.makedirs(args.write, exist_ok=True)
        for name in sorted(PRESETS):
            path = os.path.join(args.write, f"{name}.toml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump_config(preset_config(name)))
            print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_presets(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
