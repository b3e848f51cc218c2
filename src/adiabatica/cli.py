"""Command-line entry point: one subcommand per experiment tag."""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, ConfigError, load_config
from .experiments import run_experiment

OUTPUT_DIR_ENV = "ADIABATICA_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiabatica",
        description="Wave-packet adiabaticity experiments; results land as "
                    "deterministic CSV files.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for tag in EXPERIMENTS:
        p = sub.add_parser(tag, help=f"run the {tag} experiment")
        p.add_argument("--config", required=True, help="JSON scenario file")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key, e.g. model.detuning=0.5")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV, ".")
    try:
        config = load_config(args.config, experiment=args.experiment,
                             overrides=args.override)
        paths = run_experiment(config, out_dir)
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"adiabatica: error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
