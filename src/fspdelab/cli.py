"""Command-line entry point.

Exit codes: 0 when every verdict passes, 1 when any fails, 2 on a
configuration error.  Log output is one key=value record per line.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import EXPERIMENTS, ExperimentConfig
from .errors import ConfigError
from .experiments import RUNNERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fspdelab",
        description="Spectral-Galerkin experiments for functional SPDEs with delay")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON config file (defaults built in)")
        p.add_argument("--seed", type=int, default=None, help="override montecarlo.seed")
        p.add_argument("--samples", type=int, default=None, help="override montecarlo.samples")
        p.add_argument("--out", default=None, help="override output.directory")
    return parser


def load_config(args) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides.setdefault("montecarlo", {})["seed"] = args.seed
    if args.samples is not None:
        overrides.setdefault("montecarlo", {})["samples"] = args.samples
    if args.out is not None:
        overrides.setdefault("output", {})["directory"] = args.out
    if args.config is None:
        return ExperimentConfig.defaults(args.experiment, overrides)
    return ExperimentConfig.from_file(args.experiment, args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        start = time.perf_counter()
        result = RUNNERS[args.experiment](cfg)
        result.wall_clock = time.perf_counter() - start
    except ConfigError as exc:
        # cross-section invariants surface while the experiment assembles
        print(f"event=config_error experiment={args.experiment} message={exc!r}")
        return 2
    report = result.write(cfg.section("output")["directory"])
    print(result.log_line() + f" report={report} report_hash={result.report_hash()[:12]}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
