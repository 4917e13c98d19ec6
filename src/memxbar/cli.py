"""Command-line entry point for the simulation pipeline."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, MemxbarError
from .pipeline import STAGES, RunConfig, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_ENFORCE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memxbar",
        description="Memristor-crossbar perceptron: synthesize data, train, "
                    "program the arrays, and stress-test against component "
                    "tolerances.",
    )
    parser.add_argument("--config", help="run configuration JSON")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--stage", default="all",
                        choices=list(STAGES) + ["report", "all"],
                        help="pipeline stage to execute")
    parser.add_argument("--trials", type=int,
                        help="Monte Carlo trial count override")
    parser.add_argument("--threads", type=int,
                        help="trial-pool threads (0 = auto)")
    parser.add_argument("--out", help="run output directory override")
    parser.add_argument("--enforce", action="store_true",
                        help="exit nonzero when the analysis misses the "
                             "permitted error level")
    return parser


def _fail(stage: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "stage": stage,
                      "message": str(exc)}))
    return code


def load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_json(args.config)
    else:
        if args.out is None:
            raise ConfigError("either --config or --out is required")
        if args.seed is None:
            raise ConfigError("without --config, --seed is required "
                              "(no wall-clock seeding)")
        cfg = RunConfig(seed=args.seed, out_dir=args.out)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        from pathlib import Path
        cfg.out_dir = Path(args.out)
    if args.trials is not None:
        cfg.trials = args.trials
    if args.threads is not None:
        cfg.threads = args.threads
    cfg.check_counts()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    try:
        summary = run_pipeline(cfg, args.stage)
    except ConfigError as exc:
        return _fail(args.stage, exc, EXIT_CONFIG)
    except MemxbarError as exc:
        return _fail(args.stage, exc, EXIT_STAGE)
    print(json.dumps(summary, sort_keys=True))
    if args.enforce and summary.get("passed") is False:
        return EXIT_ENFORCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
