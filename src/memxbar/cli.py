"""Command-line entry point for the simulation pipeline."""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, MemxbarError
from .pipeline import STAGE_CHOICES, RunConfig, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_ENFORCE = 4

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


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
                        choices=STAGE_CHOICES,
                        help="pipeline stage to execute")
    parser.add_argument("--trials", type=int,
                        help="Monte Carlo trial count override")
    parser.add_argument("--out", help="run output directory override")
    parser.add_argument("--enforce", action="store_true",
                        help="exit nonzero when the analysis or a pattern "
                             "subset misses the permitted error level")
    return parser


def _fail(stage: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "stage": stage,
                      "message": str(exc)}))
    return code


def load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_json(args.config)
    elif args.out is None:
        raise ConfigError("either --config or --out is required")
    elif args.seed is None:
        raise ConfigError("without --config, --seed is required "
                          "(no wall-clock seeding)")
    else:
        cfg = RunConfig(seed=args.seed, out_dir=args.out)
    # run_pipeline checks the overrides with the rest of the config
    overrides = {"seed": args.seed, "out_dir": args.out, "trials": args.trials}
    return dataclasses.replace(cfg, **{name: value for name, value
                                       in overrides.items() if value is not None})


def openblas_function(name: str):
    """``openblas_<name>`` of the OpenBLAS bundled with numpy, or None.

    The wheel's library lives in ``numpy.libs`` and may carry the
    ``scipy_`` prefix and the ``64_`` suffix of its 64-bit-integer build.
    """
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def limit_blas_threads(environ=os.environ) -> None:
    """Keep OpenBLAS to one thread unless the user chose a thread count.

    memxbar's products are too small to gain from a thread pool, whose
    spinning threads only burn CPU.  A value set in
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` wins.
    """
    if any(environ.get(name) for name in BLAS_THREAD_VARIABLES):
        return
    set_threads = openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def main(argv=None) -> int:
    limit_blas_threads()
    args = build_parser().parse_args(argv)
    try:   # run_pipeline checks the config before any stage runs
        summary = run_pipeline(load_config(args), args.stage)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except MemxbarError as exc:
        return _fail(args.stage, exc, EXIT_STAGE)
    print(json.dumps(summary, sort_keys=True))
    if args.enforce and False in (summary.get("passed"),
                                  summary.get("subsets_passed")):
        return EXIT_ENFORCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
