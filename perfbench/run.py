"""memxbar benchmark: stage-group workloads, time-to-verdict metrics and an
outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 20260826 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run builds the workload's inputs several times (``setup_s`` is the
median), then repeats the workload's timed region for ``--seconds`` and
reports the median (``wall_s``).  Every repeat is checked; a repeat that
raises, fails an output check, or writes artifacts that differ from the
first repeat's counts as failed.  With ``--trace 1`` untraced and traced
repeats alternate and the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full run record
(environment, verdict figures, work counts, artifact digests).  The exit
code is 0 when every repeat passed its checks, 1 otherwise, and 2 when the
checkout holds no memxbar sources.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the pipeline runs threads=1 and
# a second pool thread only adds scheduling noise on a small machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 20260826
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5       # cheap set-ups repeat until this much is timed
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
WORKLOAD_NAMES = ("train", "analyze", "synthesize", "circuit")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_memxbar() -> None:
    """Import memxbar from this checkout's sources, never from elsewhere;
    exit 2 without a result when the checkout has none."""
    if not (SRC / "memxbar" / "__init__.py").is_file():
        print(f"perfbench: no memxbar sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import memxbar
    if Path(memxbar.__file__).resolve().parent != SRC / "memxbar":
        print(f"perfbench: memxbar imported from {memxbar.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def _blas_threads(np) -> int | None:
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "memxbar").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration"),
                     "threads": _blas_threads(np)},
            "commit": _commit(), "source_sha256": source.hexdigest()}


def _set_up(wl, seed: int, run_dir: Path):
    """Build the inputs several times; fixture builds must agree."""
    import checks
    import workloads

    times, fixture = [], None
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or time.perf_counter() - start < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        cfg = workloads.setup(wl, seed, run_dir)
        times.append(time.perf_counter() - t0)
        if wl.setup_stages:
            digest = checks.digests(run_dir)
            if fixture is not None and digest != fixture:
                raise checks.CheckFailed("fixture differs between set-ups")
            fixture = digest
    return cfg, times


def _repeat(wl, cfg, tracer):
    """One timed repeat, traced when ``tracer`` is given, then its checks.

    Returns (wall seconds, CPU seconds, verdict figures, artifact digests).
    """
    import checks
    import tracing
    import workloads

    if tracer is None:
        context = contextlib.nullcontext()
        span = lambda stage: contextlib.nullcontext()
    else:
        context = tracer
        span = lambda stage: tracer.span(tracing.STAGE_SPANS[stage])
    with context:
        c0, t0 = time.process_time(), time.perf_counter()
        result = workloads.timed_region(wl, cfg, span)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return wall, cpu, wl.check(cfg, result), checks.digests(cfg.out_dir)


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    cfg, setup_times = _set_up(wl, seed, work / "run")
    tracer = tracing.Tracer() if trace else None
    config = {k: v for k, v in cfg.to_dict().items() if k != "out_dir"}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "config": config,
              "setup_repeats": len(setup_times), "failures": [],
              "figures": {}, "artifacts": None}
    walls, cpus, per_layer = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if trace else (False,)):
            attempted += 1
            if with_trace:
                tracer.run += 1
            try:
                wall, cpu, figures, digest = _repeat(
                    wl, cfg, tracer if with_trace else None)
                if record["artifacts"] is None:
                    record["artifacts"] = digest
                elif digest != record["artifacts"]:
                    changed = sorted(
                        k for k in digest.keys() | record["artifacts"]
                        if digest.get(k) != record["artifacts"].get(k))
                    raise checks.CheckFailed(f"artifacts differ: {changed}")
            except Exception as exc:
                failed += 1
                record["failures"].append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            record["figures"] = figures
            if with_trace:
                layer = tracing.layer_metrics(tracer, tracer.run)
                layer["crossbar.rail_bound_patterns"] = figures.get(
                    "rail_bound_patterns", 0)
                per_layer.append((wall, layer))
            else:
                walls.append(wall)
                cpus.append(cpu)
        if not walls and failed >= 3:
            break
        pace = statistics.median(walls) * (2 if trace else 1) if walls else 0
        if time.perf_counter() - start + pace > seconds:
            break

    record.update(wall_samples=walls, cpu_samples=cpus)
    metrics = {}
    if walls:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if per_layer and walls:
        layer = tracing.median_metrics([m for _, m in per_layer])
        layer["run.cpu_s"] = statistics.median(cpus)
        layer["run.cpu_util"] = statistics.median(
            c / w for c, w in zip(cpus, walls))
        layer["trace.overhead_ratio"] = (
            statistics.median(w for w, _ in per_layer) / metrics["wall_s"]
            - 1.0)
        metrics.update(layer)
        tracer.write_csv(OUT / f"spans-{name}.csv.gz")
    return attempted, failed, metrics, record


def run_one(args) -> int:
    import tracing

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        attempted, failed, metrics, record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception as exc:   # set-up failed: nothing could be timed
        traceback.print_exc(file=sys.stderr)
        attempted, failed, metrics = 1, 1, {}
        record = {"workload": args.workload, "seed": args.seed,
                  "failures": [f"set-up: {type(exc).__name__}: {exc}"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment()
    record["failed_ratio"] = failed / attempted
    correct = failed == 0

    names = tracing.catalog() if args.trace else END_TO_END
    shown = {name: {"value": metrics.get(name, 0.0), "unit": unit}
             for name, unit in names}
    for name, entry in shown.items():
        print(f"{args.workload:<10} {name:<48} {entry['value']:.6g} "
              f"{entry['unit']}")
    print(f"{args.workload:<10} {'failed_ratio':<48} "
          f"{record['failed_ratio']:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a process of its own, one after the other, so that
    each process's peak resident memory belongs to one workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        status = status or done.returncode or int(not results[name]["correct"])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_memxbar()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
