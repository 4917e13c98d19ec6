"""Shared fixtures.

The expensive piece is one full default-configuration pipeline run; it is
executed once per session and every module that needs trained weights,
compiled resistances, or analysis artifacts reads from its directory.
"""

import time
from types import SimpleNamespace

import pytest

from memxbar.pipeline import (STAGES, RunConfig, _load_compiled, _load_params,
                              _load_split, run_pipeline)

from helpers import DEFAULT_SEED


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Run every stage at the default configuration, timing each one."""
    out = tmp_path_factory.mktemp("default_run")
    cfg = RunConfig(seed=DEFAULT_SEED, out_dir=out)
    timings = {}
    summary = None
    for stage in STAGES:
        t0 = time.perf_counter()
        summary = run_pipeline(cfg, stage)
        timings[stage] = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, run_dir=out, summary=summary,
                           timings=timings)


@pytest.fixture(scope="session")
def default_net(default_run):
    return _load_params(default_run.run_dir)


@pytest.fixture(scope="session")
def default_compiled(default_run):
    return _load_compiled(default_run.cfg)


@pytest.fixture(scope="session")
def default_test_split(default_run):
    return _load_split(default_run.run_dir, "test")
