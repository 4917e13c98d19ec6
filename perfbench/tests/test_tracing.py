import json
from pathlib import Path

import numpy as np

import memxbar
from memxbar import pipeline, stats, tolerance

import tracing
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_union_of_children():
    spans = [
        ("parent", 0.0, 10.0, -1, 1),
        ("child", 1.0, 3.0, 0, 1),
        ("child", 2.0, 5.0, 0, 1),      # overlaps the first child
        ("grandchild", 2.5, 4.5, 2, 1),
        ("child", 8.0, 12.0, 0, 1),     # runs past the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == 10.0 - (4.0 + 2.0)
    assert selfs[1] == 2.0
    assert selfs[2] == 3.0 - 2.0
    assert selfs[3] == 2.0
    assert selfs[4] == 4.0


def test_layer_metrics_from_synthetic_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("tolerance.synthesize_tolerances", 0.0, 6.0, -1, 1),
        ("tolerance.analyze_tolerances", 0.5, 2.5, 0, 1),
        ("tolerance.weight_error_bounds", 2.0, 2.5, 1, 1),
        ("tolerance.analyze_tolerances", 3.0, 5.0, 0, 1),
        ("tolerance.analyze_tolerances", 7.0, 9.0, -1, 2),   # another run
    ]
    tracer.counters[1]["tolerance.trials"] = 1000
    tracer.counters[1]["tolerance.useful_trials"] = 750
    m = tracing.layer_metrics(tracer, 1)
    assert m["tolerance.analyze_tolerances.calls"] == 2
    assert m["tolerance.analyze_tolerances.total_s"] == 4.0
    assert m["tolerance.analyze_tolerances.self_s"] == 3.5
    assert m["tolerance.synthesize_tolerances.self_s"] == 2.0
    assert m["tolerance.probes"] == 2
    assert m["tolerance.us_per_trial"] == 1e6 * 3.5 / 1000
    assert m["tolerance.useful_trial_ratio"] == 0.75
    assert m["crossbar.us_per_pattern"] == 0.0       # layer not used


def test_install_wraps_every_binding_and_uninstall_restores():
    original = tolerance.analyze_tolerances
    draw = stats.truncated_normal
    with tracing.Tracer() as tracer:
        assert pipeline.analyze_tolerances is tolerance.analyze_tolerances
        assert memxbar.analyze_tolerances is tolerance.analyze_tolerances
        assert tolerance.analyze_tolerances.__wrapped__ is original
        assert tolerance.truncated_normal.__wrapped__ is draw
        stats.truncated_normal(np.random.default_rng(0), 0.0, 1.0, 3.0, (2,))
    assert pipeline.analyze_tolerances is original
    assert tolerance.truncated_normal is draw
    assert [s[0] for s in tracer.spans] == ["stats.truncated_normal"]


def test_benchmark_json_lists_the_catalog():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.catalog()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
