"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench/`` from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import harness

harness.bootstrap()

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload_edit  # noqa: E402
import workload_serve  # noqa: E402
import workload_store  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MODULES = {"edit": workload_edit, "serve": workload_serve,
           "store": workload_store}


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _tiny(name: str, tracer=None, corrupt: bool = False):
    module = MODULES[name]
    return module.run(7, 1.0, tracer=tracer, config=module.TINY,
                      corrupt=corrupt)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    layer_metrics = {name for name, _, _ in layers.PER_LAYER
                     if not name.startswith(("lead.", "traced."))}
    assert set(layers.MOVES) == layer_metrics
    for targets in layers.MOVES.values():
        for metric, workload in targets:
            assert workload in run.WORKLOADS
            assert metric in run.END_TO_END_UNITS \
                or metric.startswith(layers.REPORT)
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", sorted(MODULES))
def test_tiny_pass_emits_every_end_to_end_metric(name):
    result = _tiny(name)
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    assert set(result.metrics) == set(run.END_TO_END_UNITS)
    for value in result.metrics.values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", sorted(MODULES))
def test_traced_tiny_pass_emits_every_per_layer_metric(name):
    from repro.repository import corpus

    original = corpus.materialize_entry
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    layers.install(instrumentation,
                   sweep_kind=getattr(MODULES[name], "sweep_kind", None))
    try:
        result = _tiny(name, tracer=tracer)
    finally:
        instrumentation.restore()
    assert corpus.materialize_entry is original
    assert result.failed == 0, result.failures
    values = layers.derive(name, tracer, result.report.get(
        "layer_extras", {}))
    assert list(values) == [metric for metric, _, _ in layers.PER_LAYER]
    assert all(math.isfinite(value) for value in values.values())
    assert tracer.spans, "the traced run recorded no spans"
    touched = {"edit": "views.quotient_ms",
               "serve": "corpus.materialize_ms",
               "store": "labeling.label_ms"}[name]
    assert values[touched] > 0


@pytest.mark.parametrize("name", sorted(MODULES))
def test_injected_wrong_answer_is_a_failure(name):
    result = _tiny(name, corrupt=True)
    assert result.failed >= 1
    assert result.attempted >= result.failed


def test_self_time_excludes_children():
    tracer = tracing.Tracer(active=True)
    op = tracer.open_op("move")
    outer = tracer.enter("outer")
    tracer.exit(tracer.enter("inner"))
    tracer.exit(outer)
    tracer.close_op(op)
    spans = {span[3]: span for span in tracer.spans}
    outer, inner = spans["outer"], spans["inner"]
    assert inner[1] == outer[0]
    assert outer[6] == (outer[5] - outer[4]) - (inner[5] - inner[4])
    assert inner[2] == outer[2] == next(iter(tracer.ops))


def _cli(cwd: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "edit", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    done = _cli(str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_refuses_to_run_with_armed_faults():
    env = dict(os.environ, WOLVES_FAULTS="db.busy:busy:p=0.5")
    done = _cli(harness.ROOT, env=env)
    assert done.returncode != 0
    assert "WOLVES_FAULTS" in done.stderr
    assert '"metrics"' not in done.stdout
