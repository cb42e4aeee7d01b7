"""``store``: a durable provenance store under mixed writes and reads.

One ``DurableProvenanceStore`` writer on a fixed ~300-task layered spec
is preloaded during set-up with 16 runs (~11 MB, five times SQLite's
default 2 MB page cache; the loop's writes grow it past 100 MB), then
closed and reopened (its first ``add_run`` hydrates the preload).  A
read-only store stays open beside it and is never hydrated.  A
single-threaded closed loop makes ``seconds`` x :data:`CYCLES_PER_SECOND`
cycles of:

* one ``add_run`` of a run executed in advance: during set-up, or
  untimed between cycles once the set-up pool is used up (the write);
* ``reads`` (run, task) probes, seeded, each answered by
  ``lineage_tasks`` or ``downstream_tasks`` twice: through
  ``LineageQueryEngine(store=reader)``, the cold read on the SQL path,
  and through ``LineageQueryEngine(store=writer)``, the writer read on
  the hydrated path.

After the loop every read is checked three ways: cold reader, writer and
the run's own ``ProvenanceIndex`` must agree.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from harness import (
    Calibration,
    Latencies,
    RunResult,
    percentile,
    rss_peak_mb,
    scratch_dir,
    work,
)
from tracing import Tracer

#: cycles per second of run length: the baseline's rate (2 vCPUs).  The
#: count is fixed, so the database and the writer's hydrated runs reach
#: the same size however fast ``add_run`` gets
CYCLES_PER_SECOND = 24


@dataclass(frozen=True)
class StoreConfig:
    tasks: int = 300
    preload: int = 16
    pool: int = 64
    reads: int = 4
    setup_repeats: int = 3


TINY = StoreConfig(tasks=40, preload=4, pool=8, reads=2, setup_repeats=1)

SPEC_SEED = 20090931


@dataclass
class _Setup:
    directory: str
    path: str
    spec: object
    writer: object
    reader: object
    pool: List[object]
    reopen_s: float


def _run(spec, seed: int, name: str):
    from repro.provenance.execution import execute

    return execute(spec, run_id=name,
                   inputs={task: f"{seed}/{name}"
                           for task in spec.entry_tasks()})


def _setup(seed: int, config: StoreConfig, name: str) -> _Setup:
    from repro.persistence import DurableProvenanceStore
    from repro.repository.synthetic import synthetic_workflow

    directory = scratch_dir(name)
    path = os.path.join(directory, "provenance.db")
    # one fixed workflow: the seed drives the runs' inputs and the read
    # script, so per-run cost does not swing with the shape of the graph
    spec = synthetic_workflow(SPEC_SEED, config.tasks, shape="layered").spec
    with DurableProvenanceStore(path, spec) as loader:
        for number in range(config.preload):
            loader.add_run(_run(spec, seed, f"pre-{number}"))
    pool = [_run(spec, seed, f"w-{number}") for number in range(config.pool)]
    started = time.perf_counter()
    writer = DurableProvenanceStore(path, spec)
    writer.add_run(pool.pop(0))  # the first add_run hydrates the preload
    reopen_s = time.perf_counter() - started
    reader = DurableProvenanceStore(path, readonly=True)
    return _Setup(directory, path, spec, writer, reader, pool, reopen_s)


def _teardown(state: _Setup) -> None:
    state.reader.close()
    state.writer.close()
    shutil.rmtree(state.directory, ignore_errors=True)


def _truth(run, task_id, kind: str) -> frozenset:
    """The answer straight off the run's ProvenanceIndex."""
    index = run.provenance_index()
    artifact = run.outputs[task_id]
    tasks = (index.lineage_tasks_of_artifact(artifact) if kind == "lineage"
             else index.downstream_tasks_of_artifact(artifact))
    return frozenset(tasks) - {task_id}


def _disk_bytes(state: _Setup) -> Tuple[int, int]:
    """Database + WAL bytes, and summed label/spill blob bytes."""
    size = sum(os.path.getsize(state.path + suffix)
               for suffix in ("", "-wal")
               if os.path.exists(state.path + suffix))
    blob = state.reader.sql_queries().conn.execute(
        "SELECT COALESCE(SUM(COALESCE(LENGTH(anc_spill), 0) "
        "+ COALESCE(LENGTH(desc_spill), 0)), 0) FROM opm_labels"
    ).fetchone()[0]
    return size, blob


def run(seed: int, seconds: float, tracer: Optional[Tracer] = None,
        config: StoreConfig = StoreConfig(), corrupt: bool = False
        ) -> RunResult:
    calibration = Calibration()
    setup_times = []
    state = None
    for repeat in range(config.setup_repeats):
        if state is not None:
            _teardown(state)
        calibration.probe()
        started = time.perf_counter()
        state = _setup(seed, config, f"store-{repeat}")
        setup_times.append(time.perf_counter() - started)
    gc.collect()  # the discarded set-ups' garbage is not the loop's cost
    try:
        result = _measure(seed, seconds, tracer, config, corrupt, state,
                          calibration)
    finally:
        _teardown(state)
    result.metrics["setup_s"] = statistics.median(setup_times)
    result.report["setup_s_samples"] = setup_times
    return result


def _measure(seed: int, seconds: float, tracer: Optional[Tracer],
             config: StoreConfig, corrupt: bool, state: _Setup,
             calibration: Calibration) -> RunResult:
    from repro.provenance.facade import LineageQueryEngine

    cold = LineageQueryEngine(store=state.reader)
    warm = LineageQueryEngine(store=state.writer)
    tasks = list(state.spec.task_ids())
    run_ids = list(state.writer.run_ids())
    rng = random.Random(f"store-script-{seed}")
    latencies = Latencies()
    reads: List[Tuple] = []
    failures: List[str] = []
    attempted = excluded_ns = 0
    made = config.pool
    cycles = work(seconds, CYCLES_PER_SECOND)

    def timed(kind: str, call, *args):
        frame = tracer.open_op(kind) if tracer is not None else None
        started = time.perf_counter_ns()
        try:
            return call(*args), time.perf_counter_ns() - started
        finally:
            if frame is not None:
                tracer.close_op(frame)

    loop_started = time.perf_counter_ns()
    if tracer is not None:
        tracer.active = True
    for _ in range(cycles):
        if not state.pool:
            # ran past the set-up pool: execute more, untimed
            paused = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            state.pool.append(_run(state.spec, seed, f"w-{made}"))
            made += 1
            if tracer is not None:
                tracer.active = True
            excluded_ns += time.perf_counter_ns() - paused
        run = state.pool.pop(0)
        attempted += 1
        try:
            _, elapsed = timed("write", state.writer.add_run, run)
            latencies.add("write", elapsed / 1e6)
            run_ids.append(run.run_id)
        except Exception as exc:  # counted, never fatal to the loop
            failures.append(f"add_run {run.run_id}: {exc!r}")
        for _ in range(config.reads):
            run_id, task = rng.choice(run_ids), rng.choice(tasks)
            kind = "lineage" if rng.random() < 0.5 else "downstream"
            name = f"{kind}_tasks"
            attempted += 2
            try:
                cold_answer, cold_ns = timed(
                    "read_cold", getattr(cold, name), task, run_id)
                warm_answer, warm_ns = timed(
                    "read_writer", getattr(warm, name), task, run_id)
            except Exception as exc:  # counted, never fatal to the loop
                failures.append(f"{name}({task!r}, {run_id}): {exc!r}")
                continue
            latencies.add("read_cold", cold_ns / 1e6)
            latencies.add("read_writer", warm_ns / 1e6)
            reads.append((run_id, task, kind, cold_answer, warm_answer))
        excluded_ns += calibration.probe()
    loop_s = (time.perf_counter_ns() - loop_started - excluded_ns) / 1e9
    if tracer is not None:
        tracer.active = False
    rss_mb = rss_peak_mb()  # before the checks touch every read run

    runs_stored = len(run_ids)
    disk, blobs = _disk_bytes(state)
    if corrupt and reads:
        run_id, task, kind, cold_answer, warm_answer = reads[0]
        cold_answer = frozenset(cold_answer.tasks | {"not-a-task"})
        reads[0] = (run_id, task, kind, cold_answer, warm_answer)
    for run_id, task, kind, cold_answer, warm_answer in reads:
        truth = _truth(state.writer.run(run_id), task, kind)
        for path, answer in (("cold", cold_answer), ("writer", warm_answer)):
            tasks_found = getattr(answer, "tasks", answer)
            if tasks_found != truth:
                failures.append(f"{kind} of {task!r} in {run_id}: {path} "
                                f"read differs from the ProvenanceIndex")
    stored = state.reader.sql_queries().run_ids()
    if len(stored) != runs_stored:
        failures.append(f"{len(stored)} runs on disk, {runs_stored} written")

    writes = latencies.pick("write")
    metrics = {
        "ops_per_s": latencies.count("write", "read_cold", "read_writer")
        / loop_s,
        "op_p50_ms": statistics.median(writes),
        "op_p90_ms": percentile(writes, 0.90),
        "aux_p50_ms": statistics.median(latencies.pick("read_cold")),
        "rss_peak_mb": rss_mb,
    }
    report = {
        "write": latencies.summary("write"),
        "read_cold": latencies.summary("read_cold"),
        "read_writer": latencies.summary("read_writer"),
        "bytes_per_run": disk / runs_stored,
        "runs_stored": runs_stored,
        "preloaded_runs": config.preload,
        "tasks": len(state.spec),
        "layer_extras": {
            "db.bytes_per_run": disk / runs_stored,
            "db.label_bytes_per_run": blobs / runs_stored,
            "store.reopen_s": state.reopen_s,
        },
    }
    return RunResult(attempted=attempted, failed=len(failures),
                     metrics=metrics, report=report, failures=failures,
                     calibration=calibration)
