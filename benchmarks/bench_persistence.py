"""Durable persistence: cold ingest throughput and warm-restart speedup.

Two claims of the persistence layer are under measurement:

* **cold ingest** — appending runs to the SQLite-backed
  ``DurableProvenanceStore`` (one ``BEGIN IMMEDIATE`` transaction per
  run, WAL, ``synchronous=NORMAL``) keeps a throughput the same order as
  the volatile in-memory store, and a reopened store hydrates the whole
  log back in bounded time;
* **warm restart** — re-running the full ``lineage_audit`` pipeline of
  ``AnalysisService`` over an already-analyzed corpus, with the
  ``AnalysisResultCache`` behind it, is **>= 3x** faster than the cold
  sweep because every view's record is served from the cache (the
  validator/corrector/comparison machinery never runs — the
  instrumentation probe counts zero computations).  Decisions are
  asserted identical between the plain, cold and warm sweeps, so the
  speedup is cached work, not skipped work.

Runs two ways:

* ``python -m pytest -q -s benchmarks/bench_persistence.py`` — the
  assertion-carrying experiments (decision identity + the >= 3x gate);
* ``python benchmarks/bench_persistence.py [--quick] [--min-speedup X]
  [--out BENCH_persistence.json]`` — the sweep, recording a
  ``BENCH_*.json`` datapoint; a non-zero exit when the warm restart
  misses ``--min-speedup`` makes it a CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict, List

import _bootstrap  # noqa: F401  (sys.path + output-path pinning)
from repro.persistence import DurableProvenanceStore
from repro.provenance.execution import execute
from repro.provenance.store import ProvenanceStore
from repro.repository.corpus import CorpusSpec
from repro.repository.synthetic import synthetic_workflow
from repro.service import AnalysisService
from repro.service.worker import set_validation_probe

from conftest import print_table

QUICK_CORPUS = CorpusSpec(seed=20090931, count=12, min_size=50, max_size=90)
FULL_CORPUS = CorpusSpec(seed=20090931, count=16, min_size=60, max_size=120)

INGEST_TASKS = 60
INGEST_RUNS_QUICK = 40
INGEST_RUNS_FULL = 120


# -- cold ingest --------------------------------------------------------------


def run_ingest(runs: int, tasks: int = INGEST_TASKS) -> Dict[str, float]:
    """Ingest ``runs`` distinct executions durably and volatilely; then
    time a from-scratch reopen (spec load included) and hydration of the
    durable log."""
    spec = synthetic_workflow(20090931, tasks, shape="layered").spec
    executed = [execute(spec, run_id=f"run-{i}", inputs={
        task: f"batch-{i}" for task in spec.entry_tasks()})
        for i in range(runs)]

    volatile = ProvenanceStore(spec)
    started = time.perf_counter()
    for run in executed:
        volatile.add_run(run)
    volatile_s = time.perf_counter() - started

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ingest.db")
        durable = DurableProvenanceStore(path, spec)
        started = time.perf_counter()
        for run in executed:
            durable.add_run(run)
        durable_s = time.perf_counter() - started
        durable.close()

        # the clock covers the open too: parsing the pinned spec is part
        # of every reopen a user pays for
        started = time.perf_counter()
        reopened = DurableProvenanceStore(path)
        count = len(reopened)  # triggers the lazy hydration
        hydrate_s = time.perf_counter() - started
        assert count == runs
        reopened.close()

    return {
        "runs": runs,
        "tasks": tasks,
        "durable_s": durable_s,
        "durable_runs_per_s": runs / durable_s,
        "volatile_runs_per_s": runs / volatile_s,
        "hydrate_s": hydrate_s,
        "hydrate_runs_per_s": runs / hydrate_s,
    }


# -- warm restart -------------------------------------------------------------


def run_warm_restart(corpus: CorpusSpec) -> Dict[str, object]:
    """Plain (no db) vs cold (db, empty cache) vs warm (db, full cache)
    lineage-audit sweeps; decisions asserted identical throughout."""
    computed: List[int] = []
    set_validation_probe(lambda op, index, family: computed.append(index))
    try:
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "analysis.db")

            started = time.perf_counter()
            plain = list(AnalysisService(workers=1).lineage_audit(corpus))
            plain_s = time.perf_counter() - started
            computed.clear()

            started = time.perf_counter()
            cold = list(AnalysisService(workers=1, db_path=path)
                        .lineage_audit(corpus))
            cold_s = time.perf_counter() - started
            cold_computed = len(computed)
            computed.clear()

            started = time.perf_counter()
            warm = list(AnalysisService(workers=1, db_path=path)
                        .lineage_audit(corpus))
            warm_s = time.perf_counter() - started
            warm_computed = len(computed)
    finally:
        set_validation_probe(None)

    assert plain == cold == warm, "cached decisions diverged"
    assert cold_computed == corpus.count
    assert warm_computed == 0
    return {
        "entries": corpus.count,
        "views": len(plain),
        "plain_sweep_s": plain_s,
        "cold_sweep_s": cold_s,
        "warm_sweep_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "cache_write_overhead": cold_s / plain_s,
        "computed_cold": cold_computed,
        "computed_warm": warm_computed,
    }


def run_sweep(corpus: CorpusSpec, ingest_runs: int) -> Dict[str, object]:
    return {"ingest": run_ingest(ingest_runs),
            **run_warm_restart(corpus)}


def _print_sweep(sweep: Dict[str, object]) -> None:
    ingest = sweep["ingest"]
    print_table(
        f"cold ingest ({ingest['runs']} runs x {ingest['tasks']} tasks)",
        ["path", "throughput"],
        [["durable add_run", f"{ingest['durable_runs_per_s']:.0f} runs/s"],
         ["volatile add_run",
          f"{ingest['volatile_runs_per_s']:.0f} runs/s"],
         ["reopen + hydrate",
          f"{ingest['hydrate_runs_per_s']:.0f} runs/s"]])
    print_table(
        f"warm restart: lineage audit over {sweep['entries']} entries",
        ["sweep", "wall (s)", "views computed"],
        [["no database", f"{sweep['plain_sweep_s']:.3f}", sweep["views"]],
         ["cold (cache empty)", f"{sweep['cold_sweep_s']:.3f}",
          sweep["computed_cold"]],
         ["warm (cache full)", f"{sweep['warm_sweep_s']:.3f}",
          sweep["computed_warm"]]])
    print(f"warm-restart speedup: {sweep['warm_speedup']:.1f}x")


# -- the pytest experiments ---------------------------------------------------


def test_warm_restart_decisions_identical_and_gate():
    """The acceptance criterion, pinned as an executable assertion."""
    sweep = run_warm_restart(QUICK_CORPUS)
    assert sweep["warm_speedup"] >= 3.0, (
        f"warm restart only {sweep['warm_speedup']:.1f}x faster than the "
        f"cold sweep")


def test_durable_ingest_and_hydration_complete():
    ingest = run_ingest(10, tasks=30)
    assert ingest["durable_runs_per_s"] > 0
    assert ingest["hydrate_runs_per_s"] > 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail (exit 1) if the warm restart is below "
                             "this speedup over the cold sweep")
    parser.add_argument("--out", default=None,
                        help="write a BENCH_*.json datapoint here")
    args = parser.parse_args(argv)
    corpus = QUICK_CORPUS if args.quick else FULL_CORPUS
    ingest_runs = INGEST_RUNS_QUICK if args.quick else INGEST_RUNS_FULL
    sweep = run_sweep(corpus, ingest_runs)
    _print_sweep(sweep)
    if args.out:
        args.out = _bootstrap.resolve_out(args.out)
        payload = {
            "benchmark": "durable_persistence",
            "unit": "s_wall_per_sweep",
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                        time.gmtime()),
            "workload": (
                "SQLite WAL store: %d-run ingest of a %d-task workflow; "
                "warm restart = full lineage-audit pipeline over a "
                "mixed-scenario corpus (%d entries, %d-%d tasks) served "
                "from the fingerprint-keyed AnalysisResultCache, "
                "decisions asserted identical to the uncached sweep" % (
                    ingest_runs, INGEST_TASKS, corpus.count,
                    corpus.min_size, corpus.max_size)),
            **sweep,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.min_speedup is not None \
            and sweep["warm_speedup"] < args.min_speedup:
        print(f"FAIL: warm-restart speedup {sweep['warm_speedup']:.1f}x "
              f"is below the {args.min_speedup:.1f}x gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
