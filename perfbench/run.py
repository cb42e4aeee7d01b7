"""The repository benchmark: three workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload edit|serve|store --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones in ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones.  The full detail of the run (the
environment, every latency summary with its sample count, setup samples,
failures, and with tracing the span dump) goes under ``.bench_out/``.

Workloads (see each ``workload_*.py``):

* ``edit`` -- one user editing a ~2000-task view in a WolvesSession;
* ``serve`` -- two gateway clients submitting lineage-audit jobs to one
  process-mode ``wolves serve`` worker, alternating cold and warm rounds;
* ``store`` -- one durable provenance store writer with a read-only
  store beside it, under interleaved writes and lineage reads.

A run does a fixed amount of work: ``--seconds`` of ops at the
baseline's rate (each workload's ``*_PER_SECOND``), not as many as fit
in ``--seconds``, so memory and disk use do not grow with speed.

End-to-end metrics, each reported by every workload:

=============== ======================================================
``setup_s``      median of three full set-ups in the run
``ops_per_s``    completed ops per second of the loop
``op_p50_ms``    median of the workload's main op: a ``move_task``
                 edit / a cold job / a durable ``add_run``
``op_p90_ms``    90th percentile of the main op
``aux_p50_ms``   median of the second op: a merge edit / a warm job /
                 a cold-store lineage read
``rss_peak_mb``  peak resident set (the benchmark process, plus the
                 worker process on ``serve``)
=============== ======================================================

Times are scaled to a reference CPU speed by calibration probes taken
while the system under test is idle (``harness.Calibration``; a probe
that overlapped any other thread of the benchmark or of the serve worker
is dropped).  The raw figures and the factor are in the report and on
standard error.

An op fails when it raises, ends in a state other than ``done``, or
fails its correctness check; ``failed`` / ``attempted`` is the error
ratio.  The benchmark refuses to run with ``WOLVES_FAULTS`` set.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import List

import harness

WORKLOADS = ("edit", "serve", "store")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.bootstrap()
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = harness.environment()
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} env={env}",
          file=sys.stderr)

    import layers
    import tracing

    module = importlib.import_module(f"workload_{args.workload}")
    tracer = instrumentation = None
    if args.trace:
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        layers.install(instrumentation,
                       sweep_kind=getattr(module, "sweep_kind", None))
    try:
        result = module.run(args.seed, args.seconds, tracer=tracer)
    finally:
        if instrumentation is not None:
            instrumentation.restore()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibration = result.calibration
    metrics = calibration.scale(result.metrics)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": result.attempted,
              "failed": result.failed,
              "error_ratio": result.failed / max(result.attempted, 1),
              "failures": result.failures[:50],
              "end_to_end": metrics, "end_to_end_raw": result.metrics,
              "calibration": {"factor": calibration.factor,
                              "probes": len(calibration.probes),
                              "dropped": len(calibration.dropped),
                              "reference_ns": harness.REFERENCE_PROBE_NS},
              "detail": result.report}
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    if tracer is not None:
        extras = dict(result.report.get("layer_extras", {}))
        extras.update({f"traced.{name}": result.metrics[name]
                       for name in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                                    "aux_p50_ms")})
        metrics = calibration.scale(
            layers.derive(args.workload, tracer, extras))
        report["per_layer"] = metrics
        report["per_layer_moves"] = {
            name: [f"{metric} on {workload}" for metric, workload in moves]
            for name, moves in layers.MOVES.items()}
        report["leads"] = layers.leads(metrics)
        report["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(harness.OUT_DIR,
                                 f"spans-{args.workload}.jsonl"))
    else:
        units = END_TO_END_UNITS
    harness.write_json(os.path.join(harness.OUT_DIR, f"report-{stem}.json"),
                       report)
    for failure in result.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench: raw={json.dumps(result.metrics)} "
          f"factor={calibration.factor:.4f} "
          f"probes={len(calibration.probes)} "
          f"dropped={len(calibration.dropped)}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "aux_p50_ms": "ms",
    "rss_peak_mb": "MB",
}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
