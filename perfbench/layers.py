"""Which ``repro`` calls the traced run times, and how the per-layer
metrics are derived from the spans.

Every per-layer metric is reported by every workload; a layer a workload
never calls reads 0.  ``_ms`` metrics are self time per end-to-end
operation: the median over the workload's operations of each one's
summed self time, plus, for spans opened on threads outside any
operation (the daemon's job-log thread and event loop), their total
divided by the number of operations.  Counts are per operation the same
way; ratios are ratios of sums.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Optional, Tuple

from tracing import Instrumentation, Tracer, now_ns

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    # views / core
    ("views.build_ms", "ms", "lower"),
    ("views.quotient_ms", "ms", "lower"),
    ("incremental.validate_ms", "ms", "lower"),
    ("incremental.recomputed", "count", "lower"),
    ("incremental.hit_ratio", "ratio", "higher"),
    ("combinable.check_ms", "ms", "lower"),
    ("corrector.correct_ms", "ms", "lower"),
    # service / repository / provenance
    ("service.sweep_ms", "ms", "lower"),
    ("corpus.materialize_ms", "ms", "lower"),
    ("execution.execute_ms", "ms", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("viewlevel.compare_ms", "ms", "lower"),
    ("facade.truth_ms", "ms", "lower"),
    ("bitops.decode_calls", "count", "lower"),
    ("bitops.decoded_bits", "count", "lower"),
    # server
    ("gateway.hop_ms", "ms", "lower"),
    ("daemon.queue_wait_ms", "ms", "lower"),
    ("daemon.coalesced", "count", "higher"),
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.wire_bytes_per_record", "bytes", "lower"),
    ("joblog.submit_ms", "ms", "lower"),
    ("joblog.finish_ms", "ms", "lower"),
    ("catalog.job_finish_ms", "ms", "lower"),
    # persistence: analysis cache
    ("cache.get_ms", "ms", "lower"),
    ("cache.memo_hit_ratio", "ratio", "higher"),
    ("cache.put_ms", "ms", "lower"),
    # persistence: provenance store
    ("labeling.label_ms", "ms", "lower"),
    ("db.txn_ms", "ms", "lower"),
    ("catalog.apply_run_ms", "ms", "lower"),
    ("store.mirror_ms", "ms", "lower"),
    ("sql.query_ms", "ms", "lower"),
    ("labeling.spill_decode_ms", "ms", "lower"),
    ("facade.route_ms", "ms", "lower"),
    ("facade.hydrated_ms", "ms", "lower"),
    ("db.label_bytes_per_run", "bytes", "lower"),
    ("db.bytes_per_run", "bytes", "lower"),
    ("store.reopen_s", "s", "lower"),
    # the ROADMAP's four leads, as shares of the op they were claimed for
    ("lead.edit_rebuild_share", "ratio", "lower"),
    ("lead.materialize_share", "ratio", "lower"),
    ("lead.bit_indices_share", "ratio", "lower"),
    ("lead.label_share", "ratio", "lower"),
    # the traced run's own end-to-end figures (overhead = vs untraced)
    ("traced.ops_per_s", "1/s", "higher"),
    ("traced.op_p50_ms", "ms", "lower"),
    ("traced.op_p90_ms", "ms", "lower"),
    ("traced.aux_p50_ms", "ms", "lower"),
]

#: prefix of a target that is a field of the run's report file, not a
#: bounded end-to-end metric of BENCHMARK.json
REPORT = "report:"

#: the (end-to-end metric, workload) pairs each layer metric should move,
#: written down before measuring.  A metric is one of BENCHMARK.json's
#: end-to-end metrics, or ``report:<field>`` for an unbounded figure
#: under ``detail`` in ``.bench_out/report-<workload>-*.json`` where no
#: bounded metric tracks the layer.  ``views.build_ms`` should not move
#: on serve.
MOVES: Dict[str, List[Tuple[str, str]]] = {
    "views.build_ms": [("op_p50_ms", "edit")],
    "views.quotient_ms": [("op_p50_ms", "edit")],
    "incremental.validate_ms": [("op_p50_ms", "edit"),
                                ("op_p50_ms", "serve")],
    "incremental.recomputed": [("op_p90_ms", "edit")],
    "incremental.hit_ratio": [("op_p90_ms", "edit")],
    "combinable.check_ms": [("aux_p50_ms", "edit")],
    "corrector.correct_ms": [("op_p50_ms", "serve")],
    "service.sweep_ms": [("op_p50_ms", "serve")],
    "corpus.materialize_ms": [("op_p50_ms", "serve")],
    "execution.execute_ms": [("op_p50_ms", "serve")],
    "index.build_ms": [("op_p50_ms", "serve"), ("ops_per_s", "store"),
                       (REPORT + "read_writer.p99_ms", "store")],
    "viewlevel.compare_ms": [("op_p50_ms", "serve")],
    "facade.truth_ms": [("op_p50_ms", "serve")],
    "bitops.decode_calls": [("op_p50_ms", "serve")],
    "bitops.decoded_bits": [("op_p50_ms", "serve")],
    "gateway.hop_ms": [("aux_p50_ms", "serve")],
    "daemon.queue_wait_ms": [("op_p90_ms", "serve"), ("ops_per_s", "serve")],
    "daemon.coalesced": [("ops_per_s", "serve")],
    "protocol.encode_ms": [("aux_p50_ms", "serve")],
    "protocol.decode_ms": [("aux_p50_ms", "serve")],
    "protocol.wire_bytes_per_record": [("aux_p50_ms", "serve")],
    "joblog.submit_ms": [("aux_p50_ms", "serve")],
    "joblog.finish_ms": [("aux_p50_ms", "serve")],
    "catalog.job_finish_ms": [("aux_p50_ms", "serve")],
    "cache.get_ms": [("aux_p50_ms", "serve")],
    "cache.memo_hit_ratio": [("aux_p50_ms", "serve")],
    "cache.put_ms": [("op_p50_ms", "serve")],
    "labeling.label_ms": [("op_p50_ms", "store")],
    "db.txn_ms": [("op_p90_ms", "store")],
    "catalog.apply_run_ms": [("op_p50_ms", "store")],
    "store.mirror_ms": [("op_p50_ms", "store"), ("rss_peak_mb", "store")],
    "sql.query_ms": [("aux_p50_ms", "store")],
    "labeling.spill_decode_ms": [("aux_p50_ms", "store"),
                                 (REPORT + "read_cold.p99_ms", "store")],
    "facade.route_ms": [("aux_p50_ms", "store"), ("ops_per_s", "store")],
    "facade.hydrated_ms": [("ops_per_s", "store"),
                           (REPORT + "read_writer.p50_ms", "store")],
    "db.label_bytes_per_run": [(REPORT + "bytes_per_run", "store")],
    "db.bytes_per_run": [(REPORT + "bytes_per_run", "store")],
    "store.reopen_s": [("setup_s", "store"), ("rss_peak_mb", "store")],
}

#: the share each ROADMAP lead claimed; a lead "holds" when the traced
#: share is at least two thirds of the claim
LEAD_CLAIMS = {
    "lead.edit_rebuild_share": 0.98,  # 19 ms edit vs 0.27 ms revalidation
    "lead.materialize_share": 0.37,
    "lead.bit_indices_share": 0.23,
    "lead.label_share": 0.45,
}

#: each workload's operations (the default scope of a metric)
OP_KINDS = {
    "edit": ("move", "merge"),
    "serve": ("cold", "warm"),
    "store": ("write", "read_cold", "read_writer"),
}

#: span name(s) behind each self-time metric
SPANS: Dict[str, Tuple[str, ...]] = {
    "views.build_ms": ("views.build",),
    "views.quotient_ms": ("views.quotient",),
    "incremental.validate_ms": ("incremental.validate",),
    "combinable.check_ms": ("combinable.check",),
    "corrector.correct_ms": ("corrector.correct",),
    "corpus.materialize_ms": ("corpus.materialize",),
    "execution.execute_ms": ("execution.execute",),
    "index.build_ms": ("index.build",),
    "viewlevel.compare_ms": ("viewlevel.compare",),
    "facade.truth_ms": ("facade.truth",),
    "protocol.encode_ms": ("protocol.encode",),
    "protocol.decode_ms": ("protocol.decode",),
    "joblog.submit_ms": ("joblog.submit",),
    "joblog.finish_ms": ("joblog.finish",),
    "catalog.job_finish_ms": ("catalog.job_finish",),
    "cache.get_ms": ("cache.get",),
    "cache.put_ms": ("cache.put",),
    "labeling.label_ms": ("labeling.label",),
    "db.txn_ms": ("db.txn",),
    "catalog.apply_run_ms": ("catalog.apply_run",),
    "store.mirror_ms": ("store.mirror",),
    "sql.query_ms": ("sql.query",),
    "labeling.spill_decode_ms": ("labeling.spill_decode",),
    "facade.route_ms": ("facade.route",),
    "facade.hydrated_ms": ("facade.hydrated",),
}

#: metric -> workload -> the operation kinds it is measured over, where
#: that is narrower than the workload's default
SCOPES: Dict[str, Dict[str, Tuple[str, ...]]] = {}
for _name in ("views.build_ms", "views.quotient_ms",
              "incremental.validate_ms", "incremental.recomputed",
              "incremental.hit_ratio", "corrector.correct_ms",
              "service.sweep_ms", "corpus.materialize_ms",
              "execution.execute_ms", "index.build_ms",
              "viewlevel.compare_ms", "facade.truth_ms",
              "bitops.decode_calls", "bitops.decoded_bits", "cache.put_ms"):
    SCOPES.setdefault(_name, {})["serve"] = ("cold",)
SCOPES["combinable.check_ms"] = {"edit": ("merge",)}
SCOPES["cache.get_ms"] = {"serve": ("warm",)}
SCOPES["protocol.decode_ms"] = {"serve": ("job_warm",)}
for _name in ("labeling.label_ms", "db.txn_ms", "catalog.apply_run_ms",
              "store.mirror_ms"):
    SCOPES[_name] = {"store": ("write",)}
for _name in ("sql.query_ms", "labeling.spill_decode_ms"):
    SCOPES[_name] = {"store": ("read_cold",)}
SCOPES["facade.route_ms"] = {"store": ("read_cold", "read_writer")}
SCOPES["facade.hydrated_ms"] = {"store": ("read_writer",)}
SCOPES["index.build_ms"]["store"] = ("read_writer",)

#: metric -> workloads where it is a mean per op, not a median: the
#: layer runs on a minority of ops, so it shows in the tail, not at p50
MEANS: Dict[str, Tuple[str, ...]] = {"index.build_ms": ("store",)}


def install(instr: Instrumentation,
            sweep_kind: Optional[Callable] = None) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    ``sweep_kind(service, corpus, ...)`` names the operation an
    :meth:`AnalysisService.lineage_audit` sweep belongs to (``(kind,
    key)``), which makes each sweep an operation root on its thread.
    """
    from repro.core import combinable, corrector, incremental
    from repro.graphs import labeling
    from repro.graphs.dag import Digraph
    from repro.graphs.kernels import bitops
    from repro.persistence import cache, catalog, db, sqlqueries
    from repro.provenance import execution, facade, index, viewlevel
    from repro.provenance.store import ProvenanceStore
    from repro.repository import corpus
    from repro.server import jobs, joblog, protocol
    from repro.service.service import AnalysisService
    from repro.views.view import WorkflowView

    tracer = instr.tracer
    span = instr.spanned

    instr.method(WorkflowView, "__init__", span("views.build"))
    instr.method(Digraph, "quotient", span("views.quotient"))
    instr.method(WorkflowView, "quotient_cycle", span("views.quotient"))
    instr.method(incremental.AnalysisCache, "validate", _validate(tracer))
    instr.function(combinable, "composites_combinable",
                   span("combinable.check"))
    instr.function(corrector, "correct_view", span("corrector.correct"))

    instr.method(AnalysisService, "lineage_audit",
                 instr.spanned_stream("service.sweep",
                                      sweep_kind or (lambda *a, **k: None)))
    instr.function(corpus, "materialize_entry", span("corpus.materialize"))
    instr.function(execution, "execute", span("execution.execute"))
    instr.method(index.ProvenanceIndex, "__init__", span("index.build"))
    instr.function(viewlevel, "run_lineage_comparisons",
                   span("viewlevel.compare"))
    instr.method(facade.LineageQueryEngine, "lineage_tasks_many",
                 span("facade.truth"))

    def decoded(result, _args, _kwargs) -> None:
        tracer.count("bitops.decode_calls")
        tracer.count("bitops.decoded_bits", len(result))

    instr.function(bitops, "bit_indices", span("bitops.decode", decoded,
                                                leaf=True))

    def wire_size(result, _args, _kwargs) -> None:
        tracer.sample("protocol.wire_bytes",
                      sum(len(value) for value in result.values()))

    instr.function(protocol, "record_to_wire",
                   span("protocol.encode", wire_size))
    instr.function(protocol, "record_from_wire", span("protocol.decode"))
    _queue_waits(instr, jobs)

    def coalesced(_result, _args, _kwargs) -> None:
        tracer.count("daemon.coalesced")

    instr.method(jobs.Computation, "attach",
                 span("daemon.attach", coalesced))
    instr.method(joblog.JobLog, "record_submit", span("joblog.submit"))
    instr.method(joblog.JobLog, "record_finish", span("joblog.finish"))
    instr.function(catalog, "apply_job_finish", span("catalog.job_finish"))

    def memo(result, _args, _kwargs) -> None:
        tracer.count("cache.memo_lookups")
        if result:
            tracer.count("cache.memo_hits")

    instr.method(cache.AnalysisResultCache, "get", span("cache.get"))
    instr.method(cache.AnalysisResultCache, "get_memo",
                 span("cache.get", memo))
    instr.method(cache.AnalysisResultCache, "put_many", span("cache.put"))

    instr.function(labeling, "label_provenance", span("labeling.label"))
    instr.function(db, "transaction", instr.spanned_cm("db.txn"))
    instr.function(catalog, "apply_run", span("catalog.apply_run"))
    instr.method(ProvenanceStore, "add_run", span("store.mirror"))
    for name in ("lineage_tasks", "downstream_tasks"):
        instr.method(sqlqueries.SqlLineageQueries, name, span("sql.query"))
        instr.method(facade.LineageQueryEngine, name, span("facade.route"))
    instr.function(labeling, "blob_to_positions",
                   span("labeling.spill_decode"))
    for name in ("hydrated_lineage_tasks", "hydrated_downstream_tasks"):
        instr.function(facade, name, span("facade.hydrated"))


def _validate(tracer: Tracer) -> Callable:
    """``AnalysisCache.validate`` with its recomputed-set size and
    witness hit/miss deltas counted."""

    def factory(original: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            if not tracer.active:
                return original(self, *args, **kwargs)
            hits, misses = self.stats.hits, self.stats.misses
            frame = tracer.enter("incremental.validate")
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.count("incremental.recomputed",
                             len(self.stats.last_recomputed))
                new_hits = self.stats.hits - hits
                tracer.count("incremental.hits", new_hits)
                tracer.count("incremental.lookups",
                             new_hits + self.stats.misses - misses)
                tracer.exit(frame)
        return wrapper
    return factory


def _queue_waits(instr: Instrumentation, jobs) -> None:
    """``JobQueue.put`` -> ``pop`` of the same computation, as samples."""
    tracer = instr.tracer
    queued: Dict[int, int] = {}

    def put_factory(original: Callable) -> Callable:
        def put(self, computation):
            original(self, computation)
            if tracer.active:
                queued[id(computation)] = now_ns()
        return put

    def pop_factory(original: Callable) -> Callable:
        def pop(self):
            computation = original(self)
            if computation is not None:
                started = queued.pop(id(computation), None)
                if tracer.active and started is not None:
                    tracer.sample("daemon.queue_wait_ms",
                                  (now_ns() - started) / 1e6)
            return computation
        return pop

    instr.method(jobs.JobQueue, "put", put_factory)
    instr.method(jobs.JobQueue, "pop", pop_factory)


# -- derivation ---------------------------------------------------------------


def _scope(metric: str, workload: str) -> Tuple[str, ...]:
    return SCOPES.get(metric, {}).get(workload, OP_KINDS[workload])


def _per_op(by_op: Dict[int, float], ops, mean: bool = False) -> float:
    """Median (or mean) over ``ops`` of each op's value, plus the
    unattributed total spread over them."""
    if not ops:
        return 0.0
    average = statistics.mean if mean else statistics.median
    attributed = average([by_op.get(op.op_id, 0.0) for op in ops])
    return attributed + by_op.get(0, 0.0) / len(ops)


def _ratio(tracer: Tracer, num: str, den: str, ops) -> float:
    ids = {op.op_id for op in ops} | {0}
    top = sum(v for k, v in tracer.count_by_op(num).items() if k in ids)
    bottom = sum(v for k, v in tracer.count_by_op(den).items() if k in ids)
    return top / bottom if bottom else 0.0


def _share(tracer: Tracer, names: Tuple[str, ...], ops) -> float:
    """Summed self time of ``names`` over summed duration of ``ops``."""
    if not ops:
        return 0.0
    by_op = tracer.self_ms_by_op(names)
    part = sum(by_op.get(op.op_id, 0.0) for op in ops)
    whole = sum((op.end - op.start) / 1e6 for op in ops)
    return part / whole if whole else 0.0


def _hops(tracer: Tracer) -> List[float]:
    """Client wall minus the worker-side sweep span, per warm job: each
    client op is paired with the sweep of the same manifest that ran
    inside its interval."""
    sweeps = [op for op in tracer.ops_of(("warm",))]
    hops = []
    for job in tracer.ops_of(("job_warm",)):
        for sweep in sweeps:
            if sweep.key == job.key and job.start <= sweep.start \
                    and sweep.end <= job.end:
                hops.append(((job.end - job.start)
                             - (sweep.end - sweep.start)) / 1e6)
                break
    return hops


def derive(workload: str, tracer: Tracer,
           extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric for one traced run of ``workload``;
    ``extras`` supplies the values measured outside the spans."""
    values: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        ops = tracer.ops_of(_scope(name, workload))
        if name in extras:
            values[name] = float(extras[name])
        elif name in SPANS:
            values[name] = _per_op(tracer.self_ms_by_op(SPANS[name]), ops,
                                   mean=workload in MEANS.get(name, ()))
        elif name == "service.sweep_ms":
            values[name] = _per_op(
                tracer.total_ms_by_op(("service.sweep",)), ops)
        elif name in ("incremental.recomputed", "bitops.decode_calls",
                      "bitops.decoded_bits", "daemon.coalesced"):
            values[name] = _per_op(tracer.count_by_op(name), ops)
        elif name == "incremental.hit_ratio":
            values[name] = _ratio(tracer, "incremental.hits",
                                  "incremental.lookups", ops)
        elif name == "cache.memo_hit_ratio":
            values[name] = _ratio(tracer, "cache.memo_hits",
                                  "cache.memo_lookups", ops)
        elif name == "gateway.hop_ms":
            hops = _hops(tracer)
            values[name] = statistics.median(hops) if hops else 0.0
        elif name == "daemon.queue_wait_ms":
            waits = tracer.samples.get(name, [])
            values[name] = statistics.median(waits) if waits else 0.0
        elif name == "protocol.wire_bytes_per_record":
            sizes = tracer.samples.get("protocol.wire_bytes", [])
            values[name] = statistics.mean(sizes) if sizes else 0.0
        elif name == "lead.edit_rebuild_share" and workload == "edit":
            values[name] = _share(tracer, ("views.build", "views.quotient"),
                                  ops)
        elif name == "lead.materialize_share" and workload == "serve":
            values[name] = _share(tracer, ("corpus.materialize",),
                                  tracer.ops_of(("cold",)))
        elif name == "lead.bit_indices_share" and workload == "serve":
            values[name] = _share(tracer, ("bitops.decode",),
                                  tracer.ops_of(("cold",)))
        elif name == "lead.label_share" and workload == "store":
            values[name] = _share(tracer, ("labeling.label",),
                                  tracer.ops_of(("write",)))
        else:
            values[name] = 0.0
    return values


def leads(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Each lead this run measured: claimed share, traced share, and
    whether it holds."""
    found = {}
    for name, claimed in LEAD_CLAIMS.items():
        share = values.get(name, 0.0)
        if share:
            found[name] = {"claimed": claimed, "measured": share,
                           "holds": share >= claimed * 2 / 3}
    return found
