"""``serve``: gateway-served lineage-audit jobs.

A gateway runs in the benchmark process in front of one ``wolves serve``
worker started by ``ClusterSupervisor(mode="process")`` with its default
``parallel_jobs``.  Two closed-loop ``GatewayClient`` threads submit
``op="lineage"`` manifests and wait for each result.  Rounds alternate:

* **cold** rounds submit corpora this shard database has never seen,
  with seeds derived from the workload seed;
* **warm** rounds resubmit manifests completed during set-up, which the
  durable analysis cache answers.  The two clients draw disjoint warm
  pools, so nothing coalesces by accident.

A barrier ends each round, so both in-flight jobs are of one kind.  A run
makes ``seconds`` x :data:`ROUNDS_PER_SECOND` rounds.  Each job keeps
only a digest of its records; after the loop every digest is compared
with that of a direct ``AnalysisService(workers=1)`` sweep of the same
corpus.  The traced run hosts the worker in-process (``mode="thread"``)
so the span wrappers see its calls.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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

#: closed-loop gateway clients, one per core of the 2-vCPU baseline host
CLIENTS = 2
#: rounds (one job per client) per second of run length: the baseline's
#: rate (2 vCPUs)
ROUNDS_PER_SECOND = 33


@dataclass(frozen=True)
class ServeConfig:
    entries: int = 8
    min_size: int = 36
    max_size: int = 64
    warm_pool: int = 3
    setup_repeats: int = 3


TINY = ServeConfig(entries=2, min_size=10, max_size=16, warm_pool=1,
                   setup_repeats=1)

#: seeds of cold corpora start here; warm corpora sit just below
_SEED_SPAN = 10 ** 12


@dataclass
class _Job:
    kind: str
    manifest: object
    ms: float
    state: str
    digest: str
    error: Optional[str]


@dataclass
class _Setup:
    db_dir: str
    cluster: object
    warm: List[List[object]]
    #: manifest fingerprint -> digest of the direct sweep's records
    truth: Dict[str, str] = field(default_factory=dict)


def _digest(records: list) -> str:
    """A fingerprint of a job's records: flat frozen dataclasses of
    ints, strings, floats and ``None``, whose ``repr`` is canonical."""
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _base(seed: int) -> int:
    return random.Random(f"serve-{seed}").randrange(_SEED_SPAN)


def _manifest(config: ServeConfig, corpus_seed: int):
    from repro.repository.corpus import CorpusSpec
    from repro.server import JobManifest

    return JobManifest(op="lineage", corpus=CorpusSpec(
        seed=corpus_seed, count=config.entries,
        min_size=config.min_size, max_size=config.max_size))


def _cold_seed(seed: int, round_no: int, client: int) -> int:
    return _SEED_SPAN + _base(seed) + round_no * CLIENTS + client


def _direct(manifest) -> str:
    """The digest of a direct single-process sweep of the corpus."""
    from repro.service import AnalysisService

    return _digest(list(
        AnalysisService(workers=1).lineage_audit(manifest.corpus)))


def sweep_kind(_service, corpus, *_args, **_kwargs) -> Tuple[str, int]:
    """The traced run's op for a worker-side sweep: cold or warm by the
    corpus seed, keyed by it so the client's op can be paired with it."""
    return ("cold" if corpus.seed >= _SEED_SPAN else "warm"), corpus.seed


def _setup(seed: int, config: ServeConfig, mode: str,
           name: str) -> _Setup:
    from repro.server import ClusterSupervisor, GatewayClient

    base = _base(seed)
    warm = [[_manifest(config, base - 1 - client * config.warm_pool - i)
             for i in range(config.warm_pool)]
            for client in range(CLIENTS)]
    state = _Setup(db_dir=scratch_dir(name), cluster=None, warm=warm)
    for pool in warm:
        for manifest in pool:
            state.truth[manifest.fingerprint()] = _direct(manifest)
    state.cluster = ClusterSupervisor(
        1, mode=mode, db_dir=state.db_dir).start()
    try:
        client = GatewayClient(state.cluster.port)
        for pool in warm:
            for manifest in pool:
                result = client.submit(manifest)
                if result.state != "done" or _digest(result.records) \
                        != state.truth[manifest.fingerprint()]:
                    raise RuntimeError(
                        f"set-up job {result.job_id} ended {result.state} "
                        f"({result.error})")
    except BaseException:
        _teardown(state)
        raise
    return state


def _teardown(state: _Setup) -> None:
    if state.cluster is not None:
        state.cluster.stop()
        state.cluster = None
    shutil.rmtree(state.db_dir, ignore_errors=True)


def _worker_process(state: _Setup):
    """The worker's ``DaemonProcess`` (``None`` in thread mode)."""
    return state.cluster.workers[0].proc


def _worker_rss_kb(state: _Setup) -> int:
    proc = _worker_process(state)
    return (proc.rss_peak_kb() or 0) if proc is not None else 0


def run(seed: int, seconds: float, tracer: Optional[Tracer] = None,
        config: ServeConfig = ServeConfig(), corrupt: bool = False
        ) -> RunResult:
    from repro.server import GatewayClient

    mode = "thread" if tracer is not None else "process"
    calibration = Calibration()
    setup_times = []
    state = None
    for repeat in range(config.setup_repeats):
        if state is not None:
            _teardown(state)
        calibration.probe()
        started = time.perf_counter()
        state = _setup(seed, config, mode, f"serve-{repeat}")
        setup_times.append(time.perf_counter() - started)
    gc.collect()  # the discarded set-ups' garbage is not the loop's cost

    worker = _worker_process(state)
    if worker is not None:  # its deferred work must not slow a probe
        calibration.pids.append(worker.proc.pid)
    try:
        jobs, loop_s, errors = _loop(seed, seconds, config, state, tracer,
                                     calibration, GatewayClient)
        # both before the checks' direct sweeps
        worker_kb = _worker_rss_kb(state)
        rss_mb = rss_peak_mb(worker_kb)
    finally:
        _teardown(state)

    if corrupt and jobs:
        jobs[0].digest = _digest([])
    failures = list(errors)
    latencies = Latencies()
    for number, job in enumerate(jobs):
        fingerprint = job.manifest.fingerprint()
        if job.state != "done":
            failures.append(f"job {number}: {job.state} ({job.error})")
            continue
        truth = state.truth.get(fingerprint)
        if truth is None:
            truth = _direct(job.manifest)
        if job.digest != truth:
            failures.append(f"job {number} ({job.kind}): records differ "
                            f"from a direct sweep")
            continue
        latencies.add(job.kind, job.ms)
    cold, warm = latencies.pick("cold"), latencies.pick("warm")
    done = sum(job.state == "done" for job in jobs)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": done / loop_s,
        "op_p50_ms": statistics.median(cold),
        "op_p90_ms": percentile(cold, 0.90),
        "aux_p50_ms": statistics.median(warm),
        "rss_peak_mb": rss_mb,
    }
    report = {
        "mode": mode,
        "jobs_per_s": metrics["ops_per_s"],
        "job_cold": latencies.summary("cold"),
        "job_warm": latencies.summary("warm"),
        "setup_s_samples": setup_times,
        "worker_rss_peak_kb": worker_kb,
        "entries_per_job": config.entries,
    }
    return RunResult(attempted=len(jobs) + len(errors),
                     failed=len(failures), metrics=metrics, report=report,
                     failures=failures, calibration=calibration)


def _loop(seed: int, seconds: float, config: ServeConfig, state: _Setup,
          tracer: Optional[Tracer], calibration: Calibration,
          client_class):
    """The timed closed loop; returns the jobs, the loop's wall time and
    the errors raised by submissions."""
    jobs: List[_Job] = []
    errors: List[str] = []
    lock = threading.Lock()
    rounds = work(seconds, ROUNDS_PER_SECOND)
    stop = threading.Event()
    probed_ns = [0]

    def end_of_round() -> None:
        # both clients wait here: probe the CPU (dropped if the worker
        # is still busy)
        probed_ns[0] += calibration.probe()

    barrier = threading.Barrier(CLIENTS, action=end_of_round)

    def client_loop(client_no: int) -> None:
        client = client_class(state.cluster.port)
        pool = state.warm[client_no]
        for round_no in range(rounds):
            if stop.is_set():
                break
            cold = round_no % 2 == 0
            if cold:
                manifest = _manifest(config, _cold_seed(
                    seed, round_no, client_no))
            else:
                manifest = pool[(round_no // 2) % len(pool)]
            kind = "cold" if cold else "warm"
            frame = (tracer.open_op(f"job_{kind}", manifest.corpus.seed)
                     if tracer is not None else None)
            started = time.perf_counter_ns()
            try:
                result = client.submit(manifest)
            except Exception as exc:  # counted as a failed op
                result = None
                with lock:
                    errors.append(f"{kind} submit: {exc!r}")
            elapsed = (time.perf_counter_ns() - started) / 1e6
            if frame is not None:
                tracer.close_op(frame)
            if result is not None:
                job = _Job(kind, manifest, elapsed, result.state,
                           _digest(result.records), result.error)
                with lock:
                    jobs.append(job)
            try:
                barrier.wait(timeout=120)
            except threading.BrokenBarrierError:
                stop.set()

    threads = [threading.Thread(target=client_loop, args=(number,),
                                name=f"perfbench-client-{number}")
               for number in range(CLIENTS)]
    if tracer is not None:
        tracer.active = True
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    loop_s = time.perf_counter() - started - probed_ns[0] / 1e9
    if tracer is not None:
        tracer.active = False
    return jobs, loop_s, errors
