"""Shared plumbing of the repository benchmark: paths, the environment
record, percentiles, peak memory and the run result.

Nothing here imports ``repro`` at module load: :func:`bootstrap` puts the
checkout's ``src/`` on ``sys.path`` first and refuses to run against any
other copy of the package.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: the checkout root: the parent of this file's directory
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: everything a run writes (reports, span dumps, scratch databases)
OUT_DIR = os.path.join(ROOT, ".bench_out")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, armed faults)."""


def bootstrap() -> None:
    """Make this checkout's ``repro`` importable, or raise."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise BenchmarkError(f"no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    found = os.path.realpath(os.path.dirname(repro.__file__))
    if found != os.path.realpath(os.path.dirname(package)):
        raise BenchmarkError(f"imported repro from {found}, not {SRC}")
    if os.environ.get("WOLVES_FAULTS"):
        raise BenchmarkError(
            "WOLVES_FAULTS is set; armed fault points would pollute the "
            "baseline")
    # temporary files of this process, SQLite and the worker stay inside
    # the checkout
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = tmp


def scratch_dir(name: str) -> str:
    """A fresh directory under :data:`OUT_DIR` (emptied if it exists)."""
    path = os.path.join(OUT_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def environment() -> Dict[str, object]:
    """What a number depends on besides the code: cores, interpreter,
    SQLite, the bitset kernel and the durable flush policy."""
    from repro.graphs import kernels
    from repro.persistence import db

    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE VIRTUAL TABLE probe USING fts5(text)")
        fts5 = True
    except sqlite3.OperationalError:
        fts5 = False
    finally:
        conn.close()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "kernel": kernels.active_kernel().name,
        "kernel_selection": kernels.selection_source(),
        "fts5": fts5,
        "no_fts_env": bool(os.environ.get("WOLVES_NO_FTS")),
        "journal_mode": db.PRAGMAS["journal_mode"],
        "synchronous": db.PRAGMAS["synchronous"],
        "platform": platform.platform(),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def work(seconds: float, per_second: float) -> int:
    """How many ops one run does: ``seconds`` of them at the baseline's
    rate ``per_second``.  The amount is fixed, not time-bound, so what a
    run keeps in memory and writes to disk does not grow when the
    program gets faster."""
    return max(1, round(seconds * per_second))


def tail_ok(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the
    ``q``-quantile."""
    return count * (1.0 - q) >= 10


def rss_peak_mb(extra_kb: int = 0) -> float:
    """Peak resident set of this process (plus ``extra_kb`` for a
    worker process measured separately), in MiB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        own_kb //= 1024
    return (own_kb + extra_kb) / 1024.0


#: median duration of one :func:`_spin` on the machine the baseline was
#: first recorded on (2 vCPUs, Python 3.11): times are reported at that
#: speed
REFERENCE_PROBE_NS = 840_000


def _spin() -> dict:
    found: dict = {}
    for number in range(20_000):
        key = number & 255
        found[key] = found.get(key, 0) + number
    return found


def _other_threads(pids: Sequence[int]) -> Tuple[int, bool]:
    """Summed CPU time (ns) of every thread of ``pids`` except the
    calling one, and whether any of them is running now.  Off Linux
    (no ``/proc``) every process reads as idle."""
    me = threading.get_native_id()
    runtime, running = 0, False
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            if int(tid) == me:
                continue
            base = f"/proc/{pid}/task/{tid}"
            try:
                with open(f"{base}/stat") as handle:
                    stat = handle.read()
                with open(f"{base}/schedstat") as handle:
                    runtime += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue  # the thread ended between listdir and open
            running = running or stat[stat.rindex(")") + 2] == "R"
    return runtime, running


@dataclass
class Calibration:
    """CPU-speed probes interleaved with a run.

    A shared host can run the interpreter at half speed for minutes at a
    time.  Each probe times a fixed pure-Python loop; the run's times are
    multiplied by :attr:`factor` (reference / median probe), so they read
    as on the reference machine and a slow stretch of the host does not
    move them while a slower program still does.

    A probe only measures the host while the system under test is idle.
    One taken while another thread of this process or of a watched
    process (:attr:`pids`, the serve worker) ran or used CPU is dropped:
    work a program defers past its response would otherwise slow the
    probe and so scale the program's own times down.  Raw times and the
    drop count go in the report.
    """

    probes: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    #: processes besides this one that must be idle during a probe
    pids: List[int] = field(default_factory=list)

    def probe(self) -> int:
        """One probe; returns the nanoseconds it took."""
        watched = [os.getpid()] + self.pids
        before, busy = _other_threads(watched)
        started = time.perf_counter_ns()
        _spin()
        elapsed = time.perf_counter_ns() - started
        after, busy_after = _other_threads(watched)
        if busy or busy_after or after != before:
            self.dropped.append(elapsed)
        else:
            self.probes.append(elapsed)
        return elapsed

    @property
    def factor(self) -> float:
        # every probe was busy: the busy ones are all there is
        return REFERENCE_PROBE_NS / statistics.median(
            self.probes or self.dropped)

    def scale(self, metrics: Dict[str, float]) -> Dict[str, float]:
        """End-to-end metrics at the reference speed."""
        factor = self.factor
        scaled = {}
        for name, value in metrics.items():
            if name.endswith("_per_s"):
                value /= factor
            elif name.endswith("_ms") or name.endswith("_s"):
                value *= factor
            scaled[name] = value
        return scaled


@dataclass
class Latencies:
    """Per-kind latency samples (ms) of one timed loop."""

    samples: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, kind: str, ms: float) -> None:
        self.samples.setdefault(kind, []).append(ms)

    def count(self, *kinds: str) -> int:
        return sum(len(self.samples.get(kind, ())) for kind in kinds)

    def pick(self, *kinds: str) -> List[float]:
        found: List[float] = []
        for kind in kinds:
            found.extend(self.samples.get(kind, ()))
        return found

    def summary(self, *kinds: str) -> Dict[str, object]:
        """Median and every tail percentile with ten samples beyond it."""
        values = self.pick(*kinds)
        row: Dict[str, object] = {"n": len(values)}
        if values:
            row["p50_ms"] = statistics.median(values)
            for name, q in (("p90_ms", 0.90), ("p99_ms", 0.99)):
                if tail_ok(len(values), q):
                    row[name] = percentile(values, q)
        return row


@dataclass
class RunResult:
    """What one workload run hands back to :mod:`run`.

    ``metrics`` carries the end-to-end values as measured, before
    :meth:`Calibration.scale`; ``report`` is the full detail written to
    the run's report file.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    calibration: Calibration = field(default_factory=Calibration)


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str, sort_keys=True)
        handle.write("\n")
