"""``edit``: one user editing a large workflow view in a WolvesSession.

A layered spec of about 2000 tasks carries an interval view of about 100
composites.  One closed-loop user applies, one at a time:

* a ``session.move_task`` boundary nudge: the topologically last (or
  first) member of a composite moves into the neighbouring interval,
  which keeps the view well-formed;
* at a fixed seeded share, a ``session.create_composite_task`` merging
  two consecutive intervals joined by a quotient edge.

Each timed op is the session call, the edit and its revalidation.  A run
makes ``seconds`` x :data:`EDITS_PER_SECOND` edits.  When merges bring
the composite count below half, a fresh session restarts from the
initial view, untimed.  A seeded sample of the edits' reports is checked
against a from-scratch ``validate_view`` after the loop.
"""

from __future__ import annotations

import dataclasses
import gc
import random
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
    work,
)
from tracing import Tracer

LAYER_WIDTH = 10
MERGE_SHARE = 0.15
#: edits per second of run length: the baseline's rate (2 vCPUs)
EDITS_PER_SECOND = 20


@dataclass(frozen=True)
class EditConfig:
    tasks: int = 2000
    composites: int = 100
    check_share: float = 0.1
    setup_repeats: int = 3


TINY = EditConfig(tasks=200, composites=20, setup_repeats=1,
                  check_share=0.5)


@dataclass
class _State:
    spec: object
    initial: object
    session: object
    order: List
    position: dict


def _setup(config: EditConfig) -> _State:
    from repro.graphs.generators import layered_dag
    from repro.graphs.topo import topological_sort
    from repro.system.session import WolvesSession
    from repro.views.builders import random_convex_view
    from repro.workflow.spec import WorkflowSpec

    # one fixed workflow and view: the seed drives the edit script, so
    # the cost of an edit does not swing with the shape of the graph
    rng = random.Random("edit-spec")
    layers = max(2, config.tasks // LAYER_WIDTH)
    graph = layered_dag(rng, layers, LAYER_WIDTH,
                        stage_sizes=[LAYER_WIDTH] * layers)
    spec = WorkflowSpec.from_digraph("edit-spec", graph)
    # random_convex_view cuts this same order into intervals, so nudges on it
    # keep every composite an interval
    order = topological_sort(spec.graph)
    view = random_convex_view(rng, spec, config.composites,
                              name="edit-view")
    session = WolvesSession(spec, view)
    session.validate()  # the warm state any live session carries
    return _State(spec=spec, initial=view, session=session, order=order,
                  position={task: i for i, task in enumerate(order)})


def _restart(state: _State) -> None:
    from repro.system.session import WolvesSession

    state.session = WolvesSession(state.spec, state.initial)
    state.session.validate()


def _next_interval(state: _State, view, label):
    """The composite right after ``label``'s interval, or ``None``."""
    last = max(view.members(label), key=state.position.get)
    following = state.position[last] + 1
    if following >= len(state.order):
        return None
    return view.composite_of(state.order[following])


def _pick_move(state: _State, rng: random.Random) -> Optional[Tuple]:
    view = state.session.view
    task = rng.choice(state.order)
    source = view.composite_of(task)
    members = view.members(source)
    if rng.random() < 0.5:
        boundary = max(members, key=state.position.get)
        neighbour = state.position[boundary] + 1
    else:
        boundary = min(members, key=state.position.get)
        neighbour = state.position[boundary] - 1
    if not 0 <= neighbour < len(state.order):
        return None
    target = view.composite_of(state.order[neighbour])
    if target == source:
        return None
    return boundary, target


def _pick_merge(state: _State, rng: random.Random) -> Optional[Tuple]:
    view = state.session.view
    first = view.composite_of(rng.choice(state.order))
    second = _next_interval(state, view, first)
    if second is None or not view.quotient.has_edge(first, second):
        return None
    return first, second


def run(seed: int, seconds: float, tracer: Optional[Tracer] = None,
        config: EditConfig = EditConfig(), corrupt: bool = False
        ) -> RunResult:
    from repro.core.soundness import validate_view

    calibration = Calibration()
    setup_times = []
    for _ in range(config.setup_repeats):
        calibration.probe()
        started = time.perf_counter()
        state = _setup(config)
        setup_times.append(time.perf_counter() - started)
    gc.collect()  # the discarded set-ups' garbage is not the loop's cost

    rng = random.Random(f"edit-script-{seed}")
    check_rng = random.Random(f"edit-check-{seed}")
    latencies = Latencies()
    samples: List[Tuple[int, object, object]] = []
    failures: List[str] = []
    attempted = excluded_ns = restarts = 0
    edits = work(seconds, EDITS_PER_SECOND)
    loop_started = time.perf_counter_ns()
    if tracer is not None:
        tracer.active = True
    while attempted < edits:
        if len(state.session.view) < config.composites // 2:
            paused = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            _restart(state)
            restarts += 1
            if tracer is not None:
                tracer.active = True
            excluded_ns += time.perf_counter_ns() - paused
        merge = rng.random() < MERGE_SHARE
        picked = (_pick_merge if merge else _pick_move)(state, rng)
        if picked is None:
            continue
        kind = "merge" if merge else "move"
        attempted += 1
        frame = tracer.open_op(kind) if tracer is not None else None
        started = time.perf_counter_ns()
        try:
            if merge:
                outcome = state.session.create_composite_task(picked)
            else:
                outcome = state.session.move_task(*picked)
        except Exception as exc:  # counted, never fatal to the loop
            outcome = None
            failures.append(f"{kind} {picked!r}: {exc!r}")
        elapsed = time.perf_counter_ns() - started
        if frame is not None:
            tracer.close_op(frame)
        excluded_ns += calibration.probe()
        if outcome is None:
            continue
        latencies.add(kind, elapsed / 1e6)
        if check_rng.random() < config.check_share:
            samples.append((attempted, outcome.view, outcome.report))
    loop_s = (time.perf_counter_ns() - loop_started - excluded_ns) / 1e9
    if tracer is not None:
        tracer.active = False
    rss_mb = rss_peak_mb()  # before the checks' from-scratch validations

    if corrupt and samples:
        index, view, report = samples[0]
        samples[0] = (index, view, dataclasses.replace(
            report, well_formed=not report.well_formed))
    for index, view, report in samples:
        if report != validate_view(view):
            failures.append(f"edit {index}: report differs from a "
                            f"from-scratch validate_view")
    done = latencies.count("move", "merge")
    moves, merges = latencies.pick("move"), latencies.pick("merge")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": done / loop_s,
        "op_p50_ms": statistics.median(moves),
        "op_p90_ms": percentile(moves, 0.90),
        "aux_p50_ms": statistics.median(merges),
        "rss_peak_mb": rss_mb,
    }
    report = {
        "edit": latencies.summary("move", "merge"),
        "move": latencies.summary("move"),
        "merge": latencies.summary("merge"),
        "checked_reports": len(samples),
        "restarts": restarts,
        "setup_s_samples": setup_times,
        "tasks": len(state.spec), "composites": config.composites,
    }
    return RunResult(attempted=attempted, failed=len(failures),
                     metrics=metrics, report=report, failures=failures,
                     calibration=calibration)

