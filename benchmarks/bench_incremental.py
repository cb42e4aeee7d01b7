"""Full vs incremental revalidation on large generated workflows.

The claims under measurement, on a 2000-task workflow with 100 composites:

* with the incremental analysis engine (:mod:`repro.core.incremental`), a
  single ``move_task`` edit's revalidation costs O(affected composites) —
  >= 10x faster than the from-scratch ``validate_view`` path, with the
  identical report;
* the whole edit — deriving the moved view from its parent
  (:meth:`WorkflowView.move`, O(degree of the moved task)) plus the
  incremental revalidation — is >= 10x faster than building the edited
  view from scratch and running ``validate_view`` on it.

Runs two ways:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -s``
  — the assertion-carrying experiment (the acceptance gates);
* ``PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]
  [--out BENCH_incremental.json]`` — the sweep over 500-5000 tasks,
  recording a ``BENCH_*.json`` datapoint for trend tracking.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import Dict, List, Tuple

import pytest

import _bootstrap  # noqa: F401  (sys.path + output-path pinning)
from repro.core.incremental import AnalysisCache, EditEvent
from repro.core.soundness import validate_view
from repro.graphs.generators import layered_dag
from repro.views.builders import random_convex_view
from repro.views.view import WorkflowView
from repro.workflow.spec import WorkflowSpec

LAYER_WIDTH = 10


def build_workload(n_tasks: int, n_composites: int,
                   seed: int) -> Tuple[WorkflowSpec, WorkflowView]:
    """A layered scientific-workflow spec plus a well-formed interval view."""
    rng = random.Random(seed)
    n_layers = max(2, n_tasks // LAYER_WIDTH)
    graph = layered_dag(rng, n_layers, LAYER_WIDTH,
                        stage_sizes=[LAYER_WIDTH] * n_layers)
    spec = WorkflowSpec.from_digraph(f"bench-{n_tasks}", graph)
    view = random_convex_view(rng, spec, n_composites, name="bench-view")
    return spec, view


def _apply_move(view: WorkflowView, task_id,
                target) -> Tuple[WorkflowView, EditEvent]:
    """The move_task state change with no validation attached."""
    source = view.composite_of(task_id)
    moved = view.move(task_id, target)
    event = EditEvent.move(source, target, source_survives=source in moved)
    return moved, event


def measure(spec: WorkflowSpec, view: WorkflowView, edits: int = 12,
            seed: int = 7) -> Dict[str, float]:
    """Median per-edit times of the full and the incremental paths.

    Each round applies one random ``move_task`` edit and times:

    * revalidation alone: a from-scratch ``validate_view`` of the edited
      view (the seed's path) against ``AnalysisCache.validate`` with the
      edit's event, which pays for the one or two dirty composites;
    * the whole edit: building the edited view from scratch plus
      ``validate_view`` against deriving it from its parent plus
      ``AnalysisCache.validate``.

    Reports are asserted identical every round.
    """
    rng = random.Random(seed)
    cache = AnalysisCache(spec)
    cache.validate(view)  # warm: the state any live session carries
    full_times: List[float] = []
    incremental_times: List[float] = []
    edit_times: List[float] = []
    rebuild_times: List[float] = []
    recomputed: List[int] = []
    current = view
    topo = spec.topological_order()
    position = {task: i for i, task in enumerate(topo)}
    done = 0
    while done < edits:
        # a realistic interactive edit: nudge a composite boundary — move
        # the topologically last/first member into the neighbouring
        # composite, which keeps the interval view well-formed so the
        # revalidation actually exercises the soundness witnesses
        task = rng.choice(topo)
        source = current.composite_of(task)
        if rng.random() < 0.5:
            boundary = max(current.members(source), key=position.get)
            neighbour_pos = position[boundary] + 1
        else:
            boundary = min(current.members(source), key=position.get)
            neighbour_pos = position[boundary] - 1
        if not 0 <= neighbour_pos < len(topo):
            continue
        target = current.composite_of(topo[neighbour_pos])
        if target == source:
            continue
        started = time.perf_counter()
        moved, event = _apply_move(current, boundary, target)
        edit_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        full_report = validate_view(moved)
        full_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        rebuilt_report = validate_view(
            WorkflowView(spec, moved.groups(), name=moved.name))
        rebuild_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        incremental_report = cache.validate(moved, event)
        incremental_times.append(time.perf_counter() - started)

        assert incremental_report == full_report == rebuilt_report, \
            "reports diverged"
        assert incremental_report.summary() == full_report.summary()
        recomputed.append(len(cache.stats.last_recomputed))
        current = moved
        done += 1
    full_ms = statistics.median(full_times) * 1e3
    incremental_ms = statistics.median(incremental_times) * 1e3
    rebuild_ms = statistics.median(rebuild_times) * 1e3
    edit_incremental_ms = statistics.median(
        [e + i for e, i in zip(edit_times, incremental_times)]) * 1e3
    return {
        "full_ms": full_ms,
        "incremental_ms": incremental_ms,
        "speedup": full_ms / incremental_ms if incremental_ms else
        float("inf"),
        "edit_ms": statistics.median(edit_times) * 1e3,
        "rebuild_validate_ms": rebuild_ms,
        "edit_incremental_ms": edit_incremental_ms,
        "edit_speedup": rebuild_ms / edit_incremental_ms
        if edit_incremental_ms else float("inf"),
        "recomputed_per_edit": statistics.median(recomputed),
        "cache_hit_rate": cache.stats.hit_rate,
    }


def run_sweep(sizes: List[int], edits: int = 12) -> List[Dict[str, object]]:
    rows = []
    for n_tasks in sizes:
        n_composites = max(5, n_tasks // 20)
        spec, view = build_workload(n_tasks, n_composites, seed=n_tasks)
        result = measure(spec, view, edits=edits)
        rows.append({"tasks": n_tasks, "composites": n_composites,
                     **result})
    return rows


def _print_rows(rows: List[Dict[str, object]]) -> None:
    headers = ["tasks", "composites", "full (ms)", "incremental (ms)",
               "speedup", "rebuild+full (ms)", "edit+incr (ms)",
               "edit speedup", "hit rate"]
    table = [[r["tasks"], r["composites"], f"{r['full_ms']:.3f}",
              f"{r['incremental_ms']:.3f}", f"{r['speedup']:.1f}x",
              f"{r['rebuild_validate_ms']:.3f}",
              f"{r['edit_incremental_ms']:.3f}",
              f"{r['edit_speedup']:.1f}x",
              f"{r['cache_hit_rate']:.2f}"] for r in rows]
    widths = [max(len(str(h)), *(len(str(row[i])) for row in table))
              for i, h in enumerate(headers)]
    print("\n=== incremental revalidation: single move_task edit ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in table:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="module")
def result_2000() -> Dict[str, float]:
    spec, view = build_workload(2000, 100, seed=42)
    result = measure(spec, view, edits=10)
    _print_rows([{"tasks": 2000, "composites": 100, **result}])
    return result


def test_single_edit_revalidation_10x_on_2000_tasks(result_2000):
    """The acceptance criterion, pinned as an executable assertion."""
    assert result_2000["speedup"] >= 10.0, (
        f"incremental revalidation only {result_2000['speedup']:.1f}x "
        f"faster")


def test_edit_plus_revalidation_10x_on_2000_tasks(result_2000):
    """The whole edit: derive + incremental vs rebuild + full."""
    assert result_2000["edit_speedup"] >= 10.0, (
        f"derived edit + incremental revalidation only "
        f"{result_2000['edit_speedup']:.1f}x faster than a rebuild")


def test_reports_identical_across_sizes_small():
    """Smoke: the identity assertion inside measure() on smaller sizes."""
    for n_tasks in (200, 500):
        spec, view = build_workload(n_tasks, max(5, n_tasks // 20),
                                    seed=n_tasks)
        result = measure(spec, view, edits=4)
        assert result["speedup"] > 1.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    parser.add_argument("--sizes", type=int, nargs="*", default=None)
    parser.add_argument("--edits", type=int, default=12)
    parser.add_argument("--out", default=None,
                        help="write a BENCH_*.json datapoint here")
    args = parser.parse_args(argv)
    if args.sizes:
        sizes = args.sizes
    elif args.quick:
        sizes = [500, 1000]
    else:
        sizes = [500, 1000, 2000, 5000]
    rows = run_sweep(sizes, edits=args.edits)
    _print_rows(rows)
    if args.out:
        args.out = _bootstrap.resolve_out(args.out)
        payload = {
            "benchmark": "incremental_revalidation",
            "unit": "ms_per_edit_median",
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                        time.gmtime()),
            "workload": ("layered DAG, width %d; interval view, one "
                         "random move_task per round; edit_speedup is "
                         "derive + incremental vs rebuild + full"
                         % LAYER_WIDTH),
            "results": rows,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
