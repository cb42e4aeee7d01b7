"""The bulk spec builder against the per-edge oracle.

Every whole-spec construction (the constructor, ``from_digraph``,
``copy``, the JSON/MOML loaders, ``spec_from_edges``...) goes through
one linear loader that checks acyclicity once.  The oracle is the
per-edge ``add_task``/``add_dependency`` loop: over random DAG edge
lists, and over lists with one injected fault (a back edge, a
self-loop or a dangling id), the bulk path must give an equal spec —
tasks with their attributes, dependencies in the same order — or the
same exception type.

The complexity guard counts whole-graph passes instead of timing
anything: loading the store workload's 300-task spec must run at most
one of them, where the per-edge loop ran one per edge.
"""

from __future__ import annotations

import os
import sqlite3
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CycleError, SerializationError, WorkflowError
from repro.graphs import topo
from repro.graphs.dag import Digraph
from repro.persistence import DurableProvenanceStore
from repro.repository.synthetic import synthetic_workflow
from repro.workflow.builder import spec_from_edges
from repro.workflow.jsonio import (
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task

FAULTS = ("none", "back_edge", "self_loop", "dangling")
KINDS = ("atomic", "query", "align", "format")


def _per_edge(name, tasks, dependencies) -> WorkflowSpec:
    """The oracle: one task, then one checked edge, at a time."""
    spec = WorkflowSpec(name)
    for task in tasks:
        spec.add_task(task)
    for source, target in dependencies:
        spec.add_dependency(source, target)
    return spec


def _outcome(build):
    try:
        return build(), None
    except (WorkflowError, CycleError) as exc:
        return None, type(exc)


def _same_spec(left: WorkflowSpec, right: WorkflowSpec) -> None:
    assert left.name == right.name
    assert left.task_ids() == right.task_ids()
    for a, b in zip(left.tasks(), right.tasks()):
        assert (a.task_id, a.name, a.kind, dict(a.params)) \
            == (b.task_id, b.name, b.kind, dict(b.params))
    assert left.dependencies() == right.dependencies()


@st.composite
def workloads(draw):
    """``(tasks, dependencies, fault)``: a shuffled DAG edge list over
    tasks with random attributes, with at most one injected fault."""
    n = draw(st.integers(min_value=1, max_value=12))
    ids = list(range(n))
    order = draw(st.permutations(ids))  # the DAG's hidden topological order
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    edges = draw(st.permutations(edges))
    tasks = [Task(i, name=draw(st.sampled_from(("", f"t{i}", "align"))),
                  kind=draw(st.sampled_from(KINDS)),
                  params=draw(st.dictionaries(
                      st.sampled_from(("k", "seed")), st.integers(0, 3),
                      max_size=2)))
             for i in ids]
    if n > 1 and draw(st.booleans()):
        # re-adding an id replaces the task object in place
        tasks.append(Task(draw(st.sampled_from(ids)), name="replaced"))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "back_edge" and edges:
        source, target = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), (target, source))
    elif fault == "self_loop":
        node = draw(st.sampled_from(ids))
        edges.insert(draw(st.integers(0, len(edges))), (node, node))
    elif fault == "dangling":
        edge = draw(st.sampled_from(((n + 1, ids[0]), (ids[-1], n + 1))))
        edges.insert(draw(st.integers(0, len(edges))), edge)
    else:
        fault = "none"
    return tasks, edges, fault


@given(workloads())
@settings(max_examples=300, deadline=None)
def test_bulk_constructor_matches_per_edge_loop(workload):
    tasks, edges, fault = workload
    expected, expected_error = _outcome(lambda: _per_edge("w", tasks, edges))
    actual, actual_error = _outcome(lambda: WorkflowSpec("w", tasks, edges))
    assert actual_error is expected_error
    if fault == "none":
        assert expected_error is None
    if expected is not None:
        _same_spec(actual, expected)
        actual.validate()


@given(workloads())
@settings(max_examples=200, deadline=None)
def test_json_load_matches_per_edge_loop(workload):
    tasks, edges, _fault = workload
    expected, expected_error = _outcome(lambda: _per_edge("w", tasks, edges))
    document = {
        "format": "wolves-workflow", "version": 1, "name": "w",
        "tasks": [{"id": t.task_id, "name": t.name, "kind": t.kind,
                   "params": dict(t.params)} for t in tasks],
        "dependencies": [list(edge) for edge in edges],
    }
    actual, actual_error = _outcome(lambda: spec_from_dict(document))
    assert actual_error is expected_error
    if expected is not None:
        _same_spec(actual, expected)
        _same_spec(spec_from_dict(spec_to_dict(actual)), expected)
        _same_spec(spec_from_json(spec_to_json(actual)), expected)


@given(workloads())
@settings(max_examples=150, deadline=None)
def test_other_bulk_paths_match_per_edge_loop(workload):
    tasks, edges, _fault = workload
    expected, expected_error = _outcome(lambda: _per_edge("w", tasks, edges))
    # copy() of an accepted spec
    if expected is not None:
        _same_spec(expected.copy(), expected)
    # spec_from_edges: anonymous tasks created on first mention
    anonymous = [Task(t.task_id) for t in tasks]
    oracle, oracle_error = _outcome(lambda: _per_edge(
        "e", anonymous + [Task(node) for edge in edges for node in edge],
        edges))
    built, built_error = _outcome(lambda: spec_from_edges(
        "e", edges, extra_tasks=[t.task_id for t in tasks]))
    assert built_error is oracle_error
    if oracle is not None:
        _same_spec(built, oracle)
    # from_digraph: a raw graph keeps self-loops and any cycle
    graph = Digraph()
    for task in tasks:
        graph.add_node(task.task_id)
    for source, target in edges:
        graph.add_edge(source, target)
    oracle, oracle_error = _outcome(lambda: _per_edge(
        "g", [Task(node) for node in graph.nodes()], graph.edges()))
    built, built_error = _outcome(
        lambda: WorkflowSpec.from_digraph("g", graph))
    assert built_error is oracle_error
    if oracle is not None:
        _same_spec(built, oracle)


@given(workloads())
@settings(max_examples=200, deadline=None)
def test_add_dependency_rejects_exactly_the_cycles(workload):
    """The early-exit reachability check agrees with a full sort."""
    tasks, edges, _fault = workload
    spec = WorkflowSpec("w", tasks)
    for source, target in edges:
        if source not in spec or target not in spec or source == target:
            continue
        trial = spec.graph.copy()
        trial.add_edge(source, target)
        before = spec.dependencies()
        if topo.is_acyclic(trial):
            spec.add_dependency(source, target)
        else:
            with pytest.raises(CycleError) as info:
                spec.add_dependency(source, target)
            cycle = info.value.cycle
            assert cycle[0] == cycle[-1] == source and cycle[1] == target
            assert all(spec.graph.has_edge(a, b)
                       for a, b in zip(cycle[1:], cycle[2:]))
            assert spec.dependencies() == before


def test_bulk_cycle_error_carries_witness():
    with pytest.raises(CycleError) as info:
        WorkflowSpec("c", [Task(i) for i in (1, 2, 3)],
                     [(1, 2), (2, 3), (3, 1)])
    cycle = info.value.cycle
    assert cycle[0] == cycle[-1] and len(cycle) == 4
    assert {tuple(edge) for edge in zip(cycle, cycle[1:])} \
        == {(1, 2), (2, 3), (3, 1)}


def test_version_still_monotone():
    spec = WorkflowSpec("v", [Task(1), Task(2)], [(1, 2)])
    first = spec.version
    spec.add_task(Task(3))
    spec.add_dependency(2, 3)
    assert first < spec.version
    assert spec.copy().version >= 1


# -- complexity guard ---------------------------------------------------------

_PASSES = (topo.topological_sort.__code__, topo.find_cycle.__code__,
           topo.find_path.__code__)


def _count_graph_passes(action) -> int:
    """Calls of any whole-graph acyclicity pass made by ``action()``."""
    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code in _PASSES:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls[0]


@pytest.fixture(scope="module")
def store_spec():
    # the store benchmark workload's spec: 300 layered tasks, ~7.4k edges
    return synthetic_workflow(20090931, 300, shape="layered").spec


def test_json_load_runs_one_graph_pass(store_spec):
    assert store_spec.graph.edge_count() > 1000
    text = spec_to_json(store_spec)
    assert _count_graph_passes(lambda: spec_from_json(text)) <= 1


def test_store_reopen_runs_one_graph_pass(store_spec, tmp_path):
    path = os.path.join(tmp_path, "guard.db")
    DurableProvenanceStore(path, store_spec).close()

    def reopen(**kwargs):
        DurableProvenanceStore(path, **kwargs).close()

    assert _count_graph_passes(lambda: reopen(readonly=True)) <= 1
    # a given spec is checked against the pinned task ids, not rebuilt
    assert _count_graph_passes(lambda: reopen(spec=store_spec)) == 0


def test_store_reopen_rebuilds_the_pinned_spec_exactly(store_spec, tmp_path):
    path = os.path.join(tmp_path, "pinned.db")
    DurableProvenanceStore(path, store_spec).close()
    with DurableProvenanceStore(path, readonly=True) as reader:
        _same_spec(reader.spec, store_spec)


def test_unreadable_pinned_spec_refuses_every_open(store_spec, tmp_path):
    path = os.path.join(tmp_path, "corrupt.db")
    DurableProvenanceStore(path, store_spec).close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE meta SET value = '{\"format\": \"other\"}' "
                     "WHERE key = 'workflow_spec'")
    conn.close()
    for kwargs in ({"readonly": True}, {"spec": store_spec}):
        with pytest.raises(SerializationError):
            DurableProvenanceStore(path, **kwargs)
