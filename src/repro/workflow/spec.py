"""Workflow specifications.

A :class:`WorkflowSpec` owns a set of :class:`~repro.workflow.task.Task`
objects and a dependency DAG over their ids.  It is the paper's *workflow
specification* (Figure 1a): an edge ``u -> v`` means the output of task
``u`` is an input of task ``v``, so the graph is also the provenance graph
of the workflow's final outputs.

The spec caches its :class:`~repro.graphs.reachability.ReachabilityIndex`;
the cache is invalidated on every mutation, so validators and correctors can
call :meth:`WorkflowSpec.reachability` freely.

Every mutation also bumps :attr:`WorkflowSpec.version`, and the cached
index is stamped with the version it was built from
(:attr:`~repro.graphs.reachability.ReachabilityIndex.token`).  Downstream
caches — views, the incremental analysis engine — compare tokens instead of
re-deriving state, which is what makes per-edit revalidation O(affected).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CycleError, WorkflowError
from repro.graphs.dag import Digraph
from repro.graphs.reachability import ReachabilityIndex
from repro.graphs.topo import find_cycle, find_path, is_acyclic, topological_sort
from repro.workflow.task import Task, TaskId


class WorkflowSpec:
    """A DAG of atomic tasks with data-dependency edges."""

    def __init__(self, name: str = "workflow",
                 tasks: Iterable[Task] = (),
                 dependencies: Iterable[Tuple[TaskId, TaskId]] = ()) -> None:
        self.name = name
        self._tasks: Dict[TaskId, Task] = {}
        self._graph = Digraph()
        self._index: Optional[ReachabilityIndex] = None
        self._version = 0
        self._load(tasks, dependencies)

    # -- construction ------------------------------------------------------

    def _load(self, tasks: Iterable[Task],
              dependencies: Iterable[Tuple[TaskId, TaskId]]) -> None:
        """Bulk-register ``tasks``, then add ``dependencies``, in O(V+E).

        The one path every whole-spec construction takes (the
        constructor, :meth:`from_digraph`, :meth:`copy`, the JSON/MOML
        loaders...).  It yields exactly the spec of the per-edge
        ``add_task``/``add_dependency`` loop — same tasks, same
        dependency order, same error types — but tests acyclicity once
        at the end instead of once per edge.
        """
        known = self._tasks
        graph = self._graph
        for task in tasks:
            known[task.task_id] = task
            graph.add_node(task.task_id)
        edges = list(dependencies)
        for source, target in edges:
            if source not in known or target not in known or source == target:
                self._check_endpoints(source, target)  # raises
        graph.add_edges(edges)
        cycle = find_cycle(graph)
        if cycle is not None:
            raise CycleError(
                "workflow dependencies form a cycle: "
                + " -> ".join(map(repr, cycle)), cycle=cycle)
        self._invalidate()

    @classmethod
    def from_digraph(cls, name: str, graph: Digraph) -> "WorkflowSpec":
        """A spec with one anonymous task per node of ``graph``."""
        return cls(name, (Task(node) for node in graph.nodes()),
                   graph.edges())

    def add_task(self, task: Task) -> Task:
        """Register ``task``; re-adding an id replaces the task object."""
        self._tasks[task.task_id] = task
        self._graph.add_node(task.task_id)
        self._invalidate()
        return task

    def add_dependency(self, source: TaskId, target: TaskId) -> None:
        """Record that ``target`` consumes the output of ``source``.

        Only ``target`` reaching ``source`` can close a cycle, so the
        check is one early-exit search from ``target``, not a full sort;
        a rejected edge is never added.
        """
        self._check_endpoints(source, target)
        path = find_path(self._graph, target, source)
        if path is not None:
            raise CycleError(
                f"dependency {source!r} -> {target!r} would create a cycle",
                cycle=[source] + path)
        self._graph.add_edge(source, target)
        self._invalidate()

    def _check_endpoints(self, source: TaskId, target: TaskId) -> None:
        if source not in self._tasks:
            raise WorkflowError(f"unknown task {source!r}")
        if target not in self._tasks:
            raise WorkflowError(f"unknown task {target!r}")
        if source == target:
            raise WorkflowError(f"self dependency on task {source!r}")

    def remove_dependency(self, source: TaskId, target: TaskId) -> None:
        self._graph.remove_edge(source, target)
        self._invalidate()

    def remove_task(self, task_id: TaskId) -> None:
        if task_id not in self._tasks:
            raise WorkflowError(f"unknown task {task_id!r}")
        self._graph.remove_node(task_id)
        del self._tasks[task_id]
        self._invalidate()

    # -- queries -----------------------------------------------------------

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def task(self, task_id: TaskId) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise WorkflowError(f"unknown task {task_id!r}") from None

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def task_ids(self) -> List[TaskId]:
        return list(self._tasks)

    def dependencies(self) -> List[Tuple[TaskId, TaskId]]:
        return self._graph.edges()

    def predecessors(self, task_id: TaskId) -> List[TaskId]:
        return self._graph.predecessors(task_id)

    def successors(self, task_id: TaskId) -> List[TaskId]:
        return self._graph.successors(task_id)

    def entry_tasks(self) -> List[TaskId]:
        """Tasks with no data inputs (the workflow's sources)."""
        return self._graph.sources()

    def exit_tasks(self) -> List[TaskId]:
        """Tasks whose output is a final workflow output."""
        return self._graph.sinks()

    def topological_order(self) -> List[TaskId]:
        return topological_sort(self._graph)

    @property
    def graph(self) -> Digraph:
        """The dependency DAG (a live reference; mutate via the spec)."""
        return self._graph

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every task/dependency change."""
        return self._version

    def reachability(self) -> ReachabilityIndex:
        """The cached reachability index over task ids.

        The returned index is stamped with the spec version it was built
        from (``index.token == spec.version``), so holders can detect
        staleness without re-querying the spec graph.
        """
        if self._index is None or self._index.token != self._version:
            self._index = ReachabilityIndex(self._graph,
                                            token=self._version)
        return self._index

    def depends_on(self, downstream: TaskId, upstream: TaskId) -> bool:
        """True iff ``downstream`` transitively consumes ``upstream``."""
        return self.reachability().reaches(upstream, downstream)

    # -- misc ----------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "WorkflowSpec":
        return WorkflowSpec(name if name is not None else self.name,
                            self.tasks(), self.dependencies())

    def validate(self) -> None:
        """Raise :class:`WorkflowError`/:class:`CycleError` on a bad spec."""
        if not is_acyclic(self._graph):
            raise CycleError("workflow dependency graph is cyclic")
        for source, target in self._graph.edges():
            if source not in self._tasks or target not in self._tasks:
                raise WorkflowError(
                    f"dangling dependency {source!r} -> {target!r}")

    def __repr__(self) -> str:
        return (f"WorkflowSpec({self.name!r}, tasks={len(self)}, "
                f"dependencies={self._graph.edge_count()})")

    def _invalidate(self) -> None:
        self._index = None
        self._version += 1
