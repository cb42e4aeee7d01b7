"""Fluent construction of workflow specifications.

The demo's *Workflow Builder* menu lets a user draw a workflow; this module
is the programmatic equivalent:

>>> spec = (WorkflowBuilder("demo")
...         .task(1, "Select entries")
...         .task(2, "Split entries")
...         .chain(1, 2)
...         .build())
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.errors import WorkflowError
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task, TaskId


class WorkflowBuilder:
    """Accumulates tasks and dependencies, then builds a validated spec."""

    def __init__(self, name: str = "workflow") -> None:
        self._spec = WorkflowSpec(name)
        self._built = False

    def task(self, task_id: TaskId, name: str = "", kind: str = "atomic",
             **params: Any) -> "WorkflowBuilder":
        """Add one atomic task."""
        self._check_open()
        if task_id in self._spec:
            raise WorkflowError(f"task {task_id!r} already added")
        self._spec.add_task(Task(task_id, name=name, kind=kind, params=params))
        return self

    def tasks(self, task_ids: Iterable[TaskId]) -> "WorkflowBuilder":
        """Add several anonymous tasks at once."""
        for task_id in task_ids:
            self.task(task_id)
        return self

    def edge(self, source: TaskId, target: TaskId) -> "WorkflowBuilder":
        """Add one data dependency."""
        self._check_open()
        self._spec.add_dependency(source, target)
        return self

    def edges(self, pairs: Iterable[tuple]) -> "WorkflowBuilder":
        for source, target in pairs:
            self.edge(source, target)
        return self

    def chain(self, *task_ids: TaskId) -> "WorkflowBuilder":
        """Wire ``task_ids`` into a pipeline: each feeds the next."""
        ids: List[TaskId] = list(task_ids)
        for source, target in zip(ids, ids[1:]):
            self.edge(source, target)
        return self

    def fan_out(self, source: TaskId, targets: Iterable[TaskId]) -> "WorkflowBuilder":
        """``source`` feeds every task in ``targets``."""
        for target in targets:
            self.edge(source, target)
        return self

    def fan_in(self, sources: Iterable[TaskId], target: TaskId) -> "WorkflowBuilder":
        """Every task in ``sources`` feeds ``target``."""
        for source in sources:
            self.edge(source, target)
        return self

    def build(self) -> WorkflowSpec:
        """Validate and return the spec; the builder is then closed."""
        self._check_open()
        self._spec.validate()
        self._built = True
        return self._spec

    def _check_open(self) -> None:
        if self._built:
            raise WorkflowError("builder already produced its spec")


def spec_from_edges(name: str, edges: Iterable[tuple],
                    extra_tasks: Iterable[TaskId] = ()) -> WorkflowSpec:
    """Build a spec directly from an edge list (tasks created on demand)."""
    edges = list(edges)
    task_ids = dict.fromkeys(extra_tasks)
    for source, target in edges:
        task_ids.setdefault(source)
        task_ids.setdefault(target)
    return WorkflowSpec(name, map(Task, task_ids), edges)
