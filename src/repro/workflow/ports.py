"""Ported workflows: the full MOML task model.

Kepler/Ptolemy actors exchange data through *named ports*; the demo's MOML
import walks ``<link port="task.output" .../>`` elements.  The plain
:class:`~repro.workflow.spec.WorkflowSpec` collapses ports into task-level
dependencies, which is all soundness needs — but port identity matters for
faithful import/export and for fine-grained provenance ("which of the two
outputs of *Split entries* did *Extract sequences* consume?").

This module models ports explicitly and projects down to the task level:

* :class:`PortedTask` — a task with named input and output ports;
* :class:`PortedWorkflow` — ported tasks plus port-to-port connections,
  validated for direction, existence, fan-in rules and acyclicity;
* :meth:`PortedWorkflow.to_spec` — the task-level projection used by the
  rest of the system;
* :meth:`PortedWorkflow.to_moml` — MOML with faithful port names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import xml.etree.ElementTree as ET

from repro.errors import ReproError, WorkflowError
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task, TaskId

Endpoint = Tuple[TaskId, str]


@dataclass(frozen=True)
class PortedTask:
    """A task with named ports.

    ``inputs`` and ``outputs`` are port names; a dataflow connection always
    runs from an output port to an input port.
    """

    task_id: TaskId
    name: str = ""
    kind: str = "atomic"
    inputs: Tuple[str, ...] = ("in",)
    outputs: Tuple[str, ...] = ("out",)
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "params", dict(self.params))
        duplicates = set(self.inputs) & set(self.outputs)
        if duplicates:
            raise WorkflowError(
                f"task {self.task_id!r}: ports {sorted(duplicates)} are "
                f"both input and output")

    def __hash__(self) -> int:
        return hash(self.task_id)

    def to_task(self) -> Task:
        return Task(self.task_id, name=self.name, kind=self.kind,
                    params=self.params)


class PortedWorkflow:
    """A workflow whose dependencies are port-to-port connections."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._tasks: Dict[TaskId, PortedTask] = {}
        self._connections: List[Tuple[Endpoint, Endpoint]] = []

    # -- construction ------------------------------------------------------

    def add_task(self, task: PortedTask) -> PortedTask:
        if task.task_id in self._tasks:
            raise WorkflowError(f"task {task.task_id!r} already added")
        self._tasks[task.task_id] = task
        return task

    def connect(self, source: Endpoint, target: Endpoint) -> None:
        """Wire output port ``source`` to input port ``target``."""
        source_task, source_port = source
        target_task, target_port = target
        self._require_port(source_task, source_port, output=True)
        self._require_port(target_task, target_port, output=False)
        if source_task == target_task:
            raise WorkflowError(
                f"self connection on task {source_task!r}")
        if (source, target) in self._connections:
            raise WorkflowError(
                f"duplicate connection {source!r} -> {target!r}")
        if any(existing_target == target
               for _, existing_target in self._connections):
            raise WorkflowError(
                f"input port {target!r} already has a producer "
                f"(fan-in goes through distinct ports)")
        self._connections.append((source, target))
        # acyclicity is a task-level property; validate eagerly.  Only
        # expected validation failures roll back — a TypeError here is
        # a port-resolution bug and must propagate with state intact
        # for the caller to inspect.
        try:
            self.to_spec()
        except ReproError:
            self._connections.pop()
            raise

    def _require_port(self, task_id: TaskId, port: str,
                      output: bool) -> None:
        if task_id not in self._tasks:
            raise WorkflowError(f"unknown task {task_id!r}")
        task = self._tasks[task_id]
        ports = task.outputs if output else task.inputs
        direction = "output" if output else "input"
        if port not in ports:
            raise WorkflowError(
                f"task {task_id!r} has no {direction} port {port!r} "
                f"(has {list(ports)})")

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def tasks(self) -> List[PortedTask]:
        return list(self._tasks.values())

    def task(self, task_id: TaskId) -> PortedTask:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise WorkflowError(f"unknown task {task_id!r}") from None

    def connections(self) -> List[Tuple[Endpoint, Endpoint]]:
        return list(self._connections)

    def producers_of(self, task_id: TaskId, port: str) -> List[Endpoint]:
        """The output endpoint feeding an input port (empty for sources)."""
        self._require_port(task_id, port, output=False)
        return [source for source, target in self._connections
                if target == (task_id, port)]

    def consumers_of(self, task_id: TaskId, port: str) -> List[Endpoint]:
        """Input endpoints fed by an output port."""
        self._require_port(task_id, port, output=True)
        return [target for source, target in self._connections
                if source == (task_id, port)]

    def unbound_inputs(self) -> List[Endpoint]:
        """Input ports with no producer — the workflow's parameters."""
        bound = {target for _, target in self._connections}
        found = []
        for task in self._tasks.values():
            for port in task.inputs:
                if (task.task_id, port) not in bound:
                    found.append((task.task_id, port))
        return found

    # -- projections -------------------------------------------------------

    def to_spec(self) -> WorkflowSpec:
        """The task-level projection (ports collapsed)."""
        # parallel port links collapse into one task-level dependency
        return WorkflowSpec(
            self.name, [task.to_task() for task in self._tasks.values()],
            [(source_task, target_task) for (source_task, _), (target_task, _)
             in self._connections])

    def to_moml(self) -> str:
        """MOML with faithful port names on every link."""
        root = ET.Element("entity", name=self.name,
                          **{"class": "ptolemy.actor.TypedCompositeActor"})
        for task in self._tasks.values():
            entity = ET.SubElement(
                root, "entity", name=str(task.task_id),
                **{"class": "ptolemy.actor.TypedAtomicActor"})
            for port in task.inputs:
                ET.SubElement(entity, "port", name=port,
                              **{"class": "ptolemy.actor.TypedIOPort"},
                              direction="input")
            for port in task.outputs:
                ET.SubElement(entity, "port", name=port,
                              **{"class": "ptolemy.actor.TypedIOPort"},
                              direction="output")
        for i, (source, target) in enumerate(self._connections):
            relation = f"relation{i}"
            ET.SubElement(root, "relation", name=relation,
                          **{"class": "ptolemy.actor.TypedIORelation"})
            ET.SubElement(root, "link",
                          port=f"{source[0]}.{source[1]}",
                          relation=relation)
            ET.SubElement(root, "link",
                          port=f"{target[0]}.{target[1]}",
                          relation=relation)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_moml(cls, text: str) -> "PortedWorkflow":
        """Parse ported MOML produced by :meth:`to_moml`."""
        from repro.errors import SerializationError

        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise SerializationError(f"invalid MOML XML: {exc}") from exc
        workflow = cls(root.get("name", "workflow"))
        for entity in root.findall("entity"):
            task_id = entity.get("name")
            inputs = []
            outputs = []
            for port in entity.findall("port"):
                if port.get("direction") == "input":
                    inputs.append(port.get("name"))
                else:
                    outputs.append(port.get("name"))
            workflow.add_task(PortedTask(task_id, inputs=tuple(inputs),
                                         outputs=tuple(outputs)))
        ends: Dict[str, Dict[str, Endpoint]] = {}
        for link in root.findall("link"):
            port_ref = link.get("port", "")
            relation = link.get("relation", "")
            task_id, _, port = port_ref.rpartition(".")
            task = workflow.task(task_id)
            side = "source" if port in task.outputs else "target"
            ends.setdefault(relation, {})[side] = (task_id, port)
        for relation, endpoints in ends.items():
            if "source" not in endpoints or "target" not in endpoints:
                from repro.errors import SerializationError

                raise SerializationError(
                    f"relation {relation!r} lacks a source/target pair")
            workflow.connect(endpoints["source"], endpoints["target"])
        return workflow


def ported_phylogenomics() -> PortedWorkflow:
    """The Figure 1 workflow with explicit ports.

    *Split entries* genuinely has two distinct outputs — annotations and
    sequences — which is invisible at the task level but explicit here.
    """
    wf = PortedWorkflow("phylogenomics-ported")
    wf.add_task(PortedTask(1, "Select entries from GenBank", "query",
                           inputs=(), outputs=("entries",)))
    wf.add_task(PortedTask(2, "Split entries", "transform",
                           inputs=("entries",),
                           outputs=("annotations", "sequences")))
    wf.add_task(PortedTask(3, "Extract annotations", "transform",
                           inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(4, "Curate annotations", "curate",
                           inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(5, "Format annotations", "format",
                           inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(6, "Extract sequences", "transform",
                           inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(7, "Create alignment", "align",
                           inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(8, "Format alignment", "format",
                           inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(9, "Check additional annotations", "query",
                           inputs=(), outputs=("out",)))
    wf.add_task(PortedTask(10, "Process additional annotations",
                           "transform", inputs=("in",), outputs=("out",)))
    wf.add_task(PortedTask(11, "Build phylogenomic tree", "build",
                           inputs=("annotations", "alignment", "extra"),
                           outputs=("tree",)))
    wf.add_task(PortedTask(12, "Display tree", "render",
                           inputs=("tree",), outputs=()))
    wf.connect((1, "entries"), (2, "entries"))
    wf.connect((2, "annotations"), (3, "in"))
    wf.connect((3, "out"), (4, "in"))
    wf.connect((4, "out"), (5, "in"))
    wf.connect((5, "out"), (11, "annotations"))
    wf.connect((2, "sequences"), (6, "in"))
    wf.connect((6, "out"), (7, "in"))
    wf.connect((7, "out"), (8, "in"))
    wf.connect((8, "out"), (11, "alignment"))
    wf.connect((9, "out"), (10, "in"))
    wf.connect((10, "out"), (11, "extra"))
    wf.connect((11, "tree"), (12, "tree"))
    return wf
