"""MOML import/export.

The WOLVES demo loads workflows "defined in Modeling Markup Language
(MOML)", the XML dialect of Ptolemy II / Kepler.  This module speaks a
MOML-compatible subset sufficient for workflow DAGs:

* each atomic task is an ``<entity name="..." class="...">``;
* each data dependency is a ``<relation>`` plus two ``<link>`` elements
  (Kepler routes ports through named relations);
* a composite-task grouping may be expressed with nested
  ``<entity class="ptolemy.actor.TypedCompositeActor">`` elements, which the
  reader flattens into a view partition.

The writer always emits the flat entity/relation/link form; the reader
accepts both flat and nested documents, so files produced by this module
round-trip and simple Kepler exports load.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Tuple

from repro.errors import SerializationError
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task

ATOMIC_CLASS = "ptolemy.actor.TypedAtomicActor"
COMPOSITE_CLASS = "ptolemy.actor.TypedCompositeActor"


def spec_to_moml(spec: WorkflowSpec, view: "Optional[object]" = None) -> str:
    """Render ``spec`` (and optionally a view's grouping) as MOML text."""
    root = ET.Element("entity", name=spec.name, **{"class": COMPOSITE_CLASS})

    def entity_for(task: Task, parent: ET.Element) -> None:
        element = ET.SubElement(parent, "entity", name=str(task.task_id),
                                **{"class": ATOMIC_CLASS})
        if task.name:
            prop = ET.SubElement(element, "property", name="displayName")
            prop.set("value", task.name)
        if task.kind != "atomic":
            prop = ET.SubElement(element, "property", name="kind")
            prop.set("value", task.kind)

    if view is None:
        for task in spec.tasks():
            entity_for(task, root)
    else:
        for label in view.composite_labels():
            composite = ET.SubElement(root, "entity", name=str(label),
                                      **{"class": COMPOSITE_CLASS})
            for member in view.members(label):
                entity_for(spec.task(member), composite)

    for i, (source, target) in enumerate(spec.dependencies()):
        relation = f"relation{i}"
        ET.SubElement(root, "relation", name=relation,
                      **{"class": "ptolemy.actor.TypedIORelation"})
        ET.SubElement(root, "link", port=f"{source}.output",
                      relation=relation)
        ET.SubElement(root, "link", port=f"{target}.input",
                      relation=relation)
    _indent(root)
    return ET.tostring(root, encoding="unicode")


def spec_from_moml(text: str, name: Optional[str] = None
                   ) -> Tuple[WorkflowSpec, Optional[Dict[str, List[str]]]]:
    """Parse MOML text.

    Returns ``(spec, grouping)`` where ``grouping`` maps composite names to
    atomic task ids when the document nests entities, else ``None``.  Build
    a view from the grouping with
    ``WorkflowView(spec, grouping)``.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SerializationError(f"invalid MOML XML: {exc}") from exc
    if root.tag != "entity":
        raise SerializationError(
            f"MOML root must be an <entity>, got <{root.tag}>")
    tasks: List[Task] = []
    grouping: Dict[str, List[str]] = {}

    def read_atomic(element: ET.Element, group: Optional[str]) -> None:
        task_id = element.get("name")
        if task_id is None:
            raise SerializationError("atomic <entity> lacks a name")
        display = ""
        kind = "atomic"
        for prop in element.findall("property"):
            if prop.get("name") == "displayName":
                display = prop.get("value", "")
            elif prop.get("name") == "kind":
                kind = prop.get("value", "atomic")
        tasks.append(Task(task_id, name=display, kind=kind))
        if group is not None:
            grouping.setdefault(group, []).append(task_id)

    nested = False
    for element in root.findall("entity"):
        if element.get("class") == COMPOSITE_CLASS:
            nested = True
            composite_name = element.get("name")
            if composite_name is None:
                raise SerializationError("composite <entity> lacks a name")
            grouping.setdefault(composite_name, [])
            for child in element.findall("entity"):
                read_atomic(child, composite_name)
        else:
            read_atomic(element, None)

    # Relations pair an output link with an input link.
    relation_ends: Dict[str, Dict[str, str]] = {}
    for link in root.findall("link"):
        port = link.get("port", "")
        relation = link.get("relation", "")
        if "." not in port:
            raise SerializationError(f"malformed link port {port!r}")
        task_id, _, direction = port.rpartition(".")
        relation_ends.setdefault(relation, {})[direction] = task_id
    for relation, ends in relation_ends.items():
        if "output" not in ends or "input" not in ends:
            raise SerializationError(
                f"relation {relation!r} lacks an output/input link pair")
    spec = WorkflowSpec(
        name if name is not None else root.get("name", "workflow"), tasks,
        [(ends["output"], ends["input"]) for ends in relation_ends.values()])
    return spec, (grouping if nested else None)


def _indent(element: ET.Element, depth: int = 0) -> None:
    """Pretty-print helper (ElementTree.indent is 3.9+ but keep explicit)."""
    pad = "\n" + "  " * depth
    if len(element):
        if not (element.text or "").strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, depth + 1)
            if not (child.tail or "").strip():
                child.tail = pad + "  "
        if not (element[-1].tail or "").strip():
            element[-1].tail = pad
    elif depth and not (element.tail or "").strip():
        element.tail = pad
