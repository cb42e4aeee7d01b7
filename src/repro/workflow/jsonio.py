"""JSON serialization for workflow specifications and views.

The document format is versioned and intentionally simple::

    {
      "format": "wolves-workflow",
      "version": 1,
      "name": "phylogenomics",
      "tasks": [{"id": 1, "name": "Select entries", "kind": "query",
                 "params": {}}, ...],
      "dependencies": [[1, 2], ...]
    }

Task ids survive a round-trip when they are JSON scalars (str/int); other
hashables are stringified on write, which is documented rather than hidden.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import SerializationError
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task

FORMAT_NAME = "wolves-workflow"
FORMAT_VERSION = 1


def spec_to_dict(spec: WorkflowSpec) -> Dict[str, Any]:
    """The JSON-ready dictionary form of ``spec``."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": spec.name,
        "tasks": [
            {
                "id": _scalar(task.task_id),
                "name": task.name,
                "kind": task.kind,
                "params": dict(task.params),
            }
            for task in spec.tasks()
        ],
        "dependencies": [
            [_scalar(source), _scalar(target)]
            for source, target in spec.dependencies()
        ],
    }


def spec_from_dict(document: Dict[str, Any]) -> WorkflowSpec:
    """Rebuild a spec from :func:`spec_to_dict` output in one O(V+E) pass."""
    _check_format(document)
    try:
        tasks = [Task(entry["id"],
                      name=entry.get("name", ""),
                      kind=entry.get("kind", "atomic"),
                      params=entry.get("params", {}))
                 for entry in document["tasks"]]
        return WorkflowSpec(document.get("name", "workflow"), tasks,
                            document["dependencies"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed workflow document: {exc}") from exc


def spec_to_json(spec: WorkflowSpec, indent: int = 2) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=False)


def spec_from_json(text: str) -> WorkflowSpec:
    return spec_from_dict(load_spec_document(text))


def load_spec_document(text: str) -> Dict[str, Any]:
    """Parse and format-check a spec document without building the spec."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    _check_format(document)
    return document


def document_task_ids(document: Dict[str, Any]) -> List[Any]:
    """The task ids a spec document declares, in document order."""
    try:
        return [entry["id"] for entry in document["tasks"]]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed workflow document: {exc}") from exc


def _check_format(document: Any) -> None:
    if not isinstance(document, dict):
        raise SerializationError("workflow document must be an object")
    if document.get("format") != FORMAT_NAME:
        raise SerializationError(
            f"not a {FORMAT_NAME} document: format={document.get('format')!r}")
    if document.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported version {document.get('version')!r}")


def view_to_dict(view: "Any") -> Dict[str, Any]:
    """JSON-ready form of a view: composite label -> member task ids.

    Lives here (not in :mod:`repro.views`) so one module owns the whole
    on-disk format.
    """
    return {
        "format": "wolves-view",
        "version": FORMAT_VERSION,
        "name": view.name,
        "composites": {
            str(label): [_scalar(member) for member in view.members(label)]
            for label in view.composite_labels()
        },
    }


def view_from_dict(document: Dict[str, Any], spec: WorkflowSpec) -> "Any":
    from repro.views.view import WorkflowView

    if document.get("format") != "wolves-view":
        raise SerializationError(
            f"not a wolves-view document: format={document.get('format')!r}")
    composites = document.get("composites")
    if not isinstance(composites, dict):
        raise SerializationError("view document lacks a composites object")
    return WorkflowView(spec,
                        {label: list(members)
                         for label, members in composites.items()},
                        name=document.get("name", "view"))


def view_to_json(view: "Any", indent: int = 2) -> str:
    return json.dumps(view_to_dict(view), indent=indent)


def view_from_json(text: str, spec: WorkflowSpec) -> "Any":
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return view_from_dict(document, spec)


def _scalar(value: Any) -> Any:
    """Pass JSON scalars through; stringify any other hashable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
