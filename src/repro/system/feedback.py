"""The Workflow View Feedback module.

"After the correction is finished, if the user is not satisfied with the
refined view, she can modify the view ... select multiple tasks ... and
choose *Create Composite Task* to merge the selected tasks.  The result ...
will be sent back to the Workflow View Validator Module for validation."

The module therefore offers exactly two moves — merge composites, or move
the grouping around a chosen composite — and always re-validates, returning
the new report alongside the new view.

Each move emits a structured :class:`~repro.core.incremental.EditEvent`
(carried on the :class:`FeedbackOutcome`), and when the caller supplies the
session's :class:`~repro.core.incremental.AnalysisCache` the mandated
re-validation is incremental: only the composites the edit touched are
rechecked, with a report identical to the from-scratch one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.incremental import AnalysisCache, EditEvent
from repro.core.soundness import ValidationReport, validate_view
from repro.errors import ViewError
from repro.views.view import CompositeLabel, WorkflowView


@dataclass(frozen=True)
class FeedbackOutcome:
    """A feedback edit plus the re-validation the loop mandates."""

    view: WorkflowView
    report: ValidationReport
    warning: Optional[str] = None
    event: Optional[EditEvent] = None

    @property
    def sound(self) -> bool:
        return self.report.sound


def _revalidate(view: WorkflowView, event: EditEvent,
                cache: Optional[AnalysisCache]) -> ValidationReport:
    if cache is not None:
        return cache.validate(view, event)
    return validate_view(view)


def create_composite_task(view: WorkflowView,
                          labels: Iterable[CompositeLabel],
                          new_label: Optional[CompositeLabel] = None,
                          cache: Optional[AnalysisCache] = None
                          ) -> FeedbackOutcome:
    """Merge the selected composites and re-validate.

    A warning is attached when the merge is not combinable (the resulting
    composite is unsound or the view ill-formed), read off the
    re-validation itself; the merge is still performed — the user is in
    charge — unless it would break the partition itself.
    """
    merge_labels = list(labels)
    merged = view.merge(merge_labels, new_label=new_label)
    resulting_label = new_label if new_label is not None \
        else WorkflowView.merged_label(merge_labels)
    event = EditEvent.merge(merge_labels, resulting_label)
    report = _revalidate(merged, event, cache)
    warning = None
    if not report.well_formed or resulting_label in report.witnesses:
        warning = ("merging " + ", ".join(str(l) for l in merge_labels)
                   + " does not yield a sound composite")
    return FeedbackOutcome(view=merged, report=report, warning=warning,
                           event=event)


def move_task(view: WorkflowView, task_id, target_label: CompositeLabel,
              cache: Optional[AnalysisCache] = None) -> FeedbackOutcome:
    """Move one task into another composite and re-validate."""
    source_label = view.composite_of(task_id)
    moved = view.move(task_id, target_label)
    event = EditEvent.move(source_label, target_label,
                           source_survives=source_label in moved)
    return FeedbackOutcome(view=moved,
                           report=_revalidate(moved, event, cache),
                           event=event)


def iterate_until_sound(view: WorkflowView,
                        edits: Iterable[Tuple[str, tuple]],
                        cache: Optional[AnalysisCache] = None
                        ) -> List[FeedbackOutcome]:
    """Apply a scripted sequence of feedback edits, validating each.

    ``edits`` holds ``("merge", (labels, new_label))`` or
    ``("move", (task_id, target_label))`` steps — the headless equivalent of
    the user clicking through the Feedback loop.  Returns the outcome of
    every step; the caller decides whether the final view satisfies them.
    A shared ``cache`` makes every step's re-validation incremental.
    """
    outcomes: List[FeedbackOutcome] = []
    current = view
    for kind, args in edits:
        if kind == "merge":
            labels, new_label = args
            outcome = create_composite_task(current, labels,
                                            new_label=new_label,
                                            cache=cache)
        elif kind == "move":
            task_id, target = args
            outcome = move_task(current, task_id, target, cache=cache)
        else:
            raise ViewError(f"unknown feedback edit {kind!r}")
        outcomes.append(outcome)
        current = outcome.view
    return outcomes
