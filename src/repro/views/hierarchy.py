"""Hierarchies of views: views of views.

Real repositories nest abstraction: a sub-workflow is a composite in its
parent, which is itself a composite one level up (the paper cites user
views built over Kepler's nested MOML models).  A
:class:`ViewHierarchy` is a tower ``spec = L0, L1, ..., Lk`` where each
level partitions the previous level's composites.

The central fact (proved by the flattening construction and pinned by the
property tests) is **composition soundness**:

* flattening level ``i`` onto the base specification yields an ordinary
  view whose composites are the unions of the nested groups;
* if every level is sound *with respect to the level below*, the flattened
  view is sound with respect to the specification — soundness composes;
* the converse direction of each level is checked against the quotient of
  the level below, so validation cost stays proportional to level size,
  not workflow size.

Why composition holds: level ``i``'s quotient is exactly the flattened
view's quotient (quotients compose), and a sound lower level preserves
reachability between lower composites, so Definition 2.3 for an upper
composite over the lower *quotient* coincides with Definition 2.3 over the
specification once every lower level is sound.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.soundness import unsound_composites, validate_view
from repro.errors import ViewError
from repro.views.view import CompositeLabel, WorkflowView
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task, TaskId


class ViewHierarchy:
    """A tower of views over one workflow specification."""

    def __init__(self, spec: WorkflowSpec) -> None:
        self.spec = spec
        self._levels: List[WorkflowView] = []

    def __len__(self) -> int:
        return len(self._levels)

    @property
    def levels(self) -> List[WorkflowView]:
        return list(self._levels)

    def level(self, index: int) -> WorkflowView:
        try:
            return self._levels[index]
        except IndexError:
            raise ViewError(
                f"hierarchy has {len(self._levels)} level(s); "
                f"no level {index}") from None

    # -- construction ------------------------------------------------------

    def add_level(self, groups: Mapping[CompositeLabel,
                                        Iterable[CompositeLabel]],
                  name: Optional[str] = None) -> WorkflowView:
        """Add a level partitioning the previous level's composites.

        The first level's groups reference task ids; later levels reference
        the previous level's composite labels.  Returns the *flattened*
        view of the new level (composites expanded to task ids), which is
        what gets validated and stored.
        """
        level_name = name if name is not None else f"level{len(self)}"
        if not self._levels:
            flattened = WorkflowView(self.spec, groups, name=level_name)
        else:
            below = self._levels[-1]
            expanded: Dict[CompositeLabel, List[TaskId]] = {}
            seen: Dict[CompositeLabel, CompositeLabel] = {}
            for label, lower_labels in groups.items():
                members: List[TaskId] = []
                for lower in lower_labels:
                    if lower not in below:
                        raise ViewError(
                            f"level {len(self)} references unknown "
                            f"composite {lower!r} of the level below")
                    if lower in seen:
                        raise ViewError(
                            f"composite {lower!r} grouped twice "
                            f"(into {seen[lower]!r} and {label!r})")
                    seen[lower] = label
                    members.extend(below.members(lower))
                expanded[label] = members
            missing = [l for l in below.composite_labels() if l not in seen]
            if missing:
                raise ViewError(
                    f"level {len(self)} does not cover composites "
                    f"{missing!r} of the level below")
            flattened = WorkflowView(self.spec, expanded, name=level_name)
        self._levels.append(flattened)
        return flattened

    def coarsen(self, merges: Mapping[CompositeLabel,
                                      Iterable[CompositeLabel]],
                name: Optional[str] = None) -> WorkflowView:
        """Convenience: add a level that merges the listed groups and keeps
        every unlisted composite of the level below as a singleton group.
        """
        if not self._levels:
            raise ViewError("coarsen needs an existing level")
        below = self._levels[-1]
        grouped = {lower for lowers in merges.values() for lower in lowers}
        groups: Dict[CompositeLabel, List[CompositeLabel]] = {
            label: list(lowers) for label, lowers in merges.items()}
        for label in below.composite_labels():
            if label not in grouped:
                groups[f"={label}"] = [label]
        return self.add_level(groups, name=name)

    # -- validation ---------------------------------------------------------

    def level_quotient_spec(self, index: int) -> WorkflowSpec:
        """The level-``index`` quotient re-packaged as a WorkflowSpec.

        This is "the workflow" an analyst at level ``index`` believes they
        are looking at; level ``index + 1`` is a view over it.
        """
        view = self.level(index)
        return WorkflowSpec(
            f"{view.name}-as-spec",
            [Task(label, name=view.display_name(label))
             for label in view.composite_labels()],
            view.quotient.edges())

    def unsound_levels(self) -> List[int]:
        """Indices of levels whose *flattened* view is unsound."""
        return [i for i, view in enumerate(self._levels)
                if unsound_composites(view) or not view.is_well_formed()]

    def is_sound(self) -> bool:
        """True when every level is sound w.r.t. the specification."""
        return not self.unsound_levels()

    def validate_level_locally(self, index: int):
        """Validate level ``index`` against the quotient of the level below.

        Cheap (runs on the small quotient graph) and, when every lower
        level is sound, equivalent to validating the flattened view — the
        composition-soundness property the tests pin down.
        """
        view = self.level(index)
        if index == 0:
            return validate_view(view)
        below_spec = self.level_quotient_spec(index - 1)
        below = self.level(index - 1)
        groups: Dict[CompositeLabel, List[CompositeLabel]] = {}
        for label in view.composite_labels():
            member_tasks = set(view.members(label))
            groups[label] = [
                lower for lower in below.composite_labels()
                if set(below.members(lower)) <= member_tasks]
        local_view = WorkflowView(below_spec, groups,
                                  name=f"{view.name}-local")
        return validate_view(local_view)
