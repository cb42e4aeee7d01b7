"""The workflow view model.

A view is a partition of a workflow's atomic tasks into *composite tasks*;
the view graph is the quotient of the specification under that partition,
keeping every inter-composite edge (the construction described under the
paper's Figure 1).  The constructor enforces the partition property but not
acyclicity of the quotient — ill-formed views must be representable so that
the validator can reject them with a witness (see
:mod:`repro.views.wellformed`).

Views are immutable: the editing operations (:meth:`WorkflowView.move`,
:meth:`WorkflowView.split`, :meth:`WorkflowView.merge`) return new views,
which is what lets the Feedback module iterate safely.

An edited view is *derived* from its parent rather than rebuilt.  The child
shares the parent's member lists for every composite the edit did not
touch, copies the owner map and the small quotient, checks the partition
property only for the touched composites' tasks, and moves each quotient
edge's multiplicity (the count of spec edges it stands for, stored as the
quotient's adjacency value) only over the spec edges incident to tasks
that changed composite.  An edit therefore costs O(degree of the changed
tasks), not O(spec edges).  A full build runs the same code with every
task changed.

The derivation is only valid against the spec the parent was built from:
when ``spec.version`` has moved past the parent's :attr:`spec_token`, the
child is built from scratch instead.  Either way the quotient uses one
canonical adjacency order — nodes, successors and predecessors all follow
the view's composite order — so a derived view's ``quotient.edges()``,
its cycle witnesses and therefore its validation report equal those of
``WorkflowView(spec, view.groups())`` exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional

from repro.errors import NotAPartitionError, ViewError
from repro.graphs.dag import Digraph
from repro.graphs.reachability import ReachabilityIndex
from repro.graphs.topo import find_cycle
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskId

CompositeLabel = Hashable


class WorkflowView:
    """A partition view over a :class:`WorkflowSpec`."""

    def __init__(self, spec: WorkflowSpec,
                 groups: Mapping[CompositeLabel, Iterable[TaskId]],
                 name: str = "view",
                 labels: Optional[Mapping[CompositeLabel, str]] = None) -> None:
        self._build(spec, {label: list(members)
                           for label, members in groups.items()},
                    name, dict(labels or {}))

    def _build(self, spec: WorkflowSpec,
               members: Dict[CompositeLabel, List[TaskId]], name: str,
               display: Dict[CompositeLabel, str],
               parent: Optional["WorkflowView"] = None,
               touched: Iterable[CompositeLabel] = ()) -> None:
        """Set up this view, derived from ``parent`` when it is current.

        ``touched`` names every composite whose member list differs from
        ``parent``'s, including those the edit removed; the member lists
        of all other composites are shared with ``parent``.
        """
        self.name = name
        self._spec = spec
        self._members = members
        self._display = display
        if parent is not None and parent._spec_token == spec.version:
            self._owner = dict(parent._owner)
            changed = {task for task, label
                       in self._claim(touched, parent).items()
                       if parent._owner[task] != label}
            self._quotient = spec.graph.quotient(
                self._owner, members,
                base=(parent._quotient, parent._owner, changed))
        else:
            self._owner = {}
            self._validate_partition()
            self._quotient = spec.graph.quotient(self._owner, members)
        self._view_index: Optional[ReachabilityIndex] = None
        self._quotient_cycle: Optional[List[CompositeLabel]] = None
        self._quotient_cycle_checked = False
        # composite-level lineage memo owned by repro.provenance.viewlevel
        # (member masks + ancestor unions, keyed by the spec index token)
        self._viewlevel_cache = None
        # the spec version this view (and its quotient) was derived from;
        # analysis caches compare this token against spec.version
        self._spec_token = spec.version

    def _derive(self, members: Dict[CompositeLabel, List[TaskId]],
                touched: Iterable[CompositeLabel],
                name: Optional[str] = None) -> "WorkflowView":
        """The child view with partition ``members`` (see :meth:`_build`)."""
        child = WorkflowView.__new__(WorkflowView)
        child._build(self._spec, members,
                     self.name if name is None else name, self._display,
                     parent=self, touched=touched)
        return child

    def _validate_partition(self) -> None:
        """Check the whole partition (a full build)."""
        self._claim(self._members, None)

    def _claim(self, touched: Iterable[CompositeLabel],
               parent: Optional["WorkflowView"]
               ) -> Dict[TaskId, CompositeLabel]:
        """Record the owners of the touched composites' members, checking
        the partition property for those tasks only; returns them.

        ``touched`` must name every composite of ``parent`` (every
        composite, without a parent) whose membership changed or vanished.
        """
        members = self._members
        before = parent._owner if parent is not None else {}
        touched = list(dict.fromkeys(touched))
        replaced = set(touched)
        claimed: Dict[TaskId, CompositeLabel] = {}
        for label in touched:
            if label not in members:
                continue
            if not members[label]:
                raise NotAPartitionError(
                    f"composite {label!r} has no member tasks")
            for member in members[label]:
                if member not in self._spec:
                    raise NotAPartitionError(
                        f"composite {label!r} references unknown task "
                        f"{member!r}")
                if member in claimed:
                    other = claimed[member]
                elif member in before and before[member] not in replaced:
                    other = before[member]  # kept by an untouched composite
                else:
                    claimed[member] = label
                    continue
                raise NotAPartitionError(
                    f"task {member!r} appears in composites "
                    f"{other!r} and {label!r}")
        self._owner.update(claimed)
        if parent is None:
            released = self._spec.task_ids()
        else:
            released = [task for label in touched if label in parent
                        for task in parent._members[label]]
        if len(claimed) != len(released):
            missing = [t for t in released if t not in claimed]
            raise NotAPartitionError(
                f"tasks not covered by any composite: {missing!r}")
        return claimed

    # -- structure ---------------------------------------------------------

    @property
    def spec(self) -> WorkflowSpec:
        return self._spec

    @property
    def spec_token(self) -> int:
        """The spec version this view was built from (staleness probe)."""
        return self._spec_token

    @property
    def quotient(self) -> Digraph:
        """The view graph: one node per composite, induced edges."""
        return self._quotient

    def composite_labels(self) -> List[CompositeLabel]:
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, label: CompositeLabel) -> bool:
        return label in self._members

    def members(self, label: CompositeLabel) -> List[TaskId]:
        try:
            return list(self._members[label])
        except KeyError:
            raise ViewError(f"unknown composite {label!r}") from None

    def composite_of(self, task_id: TaskId) -> CompositeLabel:
        try:
            return self._owner[task_id]
        except KeyError:
            raise ViewError(f"unknown task {task_id!r}") from None

    def display_name(self, label: CompositeLabel) -> str:
        return self._display.get(label, str(label))

    def groups(self) -> Dict[CompositeLabel, List[TaskId]]:
        """A copy of the full partition (label -> members)."""
        return {label: list(members)
                for label, members in self._members.items()}

    def is_singleton(self, label: CompositeLabel) -> bool:
        return len(self.members(label)) == 1

    # -- boundary sets (Definition 2.2) -------------------------------------

    def in_set(self, label: CompositeLabel) -> List[TaskId]:
        """``T.in``: member tasks receiving input from outside ``T``."""
        members = set(self.members(label))
        found = []
        for task in self._members[label]:
            if any(p not in members for p in self._spec.predecessors(task)):
                found.append(task)
        return found

    def out_set(self, label: CompositeLabel) -> List[TaskId]:
        """``T.out``: member tasks sending output outside ``T``."""
        members = set(self.members(label))
        found = []
        for task in self._members[label]:
            if any(s not in members for s in self._spec.successors(task)):
                found.append(task)
        return found

    # -- view-level reachability --------------------------------------------

    def quotient_cycle(self) -> Optional[List[CompositeLabel]]:
        """A witness cycle of composites, or ``None`` when well-formed.

        Views are immutable, so the answer is computed once and cached —
        repeated provenance queries against the same view stop paying a
        cycle scan each (see :mod:`repro.provenance.viewlevel`).
        """
        if not self._quotient_cycle_checked:
            self._quotient_cycle = find_cycle(self._quotient)
            self._quotient_cycle_checked = True
        return self._quotient_cycle

    def is_well_formed(self) -> bool:
        """True when the quotient graph is a DAG."""
        return self.quotient_cycle() is None

    def view_reachability(self) -> ReachabilityIndex:
        """Reachability over composites (requires a well-formed view)."""
        if self._view_index is None:
            self._view_index = ReachabilityIndex(self._quotient,
                                                 token=self._spec_token)
        return self._view_index

    def view_path_exists(self, source: CompositeLabel,
                         target: CompositeLabel) -> bool:
        """True iff the view claims a dependency ``source -> target``."""
        return self.view_reachability().reaches(source, target)

    # -- editing (returns new views) ------------------------------------------

    def split(self, label: CompositeLabel,
              parts: Iterable[Iterable[TaskId]],
              part_labels: Optional[Iterable[CompositeLabel]] = None
              ) -> "WorkflowView":
        """Replace composite ``label`` by the given ``parts``.

        ``parts`` must partition the composite's members; new composites are
        labelled ``"{label}.1"``, ``"{label}.2"`` ... unless ``part_labels``
        is given.  Single-part splits relabel in place.
        """
        old_members = set(self.members(label))
        parts = [list(p) for p in parts]
        covered = [t for part in parts for t in part]
        if set(covered) != old_members or len(covered) != len(old_members):
            raise ViewError(
                f"parts do not partition composite {label!r}")
        if part_labels is None:
            names = [f"{label}.{i + 1}" for i in range(len(parts))]
        else:
            names = list(part_labels)
            if len(names) != len(parts):
                raise ViewError("part_labels and parts differ in length")
        groups = {}
        for existing, members in self._members.items():
            if existing == label:
                for part_name, part in zip(names, parts):
                    if part_name in self._members and part_name != label:
                        raise ViewError(
                            f"new label {part_name!r} collides with an "
                            f"existing composite")
                    groups[part_name] = part
            else:
                groups[existing] = members
        return self._derive(groups, [label, *names])

    @staticmethod
    def merged_label(merge_labels: Iterable[CompositeLabel]) -> str:
        """The default label :meth:`merge` gives a fused composite."""
        return "+".join(str(label) for label in merge_labels)

    def merge(self, merge_labels: Iterable[CompositeLabel],
              new_label: Optional[CompositeLabel] = None) -> "WorkflowView":
        """Merge several composites into one (the Feedback module's move)."""
        merging = list(merge_labels)
        if len(merging) < 2:
            raise ViewError("merge needs at least two composites")
        for label in merging:
            if label not in self._members:
                raise ViewError(f"unknown composite {label!r}")
        if new_label is None:
            new_label = self.merged_label(merging)
        merged: List[TaskId] = []
        for label in merging:
            merged.extend(self._members[label])
        groups = {}
        inserted = False
        merging_set = set(merging)
        for existing, members in self._members.items():
            if existing in merging_set:
                if not inserted:
                    groups[new_label] = merged
                    inserted = True
            else:
                groups[existing] = members
        return self._derive(groups, [*merging, new_label])

    def move(self, task_id: TaskId,
             target: CompositeLabel) -> "WorkflowView":
        """Move one task into composite ``target`` (the Feedback module's
        *Move*); a donor left empty disappears."""
        source = self.composite_of(task_id)
        if source == target:
            raise ViewError(f"task {task_id!r} is already in {target!r}")
        if target not in self._members:
            raise ViewError(f"unknown composite {target!r}")
        groups = dict(self._members)
        remaining = [t for t in groups[source] if t != task_id]
        if remaining:
            groups[source] = remaining
        else:
            del groups[source]
        groups[target] = groups[target] + [task_id]
        return self._derive(groups, (source, target))

    def relabeled(self, name: str) -> "WorkflowView":
        return self._derive(self._members, (), name=name)

    # -- misc ----------------------------------------------------------------

    def compression_ratio(self) -> float:
        """Atomic tasks per composite (the view's size reduction)."""
        return len(self._spec) / len(self._members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowView):
            return NotImplemented
        mine = {frozenset(m) for m in self._members.values()}
        theirs = {frozenset(m) for m in other._members.values()}
        same_tasks = (set(self._spec.task_ids())
                      == set(other._spec.task_ids()))
        return same_tasks and mine == theirs

    def __repr__(self) -> str:
        return (f"WorkflowView({self.name!r}, composites={len(self)}, "
                f"tasks={len(self._spec)})")
