"""Derived views equal from-scratch views.

:meth:`WorkflowView.move`, :meth:`~WorkflowView.merge` and
:meth:`~WorkflowView.split` derive the edited view from its parent in
O(degree of the changed tasks).  The differential below runs random edit
scripts — moves (donors that vanish included), merges, splits, and spec
mutations that force the from-scratch fallback — and compares every edited
view with ``WorkflowView(spec, view.groups())`` on the quotient (nodes,
ordered adjacency and multiplicities), the owner map, member order,
well-formedness, the cycle witness and the validation report.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.combinable import composites_combinable
from repro.core.incremental import AnalysisCache
from repro.core.soundness import validate_view
from repro.errors import NotAPartitionError, ViewError
from repro.graphs.dag import Digraph
from repro.graphs.generators import layered_dag, random_dag
from repro.graphs.topo import topological_sort
from repro.system.feedback import create_composite_task, move_task
from repro.views.builders import random_convex_view
from repro.views.view import WorkflowView
from repro.workflow.spec import WorkflowSpec

#: the fixed profile of this module: reproducible and bounded
DERIVE = settings(derandomize=True, max_examples=80, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _spec(seed: int, n: int) -> WorkflowSpec:
    rng = random.Random(seed)
    if seed % 2:
        graph = layered_dag(rng, max(2, n // 4), 4)
    else:
        graph = random_dag(rng, n, rng.uniform(0.1, 0.4))
    return WorkflowSpec.from_digraph(f"derive-{seed}", graph)


def _random_view(rng: random.Random, spec: WorkflowSpec) -> WorkflowView:
    """An interval view (well-formed) or a random partition (often
    cyclic), so scripts start from both kinds."""
    if rng.random() < 0.5:
        return random_convex_view(rng, spec, rng.randint(2, len(spec)))
    groups = {}
    for task in spec.task_ids():
        groups.setdefault(f"r{rng.randrange(max(2, len(spec) // 3))}",
                          []).append(task)
    return WorkflowView(spec, groups, name="random")


def _multiplicities(view: WorkflowView) -> Counter:
    """Quotient edge counts straight from the spec edges (the oracle)."""
    return Counter((view.composite_of(u), view.composite_of(v))
                   for u, v in view.spec.dependencies()
                   if view.composite_of(u) != view.composite_of(v))


def assert_same_as_scratch(view: WorkflowView) -> None:
    scratch = WorkflowView(view.spec, view.groups(), name=view.name)
    mine, theirs = view.quotient, scratch.quotient
    assert mine.nodes() == theirs.nodes() == view.composite_labels()
    assert mine.edges() == theirs.edges()
    for label in mine.nodes():
        assert list(mine._succ[label].items()) \
            == list(theirs._succ[label].items())
        assert list(mine._pred[label].items()) \
            == list(theirs._pred[label].items())
    counts = _multiplicities(view)
    assert {(a, b): c for a in mine.nodes()
            for b, c in mine._succ[a].items()} == counts
    assert {(a, b): c for b in mine.nodes()
            for a, c in mine._pred[b].items()} == counts
    assert list(view.groups().items()) == list(scratch.groups().items())
    for task in view.spec.task_ids():
        assert view.composite_of(task) == scratch.composite_of(task)
    assert view.is_well_formed() == scratch.is_well_formed()
    assert view.quotient_cycle() == scratch.quotient_cycle()
    assert validate_view(view) == validate_view(scratch)


def _mutate_spec(rng: random.Random, spec: WorkflowSpec) -> bool:
    """Add one forward dependency (the spec stays a DAG)."""
    order = topological_sort(spec.graph)
    for _ in range(10):
        i, j = sorted(rng.sample(range(len(order)), 2))
        if not spec.graph.has_edge(order[i], order[j]):
            spec.add_dependency(order[i], order[j])
            return True
    return False


def _edit(rng: random.Random, view: WorkflowView, cache: AnalysisCache):
    """One random edit; returns ``(view, report)`` (report may be None)."""
    labels = view.composite_labels()
    roll = rng.random()
    if roll < 0.45 and len(labels) >= 2:
        task = rng.choice(view.spec.task_ids())
        if rng.random() < 0.3:
            singletons = [label for label in labels
                          if len(view.members(label)) == 1]
            if singletons:  # the donor vanishes
                task = view.members(rng.choice(singletons))[0]
        target = rng.choice([label for label in labels
                             if label != view.composite_of(task)])
        outcome = move_task(view, task, target, cache=cache)
        return outcome.view, outcome.report
    if roll < 0.75 and len(labels) >= 2:
        merging = rng.sample(labels, rng.randint(2, min(3, len(labels))))
        # reusing a merging label moves that label in the composite order
        new_label = rng.choice([None, f"m{rng.randrange(10 ** 6)}",
                                merging[-1]])
        outcome = create_composite_task(view, merging, new_label=new_label,
                                        cache=cache)
        return outcome.view, outcome.report
    label = rng.choice(labels)
    members = view.members(label)
    if len(members) < 2:
        return view, None
    rng.shuffle(members)
    cuts = sorted(rng.sample(range(1, len(members)),
                             min(len(members) - 1, rng.randint(1, 2))))
    parts = [members[a:b] for a, b in zip([0] + cuts, cuts + [None])]
    part_labels = None
    if rng.random() < 0.3:  # keep the label on the first part
        part_labels = [label] + [f"{label}/{i}" for i in range(1, len(parts))]
    return view.split(label, parts, part_labels=part_labels), None


class TestDifferential:
    @given(seed=st.integers(0, 2 ** 20), n=st.integers(4, 24),
           steps=st.integers(1, 10))
    @DERIVE
    def test_random_edit_scripts_match_scratch(self, seed, n, steps):
        spec = _spec(seed, n)
        rng = random.Random(seed ^ 0x5EED)
        view = _random_view(rng, spec)
        cache = AnalysisCache(spec)
        cache.validate(view)
        for _ in range(steps):
            if rng.random() < 0.15 and _mutate_spec(rng, spec):
                # the parent is now stale: the next edit rebuilds it
                assert view.spec_token != spec.version
            view, report = _edit(rng, view, cache)
            if view.spec_token != spec.version:
                continue  # a split no-op left the stale view in place
            assert_same_as_scratch(view)
            assert cache.validate(view) == validate_view(view)
            if report is not None:
                assert report == validate_view(view)

    @given(seed=st.integers(0, 2 ** 20), n=st.integers(6, 24))
    @settings(DERIVE, max_examples=200)
    def test_merge_warning_equals_combinability(self, seed, n):
        spec = _spec(seed, n)
        rng = random.Random(seed ^ 0xC0B1)
        view = random_convex_view(rng, spec, rng.randint(2, len(spec)))
        labels = view.composite_labels()
        merging = rng.sample(labels, rng.choice([2, 2, 3][:len(labels)]))
        outcome = create_composite_task(view, merging)
        assert (outcome.warning is None) \
            == composites_combinable(view, merging)


class TestDeriveCases:
    def _chain(self, n: int = 4) -> WorkflowSpec:
        return WorkflowSpec.from_digraph(
            "chain", Digraph((i, i + 1) for i in range(n - 1)))

    def test_move_that_closes_a_cycle(self):
        view = WorkflowView(self._chain(), {"A": [0, 1], "B": [2], "C": [3]})
        moved = view.move(3, "A")  # A -> B -> A
        assert moved.quotient_cycle() is not None
        assert "C" not in moved  # the donor vanished
        assert_same_as_scratch(moved)

    def test_multiplicity_falls_to_zero_and_back(self):
        view = WorkflowView(self._chain(), {"A": [0, 1], "B": [2, 3]})
        assert view.quotient._succ["A"] == {"B": 1}
        moved = view.move(2, "A")
        assert moved.quotient._succ["A"] == {"B": 1}
        mid = moved.move(1, "B")  # 0 -> 1 and 2 -> 3 forward, 1 -> 2 back
        assert mid.quotient._succ == {"A": {"B": 2}, "B": {"A": 1}}
        back = mid.move(2, "B")
        assert back.quotient._succ == {"A": {"B": 1}, "B": {}}
        whole = back.move(0, "B")
        assert whole.quotient.edges() == []
        for derived in (moved, mid, back, whole):
            assert_same_as_scratch(derived)

    def test_stale_parent_falls_back_to_a_full_build(self):
        spec = self._chain()
        view = WorkflowView(spec, {"A": [0, 1], "B": [2], "C": [3]})
        spec.add_dependency(0, 3)
        moved = view.move(2, "C")
        assert moved.spec_token == spec.version
        assert moved.quotient._succ["A"] == {"C": 2}
        assert_same_as_scratch(moved)

    def test_relabeled_shares_the_quotient_shape(self):
        view = WorkflowView(self._chain(), {"A": [0], "B": [1, 2, 3]},
                            labels={"A": "alpha"})
        renamed = view.relabeled("other")
        assert renamed.name == "other"
        assert renamed.display_name("A") == "alpha"
        assert renamed.quotient is not view.quotient
        assert_same_as_scratch(renamed)

    def test_partition_errors_still_raised(self):
        view = WorkflowView(self._chain(), {"A": [0, 1], "B": [2, 3]})
        with pytest.raises(ViewError):
            view.move(0, "A")
        with pytest.raises(ViewError):
            view.move(0, "Z")
        with pytest.raises(NotAPartitionError):
            view.merge(["A", "B"], new_label="B").split(
                "B", [[0, 1], [2, 3]], part_labels=["X", "X"])


# -- complexity guard ---------------------------------------------------------


def _edit_sized():
    """The repository benchmark's edit workload: ~2000 tasks, 100
    interval composites, ~207k spec edges."""
    rng = random.Random("edit-spec")
    graph = layered_dag(rng, 200, 10, stage_sizes=[10] * 200)
    spec = WorkflowSpec.from_digraph("edit-spec", graph)
    return spec, random_convex_view(rng, spec, 100, name="edit-view")


def test_move_on_edit_sized_spec_makes_no_full_build():
    spec, view = _edit_sized()
    cache = AnalysisCache(spec)
    cache.validate(view)
    order = topological_sort(spec.graph)
    boundary = max(view.members("c1"), key=order.index)
    target = view.composite_of(order[order.index(boundary) + 1])

    quotient_code = Digraph.quotient.__code__
    partition_code = WorkflowView._validate_partition.__code__
    calls = {"full": 0, "derived": 0, "partition": 0}

    def profiler(frame, event, _arg):
        if event != "call":
            return
        if frame.f_code is quotient_code:
            kind = "full" if frame.f_locals["base"] is None else "derived"
            calls[kind] += 1
        elif frame.f_code is partition_code:
            calls["partition"] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        outcome = move_task(view, boundary, target, cache=cache)
    finally:
        sys.setprofile(previous)
    assert calls == {"full": 0, "derived": 1, "partition": 0}
    assert outcome.report == validate_view(outcome.view)

