"""Structural view builders.

These produce the "expert-defined" views of the paper's evaluation: views a
workflow designer would plausibly draw (grouping by pipeline stage, by task
kind, by topological neighbourhoods), plus controlled perturbations that
introduce unsoundness the way the paper's repository survey found it in the
wild.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import ViewError
from repro.graphs.topo import layers, topological_sort
from repro.views.view import WorkflowView
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskId


def singleton_view(spec: WorkflowSpec, name: str = "singletons") -> WorkflowView:
    """One composite per atomic task — always sound, never smaller."""
    return WorkflowView(spec, {f"t{tid}": [tid] for tid in spec.task_ids()},
                        name=name)


def whole_view(spec: WorkflowSpec, name: str = "whole") -> WorkflowView:
    """A single composite holding every task (usually unsound)."""
    return WorkflowView(spec, {"all": spec.task_ids()}, name=name)


def view_from_layers(spec: WorkflowSpec, layers_per_composite: int = 1,
                     name: str = "layered") -> WorkflowView:
    """Group tasks by longest-path layer, ``layers_per_composite`` at a time.

    This is the classic "one composite per pipeline stage" expert view.  The
    quotient is always acyclic (edges never point to an earlier layer) but
    stages with parallel branches are frequently unsound — exactly the
    failure mode of the paper's Figure 1.
    """
    if layers_per_composite < 1:
        raise ViewError("layers_per_composite must be positive")
    stage_layers = layers(spec.graph)
    groups: Dict[str, List[TaskId]] = {}
    for i in range(0, len(stage_layers), layers_per_composite):
        chunk = stage_layers[i:i + layers_per_composite]
        groups[f"stage{i // layers_per_composite}"] = [
            task for layer in chunk for task in layer]
    return WorkflowView(spec, groups, name=name)


def view_by_kind(spec: WorkflowSpec, name: str = "by-kind") -> WorkflowView:
    """Group tasks sharing a ``kind`` when they are topologically adjacent.

    A workflow designer groups "all the formatting steps" — but only runs of
    consecutive same-kind tasks, so unrelated occurrences of a kind stay
    separate.  The quotient can still be cyclic or unsound; this builder
    makes no promises, it imitates a designer.
    """
    order = topological_sort(spec.graph)
    groups: Dict[str, List[TaskId]] = {}
    run_id = 0
    previous_kind = None
    current_label = None
    for task_id in order:
        kind = spec.task(task_id).kind
        if kind != previous_kind:
            current_label = f"{kind}-{run_id}"
            groups[current_label] = []
            run_id += 1
            previous_kind = kind
        groups[current_label].append(task_id)
    return WorkflowView(spec, groups, name=name)


def random_convex_view(rng: random.Random, spec: WorkflowSpec,
                       target_composites: int,
                       name: str = "random-convex") -> WorkflowView:
    """A random view built from topological intervals.

    Cutting a topological order into contiguous chunks guarantees a
    well-formed (acyclic-quotient) view; soundness is *not* guaranteed, which
    matches how repository views behave.
    """
    if target_composites < 1:
        raise ViewError("target_composites must be positive")
    order = topological_sort(spec.graph)
    n = len(order)
    k = min(target_composites, n)
    cut_points = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    bounds = [0] + cut_points + [n]
    groups = {f"c{i}": order[bounds[i]:bounds[i + 1]]
              for i in range(len(bounds) - 1)}
    return WorkflowView(spec, groups, name=name)


def cyclic_quotient_view(rng: random.Random, spec: WorkflowSpec,
                         name: str = "cyclic") -> WorkflowView:
    """A deliberately ill-formed view whose quotient contains a cycle.

    Two dependency edges ``a -> b`` and ``c -> d`` with four distinct
    endpoints are folded into composites ``A = {a, d}`` and ``B = {b, c}``,
    giving quotient edges ``A -> B`` (via ``a -> b``) and ``B -> A`` (via
    ``c -> d``); every other task stays a singleton.  Corpus sweeps use
    this to exercise the validator's ill-formed branch (the reject-with-
    cycle-witness path), which well-formed generators never reach.

    Raises :class:`ViewError` when the specification has no two endpoint-
    disjoint edges (callers fall back to another scenario).
    """
    edges = spec.dependencies()
    rng.shuffle(edges)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) == 4:
                groups: Dict[str, List[TaskId]] = {
                    "cyc-A": [a, d], "cyc-B": [b, c]}
                for task_id in spec.task_ids():
                    if task_id not in (a, b, c, d):
                        groups[f"t{task_id}"] = [task_id]
                # quotient edges A -> B (a -> b) and B -> A (c -> d)
                # exist by construction, so the view is always ill-formed
                return WorkflowView(spec, groups, name=name)
    raise ViewError(
        f"spec {spec.name!r} admits no cyclic-quotient view "
        f"(no suitable endpoint-disjoint edge pair)")


def perturb_view(rng: random.Random, view: WorkflowView, moves: int = 1,
                 name: str = "perturbed") -> WorkflowView:
    """Move ``moves`` random tasks into neighbouring composites.

    This models the hand-editing that introduces unsoundness into otherwise
    reasonable views (the paper's repository survey).  Only moves that keep
    the view well-formed are applied; the result may well be unsound, which
    is the point.
    """
    current = view
    attempts = 0
    applied = 0
    while applied < moves and attempts < moves * 20:
        attempts += 1
        groups = current.groups()
        donors = [label for label, members in groups.items()
                  if len(members) > 1]
        if not donors:
            break
        donor = rng.choice(donors)
        task = rng.choice(groups[donor])
        receivers = [label for label in groups if label != donor]
        if not receivers:
            break
        candidate = current.move(task, rng.choice(receivers))
        if candidate.is_well_formed():
            current = candidate
            applied += 1
    return current.relabeled(name)
