"""Synthetic workflows and views mimicking public repository content.

Workflows are generated with the scientific-workflow-shaped generators and
tagged with realistic task kinds; views come in the paper's two families:

* :func:`expert_view` — a structural grouping a domain expert would draw
  (stage-based), optionally perturbed with hand-edit noise (the mechanism
  that introduced unsoundness into the surveyed repository views);
* :func:`automatic_view` — the Biton-style user view around a random set of
  relevant tasks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ViewError
from repro.graphs.generators import (
    layered_dag,
    random_dag,
    workflow_motif_dag,
)
from repro.views.builders import (
    cyclic_quotient_view,
    perturb_view,
    view_from_layers,
    whole_view,
)
from repro.views.userviews import user_view
from repro.views.view import WorkflowView
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import Task

TASK_KINDS = ("query", "transform", "curate", "align", "format", "build",
              "render")

SHAPES = ("motif", "layered", "random")

#: the mixed-workload scenarios of the corpus service benchmarks: what the
#: validate -> correct -> provenance-check pipeline will find per view
SCENARIOS = ("sound", "unsound_fixable", "cyclic_quotient",
             "provenance_divergent")

#: version of the deterministic generators above.  The durable analysis
#: cache memoizes results against a corpus entry's *identity* (corpus
#: parameters + index), which is only sound while ``materialize_entry``
#: stays deterministic per version — bump this whenever a change to the
#: generators or scenario builders alters what any (seed, size, shape,
#: scenario) tuple produces, and stale memo entries die with the old
#: fingerprints.
GENERATOR_VERSION = 1


@dataclass
class SyntheticWorkflow:
    """A generated specification plus the seed that produced it."""

    spec: WorkflowSpec
    shape: str
    seed: int


def synthetic_workflow(seed: int, size: int,
                       shape: str = "motif") -> SyntheticWorkflow:
    """Generate one workflow of about ``size`` tasks.

    ``shape`` selects the generator family; task kinds cycle through
    :data:`TASK_KINDS` with a seeded shuffle so kind-based views vary.
    """
    rng = random.Random(seed)
    if shape == "motif":
        graph = workflow_motif_dag(rng, size)
    elif shape == "layered":
        width = max(2, size // 5)
        sizes = []
        remaining = size
        while remaining > 0:
            stage = min(remaining, rng.randint(1, width))
            sizes.append(stage)
            remaining -= stage
        graph = layered_dag(rng, len(sizes), width, stage_sizes=sizes)
    elif shape == "random":
        graph = random_dag(rng, size, min(0.9, 3.0 / max(size - 1, 1)))
    else:
        raise ValueError(f"unknown shape {shape!r}; choose from {SHAPES}")
    kinds = list(TASK_KINDS)
    rng.shuffle(kinds)
    tasks = [Task(node, name=f"task-{node}", kind=kinds[i % len(kinds)])
             for i, node in enumerate(graph.nodes())]
    spec = WorkflowSpec(f"synthetic-{shape}-{seed}", tasks, graph.edges())
    return SyntheticWorkflow(spec=spec, shape=shape, seed=seed)


def expert_view(rng: random.Random, spec: WorkflowSpec,
                noise_moves: int = 2,
                layers_per_composite: Optional[int] = None) -> WorkflowView:
    """A stage-based expert view with hand-edit noise.

    The base view groups pipeline stages (always well-formed); ``noise_moves``
    random well-formedness-preserving task moves model the repository edits
    that produce unsound views in the wild.
    """
    if layers_per_composite is None:
        layers_per_composite = rng.choice([1, 2, 3])
    base = view_from_layers(spec, layers_per_composite=layers_per_composite,
                            name="expert")
    if noise_moves <= 0:
        return base
    return perturb_view(rng, base, moves=noise_moves, name="expert")


def automatic_view(rng: random.Random, spec: WorkflowSpec,
                   relevant_count: Optional[int] = None,
                   strategy: str = "interval") -> WorkflowView:
    """A Biton-style automatic user view around random relevant tasks."""
    ids = spec.task_ids()
    if relevant_count is None:
        relevant_count = max(2, len(ids) // 4)
    relevant_count = min(relevant_count, len(ids))
    relevant = rng.sample(ids, relevant_count)
    return user_view(spec, relevant, strategy=strategy,
                     name=f"automatic-{strategy}")


def _sound_view(rng: random.Random, spec: WorkflowSpec) -> WorkflowView:
    """A guaranteed-sound stage view (corrected if the stages are not)."""
    from repro.core.corrector import Criterion, correct_view
    from repro.core.soundness import is_sound_view

    base = view_from_layers(spec,
                            layers_per_composite=rng.choice([1, 2, 3]),
                            name="scenario-sound")
    if is_sound_view(base):
        return base
    return correct_view(base, Criterion.STRONG).corrected


def _unsound_view(rng: random.Random, spec: WorkflowSpec,
                  noise_moves: int) -> Optional[WorkflowView]:
    """A well-formed view with at least one unsound composite (fixable by
    the correctors), or ``None`` when noise never produces one."""
    from repro.core.soundness import unsound_composites

    for attempt in range(8):
        view = expert_view(rng, spec, noise_moves=noise_moves + attempt)
        if unsound_composites(view):
            return view
    whole = whole_view(spec, name="scenario-unsound")
    if unsound_composites(whole):
        return whole
    return None


def _provenance_divergent_view(rng: random.Random, spec: WorkflowSpec
                               ) -> Optional[WorkflowView]:
    """A well-formed view whose composite-level lineage answers diverge
    from the specification's ground truth for at least one task.

    Constructive (the Figure 1 failure, manufactured): merge two
    incomparable tasks ``a`` and ``b`` into one composite ``M`` and keep
    everything else a singleton.  With ``pa -> a`` and ``b -> sb``, the
    quotient chains ``{pa} -> M -> {sb}``, so the view claims ``pa`` is in
    the provenance of ``sb``; choosing the pair so that ``pa`` does not
    reach ``sb`` at the task level makes that claim false.  The quotient
    stays acyclic because any cycle through ``M`` would imply a task-level
    path between ``a`` and ``b``, contradicting their incomparability.
    """
    index = spec.reachability()
    ids = list(spec.task_ids())
    rng.shuffle(ids)
    for a in ids:
        preds_a = spec.predecessors(a)
        if not preds_a:
            continue
        for b in ids:
            if b == a or index.reaches(a, b) or index.reaches(b, a):
                continue
            for pa in preds_a:
                if pa == b:
                    continue
                for sb in spec.successors(b):
                    if sb == a or index.reaches(pa, sb):
                        continue
                    groups = {f"t{t}": [t] for t in spec.task_ids()
                              if t not in (a, b)}
                    groups["divergent"] = [a, b]
                    return WorkflowView(spec, groups, name="divergent")
    return None


def scenario_view(rng: random.Random, spec: WorkflowSpec,
                  scenario: str,
                  noise_moves: int = 2) -> Tuple[WorkflowView, str]:
    """One view exhibiting ``scenario``, as ``(view, actual_scenario)``.

    Scenarios (:data:`SCENARIOS`) are what the corpus pipeline will find:

    * ``sound`` — validation passes outright;
    * ``unsound_fixable`` — well-formed, at least one unsound composite,
      corrected by the Section 3 correctors;
    * ``cyclic_quotient`` — ill-formed, the validator rejects with a cycle
      witness and correction is impossible;
    * ``provenance_divergent`` — well-formed but its lineage answers are
      wrong for at least one task (the Figure 1 failure).

    The stochastic scenarios are search problems; when a specification
    never yields one (tiny or chain-shaped graphs), the returned view
    falls back to a neighbouring scenario and ``actual_scenario`` reports
    what was actually built — callers must label entries with it.
    """
    if scenario == "sound":
        return _sound_view(rng, spec), "sound"
    if scenario == "cyclic_quotient":
        try:
            return cyclic_quotient_view(rng, spec,
                                        name="scenario-cyclic"), scenario
        except ViewError:
            scenario = "unsound_fixable"
    if scenario == "provenance_divergent":
        view = _provenance_divergent_view(rng, spec)
        if view is not None:
            return view.relabeled("scenario-divergent"), scenario
        scenario = "unsound_fixable"
    if scenario == "unsound_fixable":
        view = _unsound_view(rng, spec, noise_moves=noise_moves)
        if view is not None:
            return view.relabeled("scenario-unsound"), "unsound_fixable"
        return _sound_view(rng, spec), "sound"
    raise ValueError(
        f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


def unsound_composite_contexts(view: WorkflowView) -> List:
    """Correction problems for every unsound composite of ``view``."""
    from repro.core.soundness import unsound_composites
    from repro.core.split import CompositeContext

    return [CompositeContext.from_view(view, label)
            for label in unsound_composites(view)]
