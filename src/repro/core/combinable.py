"""Combinability of tasks (Definition 2.4).

Tasks ``T1, T2`` are *combinable* when merging them yields a sound composite
and the view stays well-formed; a set of tasks is combinable when its union
does.  Both the pair form (driving weak local optimality) and the set form
(driving strong local optimality) are provided, at the bitmask level used by
the correctors and at the view level used by the Feedback module.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.core.split import CompositeContext
from repro.views.view import CompositeLabel, WorkflowView


def union_is_sound(ctx: CompositeContext, parts: Sequence[int]) -> bool:
    """Definition 2.3 on the union of the given part masks."""
    union = 0
    for part in parts:
        union |= part
    return ctx.is_sound_part(union)


def combinable(ctx: CompositeContext, all_parts: Sequence[int],
               chosen: Sequence[int]) -> bool:
    """Definition 2.4 for part masks ``chosen`` of the split ``all_parts``.

    True when merging ``chosen`` yields a sound part *and* the quotient over
    the merged split stays acyclic.
    """
    if len(chosen) < 2:
        return False
    if not union_is_sound(ctx, chosen):
        return False
    chosen_set = set(chosen)
    union = 0
    for part in chosen:
        union |= part
    merged = [union] + [p for p in all_parts if p not in chosen_set]
    return ctx.parts_quotient_acyclic(merged)


def combinable_pairs(ctx: CompositeContext,
                     parts: Sequence[int]) -> List[tuple]:
    """Every combinable pair ``(index_a, index_b)`` of the split."""
    found = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            if combinable(ctx, parts, [parts[a], parts[b]]):
                found.append((a, b))
    return found


def composites_combinable(view: WorkflowView,
                          labels: Iterable[CompositeLabel]) -> bool:
    """Definition 2.4 at the view level: can these composites merge soundly?

    The Feedback module reads the same answer off its post-merge
    revalidation; tests use this as the oracle for that warning and to
    cross-check the bitmask implementation.
    """
    from repro.core.soundness import is_sound_composite

    merge_labels = list(labels)
    if len(merge_labels) < 2:
        return False
    merged = view.merge(merge_labels, new_label="__merged__")
    if not merged.is_well_formed():
        return False
    return is_sound_composite(merged, "__merged__")
