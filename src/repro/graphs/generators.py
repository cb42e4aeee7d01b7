"""Random DAG generators for the synthetic workflow repository.

The paper evaluates on workflows from the Kepler and myExperiment
repositories, which are not available offline.  These generators produce the
same structural families those repositories contain:

* :func:`random_dag` — Erdős–Rényi over a random topological order; the
  unstructured baseline.
* :func:`layered_dag` — staged pipelines (the dominant scientific-workflow
  shape: each stage feeds the next, with occasional stage-skipping edges).
* :func:`series_parallel_dag` — nested series/parallel composition, the
  shape produced by workflow design tools.
* :func:`workflow_motif_dag` — a main pipeline with fan-out/fan-in motifs
  and side chains, mimicking the Figure 1 phylogenomics workflow.

Every generator takes a :class:`random.Random` so corpora are reproducible
from a seed, and labels nodes ``0..n-1`` in a valid topological order.
"""

from __future__ import annotations

import random
from typing import List

from repro.graphs.dag import Digraph


def random_dag(rng: random.Random, n: int, p: float) -> Digraph:
    """Erdős–Rényi DAG: each forward pair becomes an edge with prob ``p``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    graph = Digraph()
    for node in range(n):
        graph.add_node(node)
    for source in range(n):
        for target in range(source + 1, n):
            if rng.random() < p:
                graph.add_edge(source, target)
    return graph


def layered_dag(rng: random.Random, n_layers: int, width: int,
                edge_prob: float = 0.5, skip_prob: float = 0.1,
                stage_sizes: List[int] = None) -> Digraph:
    """Staged pipeline: ``n_layers`` stages of up to ``width`` tasks.

    Adjacent stages are wired with probability ``edge_prob``; stage-skipping
    edges appear with probability ``skip_prob``.  Every non-source node is
    guaranteed at least one predecessor so the pipeline is connected the way
    real workflows are.  ``stage_sizes`` pins the exact per-stage task
    counts (its length overrides ``n_layers``).
    """
    if n_layers < 1 or width < 1:
        raise ValueError("n_layers and width must be positive")
    if stage_sizes is None:
        stage_sizes = [rng.randint(1, width) for _ in range(n_layers)]
    elif any(size < 1 for size in stage_sizes):
        raise ValueError("stage_sizes must be positive")
    else:
        n_layers = len(stage_sizes)
    stages: List[List[int]] = []
    next_id = 0
    for size in stage_sizes:
        stages.append(list(range(next_id, next_id + size)))
        next_id += size
    graph = Digraph()
    for node in range(next_id):
        graph.add_node(node)
    draw = rng.random
    edges: List[tuple] = []
    earlier: List[int] = []  # every stage before the previous one
    for depth in range(1, n_layers):
        previous = stages[depth - 1]
        if depth >= 2:
            earlier.extend(stages[depth - 2])
        for node in stages[depth]:
            wired = [(prev, node) for prev in previous
                     if draw() < edge_prob]
            edges.extend(wired or [(rng.choice(previous), node)])
            edges.extend([(task, node) for task in earlier
                          if draw() < skip_prob])
    graph.add_edges(edges)
    return graph


def series_parallel_dag(rng: random.Random, n: int) -> Digraph:
    """A series-parallel DAG with roughly ``n`` nodes.

    Built by recursive composition: a budget of ``k`` nodes becomes either a
    chain of two sub-blocks (series) or two sub-blocks sharing endpoints
    (parallel).  Node ids are then relabelled into a topological order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    edges: List[tuple] = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def build(budget: int) -> tuple:
        """Return (entry, exit) of a block with about ``budget`` nodes."""
        if budget <= 2:
            a, b = fresh(), fresh()
            edges.append((a, b))
            return a, b
        left = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            # series: left block then right block
            a1, b1 = build(left)
            a2, b2 = build(budget - left)
            edges.append((b1, a2))
            return a1, b2
        # parallel: two blocks between shared entry/exit
        entry, exit_ = fresh(), fresh()
        a1, b1 = build(max(1, left - 1))
        a2, b2 = build(max(1, budget - left - 1))
        edges.extend([(entry, a1), (entry, a2), (b1, exit_), (b2, exit_)])
        return entry, exit_

    build(n)
    graph = Digraph()
    for node in range(counter[0]):
        graph.add_node(node)
    for source, target in edges:
        graph.add_edge(source, target)
    return relabel_topological(graph)


def workflow_motif_dag(rng: random.Random, n: int,
                       fanout_prob: float = 0.3,
                       side_chain_prob: float = 0.2) -> Digraph:
    """A scientific-workflow-shaped DAG with about ``n`` nodes.

    A main pipeline grows forward; with probability ``fanout_prob`` a stage
    splits into parallel branches that later merge (the split/align/format
    motif of Figure 1), and with probability ``side_chain_prob`` an
    independent side chain (like "check additional annotations") joins a
    later merge point.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    graph = Digraph()
    next_id = [0]

    def fresh() -> int:
        node = next_id[0]
        next_id[0] += 1
        graph.add_node(node)
        return node

    frontier = [fresh()]
    while next_id[0] < n:
        roll = rng.random()
        if roll < fanout_prob and next_id[0] + 3 <= n:
            # split the current frontier head into 2-3 branches, then merge
            head = frontier[-1]
            branches = rng.randint(2, 3)
            tails = []
            for _ in range(branches):
                if next_id[0] >= n:
                    break
                node = fresh()
                graph.add_edge(head, node)
                tails.append(node)
            if next_id[0] < n and tails:
                merge = fresh()
                for tail in tails:
                    graph.add_edge(tail, merge)
                frontier.append(merge)
        elif roll < fanout_prob + side_chain_prob and next_id[0] + 2 <= n:
            # a fresh source chain (e.g. "check other annotations") that
            # joins the main pipeline at a new merge point
            chain_len = rng.randint(1, 2)
            prev = fresh()
            for _ in range(chain_len - 1):
                if next_id[0] >= n:
                    break
                node = fresh()
                graph.add_edge(prev, node)
                prev = node
            if next_id[0] < n:
                merge = fresh()
                graph.add_edge(prev, merge)
                graph.add_edge(frontier[-1], merge)
                frontier.append(merge)
        else:
            node = fresh()
            graph.add_edge(frontier[-1], node)
            frontier.append(node)
    return relabel_topological(graph)


def relabel_topological(graph: Digraph) -> Digraph:
    """Relabel nodes to ``0..n-1`` following a topological order."""
    from repro.graphs.topo import topological_sort

    order = topological_sort(graph)
    mapping = {node: i for i, node in enumerate(order)}
    fresh = Digraph()
    for node in order:
        fresh.add_node(mapping[node])
    for source, target in graph.edges():
        fresh.add_edge(mapping[source], mapping[target])
    return fresh
