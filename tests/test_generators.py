"""Unit tests for repro.graphs.generators."""

import random

import pytest

from repro.graphs.dag import Digraph
from repro.graphs.generators import (
    layered_dag,
    random_dag,
    relabel_topological,
    series_parallel_dag,
    workflow_motif_dag,
)
from repro.graphs.topo import is_acyclic, topological_sort


class TestRandomDag:
    def test_always_acyclic(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_dag(rng, rng.randint(0, 25), rng.random())
            assert is_acyclic(g)

    def test_node_count(self):
        assert len(random_dag(random.Random(0), 10, 0.3)) == 10

    def test_p_zero_no_edges(self):
        assert random_dag(random.Random(0), 8, 0.0).edge_count() == 0

    def test_p_one_complete_order(self):
        g = random_dag(random.Random(0), 5, 1.0)
        assert g.edge_count() == 10

    def test_deterministic_for_seed(self):
        a = random_dag(random.Random(42), 12, 0.4)
        b = random_dag(random.Random(42), 12, 0.4)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_dag(random.Random(0), -1, 0.5)
        with pytest.raises(ValueError):
            random_dag(random.Random(0), 5, 1.5)


class TestLayeredDag:
    def test_acyclic_and_connected_forward(self):
        rng = random.Random(3)
        for _ in range(10):
            g = layered_dag(rng, rng.randint(2, 6), rng.randint(1, 5))
            assert is_acyclic(g)
            # every non-source has a predecessor (pipelines are connected)
            sources = set(g.sources())
            for node in g.nodes():
                if node not in sources:
                    assert g.predecessors(node)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            layered_dag(random.Random(0), 0, 3)

    def test_single_layer(self):
        g = layered_dag(random.Random(0), 1, 4)
        assert g.edge_count() == 0

    @pytest.mark.parametrize("seed, layers, width, sizes, probs", [
        (0, 6, 4, None, {}),
        (7, 12, 5, None, {"edge_prob": 0.3, "skip_prob": 0.4}),
        (2009, 3, 9, [9, 1, 9], {"edge_prob": 0.0}),
        # the repository benchmark's edit workload spec
        ("edit-spec", 200, 10, [10] * 200, {}),
    ])
    def test_matches_the_per_edge_loop(self, seed, layers, width, sizes,
                                       probs):
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        fast = layered_dag(fast_rng, layers, width, stage_sizes=sizes,
                           **probs)
        slow = _layered_dag_per_edge(slow_rng, layers, width,
                                     stage_sizes=sizes, **probs)
        assert fast.nodes() == slow.nodes()
        assert fast.edges() == slow.edges()
        assert fast_rng.getstate() == slow_rng.getstate()


def _layered_dag_per_edge(rng, n_layers, width, edge_prob=0.5,
                          skip_prob=0.1, stage_sizes=None):
    """The original one-``add_edge``-per-draw loop (the oracle)."""
    if stage_sizes is None:
        stage_sizes = [rng.randint(1, width) for _ in range(n_layers)]
    n_layers = len(stage_sizes)
    stages, next_id = [], 0
    for size in stage_sizes:
        stages.append(list(range(next_id, next_id + size)))
        next_id += size
    graph = Digraph()
    for node in range(next_id):
        graph.add_node(node)
    for depth in range(1, n_layers):
        for node in stages[depth]:
            wired = False
            for prev in stages[depth - 1]:
                if rng.random() < edge_prob:
                    graph.add_edge(prev, node)
                    wired = True
            if not wired:
                graph.add_edge(rng.choice(stages[depth - 1]), node)
            for earlier_depth in range(depth - 1):
                for earlier in stages[earlier_depth]:
                    if rng.random() < skip_prob:
                        graph.add_edge(earlier, node)
    return graph


class TestSeriesParallel:
    def test_acyclic(self):
        rng = random.Random(9)
        for _ in range(10):
            g = series_parallel_dag(rng, rng.randint(1, 30))
            assert is_acyclic(g)

    def test_nontrivial_size(self):
        g = series_parallel_dag(random.Random(5), 20)
        assert len(g) >= 10

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            series_parallel_dag(random.Random(0), 0)


class TestWorkflowMotif:
    def test_acyclic_and_sized(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(2, 40)
            g = workflow_motif_dag(rng, n)
            assert is_acyclic(g)
            assert len(g) >= n  # generator may slightly overshoot a motif

    def test_single_sink_pipeline_reachability(self):
        # the main pipeline keeps the graph weakly connected enough that
        # at least half the nodes lie on paths from sources
        g = workflow_motif_dag(random.Random(8), 25)
        reachable = set()
        for source in g.sources():
            stack = [source]
            while stack:
                node = stack.pop()
                if node in reachable:
                    continue
                reachable.add(node)
                stack.extend(g.successors(node))
        assert len(reachable) == len(g)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            workflow_motif_dag(random.Random(0), 1)


class TestRelabel:
    def test_relabel_produces_topological_ids(self):
        rng = random.Random(2)
        g = workflow_motif_dag(rng, 15)
        relabelled = relabel_topological(g)
        assert topological_sort(relabelled) == sorted(relabelled.nodes())
        for source, target in relabelled.edges():
            assert source < target
