"""Unit tests for repro.graphs.topo."""

import pytest

from repro.errors import CycleError, NodeNotFoundError
from repro.graphs.dag import Digraph
from repro.graphs.topo import (
    ancestors_of,
    descendants_of,
    find_cycle,
    find_path,
    is_acyclic,
    layers,
    longest_path_length,
    topological_sort,
)


class TestTopologicalSort:
    def test_chain(self):
        g = Digraph([(1, 2), (2, 3)])
        assert topological_sort(g) == [1, 2, 3]

    def test_respects_edges(self):
        g = Digraph([("b", "a"), ("c", "a"), ("c", "b")])
        order = topological_sort(g)
        assert order.index("c") < order.index("b") < order.index("a")

    def test_empty(self):
        assert topological_sort(Digraph()) == []

    def test_cycle_raises_with_witness(self):
        g = Digraph([(1, 2), (2, 3), (3, 1)])
        with pytest.raises(CycleError) as excinfo:
            topological_sort(g)
        assert excinfo.value.cycle is not None
        cycle = excinfo.value.cycle
        assert cycle[0] == cycle[-1]

    def test_self_loop_is_a_cycle(self):
        g = Digraph([(1, 1)])
        assert not is_acyclic(g)


class TestIsAcyclic:
    def test_dag(self):
        assert is_acyclic(Digraph([(1, 2), (1, 3), (2, 3)]))

    def test_cycle(self):
        assert not is_acyclic(Digraph([(1, 2), (2, 1)]))

    def test_disconnected(self):
        g = Digraph([(1, 2)])
        g.add_node(99)
        assert is_acyclic(g)


class TestFindCycle:
    def test_no_cycle(self):
        assert find_cycle(Digraph([(1, 2)])) is None

    def test_two_cycle(self):
        cycle = find_cycle(Digraph([(1, 2), (2, 1)]))
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2}

    def test_cycle_edges_exist(self):
        g = Digraph([(1, 2), (2, 3), (3, 4), (4, 2)])
        cycle = find_cycle(g)
        for source, target in zip(cycle, cycle[1:]):
            assert g.has_edge(source, target)

    def test_cycle_in_second_component(self):
        g = Digraph([(1, 2), (10, 11), (11, 10)])
        cycle = find_cycle(g)
        assert set(cycle) == {10, 11}


class TestFindPath:
    def test_path_follows_edges(self):
        g = Digraph([(1, 2), (2, 3), (1, 4), (4, 3), (3, 5)])
        path = find_path(g, 1, 5)
        assert path[0] == 1 and path[-1] == 5
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_no_path(self):
        g = Digraph([(1, 2), (3, 2)])
        assert find_path(g, 2, 1) is None
        assert find_path(g, 1, 3) is None

    def test_trivial_path(self):
        assert find_path(Digraph([(1, 2)]), 1, 1) == [1]

    def test_unknown_source(self):
        with pytest.raises(NodeNotFoundError):
            find_path(Digraph([(1, 2)]), 9, 1)


class TestLayers:
    def test_chain_layers(self):
        g = Digraph([(1, 2), (2, 3)])
        assert layers(g) == [[1], [2], [3]]

    def test_diamond_layers(self):
        g = Digraph([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert layers(g) == [[1], [2, 3], [4]]

    def test_layer_is_longest_path_depth(self):
        # 1 -> 4 directly, but 4 sits at depth 2 because of 1 -> 2 -> 4
        g = Digraph([(1, 2), (2, 4), (1, 4)])
        assert layers(g) == [[1], [2], [4]]

    def test_longest_path_length(self):
        g = Digraph([(1, 2), (2, 3), (1, 3)])
        assert longest_path_length(g) == 2

    def test_longest_path_empty(self):
        assert longest_path_length(Digraph()) == 0

    def test_cyclic_raises(self):
        with pytest.raises(CycleError):
            layers(Digraph([(1, 2), (2, 1)]))


class TestAncestorsDescendants:
    def test_descendants(self):
        g = Digraph([(1, 2), (2, 3), (1, 4)])
        assert set(descendants_of(g, 1)) == {2, 3, 4}
        assert descendants_of(g, 3) == []

    def test_ancestors(self):
        g = Digraph([(1, 2), (2, 3), (4, 3)])
        assert set(ancestors_of(g, 3)) == {1, 2, 4}
        assert ancestors_of(g, 1) == []

    def test_unknown_node(self):
        with pytest.raises(NodeNotFoundError):
            descendants_of(Digraph(), "nope")
        with pytest.raises(NodeNotFoundError):
            ancestors_of(Digraph(), "nope")
