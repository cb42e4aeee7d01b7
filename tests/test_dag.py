"""Unit tests for repro.graphs.dag."""

import pytest

from repro.errors import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)
from repro.graphs.dag import Digraph


class TestConstruction:
    def test_empty_graph(self):
        g = Digraph()
        assert len(g) == 0
        assert g.nodes() == []
        assert g.edges() == []

    def test_from_edge_list(self):
        g = Digraph([(1, 2), (2, 3)])
        assert set(g.nodes()) == {1, 2, 3}
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_add_node_idempotent(self):
        g = Digraph()
        g.add_node("a")
        g.add_node("a")
        assert g.nodes() == ["a"]

    def test_add_node_strict_rejects_duplicate(self):
        g = Digraph()
        g.add_node_strict("a")
        with pytest.raises(DuplicateNodeError):
            g.add_node_strict("a")

    def test_add_edge_creates_endpoints(self):
        g = Digraph()
        g.add_edge("x", "y")
        assert "x" in g and "y" in g

    def test_parallel_edges_collapse(self):
        g = Digraph()
        g.add_edge(1, 2)
        g.add_edge(1, 2)
        assert g.edge_count() == 1

    def test_insertion_order_preserved(self):
        g = Digraph()
        for node in ["c", "a", "b"]:
            g.add_node(node)
        assert g.nodes() == ["c", "a", "b"]


class TestRemoval:
    def test_remove_edge(self):
        g = Digraph([(1, 2)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert 1 in g and 2 in g

    def test_remove_missing_edge_raises(self):
        g = Digraph([(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(2, 1)

    def test_remove_node_cleans_edges(self):
        g = Digraph([(1, 2), (2, 3), (1, 3)])
        g.remove_node(2)
        assert 2 not in g
        assert g.edges() == [(1, 3)]
        assert g.predecessors(3) == [1]

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Digraph().remove_node("ghost")


class TestQueries:
    def test_degrees(self):
        g = Digraph([(1, 3), (2, 3), (3, 4)])
        assert g.in_degree(3) == 2
        assert g.out_degree(3) == 1
        assert g.in_degree(1) == 0

    def test_successors_predecessors(self):
        g = Digraph([(1, 2), (1, 3)])
        assert g.successors(1) == [2, 3]
        assert g.predecessors(3) == [1]

    def test_unknown_node_raises(self):
        g = Digraph([(1, 2)])
        with pytest.raises(NodeNotFoundError):
            g.successors(99)

    def test_sources_and_sinks(self):
        g = Digraph([(1, 2), (2, 3), (4, 3)])
        assert set(g.sources()) == {1, 4}
        assert g.sinks() == [3]

    def test_iteration(self):
        g = Digraph([(1, 2)])
        assert sorted(g) == [1, 2]


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Digraph([(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert 3 not in g
        assert g == Digraph([(1, 2)])

    def test_subgraph_induced(self):
        g = Digraph([(1, 2), (2, 3), (1, 3)])
        sub = g.subgraph([1, 3])
        assert sub.nodes() == [1, 3]
        assert sub.edges() == [(1, 3)]

    def test_subgraph_unknown_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Digraph([(1, 2)]).subgraph([1, 5])

    def test_reversed(self):
        g = Digraph([(1, 2), (2, 3)])
        rev = g.reversed()
        assert rev.has_edge(2, 1)
        assert rev.has_edge(3, 2)
        assert rev.edge_count() == 2

    def test_quotient_basic(self):
        g = Digraph([(1, 2), (2, 3), (3, 4)])
        q = g.quotient([[1, 2], [3, 4]], labels=["A", "B"])
        assert q.nodes() == ["A", "B"]
        assert q.edges() == [("A", "B")]

    def test_quotient_drops_internal_edges(self):
        g = Digraph([(1, 2)])
        q = g.quotient([[1, 2]], labels=["A"])
        assert q.edges() == []

    def test_quotient_can_be_cyclic(self):
        # a -> x -> b with {a, b} grouped: quotient has a 2-cycle
        g = Digraph([("a", "x"), ("x", "b")])
        q = g.quotient([["a", "b"], ["x"]], labels=["AB", "X"])
        assert q.has_edge("AB", "X")
        assert q.has_edge("X", "AB")

    def test_quotient_label_mismatch(self):
        g = Digraph([(1, 2)])
        with pytest.raises(ValueError):
            g.quotient([[1], [2]], labels=["only-one"])

    def test_quotient_counts_follow_label_order(self):
        g = Digraph([(1, 3), (2, 3), (3, 4), (1, 4)])
        q = g.quotient([[4], [1, 2], [3]], labels=["C", "A", "B"])
        assert q.nodes() == ["C", "A", "B"]
        assert q.edges() == [("A", "C"), ("A", "B"), ("B", "C")]
        assert q._succ["A"] == {"C": 1, "B": 2}
        assert list(q._pred["C"].items()) == [("A", 1), ("B", 1)]

    def test_quotient_derived_from_a_base(self):
        g = Digraph([(1, 3), (2, 3), (3, 4), (1, 4), (2, 4)])
        names = ["A", "B", "C"]
        before = {1: "A", 2: "A", 3: "B", 4: "C"}
        after = {1: "A", 2: "C", 3: "B", 4: "C"}
        base = g.quotient(before, labels=names)
        derived = g.quotient(after, labels=names, base=(base, before, {2}))
        scratch = g.quotient(after, labels=names)
        assert derived.edges() == scratch.edges() \
            == [("A", "B"), ("A", "C"), ("B", "C"), ("C", "B")]
        assert derived._succ["A"] == {"B": 1, "C": 1}
        for name in names:
            assert list(derived._succ[name].items()) \
                == list(scratch._succ[name].items())
            assert list(derived._pred[name].items()) \
                == list(scratch._pred[name].items())


class TestEquality:
    def test_equal_graphs(self):
        assert Digraph([(1, 2)]) == Digraph([(1, 2)])

    def test_order_irrelevant_for_equality(self):
        a = Digraph([(1, 2), (3, 4)])
        b = Digraph([(3, 4), (1, 2)])
        assert a == b

    def test_not_equal_to_other_types(self):
        assert Digraph() != "graph"

    def test_repr_mentions_sizes(self):
        assert "nodes=2" in repr(Digraph([(1, 2)]))
