"""A small, explicit directed graph.

The class is intentionally minimal: nodes are arbitrary hashable values,
edges are unlabelled, and insertion order is preserved everywhere so that
every algorithm in the library is deterministic.  It is *not* required to be
acyclic — acyclicity is a property checked by :mod:`repro.graphs.topo` —
because the view quotient of a bad partition can be cyclic and we need to
represent it in order to reject it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

from repro.errors import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)

Node = Hashable


class Digraph:
    """A directed graph with ordered adjacency.

    >>> g = Digraph()
    >>> g.add_edge("a", "b")
    >>> sorted(g.nodes())
    ['a', 'b']
    >>> list(g.successors("a"))
    ['b']
    """

    __slots__ = ("_succ", "_pred")

    def __init__(self, edges: Iterable[Tuple[Node, Node]] = ()) -> None:
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}
        self.add_edges(edges)

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add ``node``; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_node_strict(self, node: Node) -> None:
        """Add ``node``; raise :class:`DuplicateNodeError` if present."""
        if node in self._succ:
            raise DuplicateNodeError(node)
        self.add_node(node)

    def add_edge(self, source: Node, target: Node) -> None:
        """Add the edge ``source -> target``, creating missing endpoints.

        Parallel edges collapse into one; self-loops are allowed at this
        level (and rejected later by workflow validation).
        """
        self.add_node(source)
        self.add_node(target)
        self._succ[source][target] = None
        self._pred[target][source] = None

    def add_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """:meth:`add_edge` for each pair, in one call (bulk loads)."""
        succ, pred = self._succ, self._pred
        for source, target in edges:
            if source not in succ:
                self.add_node(source)
            if target not in succ:
                self.add_node(target)
            succ[source][target] = None
            pred[target][source] = None

    def remove_edge(self, source: Node, target: Node) -> None:
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        del self._succ[source][target]
        del self._pred[target][source]

    def remove_node(self, node: Node) -> None:
        self._require(node)
        for target in list(self._succ[node]):
            del self._pred[target][node]
        for source in list(self._pred[node]):
            del self._succ[source][node]
        del self._succ[node]
        del self._pred[node]

    # -- queries -----------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def nodes(self) -> List[Node]:
        """All nodes in insertion order."""
        return list(self._succ)

    def edges(self) -> List[Tuple[Node, Node]]:
        """All edges in insertion order of their source node."""
        return [(u, v) for u in self._succ for v in self._succ[u]]

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._succ.values())

    def has_edge(self, source: Node, target: Node) -> bool:
        return source in self._succ and target in self._succ[source]

    def successors(self, node: Node) -> List[Node]:
        self._require(node)
        return list(self._succ[node])

    def predecessors(self, node: Node) -> List[Node]:
        self._require(node)
        return list(self._pred[node])

    def out_degree(self, node: Node) -> int:
        self._require(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        self._require(node)
        return len(self._pred[node])

    def sources(self) -> List[Node]:
        """Nodes with no incoming edges."""
        return [n for n in self._succ if not self._pred[n]]

    def sinks(self) -> List[Node]:
        """Nodes with no outgoing edges."""
        return [n for n in self._succ if not self._succ[n]]

    # -- derived graphs ----------------------------------------------------

    def copy(self) -> "Digraph":
        clone = Digraph()
        for node in self._succ:
            clone.add_node(node)
        clone.add_edges(self.edges())
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Digraph":
        """The subgraph induced by ``nodes`` (order follows the argument)."""
        keep = list(nodes)
        keep_set = set(keep)
        for node in keep:
            self._require(node)
        sub = Digraph()
        for node in keep:
            sub.add_node(node)
        for node in keep:
            for target in self._succ[node]:
                if target in keep_set:
                    sub.add_edge(node, target)
        return sub

    def reversed(self) -> "Digraph":
        rev = Digraph()
        for node in self._succ:
            rev.add_node(node)
        rev.add_edges((target, source) for source, target in self.edges())
        return rev

    def quotient(self, partition: Iterable[Iterable[Node]],
                 labels: Iterable[Node] = None) -> "Digraph":
        """Collapse each block of ``partition`` into a single node.

        ``labels`` names the quotient nodes (defaults to block indices).
        Every inter-block edge of this graph induces a quotient edge; edges
        inside a block are dropped.  The blocks must cover every node exactly
        once — that invariant is the caller's (the view layer validates it).
        """
        blocks = [list(block) for block in partition]
        if labels is None:
            names: List[Node] = list(range(len(blocks)))
        else:
            names = list(labels)
            if len(names) != len(blocks):
                raise ValueError("labels and partition differ in length")
        owner: Dict[Node, Node] = {}
        for name, block in zip(names, blocks):
            for node in block:
                owner[node] = name
        q = Digraph()
        for name in names:
            q.add_node(name)
        for source, target in self.edges():
            a, b = owner[source], owner[target]
            if a != b:
                q.add_edge(a, b)
        return q

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (set(self._succ) == set(other._succ)
                and set(self.edges()) == set(other.edges()))

    def __repr__(self) -> str:
        return (f"Digraph(nodes={len(self)}, "
                f"edges={self.edge_count()})")

    def _require(self, node: Node) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)
