"""A small, explicit directed graph.

The class is intentionally minimal: nodes are arbitrary hashable values,
edges are unlabelled (a quotient stores each edge's multiplicity as its
adjacency value), and insertion order is preserved everywhere so that
every algorithm in the library is deterministic.  It is *not* required to be
acyclic — acyclicity is a property checked by :mod:`repro.graphs.topo` —
because the view quotient of a bad partition can be cyclic and we need to
represent it in order to reject it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, filterfalse
from typing import (
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)

Node = Hashable
#: blocks of nodes, or a mapping from each node to its block's name
QuotientPartition = Union[Iterable[Iterable[Node]], Mapping[Node, Node]]


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
        # adjacency values are None, or edge multiplicities in a quotient
        self._succ: Dict[Node, Dict[Node, Optional[int]]] = {}
        self._pred: Dict[Node, Dict[Node, Optional[int]]] = {}
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

    def quotient(self, partition: QuotientPartition,
                 labels: Iterable[Node] = None,
                 base: Optional[Tuple["Digraph", Mapping[Node, Node],
                                      Collection[Node]]] = None
                 ) -> "Digraph":
        """Collapse each block of ``partition`` into a single node.

        ``partition`` is a list of blocks, or a mapping from each node to
        its block's name (``labels`` then lists the names, and is
        required).  ``labels`` names the quotient nodes (defaults to block
        indices).  Every inter-block edge of this graph induces a quotient
        edge; edges inside a block are dropped.  The blocks must cover every
        node exactly once — that invariant is the caller's (the view layer
        validates it).

        Each quotient edge's value is its multiplicity, the number of edges
        of this graph it stands for.  Nodes, successors and predecessors
        all follow the order of the block names.

        ``base`` derives the quotient from an earlier one in O(degree of
        the changed nodes): it is ``(quotient, owner, changed)``, the
        quotient of this graph under the node-to-block mapping ``owner``
        plus every node whose block differs from ``partition``'s.  Only
        edges with a changed endpoint are visited, each moving one unit of
        multiplicity from its old block pair to its new one; the result
        equals a from-scratch quotient edge for edge, in order.  Without
        ``base`` every node counts as changed.
        """
        if isinstance(partition, Mapping):
            if labels is None:
                raise ValueError("a node-to-block mapping needs labels")
            owner, names = partition, list(labels)
        else:
            blocks = [list(block) for block in partition]
            if labels is None:
                names = list(range(len(blocks)))
            else:
                names = list(labels)
                if len(names) != len(blocks):
                    raise ValueError("labels and partition differ in length")
            owner = {}
            for name, block in zip(names, blocks):
                for node in block:
                    owner[node] = name
        pairs: Dict[Tuple[Node, Node], int] = {}
        position = {name: i for i, name in enumerate(names)}
        if base is None:
            self._count_block_pairs(pairs, owner,
                                    owner.keys() & self._succ.keys(), 1)
            succ: Dict[Node, Dict[Node, int]] = {name: {} for name in names}
            pred: Dict[Node, Dict[Node, int]] = {name: {} for name in names}
            reordered = False
        else:
            old, old_owner, changed = base
            self._count_block_pairs(pairs, owner, changed, 1)
            self._count_block_pairs(pairs, old_owner, changed, -1)
            succ = {name: dict(old._succ[name]) if name in old._succ else {}
                    for name in names}
            pred = {name: dict(old._pred[name]) if name in old._pred else {}
                    for name in names}
            # kept nodes must keep their relative order for the copied
            # rows to stay sorted; otherwise every row is re-sorted
            reordered = ([name for name in old._succ if name in position]
                         != [name for name in names if name in old._succ])
        fresh_succ, fresh_pred = set(), set()
        for (a, b), delta in pairs.items():
            if not delta:
                continue
            out, into = succ.get(a), pred.get(b)
            if out is None or into is None:
                # a vanished block's pairs net to zero: drop the other end
                if out is not None:
                    del out[b]
                if into is not None:
                    del into[a]
                continue
            count = out.get(b, 0) + delta
            if count:
                if b not in out:
                    fresh_succ.add(a)
                    fresh_pred.add(b)
                out[b] = into[a] = count
            else:
                del out[b]
                del into[a]
        rank = position.__getitem__
        for rows, fresh in ((succ, fresh_succ), (pred, fresh_pred)):
            for name in (rows if reordered else fresh):
                row = rows[name]
                rows[name] = {key: row[key] for key in sorted(row, key=rank)}
        q = Digraph()
        q._succ, q._pred = succ, pred
        return q

    def _count_block_pairs(self, pairs: Dict[Tuple[Node, Node], int],
                           owner: Mapping[Node, Node],
                           changed: Collection[Node], sign: int) -> None:
        """Add ``sign`` x the block pairs, under ``owner``, of every edge
        with an endpoint in ``changed`` (a set; edges inside a block are
        skipped)."""
        groups: Dict[Node, List[Node]] = {}
        for node in changed:
            groups.setdefault(owner[node], []).append(node)
        block_of = owner.__getitem__
        succ_of, pred_of = self._succ.__getitem__, self._pred.__getitem__
        # an edge between two changed nodes is counted once, as an out-edge
        outside = len(changed) < len(self._succ)
        is_changed = changed.__contains__
        for block, members in groups.items():
            targets = Counter(map(block_of, chain.from_iterable(
                map(succ_of, members))))
            targets.pop(block, None)
            for other, count in targets.items():
                key = (block, other)
                pairs[key] = pairs.get(key, 0) + sign * count
            if not outside:
                continue
            sources = Counter(map(block_of, filterfalse(
                is_changed, chain.from_iterable(map(pred_of, members)))))
            sources.pop(block, None)
            for other, count in sources.items():
                key = (other, block)
                pairs[key] = pairs.get(key, 0) + sign * count

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
