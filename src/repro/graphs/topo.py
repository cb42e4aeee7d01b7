"""Topological utilities: sorting, cycle detection, layering.

All functions are deterministic: ties are broken by node insertion order,
so the same graph always yields the same sort, the same layers and the same
witness cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CycleError, NodeNotFoundError
from repro.graphs.dag import Digraph, Node


def topological_sort(graph: Digraph) -> List[Node]:
    """Kahn's algorithm; raises :class:`CycleError` on cyclic input."""
    indegree: Dict[Node, int] = {n: graph.in_degree(n) for n in graph}
    queue: List[Node] = [n for n in graph if indegree[n] == 0]
    order: List[Node] = []
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        order.append(node)
        for succ in graph.successors(node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    if len(order) != len(graph):
        raise CycleError(cycle=find_cycle(graph))
    return order


def is_acyclic(graph: Digraph) -> bool:
    """True when the graph has no directed cycle (self-loops count)."""
    try:
        topological_sort(graph)
    except CycleError:
        return False
    return True


def find_cycle(graph: Digraph) -> Optional[List[Node]]:
    """Return one directed cycle as ``[n0, n1, ..., n0]``, or ``None``.

    Iterative DFS with colouring; the witness includes the repeated node at
    both ends so that ``zip(cycle, cycle[1:])`` yields its edges.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Node, int] = {n: WHITE for n in graph}
    parent: Dict[Node, Node] = {}
    for root in graph:
        if colour[root] != WHITE:
            continue
        stack: List[tuple] = [(root, iter(graph.successors(root)))]
        colour[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if colour[succ] == WHITE:
                    colour[succ] = GREY
                    parent[succ] = node
                    stack.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
                if colour[succ] == GREY:
                    # Found a back edge node -> succ; unwind the parents.
                    cycle = [node]
                    cursor = node
                    while cursor != succ:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def layers(graph: Digraph) -> List[List[Node]]:
    """Partition an acyclic graph into longest-path layers.

    Layer 0 holds the sources; a node's layer is one more than the maximum
    layer of its predecessors.  Raises :class:`CycleError` on cyclic input.
    """
    order = topological_sort(graph)
    depth: Dict[Node, int] = {}
    for node in order:
        preds = graph.predecessors(node)
        depth[node] = 1 + max((depth[p] for p in preds), default=-1)
    result: List[List[Node]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for node in order:
        result[depth[node]].append(node)
    return result


def longest_path_length(graph: Digraph) -> int:
    """Number of edges on the longest path of an acyclic graph (0 if empty)."""
    if len(graph) == 0:
        return 0
    return len(layers(graph)) - 1


def descendants_of(graph: Digraph, node: Node) -> List[Node]:
    """All nodes reachable from ``node`` (excluding ``node`` itself)."""
    if node not in graph:
        raise NodeNotFoundError(node)
    seen = {node}
    stack = [node]
    found: List[Node] = []
    while stack:
        current = stack.pop()
        for succ in graph.successors(current):
            if succ not in seen:
                seen.add(succ)
                found.append(succ)
                stack.append(succ)
    return found


def find_path(graph: Digraph, source: Node, target: Node
              ) -> Optional[List[Node]]:
    """One path ``[source, ..., target]``, or ``None`` if there is none.

    Early-exit DFS: it stops as soon as ``target`` is discovered, so
    asking whether a new edge would close a cycle costs only the part of
    the graph searched before the answer is known.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    parent: Dict[Node, Node] = {source: source}
    stack = [source]
    while stack and target not in parent:
        current = stack.pop()
        for succ in graph.successors(current):
            if succ not in parent:
                parent[succ] = current
                stack.append(succ)
    if target not in parent:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def ancestors_of(graph: Digraph, node: Node) -> List[Node]:
    """All nodes that reach ``node`` (excluding ``node`` itself)."""
    if node not in graph:
        raise NodeNotFoundError(node)
    seen = {node}
    stack = [node]
    found: List[Node] = []
    while stack:
        current = stack.pop()
        for pred in graph.predecessors(current):
            if pred not in seen:
                seen.add(pred)
                found.append(pred)
                stack.append(pred)
    return found
