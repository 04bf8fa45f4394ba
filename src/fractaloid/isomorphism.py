"""Exact isomorphism testing for small directed multigraphs.

Backtracking over degree-compatible vertex assignments with parallel-edge
multiplicity matching. Intended for desk-scale graphs; the vertex bound and
the search-node budget make failure explicit instead of silently degrading.
"""

from __future__ import annotations

from collections import Counter

from .errors import Frozen, LimitError
from .graphs import DirectedGraph

DEFAULT_MAX_VERTICES = 12
DEFAULT_MAX_SEARCH_NODES = 500_000


class GraphMatch(Frozen):
    """A witness isomorphism: vertex and edge bijections preserving sources
    and targets."""

    __slots__ = _fields = ("vertex_map", "edge_map")

    def __init__(self, vertex_map: dict[str, str], edge_map: dict[str, str]) -> None:
        self._set(vertex_map=vertex_map, edge_map=edge_map)


def graph_isomorphic(
    g1: DirectedGraph,
    g2: DirectedGraph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES,
) -> GraphMatch | None:
    """Return a witness bijection between `g1` and `g2`, or None.

    Raises LimitError when either graph exceeds `max_vertices` or the
    backtracking search visits more than `max_search_nodes` nodes.
    """
    if len(g1.vertices) > max_vertices or len(g2.vertices) > max_vertices:
        raise LimitError(
            f"isomorphism search limited to {max_vertices} vertices; "
            f"got {len(g1.vertices)} and {len(g2.vertices)}"
        )
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    mult1 = g1.edge_multiplicities()
    mult2 = g2.edge_multiplicities()
    # A vertex's profile: out-degree, in-degree and loop count.
    profiles1 = {v: (*g1.degrees(v)[:2], mult1[v, v]) for v in g1.vertices}
    profiles2 = {v: (*g2.degrees(v)[:2], mult2[v, v]) for v in g2.vertices}
    if Counter(profiles1.values()) != Counter(profiles2.values()):
        return None
    if Counter(mult1.values()) != Counter(mult2.values()):
        return None

    candidates = {
        u: [v for v in g2.vertices if profiles2[v] == profiles1[u]]
        for u in g1.vertices
    }
    order = sorted(g1.vertices, key=lambda u: len(candidates[u]))
    mapping: dict[str, str] = {}
    used: set[str] = set()
    nodes_visited = 0

    def backtrack(idx: int) -> bool:
        nonlocal nodes_visited
        nodes_visited += 1
        if nodes_visited > max_search_nodes:
            raise LimitError(
                f"isomorphism search exceeded {max_search_nodes} nodes"
            )
        if idx == len(order):
            return True
        u = order[idx]
        for v in candidates[u]:
            if v in used:
                continue
            for w, mw in mapping.items():
                if mult1[(u, w)] != mult2[(v, mw)] or mult1[(w, u)] != mult2[(mw, v)]:
                    break
            else:
                mapping[u] = v
                used.add(v)
                if backtrack(idx + 1):
                    return True
                del mapping[u]
                used.remove(v)
        return False

    if not backtrack(0):
        return None

    # Parallel edges between a mapped pair are interchangeable; one iterator
    # per pair hands them out in declaration order.
    groups2: dict[tuple[str, str], list[str]] = {}
    for e in g2.edges:
        groups2.setdefault((e.src, e.dst), []).append(e.id)
    images = {key: iter(ids) for key, ids in groups2.items()}
    edge_map = {e.id: next(images[mapping[e.src], mapping[e.dst]]) for e in g1.edges}
    return GraphMatch(vertex_map=dict(mapping), edge_map=edge_map)
