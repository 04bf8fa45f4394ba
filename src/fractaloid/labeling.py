"""Canonical lattice labeling of a graph and the induced letter automaton.

Every vertex's out-edges receive distinct indices 1..out-degree; shadow arcs
carry the negated index. On a fractal graph of degree N the assignment is
strengthened by decomposing the N-regular source-to-target incidence into N
perfect matchings, so the in-edges at every vertex also carry distinct
indices and the shadow out-arcs at each vertex realize the full index set
{+-1, ..., +-N} exactly once. That totality is what makes the automaton step
deterministic on fractal graphs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import FractaloidError, GraphError, ParameterError
from .fractality import max_out_degree
from .graphs import DirectedGraph, EdgeRecord, ShadowedGraph, SignedEdge, shadow
from .lattice import LatticePath


class Labeling(NamedTuple):
    """Index assignment edge-id -> 1..degree_bound; shadows are negated."""

    graph: DirectedGraph
    degree_bound: int
    assignment: dict[str, int]

    def label_of(self, arc: SignedEdge) -> int:
        if not self.graph.contains_edge(arc.edge):
            raise GraphError(
                f"arc {arc.token!r} does not belong to graph {self.graph.name!r}"
            )
        index = self.assignment[arc.edge.id]
        return -index if arc.inverted else index


def _perfect_matching(
    vertices: Sequence[str], edges_by_src: dict[str, list[EdgeRecord]]
) -> dict[str, EdgeRecord] | None:
    """One out-edge per source with pairwise distinct targets (augmenting
    paths, searched depth-first on an explicit stack in declaration order)."""
    matched: dict[str, EdgeRecord] = {}  # target -> its matched edge

    def assign(root: str) -> bool:
        visited: set[str] = set()
        # Frames: (the edge that led here, the untried edges of its source).
        stack = [(None, iter(edges_by_src[root]))]
        while stack:
            for e in stack[-1][1]:
                if e.dst not in visited:
                    break
            else:
                stack.pop()
                continue
            visited.add(e.dst)
            holder = matched.get(e.dst)
            if holder is not None:
                stack.append((e, iter(edges_by_src[holder.src])))
                continue
            while stack:  # flip the path, innermost edge first
                matched[e.dst] = e
                e = stack.pop()[0]
            return True
        return False

    for u in vertices:
        if not assign(u):
            return None
    return {e.src: e for e in matched.values()}


def canonical_labeling(graph: DirectedGraph) -> Labeling:
    """Label out-edges with distinct indices at every vertex.

    On a graph whose vertices all have out-degree = in-degree = N the labels
    are chosen by repeated perfect matchings, which also makes in-labels
    distinct at every vertex. Elsewhere edges are labeled per source vertex
    in declaration order.
    """
    if not graph.vertices:
        return Labeling(graph, 0, {})
    n = max_out_degree(graph)
    regular = n >= 1 and all(out == inc == n for _, out, inc in graph.degree_table())
    assignment: dict[str, int] = {}
    # Out-edges by source in edge order, in one pass; matchings take them out.
    remaining: dict[str, list[EdgeRecord]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        remaining[e.src].append(e)
    if regular:
        for index in range(1, n + 1):
            matching = _perfect_matching(graph.vertices, remaining)
            if matching is None:
                raise FractaloidError(
                    f"matching decomposition failed on regular graph "
                    f"{graph.name!r}; degree invariant violated"
                )
            for v, e in matching.items():
                assignment[e.id] = index
                remaining[v].remove(e)
    else:
        for out in remaining.values():
            for index, e in enumerate(out, start=1):
                assignment[e.id] = index
    return Labeling(graph, n, assignment)


def label_walk(labeling: Labeling, walk: Sequence[SignedEdge]) -> LatticePath:
    """Project an admissible arc walk to its lattice path: forward arcs step
    by +label, shadows by -label."""
    steps: list[int] = []
    prev = None
    for arc in walk:
        steps.append(labeling.label_of(arc))
        if prev is not None and prev.target != arc.source:
            raise GraphError(f"walk is inadmissible at {prev.token!r}.{arc.token!r}")
        prev = arc
    return LatticePath(tuple(steps), labeling.degree_bound)


class GraphAutomaton(NamedTuple):
    """Letter automaton of a labeled graph: states are the shadowed arcs plus
    a sink, inputs are the signed indices plus an empty letter (None)."""

    graph: DirectedGraph
    shadowed: ShadowedGraph
    labeling: Labeling

    @property
    def alphabet(self) -> tuple[int, ...]:
        n = self.labeling.degree_bound
        return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))

    @property
    def states(self) -> tuple[SignedEdge, ...]:
        return self.shadowed.arcs


def build_graph_automaton(graph: DirectedGraph) -> GraphAutomaton:
    return GraphAutomaton(graph, shadow(graph), canonical_labeling(graph))


def automaton_step(
    automaton: GraphAutomaton,
    label: int | None,
    state: SignedEdge | None,
) -> tuple[int | None, SignedEdge | None]:
    """One transition: output the label and move to the unique continuation
    arc carrying it, if there is one.

    The empty letter and the sink state absorb: both map to (None, None).
    A continuation is an arc leaving the range of the current state; on
    fractal graphs exactly one continuation exists for every label, so the
    step is total and deterministic away from the sink.
    """
    if label is None or state is None:
        return (None, None)
    if label not in automaton.alphabet:
        raise ParameterError(
            f"label {label!r} outside the alphabet of degree "
            f"{automaton.labeling.degree_bound}"
        )
    if not automaton.graph.contains_edge(state.edge):
        raise ParameterError(
            f"state {state.token!r} is not an arc of graph "
            f"{automaton.graph.name!r}"
        )
    matches = [
        arc
        for arc in automaton.shadowed.arcs_from(state.target)
        if automaton.labeling.label_of(arc) == label
    ]
    if len(matches) == 1:
        return (label, matches[0])
    return (None, None)


def labeling_dump(labeling: Labeling) -> dict:
    return {
        "N": labeling.degree_bound,
        "labels": {e.id: labeling.assignment[e.id] for e in labeling.graph.edges},
    }
