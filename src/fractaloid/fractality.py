"""Fractality of finite directed graphs: the degree characterization, vertex
trees (shadow unfoldings), rooted-tree comparison, fractal pairs, and the
partition of a graph corpus into spectral classes.

A connected graph is fractal when every vertex has out-degree and in-degree
equal to the maximal out-degree N; equivalently every vertex of the shadowed
graph has exactly 2N out-arcs, so every vertex tree unfolds into the
2N-regular tree. Pointwise out = in alone is weaker (a triangle with one
extra loop at a single vertex balances each vertex but has irregular vertex
trees) and does not qualify.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DisconnectedGraphError,
    Frozen,
    LimitError,
    NotFractalError,
    ParameterError,
)
from .graphs import DirectedGraph, SignedEdge, is_connected, shadow

DEFAULT_MAX_TREE_NODES = 500_000


class FractalPair(NamedTuple):
    """Classification key of a fractal graph: (common degree, vertex count)."""

    n_zero: int
    n_sup: int


def max_out_degree(graph: DirectedGraph) -> int:
    if not graph.vertices:
        raise ParameterError("max_out_degree of an empty graph is undefined")
    return max(map(itemgetter(1), graph.degree_table()))


def is_fractal(graph: DirectedGraph) -> bool:
    """Degree characterization: out = in = N at every vertex.

    Requires a connected graph; an edgeless single vertex is connected but
    not fractal (there is no degree N >= 1 to realize).
    """
    try:
        fractal_pair(graph)
    except NotFractalError:
        return False
    return True


def fractal_pair(graph: DirectedGraph) -> FractalPair:
    """The pair (N, |V|) of a fractal graph."""
    if not is_connected(graph):
        raise DisconnectedGraphError(
            f"graph {graph.name!r} is empty or disconnected"
        )
    n = max_out_degree(graph)
    if n == 0:
        raise NotFractalError(f"graph {graph.name!r} has no edges")
    for v, out, inc in graph.degree_table():
        if out != n or inc != n:
            raise NotFractalError(
                f"graph {graph.name!r} is not fractal: vertex {v!r} has "
                f"out-degree {out} and in-degree {inc}, expected {n} and {n}"
            )
    return FractalPair(n, len(graph.vertices))


class TreeNode(NamedTuple):
    vertex: str
    arc: SignedEdge | None
    children: tuple[TreeNode, ...]


class VertexTree(NamedTuple):
    """Depth-bounded unfolding of the shadowed graph from a root vertex.

    Each node labeled u has one child per shadowed out-arc of u; the same
    graph vertex may label many nodes. The subtree below a node depends only
    on the arc that reached it and its remaining depth, so equal subtrees are
    one shared `TreeNode`: `root` is a DAG of at most |arcs| * depth + 1
    distinct nodes, and entries of `children` may be the same object.
    """

    graph_name: str
    root: TreeNode
    depth: int


def vertex_tree(
    graph: DirectedGraph,
    v: str,
    depth: int,
    *,
    max_nodes: int = DEFAULT_MAX_TREE_NODES,
) -> VertexTree:
    """The vertex tree of `v` to `depth`, built bottom-up with one node per
    (arc, remaining depth). `max_nodes` bounds the unfolded node count,
    which is counted before any node is built."""
    if depth < 0:
        raise ParameterError(f"tree depth must be >= 0, got {depth}")
    graph.require_vertex(v)
    arcs_from = shadow(graph).arcs_from
    # levels[k] holds the vertices that label nodes k arcs below the root;
    # `level` maps those of the deepest level to their number of nodes.
    # Counting stops once the budget is exceeded or a level is empty, so no
    # more levels are kept than the budget has nodes.
    level = {v: 1}
    levels, count = [(v,)], 1
    for _ in range(depth):
        below: dict[str, int] = {}
        for u, nodes in level.items():
            for a in arcs_from(u):
                below[a.target] = below.get(a.target, 0) + nodes
        count += sum(below.values())
        if not below or count > max_nodes:
            break
        level = below
        levels.append(tuple(below))
    if count > max_nodes:
        raise LimitError(
            f"vertex tree from {v!r} exceeded {max_nodes} nodes at depth {depth}"
        )
    # The deepest level holds leaves, or vertices without arcs.
    children: dict[str, tuple[TreeNode, ...]] = dict.fromkeys(levels[-1], ())
    for vertices in reversed(levels[:-1]):
        children = {
            u: tuple(TreeNode(a.target, a, children[a.target]) for a in arcs_from(u))
            for u in vertices
        }
    return VertexTree(graph.name, TreeNode(v, None, children[v]), depth)


def _levels(root: TreeNode) -> Iterator[list[TreeNode]]:
    """The distinct nodes of the tree at `root`, level by level from the root."""
    level = [root]
    while level:
        yield level
        level = list({id(c): c for node in level for c in node.children}.values())


def tree_regular_to_depth(tree: VertexTree, k: int) -> bool:
    """True iff every node strictly above the truncation depth has exactly
    k children, i.e. the tree agrees with the k-regular tree to its depth."""
    return all(
        len(node.children) == k
        for _, level in zip(range(tree.depth), _levels(tree.root))
        for node in level
    )


def _canonical_shape(root: TreeNode, shapes: dict[tuple, int]) -> int:
    """AHU signature of the subtree at `root`, as its index in `shapes`: the
    sorted tuple of the children's indices, interned. Vertex and arc labels
    are deliberately ignored. Levels are indexed from the deepest up, so each
    node's children are indexed before it."""
    index: dict[int, int] = {}
    for level in reversed(list(_levels(root))):
        for node in level:
            key = tuple(sorted(index[id(c)] for c in node.children))
            index[id(node)] = shapes.setdefault(key, len(shapes))
    return index[id(root)]


def tree_isomorphic(t1: VertexTree, t2: VertexTree) -> bool:
    """Unlabeled rooted-tree isomorphism to the common truncation depth."""
    if t1.depth != t2.depth:
        raise ParameterError(
            f"tree depths differ: {t1.depth} vs {t2.depth}"
        )
    shapes: dict[tuple, int] = {}
    return _canonical_shape(t1.root, shapes) == _canonical_shape(t2.root, shapes)


class ClassificationResult(Frozen):
    """Spectral-class partition of a graph corpus.

    `classes` maps each fractal pair to the accepted graph names in input
    order; `rejected` lists (name, reason) for graphs that are disconnected
    or fail the degree characterization. Both default to new empty ones.
    """

    __slots__ = _fields = ("classes", "rejected")

    def __init__(
        self,
        classes: dict[FractalPair, list[str]] | None = None,
        rejected: list[tuple[str, str]] | None = None,
    ) -> None:
        self._set(classes={} if classes is None else classes,
                  rejected=[] if rejected is None else rejected)


def classify(graphs: Iterable[DirectedGraph]) -> ClassificationResult:
    """Bucket graphs by fractal pair; per-graph failures become rejects."""
    classes: dict[FractalPair, list[str]] = {}
    rejected: list[tuple[str, str]] = []
    for graph in graphs:
        try:
            pair = fractal_pair(graph)
        except (DisconnectedGraphError, NotFractalError) as exc:
            rejected.append((graph.name, str(exc)))
        else:
            classes.setdefault(pair, []).append(graph.name)
        # Dropped before `graphs` yields the next one, which may be loading.
        del graph
    return ClassificationResult(dict(sorted(classes.items())), rejected)


def classification_report(result: ClassificationResult) -> dict:
    return {
        "classes": [
            {"pair": [pair.n_zero, pair.n_sup], "graphs": list(names)}
            for pair, names in result.classes.items()
        ],
        "rejected": [
            {"graph": name, "reason": reason} for name, reason in result.rejected
        ],
    }
