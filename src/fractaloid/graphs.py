"""Finite directed multigraphs: model, shadowed graphs, named families, and
the surgeries (regularize, glue, loop attachment) used to build fractal graphs.

Graphs are immutable value objects. Parallel edges and loops are first-class:
every edge carries its own id, so k parallel copies of an edge are k distinct
edges. All operations are pure functions returning new graphs.
"""

from __future__ import annotations

import json
from collections import Counter
from json.decoder import JSONObject
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import Frozen, GraphError, ParameterError, UnknownVertexError


class EdgeRecord(NamedTuple):
    """A directed edge `src -> dst` with a graph-unique id."""

    id: str
    src: str
    dst: str

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst


class VertexDegrees(NamedTuple):
    out_degree: int
    in_degree: int
    total: int


def _check_token(token: str, role: str) -> None:
    if not isinstance(token, str) or not token:
        raise GraphError(f"{role} must be a nonempty string, got {token!r}")


class DirectedGraph(Frozen):
    """A finite directed multigraph.

    Invariants enforced at construction: vertex ids are unique, edge ids are
    unique, edge endpoints are declared vertices, the vertex and edge id
    sets are disjoint, and no edge id is another edge id plus `~` (the
    token of that edge's shadow). Declaration order of vertices and edges
    is preserved and significant for serialization and derived labelings.
    `_out`, `_in` and `_edge_by_id` are derived, and left out of equality
    and repr; `_out` and `_in` hold each vertex's out- and in-degree (counts,
    not edges), and other modules read them through `degree_table`.
    """

    __slots__ = ("name", "vertices", "edges", "_out", "_in", "_edge_by_id")
    _fields = ("name", "vertices", "edges")

    def __init__(
        self, name: str, vertices: tuple[str, ...], edges: tuple[EdgeRecord, ...]
    ) -> None:
        outgoing: dict[str, int] = {}
        for v in vertices:
            # The token is tested inline; `_check_token` runs only to raise.
            if not (isinstance(v, str) and v) or v in outgoing:
                _check_token(v, "vertex id")
                raise GraphError(f"duplicate vertex id {v!r} in graph {name!r}")
            outgoing[v] = 0
        incoming = dict(outgoing)
        edge_by_id: dict[str, EdgeRecord] = {}
        for e in edges:
            edge_id = e.id
            if not (isinstance(edge_id, str) and edge_id) or edge_id in edge_by_id:
                _check_token(edge_id, "edge id")
                raise GraphError(f"duplicate edge id {edge_id!r} in graph {name!r}")
            if edge_id in outgoing:
                raise GraphError(
                    f"edge id {edge_id!r} collides with a vertex id "
                    f"in graph {name!r}"
                )
            src = e.src
            if src not in outgoing:
                raise GraphError(f"edge {edge_id!r} has undeclared source {src!r}")
            dst = e.dst
            if dst not in incoming:
                raise GraphError(f"edge {edge_id!r} has undeclared target {dst!r}")
            edge_by_id[edge_id] = e
            outgoing[src] += 1
            incoming[dst] += 1
        # The shadow of edge `a` prints as `a~`, so no edge may be named so.
        for edge_id in edge_by_id:
            if edge_id[-1] == "~" and edge_id[:-1] in edge_by_id:
                raise GraphError(
                    f"edge id {edge_id!r} collides with the shadow of edge "
                    f"{edge_id[:-1]!r} in graph {name!r}"
                )
        self._set(name=name, vertices=vertices, edges=edges,
                  _out=outgoing, _in=incoming, _edge_by_id=edge_by_id)

    def contains_edge(self, edge: EdgeRecord) -> bool:
        return self._edge_by_id.get(edge.id) == edge

    def require_vertex(self, v: str) -> None:
        if v not in self._out:
            raise UnknownVertexError(f"vertex {v!r} not in graph {self.name!r}")

    def out_edges(self, v: str) -> tuple[EdgeRecord, ...]:
        """The edges leaving `v`, in edge order; one pass over the edges."""
        self.require_vertex(v)
        return tuple(e for e in self.edges if e.src == v)

    def in_edges(self, v: str) -> tuple[EdgeRecord, ...]:
        """The edges entering `v`, in edge order; one pass over the edges."""
        self.require_vertex(v)
        return tuple(e for e in self.edges if e.dst == v)

    def degrees(self, v: str) -> VertexDegrees:
        """Out-, in-, and total degree of `v`; a loop adds 1 to each side."""
        self.require_vertex(v)
        out, inc = self._out[v], self._in[v]
        return VertexDegrees(out, inc, out + inc)

    def degree_table(self) -> Iterator[tuple[str, int, int]]:
        """`(v, out-degree, in-degree)` of every vertex in declaration order,
        in one pass over the degree counts (which share that key order)."""
        return zip(self._out, self._out.values(), self._in.values())

    def edge_multiplicities(self) -> Counter:
        """Multiset of (src, dst) pairs; the key datum for isomorphism search."""
        return Counter((e.src, e.dst) for e in self.edges)


def degrees(graph: DirectedGraph, v: str) -> VertexDegrees:
    return graph.degrees(v)


def _graph_with_edges(name: str, vertices: tuple[str, ...],
                      edges: Iterable[tuple[str, str, str]]) -> DirectedGraph:
    """The graph on `vertices` with `edges`, (preferred id, src, dst) triples
    in order: the one rule for new edge ids. Each id is primed with `'` until
    no vertex or earlier edge has it and it is neither `x~` beside an edge
    `x` nor `x` beside an edge `x~`, so no id rule of `DirectedGraph` fails."""
    vertex_ids, records = set(vertices), {}
    for edge_id, src, dst in edges:
        while (edge_id in vertex_ids or edge_id in records or edge_id + "~" in records
               or edge_id.endswith("~") and edge_id[:-1] in records):
            edge_id += "'"
        records[edge_id] = EdgeRecord(edge_id, src, dst)
    return DirectedGraph(name, vertices, tuple(records.values()))


class SignedEdge(NamedTuple):
    """An edge of the shadowed graph: a base edge traversed forward, or its
    shadow (the same edge traversed backward)."""

    edge: EdgeRecord
    inverted: bool = False

    @property
    def source(self) -> str:
        return self.edge.dst if self.inverted else self.edge.src

    @property
    def target(self) -> str:
        return self.edge.src if self.inverted else self.edge.dst

    @property
    def token(self) -> str:
        """Display id: the edge id, with a `~` suffix for the shadow."""
        return self.edge.id + "~" if self.inverted else self.edge.id

    def inverse(self) -> SignedEdge:
        return SignedEdge(self.edge, not self.inverted)


class ShadowedGraph(Frozen):
    """A graph together with its shadow: one forward and one inverted arc per
    base edge, so every vertex gains its in-edges as extra out-arcs. The arcs
    are the forward arcs in edge order, then the shadows in edge order. The
    arc table, by arc position: `reverse[a]` is arc `a` traversed the other
    way, and `leaving[v]` the arcs whose source is `v`, in arc order."""

    __slots__ = ("base", "arcs", "reverse", "leaving")
    _fields = ("base",)

    def __init__(self, base: DirectedGraph) -> None:
        edges, m = base.edges, len(base.edges)
        arcs = (tuple(SignedEdge(e, False) for e in edges)
                + tuple(SignedEdge(e, True) for e in edges))
        leaving: dict[str, list[int]] = {v: [] for v in base.vertices}
        for a, arc in enumerate(arcs):
            leaving[arc.source].append(a)
        self._set(base=base, arcs=arcs,
                  reverse=tuple(range(m, 2 * m)) + tuple(range(m)),
                  leaving={v: tuple(out) for v, out in leaving.items()})

    def arcs_from(self, v: str) -> tuple[SignedEdge, ...]:
        self.base.require_vertex(v)
        return tuple(map(self.arcs.__getitem__, self.leaving[v]))

    def as_graph(self) -> DirectedGraph:
        """The shadowed graph as a plain directed graph. The arcs of edge `a`
        become edges `a+` and `a-`, primed as `_graph_with_edges` says: the
        tokens `a` and `a~` cannot both be edge ids, since `a~` is also the
        token of the shadow of `a`."""
        return _graph_with_edges(
            f"shadow({self.base.name})", self.base.vertices,
            ((arc.edge.id + ("-" if arc.inverted else "+"), arc.source, arc.target)
             for arc in self.arcs))


def shadow(graph: DirectedGraph) -> ShadowedGraph:
    """The shadowed graph of `graph`, arcs in the order `ShadowedGraph` states."""
    return ShadowedGraph(graph)


FAMILY_KINDS = ("loops", "circulant", "complete", "path", "star")


def family(kind: str, n: int) -> DirectedGraph:
    """Named graph families.

    loops     - one vertex with n loop edges
    circulant - n vertices in a single directed cycle (requires n >= 2)
    complete  - n vertices, one edge for every ordered pair of distinct
                vertices (requires n >= 2)
    path      - a directed chain on n vertices (finite stand-in for the
                doubly infinite line; its endpoints break fractality)
    star      - a root with n out-edges to n fresh leaves; star(1) is the
                two-vertices-one-edge graph, star(2) the three-vertex fork
                used as the standard non-fractal tree example
    """
    if kind not in FAMILY_KINDS:
        raise ParameterError(f"unknown family {kind!r}; expected one of {FAMILY_KINDS}")
    if n < 1:
        raise ParameterError(f"family size must be >= 1, got {n}")
    if kind in ("circulant", "complete") and n < 2:
        raise ParameterError(f"family {kind!r} requires n >= 2, got {n}")

    if kind == "loops":
        v = "v1"
        return DirectedGraph(
            f"O{n}", (v,), tuple(EdgeRecord(f"e{j}", v, v) for j in range(1, n + 1))
        )
    vs = tuple(f"v{j}" for j in range(1, n + 1))
    if kind == "circulant":
        es = tuple(
            EdgeRecord(f"e{j}", f"v{j}", f"v{j % n + 1}") for j in range(1, n + 1)
        )
        return DirectedGraph(f"K{n}", vs, es)
    if kind == "complete":
        es = tuple(
            EdgeRecord(f"e{i}_{j}", f"v{i}", f"v{j}")
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        )
        return DirectedGraph(f"C{n}", vs, es)
    if kind == "path":
        es = tuple(
            EdgeRecord(f"e{j}", f"v{j}", f"v{j + 1}") for j in range(1, n)
        )
        return DirectedGraph(f"P{n}", vs, es)
    # star: the root v1 and leaves v2..v(n+1)
    vs += (f"v{n + 1}",)
    es = tuple(EdgeRecord(f"e{j}", "v1", f"v{j + 1}") for j in range(1, n + 1))
    return DirectedGraph(f"T{n}_1", vs, es)


def regularize(graph: DirectedGraph, k: int) -> DirectedGraph:
    """Replace every edge by k parallel copies (ids `<old>#1` .. `<old>#k`,
    primed as `_graph_with_edges` says)."""
    if k < 1:
        raise ParameterError(f"regularization multiplicity must be >= 1, got {k}")
    return _graph_with_edges(
        f"R{k}({graph.name})", graph.vertices,
        ((f"{e.id}#{j}", e.src, e.dst) for e in graph.edges for j in range(1, k + 1)))


def glue(
    g1: DirectedGraph, v1: str, g2: DirectedGraph, v2: str
) -> DirectedGraph:
    """Identify `v1` in `g1` with `v2` in `g2`.

    The glued vertex keeps `v1`'s id. A vertex of `g2` whose id a vertex or
    edge of `g1` (or an earlier vertex of `g2`) has gets trailing apostrophes,
    and the edges of `g2` follow those of `g1`, primed as `_graph_with_edges`
    says: the result is deterministic in the declaration orders of both."""
    g1.require_vertex(v1)
    g2.require_vertex(v2)
    taken = {*g1.vertices, *(e.id for e in g1.edges)}
    rename = {v2: v1}
    for v in g2.vertices:
        if v not in rename:
            fresh = v
            while fresh in taken:
                fresh += "'"
            taken.add(fresh)
            rename[v] = fresh
    return _graph_with_edges(
        f"{g1.name}#{g2.name}", (*g1.vertices, *list(rename.values())[1:]),
        (*g1.edges, *((e.id, rename[e.src], rename[e.dst]) for e in g2.edges)))


def iterated_glue_loops(graph: DirectedGraph, n: int) -> DirectedGraph:
    """Attach n fresh loops at every vertex (glue a one-vertex-n-loop graph
    onto each vertex in turn): ids `<v>_loop1` .. `<v>_loop<n>`, primed as
    `_graph_with_edges` says."""
    if n < 1:
        raise ParameterError(f"loop count must be >= 1, got {n}")
    if not graph.vertices:
        raise ParameterError("cannot attach loops to an empty graph")
    return _graph_with_edges(
        f"{graph.name}#O{n}", graph.vertices,
        (*graph.edges,
         *((f"{v}_loop{j}", v, v) for v in graph.vertices for j in range(1, n + 1))))


def is_connected(graph: DirectedGraph) -> bool:
    """True iff the underlying undirected multigraph is connected: a
    union-find over the edge list (path halving, no recursion). The empty
    graph counts as disconnected; a single isolated vertex is connected."""
    parent = {v: v for v in graph.vertices}
    parts = len(parent)
    for e in graph.edges:
        a, b = e.src, e.dst
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            parts -= 1
            if parts == 1:
                return True
    return parts == 1


# --- canonical JSON form ---------------------------------------------------

_GRAPH_KEYS = {"name", "vertices", "edges"}
_EDGE_KEYS = {"id", "src", "dst"}


def graph_to_json(graph: DirectedGraph) -> dict:
    return {
        "name": graph.name,
        "vertices": list(graph.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges],
    }


def graph_from_json(obj: object) -> DirectedGraph:
    name, vertices, edges = _graph_fields(obj)
    return DirectedGraph(name, tuple(vertices), tuple(map(_edge_record, edges)))


def _graph_fields(obj: object) -> tuple[str, list[str], list]:
    """The name, vertices and edge entries of graph JSON, or the GraphError
    for its first fault that is not in an edge entry."""
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object")
    unknown = set(obj) - _GRAPH_KEYS
    if unknown:
        raise GraphError(f"unknown graph keys: {sorted(unknown)}")
    missing = _GRAPH_KEYS - set(obj)
    if missing:
        raise GraphError(f"missing graph keys: {sorted(missing)}")
    name, vertices, edges = obj["name"], obj["vertices"], obj["edges"]
    if not isinstance(name, str):
        raise GraphError("graph name must be a string")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError("vertices must be a list of strings")
    if not isinstance(edges, list):
        raise GraphError("edges must be a list")
    return name, vertices, edges


def _edge_record(entry: object) -> EdgeRecord:
    """The record of one edge entry of graph JSON, or the GraphError for it.
    Only an entry that is not a plain dict with exactly the keys id, src and
    dst is checked in detail (dict subclasses may pass)."""
    if type(entry) is not dict or entry.keys() != _EDGE_KEYS:
        if not isinstance(entry, dict):
            raise GraphError("each edge must be an object")
        unknown = set(entry) - _EDGE_KEYS
        if unknown:
            raise GraphError(f"unknown edge keys: {sorted(unknown)}")
        missing = _EDGE_KEYS - set(entry)
        if missing:
            raise GraphError(f"edge missing keys: {sorted(missing)}")
    edge_id, src, dst = entry["id"], entry["src"], entry["dst"]
    if not (isinstance(edge_id, str) and isinstance(src, str)
            and isinstance(dst, str)):
        raise GraphError("edge id/src/dst must be strings")
    return EdgeRecord(edge_id, src, dst)


def save_graph(graph: DirectedGraph, path: str | Path) -> None:
    """Write `graph` as indented UTF-8 JSON. The text is encoded before the
    file is opened, so a graph that cannot be encoded leaves the file as it was."""
    text = json.dumps(graph_to_json(graph), indent=2, ensure_ascii=False) + "\n"
    Path(path).write_bytes(text.encode())


class _GraphDecoder(json.JSONDecoder):
    """A JSON decoder that maps each member of the top-level object that is
    a list of strings through `share` as soon as it is parsed. Files that
    `save_graph` writes hold the vertex list before the edges, so the
    endpoints that `share` maps as the edges are parsed are the vertex
    list's own strings: no vertex name is ever held as two string objects.
    The top-level object is parsed by `json.decoder.JSONObject`, the
    stdlib's pure-Python parser of one object, and each member by the C
    scanner, so the errors are those of `json.loads`."""

    def __init__(self, *, share, **kw) -> None:
        super().__init__(**kw)
        scan, strict, object_hook = self.scan_once, self.strict, self.object_hook

        def scan_member(text: str, end: int) -> tuple[object, int]:
            value, end = scan(text, end)
            if type(value) is list and all(type(v) is str for v in value):
                value = list(map(share, value, value))
            return value, end

        def scan_document(text: str, end: int) -> tuple[object, int]:
            if not text.startswith("{", end):
                return scan(text, end)
            return JSONObject((text, end + 1), strict, scan_member, object_hook,
                              None, {})
        self.scan_once = scan_document


def load_graph(path: str | Path) -> DirectedGraph:
    """`graph_from_json` of the file at `path`, with the same errors, built
    without a dict per edge and with one string object per vertex: each
    edge's `src` and `dst` are the vertex's own string, shared through a
    dict that lives for this one load."""
    strings: dict[str, str] = {}
    share = strings.setdefault
    fields, new = itemgetter("id", "src", "dst"), tuple.__new__

    def parsed_edge(obj: dict) -> object:
        # The `object_hook`: an object that `_edge_record` accepts becomes its
        # EdgeRecord at once, so its dict is freed; any other stays a dict.
        # The scanner makes exact strs; `new` skips the NamedTuple's `__new__`.
        if len(obj) == 3:
            try:
                edge_id, src, dst = fields(obj)
            except KeyError:
                return obj
            if type(edge_id) is str and type(src) is str and type(dst) is str:
                return new(EdgeRecord, (edge_id, share(src, src), share(dst, dst)))
        return obj

    try:
        # No number is valid in a graph file, so an integer literal is read
        # as a float: a huge one then costs no quadratic int conversion.
        obj = json.loads(Path(path).read_text(encoding="utf-8"), cls=_GraphDecoder,
                         share=share, object_hook=parsed_edge, parse_int=float)
    except ValueError as exc:
        # JSONDecodeError and UnicodeDecodeError alike.
        raise GraphError(f"malformed graph JSON in {path}: {exc}") from exc
    if type(obj) is EdgeRecord:
        # The document itself was one edge object: it fails as graph JSON.
        obj = {"id": obj.id, "src": obj.src, "dst": obj.dst}
    name, vertices, edges = _graph_fields(obj)
    # Every entry that is not an EdgeRecord yet is faulty and raises here.
    records = tuple(e if type(e) is EdgeRecord else _edge_record(e) for e in edges)
    # When the edges came first, the vertices take the endpoints' strings.
    # The table is emptied before the graph builds its own tables.
    vertices = tuple(map(share, vertices, vertices))
    strings.clear()
    return DirectedGraph(name, vertices, records)
