import json
import tracemalloc

import pytest

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    GraphError,
    ParameterError,
    ShadowedGraph,
    SignedEdge,
    UnknownVertexError,
    degrees,
    family,
    glue,
    graph_from_json,
    graph_isomorphic,
    graph_to_json,
    is_connected,
    iterated_glue_loops,
    load_graph,
    regularize,
    save_graph,
    shadow,
)


def test_shadow_of_single_loop():
    g = family("loops", 1)
    sh = shadow(g)
    assert sh.base.vertices == ("v1",)
    assert sorted(arc.token for arc in sh.arcs) == ["e1", "e1~"]


def test_shadow_of_edgeless_graph():
    g = DirectedGraph("trivial", ("a",), ())
    assert shadow(g).arcs == ()


def test_shadow_of_two_cycle():
    sh = shadow(family("circulant", 2))
    assert len(sh.base.vertices) == 2
    assert sorted(arc.token for arc in sh.arcs) == ["e1", "e1~", "e2", "e2~"]


def test_shadow_arc_endpoints_swap():
    g = family("star", 1)
    (fwd,) = [a for a in shadow(g).arcs if not a.inverted]
    (bwd,) = [a for a in shadow(g).arcs if a.inverted]
    assert (fwd.source, fwd.target) == ("v1", "v2")
    assert (bwd.source, bwd.target) == ("v2", "v1")
    assert bwd.inverse() == fwd


def test_degrees_complete_graph():
    c3 = family("complete", 3)
    assert degrees(c3, "v1") == (2, 2, 4)


def test_degrees_single_edge_and_loops():
    ge = family("star", 1)
    assert degrees(ge, "v2") == (0, 1, 1)
    o3 = family("loops", 3)
    assert degrees(o3, "v1") == (3, 3, 6)


def test_degrees_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        degrees(family("loops", 1), "nope")


def test_family_complete_three():
    c3 = family("complete", 3)
    assert len(c3.vertices) == 3
    assert len(c3.edges) == 6


def test_family_smallest_loop_graph():
    o1 = family("loops", 1)
    assert len(o1.vertices) == 1
    assert len(o1.edges) == 1
    assert o1.edges[0].is_loop


def test_family_two_cycle():
    k2 = family("circulant", 2)
    assert [(e.src, e.dst) for e in k2.edges] == [("v1", "v2"), ("v2", "v1")]


def test_family_star_matches_fork():
    t21 = family("star", 2)
    assert len(t21.vertices) == 3
    assert [(e.src, e.dst) for e in t21.edges] == [("v1", "v2"), ("v1", "v3")]


def test_family_path():
    p4 = family("path", 4)
    assert len(p4.vertices) == 4
    assert len(p4.edges) == 3


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        family("circulant", 1)
    with pytest.raises(ParameterError):
        family("complete", 1)
    with pytest.raises(ParameterError):
        family("loops", 0)
    with pytest.raises(ParameterError):
        family("banana", 3)


def test_regularize_doubles_edges():
    r2k3 = regularize(family("circulant", 3), 2)
    assert len(r2k3.vertices) == 3
    assert len(r2k3.edges) == 6
    assert sorted(e.id for e in r2k3.edges)[:2] == ["e1#1", "e1#2"]


def test_regularize_identity_isomorphic():
    g = family("complete", 3)
    assert graph_isomorphic(regularize(g, 1), g) is not None


def test_regularize_loop_graph_matches_family():
    assert graph_isomorphic(regularize(family("loops", 1), 3), family("loops", 3))


def test_regularize_composes_multiplicatively():
    g = family("circulant", 2)
    assert graph_isomorphic(regularize(regularize(g, 2), 3), regularize(g, 6))


def test_glue_two_loops_gives_double_loop():
    o1 = family("loops", 1)
    glued = glue(o1, "v1", o1, "v1")
    assert len(glued.vertices) == 1
    assert len(glued.edges) == 2
    assert graph_isomorphic(glued, family("loops", 2))


def test_glue_chain_concatenation():
    ge = family("star", 1)
    chain = glue(ge, "v2", ge, "v1")
    assert len(chain.vertices) == 3
    assert len(chain.edges) == 2
    assert graph_isomorphic(chain, family("path", 3))


def test_glue_preserves_counts():
    k3 = family("circulant", 3)
    o1 = family("loops", 1)
    glued = glue(k3, "v2", o1, "v1")
    assert len(glued.vertices) == 3
    assert len(glued.edges) == 4


def test_glue_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        glue(family("loops", 1), "v9", family("loops", 1), "v1")


def test_iterated_glue_loops_on_triangle():
    g = iterated_glue_loops(family("circulant", 3), 1)
    assert len(g.vertices) == 3
    assert len(g.edges) == 6
    for v in g.vertices:
        assert g.degrees(v) == (2, 2, 4)


def test_iterated_glue_loops_on_loop_graphs():
    for n in (1, 2):
        doubled = iterated_glue_loops(family("loops", n), n)
        assert graph_isomorphic(doubled, family("loops", 2 * n))


def test_iterated_glue_loops_edge_count():
    g = family("complete", 3)
    assert len(iterated_glue_loops(g, 2).edges) == len(g.edges) + 2 * len(g.vertices)


def test_is_connected_cases():
    assert is_connected(family("circulant", 3))
    assert is_connected(DirectedGraph("iso", ("a",), ()))
    assert not is_connected(DirectedGraph("none", (), ()))
    two_islands = DirectedGraph(
        "islands",
        ("a", "b"),
        (EdgeRecord("ea", "a", "a"), EdgeRecord("eb", "b", "b")),
    )
    assert not is_connected(two_islands)


def test_degree_sums_match_edge_count():
    for g in (family("circulant", 4), family("complete", 4), family("star", 3)):
        outs = sum(g.degrees(v).out_degree for v in g.vertices)
        ins = sum(g.degrees(v).in_degree for v in g.vertices)
        assert outs == ins == len(g.edges)


def test_shadow_degree_is_total_degree():
    g = family("complete", 3)
    sh = shadow(g)
    for v in g.vertices:
        assert len(sh.arcs_from(v)) == g.degrees(v).total
    assert len(sh.arcs) == 2 * len(g.edges)


def test_shadowed_graph_is_built_from_its_base_alone():
    k3 = family("circulant", 3)
    shadowed = ShadowedGraph(k3)
    assert shadowed == shadow(k3)
    with pytest.raises(TypeError):
        ShadowedGraph(k3, shadow(k3).arcs)
    m = len(k3.edges)
    assert shadowed.arcs[:m] == tuple(SignedEdge(e, False) for e in k3.edges)
    assert shadowed.arcs[m:] == tuple(SignedEdge(e, True) for e in k3.edges)
    assert shadowed.reverse == tuple(range(m, 2 * m)) + tuple(range(m))


def test_signed_edge_double_inverse():
    e = EdgeRecord("e", "a", "b")
    arc = SignedEdge(e)
    assert arc.inverse().inverse() == arc


def test_validation_duplicate_vertex():
    with pytest.raises(GraphError):
        DirectedGraph("bad", ("a", "a"), ())


def test_validation_duplicate_edge_id():
    with pytest.raises(GraphError, match="dup"):
        DirectedGraph(
            "bad", ("a",), (EdgeRecord("dup", "a", "a"), EdgeRecord("dup", "a", "a"))
        )


def test_validation_dangling_endpoint():
    with pytest.raises(GraphError, match="ghost"):
        DirectedGraph("bad", ("a",), (EdgeRecord("e", "a", "ghost"),))


def test_validation_vertex_edge_id_overlap():
    with pytest.raises(GraphError):
        DirectedGraph("bad", ("a", "e"), (EdgeRecord("e", "a", "a"),))


def test_json_round_trip(tmp_path):
    g = family("complete", 3)
    path = tmp_path / "c3.json"
    save_graph(g, path)
    assert load_graph(path) == g


def test_json_key_layout():
    obj = graph_to_json(family("circulant", 2))
    assert list(obj) == ["name", "vertices", "edges"]
    assert list(obj["edges"][0]) == ["id", "src", "dst"]


def test_json_unknown_keys_rejected():
    obj = graph_to_json(family("loops", 1))
    obj["color"] = "red"
    with pytest.raises(GraphError, match="color"):
        graph_from_json(obj)
    obj = graph_to_json(family("loops", 1))
    obj["edges"][0]["weight"] = 3
    with pytest.raises(GraphError, match="weight"):
        graph_from_json(obj)


def test_json_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(GraphError):
        load_graph(path)


def test_json_preserves_declaration_order(tmp_path):
    g = DirectedGraph(
        "ordered",
        ("z", "a", "m"),
        (EdgeRecord("e2", "z", "a"), EdgeRecord("e1", "a", "m")),
    )
    path = tmp_path / "ordered.json"
    save_graph(g, path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["vertices"] == ["z", "a", "m"]
    assert [e["id"] for e in raw["edges"]] == ["e2", "e1"]


def _graph_obj(vertices=("a", "b"), *edges):
    return {"name": "g", "vertices": list(vertices), "edges": list(edges)}


def _edge(id="e", src="a", dst="b"):
    return {"id": id, "src": src, "dst": dst}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: graph_from_json([]), "graph JSON must be an object"),
        (lambda: graph_from_json({**_graph_obj(), "color": 1}),
         "unknown graph keys: ['color']"),
        (lambda: graph_from_json({"name": "g", "vertices": []}),
         "missing graph keys: ['edges']"),
        (lambda: graph_from_json({**_graph_obj(), "name": 7}),
         "graph name must be a string"),
        (lambda: graph_from_json(_graph_obj(("a", 3))),
         "vertices must be a list of strings"),
        (lambda: graph_from_json({**_graph_obj(), "edges": {}}),
         "edges must be a list"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), ["e", "a", "b"])),
         "each edge must be an object"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), {**_edge(), "weight": 3})),
         "unknown edge keys: ['weight']"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), {"id": "e", "src": "a"})),
         "edge missing keys: ['dst']"),
        # Unknown keys are reported before missing ones.
        (lambda: graph_from_json(_graph_obj(("a", "b"), {"id": "e", "w": 1})),
         "unknown edge keys: ['w']"),
        # Missing keys are reported before non-string values.
        (lambda: graph_from_json(_graph_obj(("a", "b"), {"id": 1, "src": "a"})),
         "edge missing keys: ['dst']"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(id=1))),
         "edge id/src/dst must be strings"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(src=None))),
         "edge id/src/dst must be strings"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(dst=["b"]))),
         "edge id/src/dst must be strings"),
        (lambda: graph_from_json(_graph_obj(("a", ""))),
         "vertex id must be a nonempty string, got ''"),
        (lambda: DirectedGraph("g", ("a", 3), ()),
         "vertex id must be a nonempty string, got 3"),
        (lambda: graph_from_json(_graph_obj(("a", "b", "a"))),
         "duplicate vertex id 'a' in graph 'g'"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(id=""))),
         "edge id must be a nonempty string, got ''"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(), _edge(dst="a"))),
         "duplicate edge id 'e' in graph 'g'"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(id="b"))),
         "edge id 'b' collides with a vertex id in graph 'g'"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(src="x"))),
         "edge 'e' has undeclared source 'x'"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(dst="y"))),
         "edge 'e' has undeclared target 'y'"),
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(src="x", dst="y"))),
         "edge 'e' has undeclared source 'x'"),
        # A non-hashable vertex is a GraphError, not a TypeError.
        (lambda: DirectedGraph("g", (["a"],), ()),
         "vertex id must be a nonempty string, got ['a']"),
        # `e~` is the token of the shadow of `e`; the check runs last.
        (lambda: graph_from_json(_graph_obj(("a", "b"), _edge(id="e~"), _edge())),
         "edge id 'e~' collides with the shadow of edge 'e' in graph 'g'"),
        (lambda: graph_from_json(
            _graph_obj(("a", "b"), _edge(), _edge(id="e~"), _edge(id="f", src="x"))),
         "edge 'f' has undeclared source 'x'"),
    ],
    ids=[
        "graph-not-object", "unknown-graph-key", "missing-graph-key",
        "name-not-string", "vertex-not-string", "edges-not-list",
        "edge-not-object", "unknown-edge-key", "missing-edge-key",
        "unknown-before-missing", "missing-before-type", "id-not-string",
        "src-not-string", "dst-not-string", "empty-vertex-id",
        "direct-non-string-vertex", "duplicate-vertex", "empty-edge-id",
        "duplicate-edge-id", "edge-id-is-vertex-id", "undeclared-source",
        "undeclared-target", "both-undeclared", "non-hashable-vertex",
        "edge-id-is-shadow-token", "shadow-token-checked-last",
    ],
)
def test_load_error_messages(build, message):
    with pytest.raises(GraphError) as excinfo:
        build()
    assert type(excinfo.value) is GraphError
    assert str(excinfo.value) == message


_ERROR_CASES = next(mark for mark in test_load_error_messages.pytestmark
                    if mark.name == "parametrize")


@pytest.mark.parametrize(*_ERROR_CASES.args, **_ERROR_CASES.kwargs)
def test_load_graph_error_messages(build, message, tmp_path, monkeypatch):
    """Each case of `test_load_error_messages`, with `graph_from_json` of an
    object replaced by `load_graph` of a file that holds it, gives the same
    message (the cases that build a DirectedGraph directly run unchanged)."""
    path = tmp_path / "graph.json"

    def from_file(obj):
        path.write_text(json.dumps(obj), encoding="utf-8")
        return load_graph(path)

    monkeypatch.setitem(globals(), "graph_from_json", from_file)
    test_load_error_messages(build, message)


@pytest.mark.parametrize(
    "obj, message",
    [
        # A document shaped like one edge is a graph object with wrong keys.
        (_edge(), "unknown graph keys: ['dst', 'id', 'src']"),
        ({**_graph_obj(), "name": _edge()}, "graph name must be a string"),
        (_graph_obj(("a", "b", _edge())), "vertices must be a list of strings"),
        ({**_graph_obj(), "edges": _edge()}, "edges must be a list"),
        (_graph_obj(("a", "b"), _edge(), [_edge(id="f")]),
         "each edge must be an object"),
        (_graph_obj(("a", "b"), _edge(), _edge(id=_edge(id="f"))),
         "edge id/src/dst must be strings"),
    ],
    ids=["edge-document", "edge-as-name", "edge-as-vertex", "edge-as-edges",
         "edge-in-list", "edge-as-id"],
)
def test_edge_shaped_objects_elsewhere(obj, message, tmp_path):
    """`load_graph` makes each edge-shaped object an EdgeRecord while it
    parses; wherever that object is, the error is the one for the dict."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for load in (lambda: graph_from_json(obj), lambda: load_graph(path)):
        with pytest.raises(GraphError) as excinfo:
            load()
        assert type(excinfo.value) is GraphError
        assert str(excinfo.value) == message


@pytest.mark.parametrize("entry", [EdgeRecord("e", "a", "b"), ("e", "a", "b")],
                         ids=["edge-record", "tuple"])
def test_graph_from_json_takes_no_record_for_an_edge(entry):
    with pytest.raises(GraphError) as excinfo:
        graph_from_json(_graph_obj(("a", "b"), entry))
    assert str(excinfo.value) == "each edge must be an object"


def test_graph_from_json_accepts_a_dict_subclass_edge():
    class Entry(dict):
        pass

    graph = graph_from_json(_graph_obj(("a", "b"), Entry(_edge())))
    assert graph.edges == (EdgeRecord("e", "a", "b"),)
    assert type(graph.edges[0]) is EdgeRecord


def test_load_graph_keeps_no_dict_per_edge(tmp_path):
    """Loading peaks at the graph it keeps plus the file text, not plus a
    dict per edge (that was 1.9 times the graph on this input)."""
    path = tmp_path / "k5000.json"
    save_graph(family("circulant", 5000), path)
    tracemalloc.start()
    try:
        graph = load_graph(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph == family("circulant", 5000)
    assert type(graph.edges[0]) is EdgeRecord
    assert peak < 1.7 * kept
