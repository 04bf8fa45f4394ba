"""The contract of the public value types: every value survives `pickle` and
`copy.deepcopy` as an equal value, refuses attribute assignment, and keeps
the equality, hashing and repr that callers and reports rely on."""

import copy
import dataclasses
import pickle

import pytest

from fractaloid import (
    ClassificationResult,
    DirectedGraph,
    EdgeRecord,
    LatticePath,
    SignedEdge,
    balanced_tuple_classes,
    build_graph_automaton,
    canonical_labeling,
    classify,
    empty_word,
    family,
    fractal_pair,
    glue,
    graph_isomorphic,
    path_word,
    radial_moment,
    shadow,
    truncated_radial_matrix,
    vertex_tree,
    vertex_word,
    verify_moment_theorem,
)

K3 = family("circulant", 3)


def _word():
    arcs = shadow(K3).arcs
    return path_word(K3, (arcs[0], arcs[1]))


# (name, value factory, a field to assign to, whether it raises
# dataclasses.FrozenInstanceError rather than a plain AttributeError).
VALUES = [
    ("EdgeRecord", lambda: K3.edges[0], "id", False),
    ("SignedEdge", lambda: shadow(K3).arcs[-1], "inverted", False),
    ("TreeNode", lambda: vertex_tree(K3, "v1", 2).root, "vertex", False),
    ("VertexTree", lambda: vertex_tree(K3, "v1", 2), "depth", False),
    ("Labeling", lambda: canonical_labeling(K3), "degree_bound", False),
    ("GraphAutomaton", lambda: build_graph_automaton(K3), "graph", False),
    ("BalancedTupleClass", lambda: balanced_tuple_classes(2, 4)[1], "coefficient",
     False),
    ("MomentVector", lambda: radial_moment(K3, 4), "n", False),
    ("MomentComparisonReport", lambda: verify_moment_theorem(K3, 4), "rows", False),
    ("MomentComparisonRow", lambda: verify_moment_theorem(K3, 4).rows[3], "walk",
     False),
    ("FractalPair", lambda: fractal_pair(K3), "n_zero", False),
    ("VertexDegrees", lambda: K3.degrees("v1"), "total", False),
    ("DirectedGraph", lambda: K3, "name", True),
    ("ShadowedGraph", lambda: shadow(K3), "arcs", True),
    ("ReducedWord", _word, "letters", True),
    ("ReducedWord-unit", lambda: vertex_word(K3, "v2"), "vertex", True),
    ("ReducedWord-empty", lambda: empty_word(K3), "vertex", True),
    ("LatticePath", lambda: LatticePath((2, -1, 1, -2), 2), "steps", True),
    ("TruncatedOperator", lambda: truncated_radial_matrix(K3, 2), "depth", True),
    ("GraphMatch", lambda: graph_isomorphic(K3, K3), "vertex_map", True),
    ("ClassificationResult", lambda: classify([K3, family("star", 2)]),
     "classes", True),
]

IDS = [name for name, *_ in VALUES]


@pytest.mark.parametrize("name, make, field, frozen", VALUES, ids=IDS)
@pytest.mark.parametrize("duplicate", [
    lambda value: pickle.loads(pickle.dumps(value)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_copies_are_equal(name, make, field, frozen, duplicate):
    value = make()
    clone = duplicate(value)
    assert type(clone) is type(value)
    assert clone == value
    assert repr(clone) == repr(value)


def test_copied_graphs_and_words_still_work():
    graph = pickle.loads(pickle.dumps(K3))
    assert graph.out_edges("v1") == K3.out_edges("v1")
    assert shadow(copy.deepcopy(K3)).arcs_from("v2") == shadow(K3).arcs_from("v2")
    word = pickle.loads(pickle.dumps(_word()))
    assert word.graph == K3 and len(word) == 2
    op = copy.deepcopy(truncated_radial_matrix(K3, 2))
    assert op.power_diagonal("v1", 4) == 6
    assert op.index[op.basis[-1]] == len(op.basis) - 1


@pytest.mark.parametrize("name, make, field, frozen", VALUES, ids=IDS)
def test_assignment_is_refused(name, make, field, frozen):
    value = make()
    before = repr(value)
    expected = dataclasses.FrozenInstanceError if frozen else AttributeError
    with pytest.raises(expected):
        setattr(value, field, getattr(value, field))
    with pytest.raises(expected):
        delattr(value, field)
    assert repr(value) == before


def test_word_equality_and_hash_ignore_the_graph():
    other = glue(K3, "v1", family("loops", 1), "v1")
    assert other != K3
    a, b = vertex_word(K3, "v1"), vertex_word(other, "v1")
    assert a == b and hash(a) == hash(b)
    assert empty_word(K3) == empty_word(other)
    assert hash(empty_word(K3)) == hash(empty_word(other))
    arcs = shadow(K3).arcs
    assert path_word(K3, arcs[:1]) == path_word(other, arcs[:1])
    assert path_word(K3, arcs[:1]) != vertex_word(K3, "v1")


def test_equal_graphs_hash_equal():
    twin = DirectedGraph(K3.name, tuple(K3.vertices), tuple(K3.edges))
    assert twin is not K3 and twin == K3 and hash(twin) == hash(K3)
    assert DirectedGraph("other", K3.vertices, K3.edges) != K3
    assert len({K3, twin, family("circulant", 3)}) == 1


def test_graph_repr_leaves_out_the_derived_tables():
    graph = family("path", 2)
    assert repr(graph) == (
        "DirectedGraph(name='P2', vertices=('v1', 'v2'), "
        "edges=(EdgeRecord(id='e1', src='v1', dst='v2'),))"
    )
    for table in ("_out", "_in", "_edge_by_id"):
        assert table not in repr(graph)
        assert hasattr(graph, table)
    match graph:
        case DirectedGraph(name, vertices, edges):
            assert (name, vertices, edges) == ("P2", graph.vertices, graph.edges)
        case _:
            pytest.fail("positional pattern did not match")


def test_edge_reprs():
    edge = EdgeRecord("e1", "v1", "v2")
    assert repr(edge) == "EdgeRecord(id='e1', src='v1', dst='v2')"
    assert repr(SignedEdge(edge, True)) == (
        "SignedEdge(edge=EdgeRecord(id='e1', src='v1', dst='v2'), inverted=True)"
    )
    assert SignedEdge(edge) == SignedEdge(edge, False)


def test_value_reprs():
    assert repr(LatticePath((1, -1), 1)) == "LatticePath(steps=(1, -1), step_bound=1)"
    assert repr(radial_moment(family("loops", 1), 2)) == (
        "MomentVector(n=2, per_vertex={'v1': 2})"
    )
    assert repr(graph_isomorphic(family("loops", 1), family("loops", 1))) == (
        "GraphMatch(vertex_map={'v1': 'v1'}, edge_map={'e1': 'e1'})"
    )
    assert repr(vertex_word(family("loops", 1), "v1")).startswith(
        "ReducedWord(graph=DirectedGraph(name='O1', "
    )
    assert repr(vertex_word(family("loops", 1), "v1")).endswith(
        "vertex='v1', letters=())"
    )


def test_classification_result_defaults():
    result = ClassificationResult()
    assert result.classes == {} and result.rejected == []
    # Each result gets its own containers.
    assert ClassificationResult().classes is not result.classes
    assert ClassificationResult().rejected is not result.rejected
    assert ClassificationResult() == result


@pytest.mark.parametrize("name, make, field, frozen",
                         [v for v in VALUES if not v[3]],
                         ids=[v[0] for v in VALUES if not v[3]])
def test_plain_records_are_named_tuples(name, make, field, frozen):
    # They unpack, index, and compare equal to the plain tuple of their fields.
    value = make()
    assert isinstance(value, tuple)
    assert value == tuple(value)
    assert getattr(value, field) == value[value._fields.index(field)]


def test_edge_records_unpack():
    edge_id, src, dst = K3.edges[0]
    assert (edge_id, src, dst) == ("e1", "v1", "v2")
    assert hash(K3.edges[0]) == hash(("e1", "v1", "v2"))
    edge, inverted = shadow(K3).arcs[-1]
    assert edge == K3.edges[-1] and inverted is True
