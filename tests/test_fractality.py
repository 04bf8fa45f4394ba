import dataclasses

import pytest

from fractaloid import (
    DirectedGraph,
    DisconnectedGraphError,
    EdgeRecord,
    FractalPair,
    LimitError,
    NotFractalError,
    ParameterError,
    classification_report,
    classify,
    family,
    fractal_pair,
    glue,
    is_fractal,
    iterated_glue_loops,
    max_out_degree,
    regularize,
    tree_isomorphic,
    tree_regular_to_depth,
    vertex_tree,
)

K3 = family("circulant", 3)
C3 = family("complete", 3)
T21 = family("star", 2)
GE = family("star", 1)
R2K3 = regularize(K3, 2)
K3O1 = iterated_glue_loops(K3, 1)


def test_max_out_degree_values():
    assert max_out_degree(C3) == 2
    assert max_out_degree(family("loops", 5)) == 5
    assert max_out_degree(T21) == 2
    with pytest.raises(ParameterError):
        max_out_degree(DirectedGraph("empty", (), ()))


def test_is_fractal_families():
    assert is_fractal(K3)
    assert is_fractal(R2K3)
    assert is_fractal(C3)
    assert is_fractal(K3O1)
    assert not is_fractal(T21)
    assert not is_fractal(family("path", 4))  # endpoints break the balance


def test_is_fractal_needs_constant_degree():
    # Each vertex balances out vs in, but the degree is not constant: the
    # vertex trees cannot all be regular, so this graph is not fractal.
    trap = glue(K3, "v1", family("loops", 1), "v1")
    assert all(
        trap.degrees(v).out_degree == trap.degrees(v).in_degree
        for v in trap.vertices
    )
    assert not is_fractal(trap)


def test_is_fractal_rejects_disconnected():
    islands = DirectedGraph(
        "islands",
        ("a", "b"),
        (EdgeRecord("ea", "a", "a"), EdgeRecord("eb", "b", "b")),
    )
    with pytest.raises(DisconnectedGraphError):
        is_fractal(islands)


def test_edgeless_graph_not_fractal():
    assert not is_fractal(DirectedGraph("dot", ("a",), ()))


def test_fractal_pair_values():
    assert fractal_pair(family("loops", 4)) == FractalPair(4, 1)
    assert fractal_pair(family("circulant", 5)) == FractalPair(1, 5)
    assert fractal_pair(C3) == FractalPair(2, 3)


def test_fractal_pair_reports_offending_vertex():
    with pytest.raises(NotFractalError, match="v1"):
        fractal_pair(T21)


def test_fractal_pair_of_regularization():
    for k in (1, 2, 3):
        base = fractal_pair(K3)
        scaled = fractal_pair(regularize(K3, k))
        assert scaled == FractalPair(k * base.n_zero, base.n_sup)


def test_fractal_pair_of_loop_attachment():
    for n in (1, 2):
        base = fractal_pair(C3)
        bigger = fractal_pair(iterated_glue_loops(C3, n))
        assert bigger == FractalPair(base.n_zero + n, base.n_sup)


def test_every_small_class_is_realized():
    # loops realize (n, 1); regularized cycles realize (n, m) for m >= 2
    for n in range(1, 5):
        for m in range(1, 6):
            g = family("loops", n) if m == 1 else regularize(family("circulant", m), n)
            assert fractal_pair(g) == FractalPair(n, m)


def test_vertex_tree_of_loop_graph_is_binary():
    tree = vertex_tree(family("loops", 1), "v1", 4)
    assert tree_regular_to_depth(tree, 2)
    assert not tree_regular_to_depth(tree, 3)


def test_vertex_tree_of_single_edge_is_chain():
    tree = vertex_tree(GE, "v1", 5)
    node = tree.root
    for _ in range(5):
        assert len(node.children) == 1
        node = node.children[0]
    assert node.children == ()


def test_vertex_tree_root_children_match_shadow_degree():
    tree = vertex_tree(T21, "v1", 1)
    assert len(tree.root.children) == 2
    assert not tree_regular_to_depth(vertex_tree(T21, "v2", 2), 4)


def _unfolded_count(tree) -> int:
    count, stack = 0, [tree.root]
    while stack:
        count += 1
        stack.extend(stack.pop().children)
    return count


def test_vertex_tree_node_budget():
    with pytest.raises(LimitError):
        vertex_tree(family("loops", 3), "v1", 8, max_nodes=50)
    # The budget bounds the unfolded tree, not its distinct subtrees.
    count = _unfolded_count(vertex_tree(K3O1, "v1", 4))
    assert count == 1 + 4 + 4**2 + 4**3 + 4**4
    vertex_tree(K3O1, "v1", 4, max_nodes=count)
    with pytest.raises(LimitError) as excinfo:
        vertex_tree(K3O1, "v1", 4, max_nodes=count - 1)
    assert str(excinfo.value) == (
        f"vertex tree from 'v1' exceeded {count - 1} nodes at depth 4"
    )
    # 6^40 nodes: the count is known before any node is built.
    with pytest.raises(LimitError) as excinfo:
        vertex_tree(family("loops", 3), "v1", 40, max_nodes=10)
    assert str(excinfo.value) == "vertex tree from 'v1' exceeded 10 nodes at depth 40"


def test_deep_vertex_tree_needs_no_recursion():
    tree = vertex_tree(GE, "v1", 900)
    assert _unfolded_count(tree) == 901
    assert tree_regular_to_depth(tree, 1)
    assert not tree_regular_to_depth(tree, 2)
    assert tree_isomorphic(tree, tree)
    assert tree_isomorphic(tree, vertex_tree(GE, "v2", 900))


def test_tree_isomorphism_of_fork_leaves():
    t2 = vertex_tree(T21, "v2", 3)
    t3 = vertex_tree(T21, "v3", 3)
    t1 = vertex_tree(T21, "v1", 2)
    assert tree_isomorphic(t2, t3)
    assert tree_isomorphic(t2, t2)
    assert not tree_isomorphic(t1, vertex_tree(T21, "v2", 2))
    with pytest.raises(ParameterError):
        tree_isomorphic(t1, t2)


def test_degree_test_agrees_with_tree_regularity():
    corpus = [
        K3, C3, T21, GE, R2K3, K3O1,
        family("loops", 2),
        family("path", 3),
        glue(K3, "v1", family("loops", 1), "v1"),
    ]
    for g in corpus:
        branching = 2 * max_out_degree(g)
        for depth in (1, 3, 6):
            trees_regular = all(
                tree_regular_to_depth(vertex_tree(g, v, depth), branching)
                for v in g.vertices
            )
            assert trees_regular == is_fractal(g), (g.name, depth)


def test_classify_partitions_standard_corpus():
    graphs = [family("loops", 2), R2K3, C3, K3O1, family("circulant", 2)]
    result = classify(graphs)
    assert result.rejected == []
    assert result.classes == {
        FractalPair(1, 2): ["K2"],
        FractalPair(2, 1): ["O2"],
        FractalPair(2, 3): ["R2(K3)", "C3", "K3#O1"],
    }


def test_classify_empty_input():
    result = classify([])
    assert result.classes == {} and result.rejected == []


def test_classification_result_is_frozen():
    result = classify([K3, T21])
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.classes = {}


def test_classify_rejects_with_reason():
    result = classify([T21])
    assert result.classes == {}
    assert len(result.rejected) == 1
    name, reason = result.rejected[0]
    assert name == "T2_1" and "v1" in reason


def test_classify_accepted_plus_rejected_cover_input():
    graphs = [K3, T21, C3, family("path", 2), R2K3]
    result = classify(graphs)
    accepted = [name for names in result.classes.values() for name in names]
    rejected = [name for name, _ in result.rejected]
    assert sorted(accepted + rejected) == sorted(g.name for g in graphs)


def test_classification_report_shape():
    report = classification_report(classify([K3, T21]))
    assert report["classes"] == [{"pair": [1, 3], "graphs": ["K3"]}]
    assert report["rejected"][0]["graph"] == "T2_1"
    assert "not fractal" in report["rejected"][0]["reason"]
