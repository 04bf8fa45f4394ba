import itertools
import random
import tracemalloc

import pytest

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    EdgeBlockType,
    GraphError,
    LimitError,
    ParameterError,
    SignedEdge,
    edge_block_type,
    empty_word,
    enumerate_words,
    family,
    format_word,
    inverse,
    multiply,
    path_word,
    reduce_word,
    shadow,
    source_range,
    vertex_word,
)

K3 = family("circulant", 3)
C3 = family("complete", 3)
O1 = family("loops", 1)
O2 = family("loops", 2)
GE = family("star", 1)
K2 = family("circulant", 2)


def arc(graph, edge_id, inverted=False):
    (edge,) = [e for e in graph.edges if e.id == edge_id]
    return SignedEdge(edge, inverted)


def test_reduce_cancelling_pair():
    w = reduce_word(GE, [arc(GE, "e1"), arc(GE, "e1", True)])
    assert w.is_vertex and w.vertex == "v1"


def test_reduce_inadmissible_pair_is_empty():
    # e1 ends at v2 but e3 starts at v3
    assert reduce_word(K3, [arc(K3, "e1"), arc(K3, "e3")]).is_empty


def test_reduce_double_cancellation_in_loop():
    letters = [arc(O1, "e1"), arc(O1, "e1", True)] * 2
    w = reduce_word(O1, letters)
    assert w.is_vertex and w.vertex == "v1"


def test_reduce_is_idempotent():
    for word in enumerate_words(shadow(C3), 3):
        if word.is_path:
            assert reduce_word(C3, word.letters) == word


def test_reduce_rejects_foreign_letters():
    with pytest.raises(GraphError):
        reduce_word(K3, [arc(O1, "e1")])
    with pytest.raises(ParameterError):
        reduce_word(K3, [])


def test_multiply_by_inverse_gives_source_unit():
    for word in enumerate_words(shadow(K2), 3):
        if word.is_empty:
            continue
        src, rng = source_range(word)
        assert multiply(word, inverse(word)) == vertex_word(K2, src)
        assert multiply(inverse(word), word) == vertex_word(K2, rng)


def test_vertex_units_are_idempotents():
    v1, v2 = vertex_word(K3, "v1"), vertex_word(K3, "v2")
    assert multiply(v1, v1) == v1
    assert multiply(v1, v2).is_empty


def test_unit_absorbs_on_matching_side():
    w = path_word(K3, [arc(K3, "e1")])
    assert multiply(vertex_word(K3, "v1"), w) == w
    assert multiply(w, vertex_word(K3, "v2")) == w
    assert multiply(vertex_word(K3, "v2"), w).is_empty
    assert multiply(w, vertex_word(K3, "v1")).is_empty


def test_junction_cancellation_leaves_tail():
    # In the complete graph: e1_2 . (e1_2^-1 e1_3) = e1_3.
    left = path_word(C3, [arc(C3, "e1_2")])
    right = path_word(C3, [arc(C3, "e1_2", True), arc(C3, "e1_3")])
    assert multiply(left, right) == path_word(C3, [arc(C3, "e1_3")])
    # Same shape in the cycle graph, continuing backward along e3.
    left = path_word(K3, [arc(K3, "e1")])
    right = path_word(K3, [arc(K3, "e1", True), arc(K3, "e3", True)])
    assert multiply(left, right) == path_word(K3, [arc(K3, "e3", True)])


def test_junction_cancellation_cascades():
    w = path_word(K3, [arc(K3, "e1"), arc(K3, "e2")])
    assert multiply(w, inverse(w)) == vertex_word(K3, "v1")


def test_empty_absorbs():
    zero = empty_word(K3)
    w = path_word(K3, [arc(K3, "e1")])
    assert multiply(zero, w).is_empty
    assert multiply(w, zero).is_empty
    assert multiply(zero, zero).is_empty


def test_multiply_rejects_mixed_graphs():
    with pytest.raises(GraphError):
        multiply(vertex_word(K3, "v1"), vertex_word(O1, "v1"))


def test_inverse_shapes():
    assert inverse(vertex_word(K3, "v2")) == vertex_word(K3, "v2")
    assert inverse(empty_word(K3)).is_empty
    w = path_word(K3, [arc(K3, "e1"), arc(K3, "e2")])
    assert inverse(w) == path_word(K3, [arc(K3, "e2", True), arc(K3, "e1", True)])


def test_inverse_is_involutive():
    for word in enumerate_words(shadow(C3), 3):
        assert inverse(inverse(word)) == word


def test_source_range():
    assert source_range(vertex_word(K3, "v3")) == ("v3", "v3")
    assert source_range(path_word(K3, [arc(K3, "e1")])) == ("v1", "v2")
    loop_square = path_word(O1, [arc(O1, "e1"), arc(O1, "e1")])
    assert source_range(loop_square) == ("v1", "v1")
    assert source_range(empty_word(K3)) is None


def test_enumerate_single_loop_depth_one():
    words = enumerate_words(shadow(O1), 1)
    assert [format_word(w) for w in words] == ["(v1)", "e1", "e1~"]


def test_enumerate_single_edge_depth_two():
    # Any length-2 word over {e, e~} cancels or is inadmissible.
    words = enumerate_words(shadow(GE), 2)
    by_len = {k: len(list(g)) for k, g in itertools.groupby(words, key=len)}
    assert by_len == {0: 2, 1: 2}


def test_enumerate_two_cycle_depth_two():
    words = enumerate_words(shadow(K2), 2)
    by_len = {k: len(list(g)) for k, g in itertools.groupby(words, key=len)}
    assert by_len == {0: 2, 1: 4, 2: 4}


def test_enumerate_deterministic_and_duplicate_free():
    first = enumerate_words(shadow(C3), 3)
    second = enumerate_words(shadow(C3), 3)
    assert first == second
    assert len(set(first)) == len(first)


def test_enumerate_levels_sorted_by_tokens():
    rng = random.Random(3)
    for _ in range(20):
        vertices = tuple(f"v{i}" for i in range(1, rng.randint(1, 4) + 1))
        ids = [f"e{i}" for i in range(1, rng.randint(1, 6) + 1)]
        rng.shuffle(ids)
        graph = DirectedGraph("G", vertices, tuple(
            EdgeRecord(i, rng.choice(vertices), rng.choice(vertices)) for i in ids
        ))
        words = enumerate_words(shadow(graph), 3)
        assert [w.vertex for w in words[:len(vertices)]] == list(vertices)
        for _, level in itertools.groupby(words[len(vertices):], key=len):
            tokens = [tuple(a.token for a in w.letters) for w in level]
            assert tokens == sorted(tokens)


def test_enumerate_budget():
    with pytest.raises(LimitError):
        enumerate_words(shadow(O2), 8, max_words=100)


def test_enumerate_budget_is_checked_before_the_level_is_built():
    # 700 shadow arcs into the hub, each with 699 continuations: the second
    # level would hold 489,300 words (about 40 MB).
    shadowed = shadow(family("star", 700))
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="5000-word budget at length 2"):
            enumerate_words(shadowed, 3, max_words=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("graph, depth", [(family("circulant", 5), 0),
                                          (DirectedGraph("G", ("a", "b"), ()), 3)])
def test_enumerate_budget_counts_the_vertex_units(graph, depth):
    # No level of length 1 or more is built here, so only the units count.
    with pytest.raises(LimitError, match="1-word budget at length 0"):
        enumerate_words(shadow(graph), depth, max_words=1)
    assert len(enumerate_words(shadow(graph), depth,
                               max_words=len(graph.vertices))) == len(graph.vertices)

def test_product_nonempty_iff_composable():
    words = [w for w in enumerate_words(shadow(K2), 2) if not w.is_empty]
    for w1, w2 in itertools.product(words, repeat=2):
        product = multiply(w1, w2)
        composable = source_range(w1)[1] == source_range(w2)[0]
        assert composable == (not product.is_empty)


def test_product_length_parity():
    rng = random.Random(11)
    words = [w for w in enumerate_words(shadow(O2), 4) if w.is_path]
    for _ in range(300):
        w1, w2 = rng.choice(words), rng.choice(words)
        product = multiply(w1, w2)
        if product.is_empty:
            continue
        assert (len(w1) + len(w2) - len(product)) % 2 == 0
        assert len(product) <= len(w1) + len(w2)


def test_display_format():
    assert format_word(empty_word(K3)) == "0"
    assert format_word(vertex_word(K3, "v1")) == "(v1)"
    w = path_word(K3, [arc(K3, "e1"), arc(K3, "e2"), arc(K3, "e2", True)][:2])
    assert format_word(w) == "e1.e2"
    assert format_word(inverse(w)) == "e2~.e1~"


def test_word_constructor_validation():
    with pytest.raises(GraphError):
        path_word(K3, [arc(K3, "e1"), arc(K3, "e1", True)])  # not reduced
    with pytest.raises(GraphError):
        path_word(K3, [arc(K3, "e1"), arc(K3, "e3")])  # not admissible
    with pytest.raises(ParameterError):
        path_word(K3, [])


def test_edge_block_types():
    assert edge_block_type(O1.edges[0]) is EdgeBlockType.LOOP
    assert edge_block_type(GE.edges[0]) is EdgeBlockType.NON_LOOP
    assert all(
        edge_block_type(e) is EdgeBlockType.NON_LOOP for e in C3.edges
    )
