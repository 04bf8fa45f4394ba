"""Property tests on random small multigraphs (loops, parallel edges and
isolated vertices allowed), and on the JSON writer of the CLI."""

import contextlib
import io
import itertools
import json
import os
import pickle
import tracemalloc
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings, strategies as st

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    DisconnectedGraphError,
    GraphError,
    LimitError,
    NotFractalError,
    ReducedWord,
    SignedEdge,
    axis_path_counts,
    balanced_tuple_classes,
    canonical_labeling,
    count_axis_paths_bruteforce,
    empty_word,
    enumerate_words,
    family,
    fractal_pair,
    glue,
    graph_from_json,
    graph_to_json,
    identically_distributed,
    inverse,
    is_connected,
    iterated_glue_loops,
    load_graph,
    multiply,
    radial_moments,
    reduce_word,
    regularize,
    save_graph,
    shadow,
    source_range,
    tree_isomorphic,
    tree_regular_to_depth,
    tree_return_count,
    truncated_radial_matrix,
    vertex_tree,
    vertex_word,
)
from fractaloid.cli import _report, _tree_to_json, _write_through, json_text, main
from fractaloid.fractality import DEFAULT_MAX_TREE_NODES, TreeNode, VertexTree
from text_oracle import text_lines

# Moments up to order 4 depend on vertex degrees alone; order 6 is the first
# that sees how the arcs of the cover fit together. A closed walk of length n
# stays within distance n / 2 of its start, so a basis of that depth already
# gives the exact power diagonal.
ORDER = 6


@st.composite
def small_multigraphs(draw, sizes=st.integers(min_value=1, max_value=4),
                      max_edges=5):
    size = draw(sizes)
    vertices = tuple(f"v{i}" for i in range(1, size + 1))
    ends = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=max_edges))
    edges = tuple(EdgeRecord(f"e{i}", s, t) for i, (s, t) in enumerate(pairs, 1))
    return DirectedGraph("G", vertices, edges)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs())
def test_arc_table_states_the_shadow(graph):
    shadowed = shadow(graph)
    arcs, reverse, leaving = shadowed.arcs, shadowed.reverse, shadowed.leaving
    assert len(reverse) == len(arcs)
    for a, back in enumerate(reverse):
        assert arcs[back] == arcs[a].inverse()
        assert back != a and reverse[back] == a
    assert list(leaving) == list(graph.vertices)
    for v, out in leaving.items():
        assert out == tuple(a for a, arc in enumerate(arcs) if arc.source == v)
        assert shadowed.arcs_from(v) == tuple(arc for arc in arcs if arc.source == v)
    assert list(graph.degree_table()) == [
        (v, *graph.degrees(v)[:2]) for v in graph.vertices
    ]


larger_multigraphs = small_multigraphs(st.integers(min_value=1, max_value=6),
                                       max_edges=10)


@settings(max_examples=200, deadline=None)
@given(larger_multigraphs)
def test_degree_counts_and_edge_lists_match_the_edges(graph):
    edges = graph.edges
    table = list(graph.degree_table())
    assert [v for v, _, _ in table] == list(graph.vertices)
    for v, out, inc in table:
        assert out == sum(e.src == v for e in edges)
        assert inc == sum(e.dst == v for e in edges)
        assert graph.degrees(v) == (out, inc, out + inc)
    # Grouped by source (or target), the lists partition the edges, each
    # list in edge order.
    for group, end in ((graph.out_edges, "src"), (graph.in_edges, "dst")):
        positions = []
        for v in graph.vertices:
            listed = [edges.index(e) for e in group(v)]
            assert listed == sorted(listed)
            assert all(getattr(edges[i], end) == v for i in listed)
            positions += listed
        assert sorted(positions) == list(range(len(edges)))


@settings(max_examples=200, deadline=None)
@given(larger_multigraphs)
def test_is_connected_matches_breadth_first_search(graph):
    neighbours = {v: set() for v in graph.vertices}
    for e in graph.edges:
        neighbours[e.src].add(e.dst)
        neighbours[e.dst].add(e.src)
    start = graph.vertices[0]
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [w for u in frontier for w in neighbours[u] - seen]
        seen.update(frontier)
    assert is_connected(graph) == (len(seen) == len(graph.vertices))


# Ids that collide under the surgeries' patterns: shadows (`~`), primes,
# `as_graph`'s `+`/`-`, `regularize`'s `#j` and the `_loop<j>` of loops.
ADVERSARIAL_IDS = st.sampled_from([
    "x", "x~", "x'", "x~'", "e1", "e1+", "e1-", "e1#1", "e1#2", "e1#2~",
    "v1", "v1_loop1", "v1_loop1~", "v1'"])


@st.composite
def adversarial_graphs(draw, name):
    vertices = tuple(draw(st.lists(ADVERSARIAL_IDS, min_size=1, max_size=3,
                                   unique=True)))
    ids = draw(st.lists(ADVERSARIAL_IDS.filter(lambda i: i not in vertices),
                        max_size=4, unique=True))
    # Keep the graph valid: drop an id whose shadow partner is already kept.
    kept = []
    for i in ids:
        if i + "~" not in kept and not (i.endswith("~") and i[:-1] in kept):
            kept.append(i)
    ends = st.sampled_from(vertices)
    return DirectedGraph(name, vertices, tuple(
        EdgeRecord(i, draw(ends), draw(ends)) for i in kept))


def _is_primed(token, preferred):
    return token.startswith(preferred) and not token[len(preferred):].strip("'")


@settings(max_examples=300, deadline=None)
@given(adversarial_graphs("g1"), adversarial_graphs("g2"), st.integers(1, 2),
       st.data())
def test_surgeries_build_a_graph_from_any_ids(g1, g2, k, data):
    """Every surgery returns a graph whose ids are the documented ones, each
    primed with `'` where needed, and exactly the documented ones when none
    of them is taken."""
    v1 = data.draw(st.sampled_from(g1.vertices))
    v2 = data.draw(st.sampled_from(g2.vertices))
    rest = [v for v in g2.vertices if v != v2]
    glued = glue(g1, v1, g2, v2)
    vertex_of = {v2: v1, **dict(zip(rest, glued.vertices[len(g1.vertices):]))}
    loops = [(f"{v}_loop{j}", v, v) for v in g1.vertices for j in range(1, k + 1)]
    cases = [
        (regularize(g1, k), g1.vertices,
         [(f"{e.id}#{j}", e.src, e.dst) for e in g1.edges for j in range(1, k + 1)]),
        (iterated_glue_loops(g1, k), g1.vertices, [*g1.edges, *loops]),
        (shadow(g1).as_graph(), g1.vertices,
         [(e.id + "+", e.src, e.dst) for e in g1.edges]
         + [(e.id + "-", e.dst, e.src) for e in g1.edges]),
        (glued, (*g1.vertices, *rest),
         [*g1.edges,
          *((e.id, vertex_of[e.src], vertex_of[e.dst]) for e in g2.edges)]),
    ]
    for graph, vertices, edges in cases:
        assert len(graph.vertices) == len(vertices)
        assert all(map(_is_primed, graph.vertices, vertices))
        assert [(e.src, e.dst) for e in graph.edges] == [(s, t) for _, s, t in edges]
        assert all(_is_primed(e.id, i) for e, (i, _, _) in zip(graph.edges, edges))
        try:
            DirectedGraph("preferred", tuple(vertices),
                          tuple(EdgeRecord(*edge) for edge in edges))
        except GraphError:
            event("a preferred id is taken")
            continue
        assert graph.vertices == tuple(vertices)
        assert [e.id for e in graph.edges] == [i for i, _, _ in edges]


def _assert_distinct_labels(graph, labeling, end, degree_of):
    for v in graph.vertices:
        labels = sorted(labeling.assignment[e.id] for e in graph.edges
                        if getattr(e, end) == v)
        assert labels == list(range(1, degree_of(v) + 1))


@settings(max_examples=200, deadline=None)
@given(larger_multigraphs)
def test_canonical_labeling_numbers_each_vertex_out_edges(graph):
    labeling = canonical_labeling(graph)
    assert set(labeling.assignment) == {e.id for e in graph.edges}
    _assert_distinct_labels(graph, labeling, "src",
                            lambda v: graph.degrees(v).out_degree)


@st.composite
def regular_multigraphs(draw):
    """A union of N permutations of the vertices: out = in = N everywhere,
    with loops and parallel edges wherever the permutations put them."""
    size = draw(st.integers(min_value=1, max_value=6))
    degree = draw(st.integers(min_value=1, max_value=10 // size))
    vertices = tuple(f"v{i}" for i in range(1, size + 1))
    heads = [draw(st.permutations(vertices)) for _ in range(degree)]
    pairs = [(v, head[i]) for head in heads for i, v in enumerate(vertices)]
    pairs = draw(st.permutations(pairs))
    edges = tuple(EdgeRecord(f"e{i}", s, t) for i, (s, t) in enumerate(pairs, 1))
    return DirectedGraph("R", vertices, edges)


@settings(max_examples=200, deadline=None)
@given(regular_multigraphs())
def test_canonical_labeling_of_a_regular_graph_numbers_in_edges_too(graph):
    labeling = canonical_labeling(graph)
    degree = labeling.degree_bound
    for end in ("src", "dst"):
        _assert_distinct_labels(graph, labeling, end, lambda v: degree)


@settings(max_examples=40, deadline=None)
@given(small_multigraphs())
def test_first_return_moments_match_matrix_and_tree(graph):
    moments = radial_moments(graph, ORDER)
    op = truncated_radial_matrix(graph, ORDER // 2)
    # A column holds the word's parent and its children in the basis, so
    # below the truncation depth it sums to the out-degree of the word's end.
    shadowed = shadow(graph)
    for word, column in zip(op.basis, op.columns):
        assert set(column.values()) <= {1} and (
            len(word) == op.depth
            or sum(column.values())
            == len(shadowed.arcs_from(source_range(word)[1]))
        )
    # Each path word's column holds its parent, the word without its last
    # letter (for one letter, the unit at its source).
    for word, column in zip(op.basis, op.columns):
        if word.is_path:
            parent = (
                ReducedWord(graph, letters=word.letters[:-1]) if len(word) > 1
                else ReducedWord(graph, vertex=word.letters[0].source)
            )
            assert op.index[parent] in column
    for n in range(1, ORDER + 1):
        for v in graph.vertices:
            assert moments[n - 1].per_vertex[v] == op.power_diagonal(v, n)
    try:
        degree = fractal_pair(graph).n_zero
    except (DisconnectedGraphError, NotFractalError):
        return
    for n in range(1, ORDER + 1):
        assert set(moments[n - 1].per_vertex.values()) == {
            tree_return_count(degree, n)
        }


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(0, 3), st.integers(1, 8))
def test_power_diagonals_list_every_power(graph, depth, n_max):
    op = truncated_radial_matrix(graph, depth)
    moments = radial_moments(graph, n_max)
    for v in graph.vertices:
        diagonals = op.power_diagonals(v, n_max)
        assert diagonals == [op.power_diagonal(v, n) for n in range(n_max + 1)]
        # Exact up to the order whose closed walks leave the basis.
        assert diagonals[0] == 1 and all(
            diagonals[n] == moments[n - 1].per_vertex[v]
            for n in range(1, min(n_max, 2 * depth + 1) + 1)
        )


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(0, 3), st.data())
def test_power_diagonals_are_the_truncated_matrix_powers(graph, depth, data):
    # Past the exact window of 2 * depth + 1 the walk still gives the powers
    # of the truncated matrix itself: it drops only words it cannot leave in
    # time to come back. The products here use every column in full.
    op = truncated_radial_matrix(graph, depth)
    assert op.is_symmetric()
    n_max = data.draw(st.integers(0, 2 * depth + 4), label="n_max")
    for start, v in enumerate(graph.vertices):
        vec, expected = [0] * op.size, [1]
        vec[start] = 1
        for _ in range(n_max):
            nxt = [0] * op.size
            for col, value in enumerate(vec):
                for row, entry in op.columns[col].items():
                    nxt[row] += entry * value
            vec = nxt
            expected.append(vec[start])
        assert op.power_diagonals(v, n_max) == expected


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(0, 3))
def test_lazy_basis_is_the_word_enumeration(graph, depth):
    words = enumerate_words(shadow(graph), depth)
    op = truncated_radial_matrix(graph, depth)
    assert op.basis == words and len(op.basis) == len(op.columns)
    # Built under a budget of exactly its size, the basis can still be read.
    assert truncated_radial_matrix(graph, depth, max_words=len(words)).basis == words
    if len(words) > len(graph.vertices):
        # One word fewer fails alike on both routes.
        with pytest.raises(LimitError) as matrix_error:
            truncated_radial_matrix(graph, depth, max_words=len(words) - 1)
        with pytest.raises(LimitError) as words_error:
            enumerate_words(shadow(graph), depth, max_words=len(words) - 1)
        assert str(matrix_error.value) == str(words_error.value)
    # The read basis is a cache: a copy neither carries nor compares it.
    unread = truncated_radial_matrix(graph, depth)
    read_copy, unread_copy = (pickle.loads(pickle.dumps(o)) for o in (op, unread))
    assert "basis" in vars(op) and "basis" not in vars(read_copy)
    assert read_copy == unread_copy == unread == op


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.data())
def test_groupoid_axioms(graph, data):
    words = enumerate_words(shadow(graph), 3)
    by_source: dict = {}
    for word in words:
        src, rng = source_range(word)
        by_source.setdefault(src, []).append(word)
        if word.is_path:
            assert reduce_word(graph, word.letters) == word
        assert multiply(word, inverse(word)) == vertex_word(graph, src)
        assert multiply(inverse(word), word) == vertex_word(graph, rng)
    arcs = shadow(graph).arcs
    if arcs:
        letters = data.draw(st.lists(st.sampled_from(arcs), min_size=1, max_size=6))
        reduced = reduce_word(graph, letters)
        if reduced.is_path:
            assert reduce_word(graph, reduced.letters) == reduced
    # Each factor is drawn, half the time, among the words that compose with
    # the previous one, so that products cancel across the junctions.
    any_word = st.sampled_from(words)
    for _ in range(10):
        triple = [data.draw(any_word)]
        for _ in range(2):
            following = by_source[source_range(triple[-1])[1]]
            triple.append(data.draw(st.sampled_from(following) | any_word))
        a, b, c = triple
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))



def _naive_reduce(graph, letters):
    """Reduction by its definition: a foreign letter is an error, an
    inadmissible adjacent pair gives the empty word, and otherwise the first
    adjacent pair of an arc and its reverse is deleted until none is left."""
    for arc in letters:
        if not graph.contains_edge(arc.edge):
            raise GraphError(f"letter {arc.token!r} is foreign")
    if any(a.target != b.source for a, b in zip(letters, letters[1:])):
        return empty_word(graph)
    word = list(letters)
    while True:
        for i, (a, b) in enumerate(zip(word, word[1:])):
            if a.edge == b.edge and a.inverted != b.inverted:
                del word[i : i + 2]
                break
        else:
            break
    if not word:
        return vertex_word(graph, letters[0].source)
    return ReducedWord(graph, letters=tuple(word))


@settings(max_examples=150, deadline=None)
@given(small_multigraphs().filter(lambda graph: graph.edges), st.data())
def test_reduce_word_matches_naive_reducer(graph, data):
    shadowed = shadow(graph)
    any_arc = st.sampled_from(shadowed.arcs)
    # Each letter is drawn, half the time, among the arcs that may follow the
    # previous one, so that sequences are often admissible and cancel.
    letters = [data.draw(any_arc)]
    for _ in range(data.draw(st.integers(min_value=0, max_value=7))):
        following = shadowed.arcs_from(letters[-1].target)
        near = st.sampled_from(following) | any_arc if following else any_arc
        letters.append(data.draw(near))
    expected = _naive_reduce(graph, letters)
    assert reduce_word(graph, letters) == expected
    if len(letters) > 1:
        cut = data.draw(st.integers(min_value=1, max_value=len(letters) - 1))
        left = reduce_word(graph, letters[:cut])
        right = reduce_word(graph, letters[cut:])
        if not (left.is_empty or right.is_empty):
            assert multiply(left, right) == expected
    if data.draw(st.booleans()):
        # A letter of another graph, with an edge id this graph does not use.
        foreign = SignedEdge(EdgeRecord("f", "v1", "v1"), data.draw(st.booleans()))
        at = data.draw(st.integers(min_value=0, max_value=len(letters)))
        with pytest.raises(GraphError, match="does not belong to graph 'G'"):
            reduce_word(graph, letters[:at] + [foreign] + letters[at:])


@st.composite
def relabelings(draw, graph):
    """`graph` with its vertices permuted and some edges reversed: the same
    undirected multigraph, so the same moments at matching vertices."""
    image = dict(zip(graph.vertices, draw(st.permutations(graph.vertices))))
    edges = tuple(
        EdgeRecord(e.id, image[e.dst], image[e.src]) if draw(st.booleans())
        else EdgeRecord(e.id, image[e.src], image[e.dst])
        for e in graph.edges
    )
    return DirectedGraph("H", graph.vertices, edges)


def _matching_bijection(g1, g2, n_max):
    m1, m2 = radial_moments(g1, n_max), radial_moments(g2, n_max)
    return any(
        all(
            a.per_vertex[u] == b.per_vertex[w]
            for a, b in zip(m1, m2)
            for u, w in zip(g1.vertices, image)
        )
        for image in itertools.permutations(g2.vertices)
    )


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=ORDER))
def test_identically_distributed_matches_bijection_oracle(data, size, n_max):
    g1 = data.draw(small_multigraphs(st.just(size)))
    g2 = data.draw(small_multigraphs(st.just(size)) | relabelings(g1))
    assert identically_distributed(g1, g2, n_max) == _matching_bijection(g1, g2, n_max)


# Oracles on the vertex tree unfolded node by node, with no shared subtree.
def _unfold(shadowed, u, arc, remaining):
    children = () if remaining == 0 else tuple(
        _unfold(shadowed, a.target, a, remaining - 1) for a in shadowed.arcs_from(u)
    )
    return TreeNode(u, arc, children)


def _payload(node):
    return {
        "vertex": node.vertex,
        "arc": None if node.arc is None else node.arc.token,
        "children": [_payload(c) for c in node.children],
    }


def _regular(node, k, remaining):
    return remaining == 0 or (
        len(node.children) == k
        and all(_regular(c, k, remaining - 1) for c in node.children)
    )


def _shape(node):
    return tuple(sorted(_shape(c) for c in node.children))


@settings(max_examples=100, deadline=None)
@given(small_multigraphs(), st.integers(min_value=0, max_value=4))
def test_shared_vertex_tree_matches_unfolding(graph, depth):
    shadowed = shadow(graph)
    trees = []
    for v in graph.vertices:
        tree = vertex_tree(graph, v, depth)
        oracle = _unfold(shadowed, v, None, depth)
        assert tree == VertexTree(graph.name, oracle, depth)
        assert _tree_to_json(tree.root) == _payload(oracle)
        distinct, stack = set(), [tree.root]
        while stack:
            node = stack.pop()
            if id(node) not in distinct:
                distinct.add(id(node))
                stack.extend(node.children)
        assert len(distinct) <= len(shadowed.arcs) * depth + 1
        for k in range(len(shadowed.arcs) + 2):
            assert tree_regular_to_depth(tree, k) == _regular(oracle, k, depth)
        trees.append((tree, _shape(oracle)))
    for t1, shape1 in trees:
        for t2, shape2 in trees:
            assert tree_isomorphic(t1, t2) == (shape1 == shape2)


def _text_report(value):
    """The text report of the dict or list `value`, as the CLI streams it."""
    buffer = io.StringIO()
    _write_through(buffer, _report("tree", value, "text")[1])
    return buffer.getvalue()


@settings(max_examples=100, deadline=None)
@given(small_multigraphs(), st.integers(min_value=0, max_value=4))
def test_text_writer_renders_shared_subtrees_as_unfolded(graph, depth):
    for v in graph.vertices:
        shared = _tree_to_json(vertex_tree(graph, v, depth).root)
        unshared = json.loads(json.dumps(shared))
        assert _text_report(shared) == _text_report(unshared)


def test_text_writer_with_containers_shared_across_depths():
    leaf = {"x": [1, [2, None]], "y": []}
    shared = [leaf, leaf, {}]
    value = {"a": shared, "b": [shared, leaf], "c": leaf, "d": {"e": shared}}
    assert _text_report(value) == _text_report(json.loads(json.dumps(value)))


@pytest.mark.parametrize("n_bound", [*range(1, 9), 40])
def test_summed_recurrence_matches_multisets_and_bruteforce(n_bound):
    max_length = 24 if n_bound <= 6 else 16 if n_bound <= 8 else 6
    counts = axis_path_counts(n_bound, max_length)
    for length, count in enumerate(counts):
        classes = balanced_tuple_classes(n_bound, length)
        assert count == sum(c.coefficient for c in classes)
        if (2 * n_bound) ** length <= 10**5:
            assert count == count_axis_paths_bruteforce(n_bound, length)


# Strings that need escaping: quotes, backslashes, control characters,
# non-ASCII and non-BMP characters, next to arbitrary text.
json_strings = st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a')
    | st.characters()
)
# Bools next to ints (True must not render as 1), big ints, None.
json_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**40, max_value=10**40) | json_strings
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=25,
)


@st.composite
def _text_payloads(draw):
    """A dict or list of `json_values`, alone or met several times: at
    several depths, and twice at one depth."""
    value = draw(st.lists(json_values, max_size=4)
                 | st.dictionaries(json_strings, json_values, max_size=4))
    if draw(st.booleans()):
        value = {"a": value, "b": [value, {"c": value}, value, ()], "d": value}
    return value


@settings(max_examples=200, deadline=None)
@given(_text_payloads())
def test_text_writer_matches_oracle(value):
    assert _text_report(value) == "".join(line + "\n" for line in text_lines(value))


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_json_writer_matches_stdlib(value):
    expected = json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    assert json_text(value) == expected


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_ascii_json_writer_matches_stdlib(value):
    assert json_text(value, ensure_ascii=True) == json.dumps(value, indent=2) + "\n"


def test_json_writer_with_shared_lists():
    # One list object met several times at one depth and at several depths,
    # as in the payload of a vertex tree with shared subtrees.
    leaf = ["\u00e9", 1, None]
    shared = [leaf, {"k": leaf}, leaf, ()]
    pair = (leaf, leaf)
    value = {"a": shared, "b": [shared, shared, shared, pair], "c": leaf, "d": pair}
    for ensure_ascii in (False, True):
        expected = json.dumps(value, indent=2, ensure_ascii=ensure_ascii) + "\n"
        assert json_text(value, ensure_ascii=ensure_ascii) == expected


# Edge objects written member by member, so that a key can be repeated,
# which `json.dumps` cannot write. Each has at most one fault: a key missing,
# an extra key, a key repeated, or a value that is not a name (a number,
# null, a list or an object shaped like an edge). Some ids collide or end in
# `~`, and some endpoints are undeclared.
_ids = st.sampled_from(["e1", "e2", "e3", "e4", "e5", "e1~", "va"]).map(json.dumps)
_ends = st.sampled_from(["va", "vb", "vc", "vd"]).map(json.dumps)
_edge_shaped = st.tuples(_ids, _ends, _ends).map(
    lambda t: '{"id": %s, "src": %s, "dst": %s}' % t)
_odd_values = st.sampled_from(["1", "-2.5", "null", "[]", '["va"]', "{}"]) | _edge_shaped


@st.composite
def _edge_object_texts(draw):
    members = [("id", draw(_ids)), ("src", draw(_ends)), ("dst", draw(_ends))]
    fault = draw(st.sampled_from(
        ["none", "none", "none", "missing", "extra", "repeated", "value"]))
    at = draw(st.integers(0, 2))
    if fault == "missing":
        del members[at]
    elif fault == "extra":
        members.append((draw(st.sampled_from(["w", "ID", ""])), draw(_ends)))
    elif fault == "repeated":
        key = members[at][0]
        names = _ids if key == "id" else _ends
        members.append((key, draw(st.one_of(names, _odd_values))))
    elif fault == "value":
        members[at] = (members[at][0], draw(_odd_values))
    members = draw(st.permutations(members))
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in members) + "}"


@st.composite
def _loader_texts(draw):
    """A graph text with drawn edge objects and member order, or one edge."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_edge_object_texts())
    vertices = draw(st.lists(st.sampled_from(["va", "vb", "vc", "vd"]), max_size=4,
                             unique=True))
    edges = draw(st.lists(_edge_object_texts(), max_size=4))
    members = draw(st.permutations([
        ("name", '"g"'), ("vertices", json.dumps(vertices)),
        ("edges", "[" + ", ".join(edges) + "]")]))
    return "{" + ", ".join(f'"{key}": {value}' for key, value in members) + "}"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_loader_texts())
def test_load_graph_matches_graph_from_json(tmp_path, text):
    """The loader's edge check is a fast path of `graph_from_json`: the same
    graph or the same message, whatever the keys, their order and values."""
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    try:
        expected = graph_from_json(json.loads(text))
    except GraphError as exc:
        with pytest.raises(GraphError) as excinfo:
            load_graph(path)
        assert type(excinfo.value) is GraphError
        assert str(excinfo.value) == str(exc)
        event("GraphError")
        return
    event("loaded")
    graph = load_graph(path)
    assert graph == expected
    own = {v: v for v in graph.vertices}
    for e in graph.edges:
        assert type(e) is EdgeRecord
        assert e.src is own[e.src] and e.dst is own[e.dst]


# Graph files for the CLI: valid graphs, schema violations, valid text cut
# short, and arbitrary bytes.
_graph_texts = small_multigraphs().map(lambda g: json.dumps(graph_to_json(g)))


def _violate(args):
    text, key, value = args
    obj = json.loads(text)
    if key == "edge" and obj["edges"]:
        obj["edges"][0]["src"] = value
    else:
        obj[key] = value
    return json.dumps(obj)


_graph_files = st.one_of(
    _graph_texts.map(str.encode),
    st.tuples(
        _graph_texts,
        st.sampled_from(["name", "vertices", "edges", "edge", "extra"]),
        json_values,
    ).map(_violate).map(str.encode),
    st.tuples(_graph_texts, st.integers(min_value=0)).map(
        lambda t: t[0][: t[1] % len(t[0])].encode()
    ),
    st.binary(max_size=40),
)


def _number(low, high):
    return st.sampled_from([*map(str, range(low, high + 1)), "x"])


def _cli_arguments(draw, command, graph):
    """Random arguments for one subcommand, within small bounds."""

    def optional(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    if command == "gen":
        return (
            ["--family", draw(st.sampled_from(
                ["loops", "circulant", "complete", "path", "star", "pentagon"]
            )), "--n", draw(_number(-1, 5))]
            + optional("--regularize", _number(-1, 3))
            + optional("--loops", _number(-1, 2))
            + optional("--name", st.text(max_size=3))
        )
    if command in ("info", "check", "pair", "label"):
        return [graph()]
    if command in ("moments", "verify", "compare"):
        graphs = [graph(), graph()] if command == "compare" else [graph()]
        return (
            graphs
            + optional("--max-n", _number(-1, 10))
            + optional("--max-states", _number(0, 300))
        )
    if command == "lattice":
        return (
            ["--N", draw(_number(-1, 3))]
            + optional("--max-n", _number(-1, 10))
            + optional("--method", st.sampled_from(["brute", "recurrence", "closed"]))
            + optional("--max-paths", _number(0, 500))
        )
    if command == "classify":
        return [graph() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    if command == "tree":
        return (
            [graph(), "--root", draw(st.sampled_from(["v1", "v2", "x"]))]
            + optional("--depth", _number(-1, 4))
        )
    assert command == "matrix"
    return (
        [graph()]
        + optional("--depth", _number(-1, 4))
        + optional("--max-states", _number(0, 300))
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_never_raises(tmp_path, data):
    draw = data.draw
    valid, other = tmp_path / "g1.json", tmp_path / "g2.json"
    valid.write_bytes(draw(_graph_texts).encode())
    other.write_bytes(draw(_graph_files))
    # A graph argument may also be a missing file or the directory itself.
    paths = st.sampled_from([valid, valid, other, tmp_path / "missing.json", tmp_path])

    def graph():
        return str(draw(paths))

    command = draw(st.sampled_from([
        "gen", "info", "check", "pair", "label", "moments", "lattice",
        "classify", "compare", "tree", "matrix", "verify",
    ]))
    argv = [command, *_cli_arguments(draw, command, graph)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    if draw(st.booleans()):
        argv += ["--out", str(tmp_path / draw(st.sampled_from(["out.txt", "no/out.txt"])))]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


# Budget fuzz: jobs on larger families with budgets drawn next to what the
# job needs, so that both sides of every budget check are reached.
_BUDGET_GRAPHS = {
    "R3(K8)": lambda: regularize(family("circulant", 8), 3),
    "C4": lambda: family("complete", 4),
    "O5": lambda: family("loops", 5),
    "K3#O2": lambda: iterated_glue_loops(family("circulant", 3), 2),
    "R2(K13)": lambda: regularize(family("circulant", 13), 2),
    "T6_1": lambda: family("star", 6),
    "P9": lambda: family("path", 9),
}
_FRACTAL = ["R3(K8)", "C4", "O5", "K3#O2", "R2(K13)"]


def _unfolded_tree_depth(graph, root, max_nodes):
    """The least depth whose unfolded vertex tree has over `max_nodes` nodes."""
    shadowed = shadow(graph)
    level, count, depth = {root: 1}, 1, 0
    while count <= max_nodes:
        below = {}
        for u, nodes in level.items():
            for a in shadowed.arcs_from(u):
                below[a.target] = below.get(a.target, 0) + nodes
        level, count, depth = below, count + sum(below.values()), depth + 1
    return depth


def _budget_job(draw, tmp_path):
    """Arguments of one job and its budget in the environment (or None)."""

    def graph_file(names):
        name = draw(st.sampled_from(names))
        graph = _BUDGET_GRAPHS[name]()
        path = tmp_path / f"{name}.json"
        save_graph(graph, path)
        return graph, str(path)

    def near(need):
        return max(1, need + draw(st.sampled_from([-2, -1, 0, 1, 2])))

    command = draw(st.sampled_from(
        ["moments", "verify", "compare", "matrix", "lattice", "tree"]))
    if command == "lattice":
        n_bound = draw(st.integers(min_value=1, max_value=3))
        # Lengths whose (2N)^n paths stay within the default budget.
        top = {1: 23, 2: 11, 3: 8}[n_bound]
        max_n = draw(st.integers(min_value=0, max_value=top))
        length = draw(st.integers(min_value=0, max_value=max_n))
        method = draw(st.sampled_from([[], ["--method", "brute"]]))
        budget = near((2 * n_bound) ** length)
        return ["lattice", "--N", str(n_bound), "--max-n", str(max_n), *method,
                "--max-paths", str(budget)], None
    if command == "tree":
        if draw(st.booleans()):
            # A path-shaped tree near the depth the writers can nest.
            star = tmp_path / "T1_1.json"
            save_graph(family("star", 1), star)
            depth = draw(st.integers(min_value=400, max_value=520))
            return ["tree", str(star), "--root", "v1", "--depth", str(depth)], None
        graph, path = graph_file(list(_BUDGET_GRAPHS))
        root = draw(st.sampled_from(graph.vertices))
        first = _unfolded_tree_depth(graph, root, DEFAULT_MAX_TREE_NODES)
        depth = draw(st.sampled_from([first, first + 1, first + 2, 10**6]))
        return ["tree", path, "--root", root, "--depth", str(depth)], None
    if command == "compare":
        (g1, p1), (g2, p2) = graph_file(list(_BUDGET_GRAPHS)), graph_file(
            list(_BUDGET_GRAPHS))
        max_n = draw(st.integers(min_value=1, max_value=12))
        need = max(2 * len(g.edges) for g in (g1, g2)) * (max_n // 2 + 1)
        argv = ["compare", p1, p2, "--max-n", str(max_n)]
    elif command == "matrix":
        graph, path = graph_file(list(_BUDGET_GRAPHS))
        depth = draw(st.integers(min_value=0, max_value=4))
        need = len(enumerate_words(shadow(graph), depth, max_words=10**6))
        argv = ["matrix", path, "--depth", str(depth)]
    else:
        names = _FRACTAL if command == "verify" else list(_BUDGET_GRAPHS)
        graph, path = graph_file(names)
        max_n = draw(st.integers(min_value=1, max_value=16))
        need = 2 * len(graph.edges) * (max_n // 2 + 1)
        argv = [command, path, "--max-n", str(max_n)]
    budget = near(need)
    if draw(st.booleans()):
        return argv + ["--max-states", str(budget)], None
    return argv, str(budget)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_budget_errors_are_clean_reports(tmp_path, data):
    argv, env_budget = _budget_job(data.draw, tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("FRACTALOID_MAX_STATES", None)
        if env_budget is not None:
            os.environ["FRACTALOID_MAX_STATES"] = env_budget
        code = main(argv)
    assert code in (0, 3), (argv, env_budget, out.getvalue()[:500])
    event(f"{argv[0]} exits {code}")
    report = json.loads(out.getvalue())
    if code == 3:
        assert report["error"]["type"] == "LimitError", argv
        assert report["exit_code"] == 3
        assert err.getvalue() == "", argv
    else:
        assert "payload" in report and err.getvalue() == ""


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_budget_errors_stay_within_a_memory_bound(tmp_path, data):
    # A job that exits 3 stops at its budget check, before it builds the
    # over-budget table, tree or level. Building a 500,000-node vertex tree,
    # the most the default node budget admits, peaks near 90 MB; `tree` on
    # `star 1` past the nesting limit exits 3 under 0.5 MB.
    argv, env_budget = _budget_job(data.draw, tmp_path)
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.environ.pop("FRACTALOID_MAX_STATES", None)
        if env_budget is not None:
            os.environ["FRACTALOID_MAX_STATES"] = env_budget
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    event(f"{argv[0]} exits {code}")
    if code == 3:
        assert peak < 8_000_000, (argv, env_budget, peak)
