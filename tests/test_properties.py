"""Property tests on random small multigraphs (loops, parallel edges and
isolated vertices allowed), and on the JSON writer of the CLI."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    DisconnectedGraphError,
    NotFractalError,
    ReducedWord,
    axis_path_counts,
    balanced_tuple_classes,
    count_axis_paths_bruteforce,
    fractal_pair,
    radial_moments,
    shadow,
    source_range,
    tree_return_count,
    truncated_radial_matrix,
)
from fractaloid.cli import json_text

# Moments up to order 4 depend on vertex degrees alone; order 6 is the first
# that sees how the arcs of the cover fit together. A closed walk of length n
# stays within distance n / 2 of its start, so a basis of that depth already
# gives the exact power diagonal.
ORDER = 6


@st.composite
def small_multigraphs(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    vertices = tuple(f"v{i}" for i in range(1, size + 1))
    ends = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=5))
    edges = tuple(EdgeRecord(f"e{i}", s, t) for i, (s, t) in enumerate(pairs, 1))
    return DirectedGraph("G", vertices, edges)


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


@pytest.mark.parametrize("n_bound", range(1, 6))
def test_summed_recurrence_matches_multisets_and_bruteforce(n_bound):
    counts = axis_path_counts(n_bound, 14)
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


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_json_writer_matches_stdlib(value):
    expected = json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    assert json_text(value) == expected


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_ascii_json_writer_matches_stdlib(value):
    assert json_text(value, ensure_ascii=True) == json.dumps(value, indent=2) + "\n"
