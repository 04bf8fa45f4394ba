"""Property tests on random small multigraphs: loops, parallel edges and
isolated vertices allowed."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    DisconnectedGraphError,
    NotFractalError,
    fractal_pair,
    radial_moments,
    tree_return_count,
    truncated_radial_matrix,
)

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
