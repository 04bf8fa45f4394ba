import dataclasses
import itertools
import random
from collections import Counter

import pytest

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    LimitError,
    family,
    graph_isomorphic,
    iterated_glue_loops,
    regularize,
    shadow,
)


def _apply_witness(g1, g2, match):
    # A valid witness maps every edge to an edge with mapped endpoints.
    assert sorted(match.vertex_map) == sorted(g1.vertices)
    assert sorted(match.vertex_map.values()) == sorted(g2.vertices)
    assert sorted(match.edge_map) == sorted(e.id for e in g1.edges)
    assert sorted(match.edge_map.values()) == sorted(e.id for e in g2.edges)
    targets = {e.id: e for e in g2.edges}
    for e in g1.edges:
        image = targets[match.edge_map[e.id]]
        assert image.src == match.vertex_map[e.src]
        assert image.dst == match.vertex_map[e.dst]


def test_identity_witness():
    g = family("complete", 3)
    match = graph_isomorphic(g, g)
    assert match is not None
    _apply_witness(g, g, match)


def test_graph_match_is_frozen():
    g = family("circulant", 3)
    match = graph_isomorphic(g, g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        match.vertex_map = {}


def test_doubled_cycle_vs_complete_not_isomorphic():
    # Same degree sequence and size, different parallel-edge structure.
    r2k3 = regularize(family("circulant", 3), 2)
    c3 = family("complete", 3)
    assert graph_isomorphic(r2k3, c3) is None


def test_shadowed_graphs_of_same_class_not_isomorphic():
    # One has loops after shadowing, the other does not.
    g1 = shadow(regularize(family("circulant", 3), 2)).as_graph()
    g2 = shadow(iterated_glue_loops(family("circulant", 3), 1)).as_graph()
    assert graph_isomorphic(g1, g2) is None


def test_relabeled_graph_found():
    g1 = family("complete", 4)
    renames = {f"v{i}": f"w{5 - i}" for i in range(1, 5)}
    g2 = DirectedGraph(
        "relabeled",
        tuple(renames[v] for v in g1.vertices),
        tuple(
            EdgeRecord(f"x{i}", renames[e.src], renames[e.dst])
            for i, e in enumerate(g1.edges)
        ),
    )
    match = graph_isomorphic(g1, g2)
    assert match is not None
    _apply_witness(g1, g2, match)


def test_loop_count_discriminates():
    g1 = family("loops", 2)
    g2 = DirectedGraph(
        "pseudo",
        ("a",),
        (EdgeRecord("e1", "a", "a"), EdgeRecord("e2", "a", "a")),
    )
    assert graph_isomorphic(g1, g2) is not None
    g3 = iterated_glue_loops(family("circulant", 2), 1)
    assert graph_isomorphic(g1, g3) is None


def test_random_permutations_reflexive_and_symmetric():
    rng = random.Random(7)
    for trial in range(25):
        n_vertices = rng.randint(1, 5)
        vertices = tuple(f"v{i}" for i in range(n_vertices))
        edges = tuple(
            EdgeRecord(
                f"e{j}", rng.choice(vertices), rng.choice(vertices)
            )
            for j in range(rng.randint(0, 7))
        )
        g = DirectedGraph(f"rand{trial}", vertices, edges)
        assert graph_isomorphic(g, g) is not None

        perm = list(vertices)
        rng.shuffle(perm)
        rename = dict(zip(vertices, perm))
        shuffled_edges = list(edges)
        rng.shuffle(shuffled_edges)
        h = DirectedGraph(
            "perm",
            tuple(sorted(perm)),
            tuple(
                EdgeRecord(f"f{j}", rename[e.src], rename[e.dst])
                for j, e in enumerate(shuffled_edges)
            ),
        )
        forward = graph_isomorphic(g, h)
        backward = graph_isomorphic(h, g)
        assert forward is not None and backward is not None
        _apply_witness(g, h, forward)
        _apply_witness(h, g, backward)


def test_size_mismatch_fast_reject():
    assert graph_isomorphic(family("circulant", 3), family("circulant", 4)) is None
    assert graph_isomorphic(family("loops", 1), family("loops", 2)) is None


def test_vertex_limit():
    with pytest.raises(LimitError):
        graph_isomorphic(family("path", 13), family("path", 13))
    assert graph_isomorphic(
        family("path", 13), family("path", 13), max_vertices=13
    )


def test_search_node_limit():
    g = family("complete", 6)
    with pytest.raises(LimitError):
        graph_isomorphic(g, g, max_search_nodes=2)


def _brute_force_isomorphic(g1, g2):
    # Some vertex bijection maps g1's (src, dst) multiset onto g2's.
    if len(g1.vertices) != len(g2.vertices):
        return False
    target = Counter((e.src, e.dst) for e in g2.edges)
    for image in itertools.permutations(g2.vertices):
        rename = dict(zip(g1.vertices, image))
        if Counter((rename[e.src], rename[e.dst]) for e in g1.edges) == target:
            return True
    return False


def _random_multigraph(rng, name, vertices, n_edges):
    # Endpoints drawn from a few pairs, so loops and parallel edges are common.
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(3)]
    return DirectedGraph(name, vertices, tuple(
        EdgeRecord(f"e{j}", *rng.choice(pairs + [(rng.choice(vertices),
                                                   rng.choice(vertices))]))
        for j in range(n_edges)
    ))


def test_random_pairs_match_brute_force_oracle():
    rng = random.Random(2009)
    for trial in range(400):
        vertices = tuple(f"v{i}" for i in range(rng.randint(1, 5)))
        g1 = _random_multigraph(rng, "g1", vertices, rng.randint(0, 8))
        if trial % 2:
            g2 = _random_multigraph(rng, "g2", vertices, len(g1.edges))
        else:
            perm = list(vertices)
            rng.shuffle(perm)
            rename = dict(zip(vertices, perm))
            edges = [EdgeRecord(f"f{j}", rename[e.src], rename[e.dst])
                     for j, e in enumerate(g1.edges)]
            rng.shuffle(edges)
            if edges and trial % 4 == 2:
                # Move one edge to a random pair of endpoints.
                j = rng.randrange(len(edges))
                edges[j] = EdgeRecord(edges[j].id, rng.choice(vertices),
                                      rng.choice(vertices))
            g2 = DirectedGraph("g2", tuple(perm), tuple(edges))
        match = graph_isomorphic(g1, g2)
        assert (match is not None) == _brute_force_isomorphic(g1, g2), trial
        if match is not None:
            _apply_witness(g1, g2, match)
