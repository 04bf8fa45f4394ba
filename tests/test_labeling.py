import random
import re

import pytest

from fractaloid import (
    DirectedGraph,
    EdgeRecord,
    GraphError,
    ParameterError,
    SignedEdge,
    automaton_step,
    build_graph_automaton,
    canonical_labeling,
    family,
    has_axis_property,
    label_walk,
    labeling_dump,
    regularize,
    shadow,
    vertex_word,
    reduce_word,
)

K3 = family("circulant", 3)
C3 = family("complete", 3)
O2 = family("loops", 2)
T21 = family("star", 2)


def arc(graph, edge_id, inverted=False):
    (edge,) = [e for e in graph.edges if e.id == edge_id]
    return SignedEdge(edge, inverted)


def test_labels_on_cycle_are_all_one():
    lab = canonical_labeling(K3)
    assert lab.degree_bound == 1
    assert set(lab.assignment.values()) == {1}
    assert lab.label_of(arc(K3, "e1", True)) == -1


def test_labels_on_double_loop():
    lab = canonical_labeling(O2)
    assert sorted(lab.assignment.values()) == [1, 2]


def test_labels_on_complete_graph_form_matchings():
    lab = canonical_labeling(C3)
    assert lab.degree_bound == 2
    for v in C3.vertices:
        out_labels = sorted(lab.assignment[e.id] for e in C3.out_edges(v))
        in_labels = sorted(lab.assignment[e.id] for e in C3.in_edges(v))
        assert out_labels == [1, 2]
        assert in_labels == [1, 2]


def test_fractal_labels_cover_full_signed_range():
    for g in (K3, C3, O2, regularize(K3, 3)):
        lab = canonical_labeling(g)
        shadowed = shadow(g)
        full = set(range(1, lab.degree_bound + 1)) | set(
            range(-1, -lab.degree_bound - 1, -1)
        )
        for v in g.vertices:
            seen = [lab.label_of(a) for a in shadowed.arcs_from(v)]
            assert sorted(seen) == sorted(full), (g.name, v)


def test_non_fractal_labels_distinct_per_source():
    lab = canonical_labeling(T21)
    labels = [lab.assignment[e.id] for e in T21.out_edges("v1")]
    assert sorted(labels) == [1, 2]


def test_labeling_is_deterministic():
    assert canonical_labeling(C3) == canonical_labeling(C3)


def test_label_walk_loop_round_trip():
    o1 = family("loops", 1)
    lab = canonical_labeling(o1)
    path = label_walk(lab, [arc(o1, "e1"), arc(o1, "e1", True)])
    assert path.steps == (1, -1)
    assert has_axis_property(path)


def test_label_walk_empty():
    lab = canonical_labeling(K3)
    assert label_walk(lab, []).steps == ()


def test_label_walk_rejects_inadmissible():
    lab = canonical_labeling(K3)
    with pytest.raises(GraphError):
        label_walk(lab, [arc(K3, "e1"), arc(K3, "e3")])


def test_label_walk_reports_the_first_fault_from_the_left():
    lab = canonical_labeling(K3)
    foreign = SignedEdge(EdgeRecord("zz", "v1", "v1"))
    inadmissible = re.escape("walk is inadmissible at 'e1'.'e3'")
    with pytest.raises(GraphError, match=inadmissible):
        label_walk(lab, [arc(K3, "e1"), arc(K3, "e3"), foreign])
    not_in_graph = re.escape("arc 'zz' does not belong to graph 'K3'")
    with pytest.raises(GraphError, match=not_in_graph):
        label_walk(lab, [foreign, arc(K3, "e1")])


def test_fully_cancelling_walks_are_balanced():
    lab = canonical_labeling(C3)
    shadowed = shadow(C3)
    for v in C3.vertices:
        stack = [(v, [])]
        walks = []
        while stack:
            at, acc = stack.pop()
            if len(acc) == 4:
                walks.append(acc)
                continue
            for a in shadowed.arcs_from(at):
                stack.append((a.target, acc + [a]))
        for walk in walks:
            if reduce_word(C3, walk) == vertex_word(C3, v):
                assert has_axis_property(label_walk(lab, walk)), [
                    a.token for a in walk
                ]


def test_automaton_sink_rules():
    auto = build_graph_automaton(K3)
    state = auto.states[0]
    assert automaton_step(auto, None, state) == (None, None)
    assert automaton_step(auto, 1, None) == (None, None)
    assert automaton_step(auto, None, None) == (None, None)


def test_automaton_follows_unique_continuation():
    auto = build_graph_automaton(K3)
    out, state = automaton_step(auto, 1, arc(K3, "e1"))
    assert out == 1
    assert state == arc(K3, "e2")
    # Continuing backward from e1 means undoing it: label -1 selects e1~.
    out, state = automaton_step(auto, -1, arc(K3, "e1"))
    assert (out, state) == (-1, arc(K3, "e1", True))


def test_automaton_total_on_fractal_graphs():
    for g in (K3, C3, O2):
        auto = build_graph_automaton(g)
        for state in auto.states:
            for label in auto.alphabet:
                out, nxt = automaton_step(auto, label, state)
                assert out == label and nxt is not None, (g.name, label, state.token)


def test_automaton_dead_label_goes_to_sink():
    # At a leaf of the fork, only the arc back toward the root continues.
    auto = build_graph_automaton(T21)
    lab = auto.labeling
    state = arc(T21, "e1")  # ends at leaf v2; the only continuation is e1~
    back_label = -lab.assignment["e1"]
    assert automaton_step(auto, back_label, state) == (back_label, arc(T21, "e1", True))
    dead = [l for l in auto.alphabet if l != back_label]
    for label in dead:
        assert automaton_step(auto, label, state) == (None, None)


def test_automaton_label_outside_alphabet():
    auto = build_graph_automaton(K3)
    with pytest.raises(ParameterError):
        automaton_step(auto, 5, auto.states[0])


def test_labeling_dump_shape():
    dump = labeling_dump(canonical_labeling(O2))
    assert dump == {"N": 2, "labels": {"e1": 1, "e2": 2}}


def test_matching_survives_long_augmenting_paths():
    # Three random permutations of 3000 vertices: augmenting paths grow far
    # past Python's recursion limit.
    rng = random.Random(2009)
    vertices = tuple(f"v{i}" for i in range(3000))
    pairs = []
    for _ in range(3):
        targets = list(vertices)
        rng.shuffle(targets)
        pairs.extend(zip(vertices, targets))
    rng.shuffle(pairs)
    graph = DirectedGraph(
        "RG3_3000",
        vertices,
        tuple(EdgeRecord(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)),
    )
    lab = canonical_labeling(graph)
    assert lab.degree_bound == 3
    for v in vertices:
        in_labels = sorted(lab.assignment[e.id] for e in graph.in_edges(v))
        assert in_labels == [1, 2, 3], v
