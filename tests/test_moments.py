import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from fractaloid import (
    count_axis_paths_recurrence,
    LimitError,
    NotFractalError,
    ParameterError,
    TruncatedOperator,
    UnknownVertexError,
    family,
    fractal_pair,
    identically_distributed,
    is_scalar,
    iterated_glue_loops,
    moment_report,
    radial_moment,
    regularize,
    tree_return_count,
    tree_return_counts,
    truncated_radial_matrix,
    verification_report,
    verify_moment_theorem,
)

K3 = family("circulant", 3)
C3 = family("complete", 3)
O1 = family("loops", 1)
O2 = family("loops", 2)
GE = family("star", 1)
T21 = family("star", 2)
R2K3 = regularize(K3, 2)
K3O1 = iterated_glue_loops(K3, 1)

FRACTAL_CORPUS = [O1, O2, family("circulant", 2), K3, C3, R2K3, K3O1]


def test_moment_values_from_hand_enumeration():
    assert radial_moment(K3, 4).per_vertex == {"v1": 6, "v2": 6, "v3": 6}
    assert radial_moment(GE, 2).per_vertex == {"v1": 1, "v2": 1}
    assert radial_moment(T21, 2).per_vertex == {"v1": 2, "v2": 1, "v3": 1}
    assert radial_moment(T21, 4).per_vertex == {"v1": 4, "v2": 2, "v3": 2}


def test_odd_moments_vanish():
    for g in FRACTAL_CORPUS + [GE, T21]:
        for n in (1, 3, 5):
            assert set(radial_moment(g, n).per_vertex.values()) == {0}, g.name


def test_moment_keys_cover_vertices():
    m = radial_moment(C3, 2)
    assert sorted(m.per_vertex) == sorted(C3.vertices)


def test_fractal_moments_match_tree_returns():
    for g in FRACTAL_CORPUS:
        degree = fractal_pair(g).n_zero
        for n in range(1, 9):
            moment = radial_moment(g, n)
            expected = tree_return_count(degree, n)
            assert set(moment.per_vertex.values()) == {expected}, (g.name, n)


def test_degree_one_moments_are_central_binomials():
    for g in (O1, K3, family("circulant", 5)):
        for n in range(1, 11):
            expected = math.comb(n, n // 2) if n % 2 == 0 else 0
            assert is_scalar(radial_moment(g, n)) == expected
            assert count_axis_paths_recurrence(1, n) == expected


def test_tree_return_values():
    assert tree_return_count(1, 4) == 6
    assert tree_return_count(2, 2) == 4
    assert tree_return_count(2, 4) == 28
    assert tree_return_count(2, 6) == 232
    assert tree_return_count(2, 8) == 2092
    assert tree_return_count(7, 0) == 1
    assert tree_return_count(3, 5) == 0


def _mckay_closed_walks(degree: int, length: int) -> int:
    """Closed walks of `length` at a vertex of the infinite `degree`-regular
    tree, by McKay's closed form (Kesten's return probabilities):
    W(2k) = sum_{j=1..k} j / (2k - j) * C(2k - j, k) * d^j * (d - 1)^(k - j)."""
    if length % 2:
        return 0
    k = length // 2
    if k == 0:
        return 1
    total = sum(
        Fraction(j, 2 * k - j) * math.comb(2 * k - j, k)
        * degree**j * (degree - 1) ** (k - j)
        for j in range(1, k + 1)
    )
    assert total.denominator == 1
    return total.numerator


@pytest.mark.parametrize("n_bound", range(1, 5))
def test_tree_return_counts_match_each_length_and_mckay(n_bound):
    table = tree_return_counts(n_bound, 120)
    assert len(table) == 121
    assert table == [tree_return_count(n_bound, n) for n in range(121)]
    assert table == [_mckay_closed_walks(2 * n_bound, n) for n in range(121)]
    assert tree_return_counts(n_bound, 0) == [1]


@pytest.mark.parametrize("call", [tree_return_count, tree_return_counts],
                         ids=["tree_return_count", "tree_return_counts"])
def test_tree_return_parameter_messages(call):
    with pytest.raises(ParameterError, match=r"^tree degree bound must be >= 1, got 0$"):
        call(0, 2)
    with pytest.raises(ParameterError, match=r"^walk length must be >= 0, got -1$"):
        call(2, -1)


def test_moment_parameter_checks():
    with pytest.raises(ParameterError):
        radial_moment(K3, 0)
    with pytest.raises(ParameterError):
        tree_return_count(0, 2)


def test_moment_state_budget():
    with pytest.raises(LimitError):
        radial_moment(O2, 6, max_states=10)


def test_is_scalar():
    assert is_scalar(radial_moment(K3, 4)) == 6
    assert is_scalar(radial_moment(T21, 2)) is None
    assert is_scalar(radial_moment(O2, 4)) == 28


def test_identically_distributed_same_class():
    assert identically_distributed(R2K3, C3, 6)
    assert identically_distributed(R2K3, K3O1, 6)
    assert identically_distributed(O2, O2, 6)


def test_identically_distributed_discriminates():
    assert not identically_distributed(K3, GE, 4)  # n=2: 2 vs 1
    assert not identically_distributed(O2, C3, 4)  # vertex counts differ
    assert not identically_distributed(K3, C3, 4)  # degrees differ


def test_identically_distributed_non_scalar_reflexive():
    assert identically_distributed(T21, T21, 4)


def test_truncated_matrix_is_symmetric():
    for g in (O1, O2, T21, C3):
        assert truncated_radial_matrix(g, 2).is_symmetric(), g.name


def test_truncated_matrix_diagonal_matches_walk_dp():
    for g in (O2, R2K3, C3, K3O1, T21):
        op = truncated_radial_matrix(g, 6)
        for n in range(1, 7):
            per_vertex = radial_moment(g, n).per_vertex
            for v in g.vertices:
                assert op.power_diagonal(v, n) == per_vertex[v], (g.name, v, n)


def test_truncated_matrix_exact_window_is_tight():
    # With the basis cut at the walk length the diagonal is still exact,
    # one level below it undercounts.
    exact = truncated_radial_matrix(O2, 4)
    assert exact.power_diagonal("v1", 4) == 28
    clipped = truncated_radial_matrix(O2, 1)
    assert clipped.power_diagonal("v1", 4) < 28


def test_power_diagonal_unknown_vertex():
    op = truncated_radial_matrix(T21, 2)
    with pytest.raises(UnknownVertexError) as excinfo:
        op.power_diagonal("x", 2)
    assert str(excinfo.value) == f"vertex 'x' not in graph {T21.name!r}"


def _dense_power_diagonal(op, v, n):
    # The n-th power applied to the unit of v by dense products, from scratch.
    size = len(op.basis)
    matrix = [[op.columns[col].get(row, 0) for col in range(size)]
              for row in range(size)]
    start = op.graph.vertices.index(v)
    vec = [int(i == start) for i in range(size)]
    for _ in range(n):
        vec = [sum(a * b for a, b in zip(line, vec)) for line in matrix]
    return vec[start]


def test_power_diagonals_list_every_power():
    for g in (O1, O2, GE, T21, K3, C3, K3O1, family("path", 3)):
        op = truncated_radial_matrix(g, 2)
        for v in g.vertices:
            diagonals = op.power_diagonals(v, 9)
            assert diagonals == [op.power_diagonal(v, n) for n in range(10)]
            assert diagonals == [_dense_power_diagonal(op, v, n)
                                 for n in range(10)], (g.name, v)


def test_power_diagonals_errors():
    op = truncated_radial_matrix(T21, 2)
    for read in (op.power_diagonal, op.power_diagonals):
        with pytest.raises(UnknownVertexError) as excinfo:
            read("x", 2)
        assert str(excinfo.value) == f"vertex 'x' not in graph {T21.name!r}"
        with pytest.raises(ParameterError) as excinfo:
            read("v1", -1)
        assert str(excinfo.value) == "power must be >= 0, got -1"


def test_power_diagonals_find_each_unit_in_constant_time():
    # `matrix` reads the diagonals of every vertex. Found by a scan of the
    # vertex tuple, the units of circulant 40000 took about 12 s in all;
    # found by a dict lookup, about 20 ms.
    graph = family("circulant", 40_000)
    op = truncated_radial_matrix(graph, 0)
    start = time.perf_counter()
    diagonals = [op.power_diagonals(v, 0) for v in graph.vertices]
    assert time.perf_counter() - start < 2
    assert diagonals == [[1]] * 40_000


def test_matrix_keeps_positions_not_words():
    # Circulant 3 at depth 1000 has 6003 basis words on one line each. With
    # every word's letter tuple the operator kept 26.4 MB, with a column dict
    # per word 1.7 MB; keeping the parent positions, it keeps about 0.24 MB.
    # The basis and the columns are built only when read.
    tracemalloc.start()
    try:
        op = truncated_radial_matrix(K3, 1000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "basis" not in vars(op) and "columns" not in vars(op)
    assert op.size == 6003
    assert kept < 1_000_000


def test_matrix_walk_keeps_the_word_tree_alone():
    # R3(K2) at depth 5 has 9374 basis words. With one column dict per word,
    # the operator, its diagonals and the symmetry check peaked at 3.2 MB in
    # tracemalloc; walking the parent positions, at about 0.4 MB.
    graph = regularize(family("circulant", 2), 3)
    tracemalloc.start()
    try:
        op = truncated_radial_matrix(graph, 5)
        diagonals = [op.power_diagonals(v, 5) for v in graph.vertices]
        symmetric = op.is_symmetric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.size == 9374 and symmetric
    assert diagonals == [tree_return_counts(3, 5)] * 2
    assert peak < 1_000_000
    assert "columns" not in vars(op) and "basis" not in vars(op)


def test_children_split_into_two_runs_are_not_symmetric():
    # The walk reads the children of a path word as one run of positions.
    # Moving a child of word 1 past one of word 2 splits that run in two, so
    # the walked operator is no longer the transpose of `parents`.
    op = truncated_radial_matrix(O2, 2)
    assert op.parents[4:10] == [1, 1, 1, 2, 2, 2] and op.is_symmetric()
    parents = list(op.parents)
    parents[6], parents[7] = parents[7], parents[6]
    split = TruncatedOperator(O2, 2, parents)
    assert not split.is_symmetric()
    # The columns, built from `parents` alone, are symmetric all the same.
    assert all(split.columns[row][col] == 1
               for col, column in enumerate(split.columns) for row in column)


def test_basis_positions():
    op = truncated_radial_matrix(T21, 3)
    # The vertex units lead the basis in declaration order.
    assert [w.vertex for w in op.basis[:3]] == list(T21.vertices)
    assert [op.index[w] for w in op.basis] == list(range(len(op.basis)))


def test_truncated_operator_is_frozen():
    op = truncated_radial_matrix(O1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.depth = 3


def test_truncated_matrix_row_sums_interior():
    op = truncated_radial_matrix(O1, 3)
    # Entries of the radial matrix at any interior word column sum to the
    # shadow degree 2N = 2; boundary words lose their outward transitions.
    interior = [w for w in op.basis if len(w.letters) < 3]
    for word in interior:
        col = op.columns[op.index[word]]
        assert sum(col.values()) == 2


def test_verify_moment_theorem_flags_divergence():
    report = verify_moment_theorem(O2, 4)
    last = report.rows[-1]
    assert (last.walk, last.tree, last.lattice) == (28, 28, 36)
    assert last.a_eq_b and not last.a_eq_c and not last.b_eq_c


def test_verify_moment_theorem_degree_one_all_agree():
    report = verify_moment_theorem(K3, 8)
    assert all(row.a_eq_b and row.a_eq_c and row.b_eq_c for row in report.rows)
    assert [row.walk for row in report.rows if row.n % 2 == 0] == [2, 6, 20, 70]


def test_verify_moment_theorem_odd_rows_vanish():
    report = verify_moment_theorem(O1, 3)
    assert all(
        row.walk == row.tree == row.lattice == 0
        for row in report.rows
        if row.n % 2 == 1
    )


def test_verify_moment_theorem_rejects_non_fractal():
    with pytest.raises(NotFractalError):
        verify_moment_theorem(T21, 4)


def test_report_serialization_uses_decimal_strings():
    entry = moment_report(K3, radial_moment(K3, 4))
    assert entry["per_vertex"]["v1"] == "6"
    assert entry["scalar"] == "6"
    entry = moment_report(T21, radial_moment(T21, 2))
    assert entry["scalar"] is None

    report = verification_report(verify_moment_theorem(O2, 4))
    assert report["rows"][3]["walk"] == "28"
    assert report["rows"][3]["lattice"] == "36"
    assert report["rows"][3]["a_eq_c"] is False
