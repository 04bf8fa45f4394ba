"""Diagonal moments of the radial operator (the sum of right multiplications
by all shadowed arcs), computed three ways: a first-return recurrence on the
universal cover, a truncated matrix realization on a reduced-word basis, and
a return-count DP on the 2N-regular tree that serves as the independent
oracle for fractal graphs.

The moment of order n at a vertex v counts the n-tuples of shadowed arcs
whose groupoid product reduces to the unit at v. Operator composition
reverses the groupoid product, but reversal permutes tuples bijectively, so
one left-to-right count is canonical.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import FractaloidError, Frozen, LimitError, ParameterError
from .fractality import fractal_pair
from .graphs import DirectedGraph, shadow
from .lattice import axis_path_counts
from .words import ReducedWord, enumerate_words, word_tree

DEFAULT_MAX_STATES = 1_000_000


class MomentVector(NamedTuple):
    """Per-vertex moment counts of one order; keys are exactly the vertex
    set of the originating graph."""

    n: int
    per_vertex: dict[str, int]


def _check_table_size(graph: DirectedGraph, n_max: int, max_states: int) -> None:
    """Raise LimitError when `graph`'s moment table exceeds `max_states`."""
    arcs, orders = 2 * len(graph.edges), n_max // 2 + 1
    if arcs * orders > max_states:
        raise LimitError(
            f"moment table for {graph.name!r} needs {arcs} arcs x "
            f"{orders} orders, over the {max_states}-coefficient budget"
        )


def radial_moments(
    graph: DirectedGraph, n_max: int, *, max_states: int = DEFAULT_MAX_STATES
) -> list[MomentVector]:
    """Moments of orders 1..n_max at every vertex, by first returns.

    A walk whose letters cancel completely is a closed walk at the root of
    the universal cover (the vertex tree). Splitting it at its returns to the
    root gives, per shadowed arc a with reverse arc ~a, power series in z:

        X_a = z^2 R_a                   excursions leaving by a, back by ~a
        R_a = 1 / (1 - sum X_b)         b leaves target(a), b != ~a
        M_v = 1 / (1 - sum X_b)         b leaves v

    and the order-n moment at v is the z^n coefficient of M_v; odd orders
    vanish. The coefficient table has one row per arc and one column per
    even order up to n_max; `max_states` bounds its size.
    """
    if n_max < 1:
        raise ParameterError(f"moment order must be >= 1, got {n_max}")
    _check_table_size(graph, n_max, max_states)
    shadowed = shadow(graph)
    # Coefficients of w^k, w = z^2: r[a][k] of R_a for the arc at position a,
    # t[u][k] of the sum of X_b over the arcs b leaving u, series[v][k] of M_v.
    # Each row of r is paired once with the rows it reads: its target's t and
    # its reverse arc's r.
    r = [[1] for _ in shadowed.arcs]
    t = {v: [0] for v in graph.vertices}
    series = {v: [1] for v in graph.vertices}
    rows = [(ra, t[arc.target], r[back])
            for ra, arc, back in zip(r, shadowed.arcs, shadowed.reverse)]
    for k in range(1, n_max // 2 + 1):
        for v, out in shadowed.leaving.items():
            t[v].append(sum(r[a][k - 1] for a in out))
        for ra, ta, back in rows:
            ra.append(sum((ta[j] - back[j - 1]) * ra[k - j] for j in range(1, k + 1)))
        for v, mv in series.items():
            mv.append(sum(t[v][j] * mv[k - j] for j in range(1, k + 1)))
    return [
        MomentVector(n, {v: 0 if n % 2 else mv[n // 2] for v, mv in series.items()})
        for n in range(1, n_max + 1)
    ]


def radial_moment(
    graph: DirectedGraph, n: int, *, max_states: int = DEFAULT_MAX_STATES
) -> MomentVector:
    """The order-n moment alone (see `radial_moments`)."""
    return radial_moments(graph, n, max_states=max_states)[-1]


def tree_return_counts(n_bound: int, max_length: int) -> list[int]:
    """Closed walks at the root of the 2N-regular shadow tree, for every
    length 0..max_length.

    One pass of a distance-from-root DP, `counts[d]` walks ending at depth d:
    depth 0 offers 2N outward moves; any deeper node offers 2N - 1 outward
    moves and one move back toward the root.
    """
    if n_bound < 1:
        raise ParameterError(f"tree degree bound must be >= 1, got {n_bound}")
    if max_length < 0:
        raise ParameterError(f"walk length must be >= 0, got {max_length}")
    out_root = 2 * n_bound
    counts, returns = [1], [1]
    for _ in range(max_length):
        nxt = [0] * (len(counts) + 1)
        nxt[1] = out_root * counts[0]
        for depth in range(1, len(counts)):
            nxt[depth + 1] += (out_root - 1) * counts[depth]
            nxt[depth - 1] += counts[depth]
        counts = nxt
        returns.append(counts[0])
    return returns


def tree_return_count(n_bound: int, length: int) -> int:
    """Closed walks of one length at the root of the 2N-regular shadow tree
    (see `tree_return_counts`)."""
    return tree_return_counts(n_bound, length)[length]


def is_scalar(moment: MomentVector) -> int | None:
    """The common per-vertex value if the moment is scalar, else None."""
    values = set(moment.per_vertex.values())
    if len(values) == 1:
        return values.pop()
    return None


def identically_distributed(
    g1: DirectedGraph,
    g2: DirectedGraph,
    n_max: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Whether the radial operators agree in distribution up to order n_max
    over a common diagonal algebra.

    Requires equal vertex counts. The two diagonals are identified only up to
    a permutation of vertex projections, so the test asks for one vertex
    bijection that matches the moments of every order 1..n_max: the sorted
    lists of per-vertex moment tuples must be equal.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if len(g1.vertices) != len(g2.vertices):
        return False
    for graph in (g1, g2):
        _check_table_size(graph, n_max, max_states)

    def profile(graph: DirectedGraph) -> list[tuple[int, ...]]:
        moments = radial_moments(graph, n_max, max_states=max_states)
        return sorted(zip(*(m.per_vertex.values() for m in moments)))

    return profile(g1) == profile(g2)


class TruncatedOperator(Frozen):
    """The radial operator restricted to the reduced words of length <= depth
    (vertex units included). A closed walk of length n stays within n / 2 of
    its start, so power diagonals are exact for exponents <= 2 * depth + 1.

    The operator is the adjacency of the word tree of `words.word_tree`
    (right multiplication by an arc cancels a word's last letter or appends
    the arc): the first |V| positions are the vertex units in declaration
    order, and `parents[i]` is the position of path word |V| + i without its
    last letter. `columns`, `basis` (the words of `enumerate_words`) and
    `index` (each word's position) are built only when read."""

    _fields = ("graph", "depth", "parents")
    # The instance dict holds what `cached_property` computes.
    __slots__ = _fields + ("__dict__",)

    def __init__(self, graph: DirectedGraph, depth: int, parents: list[int]) -> None:
        self._set(graph=graph, depth=depth, parents=parents)

    @property
    def size(self) -> int:
        return len(self.graph.vertices) + len(self.parents)

    @cached_property
    def basis(self) -> list[ReducedWord]:
        # A budget of exactly the basis size: reading never fails.
        return enumerate_words(shadow(self.graph), self.depth, max_words=self.size)

    @cached_property
    def index(self) -> dict[ReducedWord, int]:
        return {word: i for i, word in enumerate(self.basis)}

    @cached_property
    def columns(self) -> list[dict[int, int]]:
        columns: list[dict[int, int]] = [dict() for _ in range(self.size)]
        for col, parent in enumerate(self.parents, len(self.graph.vertices)):
            columns[col][parent] = columns[parent][col] = 1
        return columns

    @cached_property
    def _unit_positions(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.graph.vertices)}

    @cached_property
    def _children(self) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
        # One pass: each unit's children; the children of path word |V| + i,
        # one run from firsts[i] to firsts[i + 1] as `word_tree` appends them;
        # levels[d], the first position of the words of d letters.
        shift = len(self.graph.vertices)
        units: list[list[int]] = [[] for _ in range(shift)]
        firsts, levels, pending = [self.size] * (len(self.parents) + 1), [0, shift], 0
        for child, parent in enumerate(self.parents, shift):
            if parent < shift:
                units[parent].append(child)
                continue
            if parent >= levels[-1]:
                levels.append(child)
            while pending <= parent - shift:
                firsts[pending] = child
                pending += 1
        return [tuple(children) for children in units], firsts, levels

    def is_symmetric(self) -> bool:
        """Whether the walk's runs of children are `parents` read downward:
        words under units first, then the rest in their parents' order."""
        units = self._children[0]
        rest = self.parents[sum(map(len, units)):]
        return rest == sorted(rest) and min(rest, default=len(units)) >= len(units)

    def power_diagonal(self, v: str, n: int) -> int:
        """Diagonal entry of the n-th power at the unit word of `v`."""
        return self.power_diagonals(v, n)[n]

    def power_diagonals(self, v: str, n_max: int) -> list[int]:
        """Diagonal entries of the powers 0..n_max at the unit word of `v`,
        read off one walk from the unit, which skips every word longer than
        the steps left: from there it cannot come back."""
        if n_max < 0:
            raise ParameterError(f"power must be >= 0, got {n_max}")
        self.graph.require_vertex(v)
        start = self._unit_positions[v]
        units, firsts, levels = self._children
        shift, parents = len(units), self.parents
        vec, diagonals = {start: 1}, [1]
        for left in reversed(range(n_max)):
            # Only words shorter than `left` letters (below `grows`) have
            # children that can still come back; the last level has none.
            grows = levels[min(left, len(levels) - 1)]
            nxt: dict[int, int] = {}
            for pos, value in vec.items():
                if pos < shift:
                    children = units[pos]
                else:
                    parent = parents[pos - shift]
                    nxt[parent] = nxt.get(parent, 0) + value
                    children = range(firsts[pos - shift], firsts[pos - shift + 1])
                if pos < grows:
                    for child in children:
                        nxt[child] = nxt.get(child, 0) + value
            vec = nxt
            diagonals.append(vec.get(start, 0))
        return diagonals


def truncated_radial_matrix(
    graph: DirectedGraph, depth: int, *, max_words: int = DEFAULT_MAX_STATES
) -> TruncatedOperator:
    """Assemble the truncated radial operator on the length-bounded basis."""
    parents, _ = word_tree(shadow(graph), depth, max_words)
    return TruncatedOperator(graph, depth, parents)


class MomentComparisonRow(NamedTuple):
    """One order of the three-way comparison: first-return moment (`walk`),
    2N-regular tree return count, and axis-path count."""

    n: int
    walk: int
    tree: int
    lattice: int

    @property
    def a_eq_b(self) -> bool:
        return self.walk == self.tree

    @property
    def a_eq_c(self) -> bool:
        return self.walk == self.lattice

    @property
    def b_eq_c(self) -> bool:
        return self.tree == self.lattice


class MomentComparisonReport(NamedTuple):
    graph_name: str
    degree: int
    rows: list[MomentComparisonRow]


def verify_moment_theorem(
    graph: DirectedGraph, n_max: int, *, max_states: int = DEFAULT_MAX_STATES
) -> MomentComparisonReport:
    """Tabulate walk, tree, and lattice counts for a fractal graph.

    The report never asserts: the walk and tree columns agree for every
    fractal graph, but the lattice column is known to exceed them at even
    orders >= 4 once the degree is at least 2 (36 vs 28 already at degree 2,
    order 4). Callers decide which equalities to require.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    pair = fractal_pair(graph)
    # The budget is checked before the unbudgeted lattice column is built.
    moments = radial_moments(graph, n_max, max_states=max_states)
    lattice = axis_path_counts(pair.n_zero, n_max)
    tree = tree_return_counts(pair.n_zero, n_max)
    rows = []
    for moment in moments:
        scalar = is_scalar(moment)
        if scalar is None:
            raise FractaloidError(
                f"moment of fractal graph {graph.name!r} is unexpectedly non-scalar"
            )
        rows.append(MomentComparisonRow(moment.n, scalar, tree[moment.n],
                                        lattice[moment.n]))
    return MomentComparisonReport(graph.name, pair.n_zero, rows)


def moment_report(graph: DirectedGraph, moment: MomentVector) -> dict:
    scalar = is_scalar(moment)
    return {
        "graph": graph.name,
        "n": moment.n,
        "per_vertex": {v: str(c) for v, c in moment.per_vertex.items()},
        "scalar": None if scalar is None else str(scalar),
    }


def verification_report(report: MomentComparisonReport) -> dict:
    return {
        "graph": report.graph_name,
        "N": report.degree,
        "rows": [
            {
                "n": row.n,
                "walk": str(row.walk),
                "tree": str(row.tree),
                "lattice": str(row.lattice),
                "a_eq_b": row.a_eq_b,
                "a_eq_c": row.a_eq_c,
                "b_eq_c": row.b_eq_c,
            }
            for row in report.rows
        ],
    }
