"""Reduced-word arithmetic of the graph groupoid.

The elements are: the absorbing empty word, one unit word per vertex, and
admissible arc paths in the shadowed graph with no adjacent mutually-inverse
pair. Products are partial: composing words whose range and source disagree
yields the empty word, and cancellation at the junction can only shorten a
product, never kill it.

`_cancels` holds the one cancellation rule; word validation, `multiply` and
the stack of `reduce_word` use it. `word_tree` lays the word basis out as
integer positions from the shadow's arc table instead: a word never continues
by its last letter's reverse (`ShadowedGraph.reverse`).
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .errors import Frozen, GraphError, LimitError, ParameterError
from .graphs import DirectedGraph, EdgeRecord, ShadowedGraph, SignedEdge

DEFAULT_MAX_WORDS = 1_000_000


class ReducedWord(Frozen):
    """A reduced element of the graph groupoid.

    Exactly one of three shapes: empty (vertex is None, no letters), a vertex
    unit, or a nonempty reduced arc path. Equality and hashing are structural
    on the shape and letter sequence; the graph reference is carried only to
    reject cross-graph products.
    """

    __slots__ = _fields = ("graph", "vertex", "letters")
    _compared = ("vertex", "letters")

    def __init__(
        self,
        graph: DirectedGraph,
        vertex: str | None = None,
        letters: tuple[SignedEdge, ...] = (),
    ) -> None:
        if vertex is not None and letters:
            raise GraphError("a word is a vertex or a path, not both")
        if vertex is not None:
            graph.require_vertex(vertex)
        for i, arc in enumerate(letters):
            _require_letter(graph, arc)
            if i > 0:
                prev = letters[i - 1]
                if prev.target != arc.source:
                    raise GraphError(
                        f"letters {prev.token!r}.{arc.token!r} are not admissible"
                    )
                if _cancels(prev, arc):
                    raise GraphError(
                        f"letters {prev.token!r}.{arc.token!r} are not reduced"
                    )
        self._set(graph=graph, vertex=vertex, letters=letters)

    @property
    def is_empty(self) -> bool:
        return self.vertex is None and not self.letters

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    @property
    def is_path(self) -> bool:
        return bool(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def _cancels(a: SignedEdge, b: SignedEdge) -> bool:
    """The cancellation rule: `b` is `a` traversed the other way."""
    return a.inverted != b.inverted and a.edge == b.edge


def _require_letter(graph: DirectedGraph, arc: SignedEdge) -> None:
    if not graph.contains_edge(arc.edge):
        raise GraphError(
            f"letter {arc.token!r} does not belong to graph {graph.name!r}"
        )


def _trusted_word(
    graph: DirectedGraph, vertex: str | None, letters: tuple[SignedEdge, ...]
) -> ReducedWord:
    # Constructor bypassing revalidation, for operations whose outputs are
    # reduced and admissible by construction.
    word = object.__new__(ReducedWord)
    object.__setattr__(word, "graph", graph)
    object.__setattr__(word, "vertex", vertex)
    object.__setattr__(word, "letters", letters)
    return word


def empty_word(graph: DirectedGraph) -> ReducedWord:
    return _trusted_word(graph, None, ())

def vertex_word(graph: DirectedGraph, v: str) -> ReducedWord:
    return ReducedWord(graph, vertex=v)

def path_word(graph: DirectedGraph, letters: Iterable[SignedEdge]) -> ReducedWord:
    letters = tuple(letters)
    if not letters:
        raise ParameterError("a path word needs at least one letter")
    return ReducedWord(graph, letters=letters)


def format_word(word: ReducedWord) -> str:
    """Report format: `0` for empty, `(v)` for units, `e1.e2~` for paths."""
    if word.is_empty:
        return "0"
    if word.is_vertex:
        return f"({word.vertex})"
    return ".".join(arc.token for arc in word.letters)


def source_range(word: ReducedWord) -> tuple[str, str] | None:
    """Source and range vertices; None for the empty word."""
    if word.is_empty:
        return None
    if word.is_vertex:
        return (word.vertex, word.vertex)
    return (word.letters[0].source, word.letters[-1].target)


def reduce_word(graph: DirectedGraph, letters: Sequence[SignedEdge]) -> ReducedWord:
    """Reduce a raw letter sequence, in linear time, to the product of its
    one-letter words from the unit at the first letter's source. Cancelling
    never changes the current range, so any inadmissible adjacent pair makes
    the product empty; otherwise a letter pops a top it cancels, or is pushed.
    """
    letters = tuple(letters)
    if not letters:
        raise ParameterError("reduce requires a nonempty letter sequence")
    for arc in letters:
        _require_letter(graph, arc)
    if any(a.target != b.source for a, b in zip(letters, letters[1:])):
        return empty_word(graph)
    stack: list[SignedEdge] = []
    for arc in letters:
        if stack and _cancels(stack[-1], arc):
            stack.pop()
        else:
            stack.append(arc)
    return _trusted_word(graph, None if stack else letters[0].source, tuple(stack))


def multiply(w1: ReducedWord, w2: ReducedWord) -> ReducedWord:
    """Partial product. Both factors are already reduced, so cancellation can
    happen only across the junction (and may cascade inward from it)."""
    graph = w1.graph
    if w2.graph is not graph and w2.graph != graph:
        raise GraphError(
            f"cannot combine words over graphs {graph.name!r} and {w2.graph.name!r}"
        )
    if w1.is_empty or w2.is_empty:
        return empty_word(graph)
    if w1.is_vertex:
        return w2 if source_range(w2)[0] == w1.vertex else empty_word(graph)
    if w2.is_vertex:
        return w1 if w1.letters[-1].target == w2.vertex else empty_word(graph)
    if w1.letters[-1].target != w2.letters[0].source:
        return empty_word(graph)
    left, right = w1.letters, w2.letters
    i, j = len(left) - 1, 0
    while i >= 0 and j < len(right) and _cancels(left[i], right[j]):
        i, j = i - 1, j + 1
    remaining = left[: i + 1] + right[j:]
    return _trusted_word(graph, None if remaining else left[0].source, remaining)


def inverse(word: ReducedWord) -> ReducedWord:
    """Empty and vertex words are self-inverse; a path reverses with every
    letter's orientation flipped."""
    if not word.is_path:
        return word
    flipped = tuple(arc.inverse() for arc in reversed(word.letters))
    return _trusted_word(word.graph, None, flipped)


def enumerate_words(
    shadowed: ShadowedGraph, max_len: int, *, max_words: int = DEFAULT_MAX_WORDS
) -> list[ReducedWord]:
    """All vertex words plus all reduced path words of length <= max_len.

    Order is deterministic: vertex words in declaration order, then each
    length level sorted lexicographically by letter tokens. The only builder
    of basis words: each path word is its parent's letters and its last arc.
    """
    graph, arcs = shadowed.base, shadowed.arcs
    words = [vertex_word(graph, v) for v in graph.vertices]
    for parent, a in zip(*word_tree(shadowed, max_len, max_words)):
        words.append(_trusted_word(graph, None, words[parent].letters + (arcs[a],)))
    return words


def word_tree(
    shadowed: ShadowedGraph, max_len: int, max_words: int
) -> tuple[list[int], list[int]]:
    """The path words of `enumerate_words` as positions, in its order: for
    each, its parent's position (the word without its last letter; the source
    unit for one letter) and its last arc. No word is built."""
    if max_len < 0:
        raise ParameterError(f"max_len must be >= 0, got {max_len}")
    arcs, reverse = shadowed.arcs, shadowed.reverse
    token = [arc.token for arc in arcs].__getitem__
    # onward[a]: the arcs leaving arc a's target, in token order. A word
    # continues by all of them but its last letter's reverse, always there.
    by_token = {v: sorted(out, key=token) for v, out in shadowed.leaving.items()}
    onward = [by_token[arc.target] for arc in arcs]
    units = {v: i for i, v in enumerate(shadowed.base.vertices)}
    parents, ends, level = [], [], range(0)  # level: the last level's places in ends
    for length in range(1, max_len + 1):
        # The budget is checked before the level is built.
        size = (len(arcs) if length == 1
                else sum(len(onward[ends[i]]) - 1 for i in level))
        if not size:
            break
        if len(units) + len(ends) + size > max_words:
            raise LimitError(
                f"word enumeration exceeded the {max_words}-word budget "
                f"at length {length}"
            )
        if length == 1:
            ends = sorted(range(len(arcs)), key=token)
            parents = [units[arcs[a].source] for a in ends]
        else:
            # Parents in sorted order, each extended by arcs in token order:
            # the next level comes out sorted too.
            for i in level:
                back, parent = reverse[ends[i]], len(units) + i
                for b in onward[ends[i]]:
                    if b != back:
                        parents.append(parent)
                        ends.append(b)
        level = range(level.stop, len(ends))
    if len(units) > max_words:
        # No level was built: the first one would have failed the check.
        raise LimitError(
            f"word enumeration exceeded the {max_words}-word budget at length 0")
    return parents, ends


class EdgeBlockType(enum.Enum):
    """Which kind of generated block an edge contributes to the groupoid
    algebra: a loop generates a copy of the integers (a group block), a
    non-loop generates a 2x2 matrix block."""

    LOOP = "loop"
    NON_LOOP = "non-loop"


def edge_block_type(edge: EdgeRecord) -> EdgeBlockType:
    return EdgeBlockType.LOOP if edge.is_loop else EdgeBlockType.NON_LOOP
