"""Lattice paths over the steps (1, +-e^k), the axis property, and the count
of axis paths of a given length by three routes: brute force, which walks
every step sequence of each half of the length and matches the halves' end
balances; the stripping recurrence over balanced step multisets, summed one
exponent at a time; and the closed forms C(2h, h) and C(2h, h)^2 for N = 1, 2.

Steps are kept symbolic as nonzero integers k with 1 <= |k| <= N; because the
heights e^1, ..., e^N are rationally independent, a path returns to the axis
exactly when every exponent is used equally often upward and downward. No
floating-point height arithmetic appears anywhere.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

from .errors import Frozen, LimitError, ParameterError

DEFAULT_MAX_PATHS = 10_000_000


class LatticePath(Frozen):
    """A finite sequence of steps +-k with 1 <= |k| <= step_bound."""

    __slots__ = _fields = ("steps", "step_bound")

    def __init__(self, steps: tuple[int, ...], step_bound: int) -> None:
        if step_bound < 0:
            raise ParameterError(f"step bound must be >= 0, got {step_bound}")
        for s in steps:
            if not isinstance(s, int) or s == 0 or abs(s) > step_bound:
                raise ParameterError(
                    f"step {s!r} outside the range +-1..+-{step_bound}"
                )
        self._set(steps=steps, step_bound=step_bound)

    def __len__(self) -> int:
        return len(self.steps)


def has_axis_property(path: LatticePath) -> bool:
    """True iff the path ends on the horizontal axis: per exponent k, the
    steps +k and -k occur equally often."""
    count = Counter(path.steps)
    return all(count[s] == count[-s] for s in count)


def count_axis_paths_bruteforce(
    n_bound: int, length: int, *, max_paths: int = DEFAULT_MAX_PATHS
) -> int:
    """Count axis paths by walking step sequences in two halves.

    A sequence of n steps returns to the axis exactly when its last
    ceil(n/2) steps undo the per-exponent balance of its first floor(n/2).
    Every floor(n/2)-step sequence is walked one at a time and its end
    balance, negated, tallied; then every ceil(n/2)-step sequence is walked
    and the tally of its own end balance added. That is
    (2N)^floor(n/2) + (2N)^ceil(n/2) walked sequences in place of (2N)^n.
    No binomial or step multiset is used, so the count stays an independent
    oracle for the recurrence and the closed forms.

    The budget still counts the (2N)^n sequences the count covers, so the
    routes that may run and the errors they give do not depend on how the
    count is computed. Balances are sparse (nonzero exponents only), so the
    memory is bounded by the tally's (2N)^floor(n/2) <= sqrt(max_paths)
    entries, whatever N is.
    """
    if n_bound < 1:
        raise ParameterError(f"step bound must be >= 1, got {n_bound}")
    if length < 0:
        raise ParameterError(f"path length must be >= 0, got {length}")
    total = (2 * n_bound) ** length
    if total > max_paths:
        raise LimitError(
            f"brute-force enumeration of {total} paths exceeds the "
            f"{max_paths}-path budget"
        )
    balance: dict[int, int] = {}
    tally: Counter[tuple[tuple[int, int], ...]] = Counter()
    count = 0

    def walk(remaining: int, leaf: Callable[[], None]) -> None:
        if remaining == 0:
            leaf()
            return
        for k in range(1, n_bound + 1):
            before = balance.get(k, 0)
            for after in (before + 1, before - 1):
                if after:
                    balance[k] = after
                else:
                    del balance[k]
                walk(remaining - 1, leaf)
            if before:
                balance[k] = before
            else:
                del balance[k]

    def tally_needed() -> None:
        tally[tuple(sorted((k, -b) for k, b in balance.items()))] += 1

    def add_matches() -> None:
        nonlocal count
        count += tally[tuple(sorted(balance.items()))]

    walk(length // 2, tally_needed)
    walk(length - length // 2, add_matches)
    return count


def tuple_coefficient(values: tuple[int, ...]) -> int:
    """Number of paths realizing a sorted step multiset, via the stripping
    recurrence: remove the trailing run of m equal values and multiply by
    C(current length, m); a constant tuple counts 1.

    The binomial's top index is the tuple length at the moment of stripping,
    which makes the result the multinomial of the run lengths.
    """
    values = tuple(values)
    coefficient = 1
    while values and any(v != values[-1] for v in values):
        run = 1
        while run < len(values) and values[-run - 1] == values[-1]:
            run += 1
        coefficient *= comb(len(values), run)
        values = values[:-run]
    return coefficient


class BalancedTupleClass(NamedTuple):
    """A sorted step multiset with per-exponent balance, together with the
    number of axis paths spelling it in some order."""

    values: tuple[int, ...]
    coefficient: int


def balanced_tuple_classes(n_bound: int, length: int) -> list[BalancedTupleClass]:
    """All per-exponent-balanced sorted tuples of the given length.

    Balance means #(+k) = #(-k) for every k; a plain zero integer sum is not
    enough, since e.g. (-3, 1, 1, 1) sums to zero but can never return to the
    axis.
    """
    if n_bound < 1:
        raise ParameterError(f"step bound must be >= 1, got {n_bound}")
    if length < 0 or length % 2:
        return []
    half = length // 2
    classes: list[BalancedTupleClass] = []
    # A class is fixed by its up-step counts m_1..m_N, which sum to `half`.
    # Their running sums are non-decreasing cut points in 0..half; those are
    # enumerated in lexicographic order, and so are the counts.
    for cuts in combinations_with_replacement(range(half + 1), n_bound - 1):
        bounds = (0, *cuts, half)
        ups = [exp for exp, low, high
               in zip(range(1, n_bound + 1), bounds, bounds[1:])
               for _ in range(high - low)]
        tup = tuple([-exp for exp in reversed(ups)] + ups)
        classes.append(BalancedTupleClass(tup, tuple_coefficient(tup)))
    return classes


def axis_path_counts(n_bound: int, max_length: int) -> list[int]:
    """Axis-path counts of every length 0..max_length, in one pass.

    The stripping recurrence summed one exponent at a time: stripping the j
    up-steps and j down-steps of the top exponent gives S_1(h) = 1 and
    S_k(h) = sum_j C(h, j)^2 S_{k-1}(h - j). The count at length 2h is
    C(2h, h) S_N(h); odd lengths give 0. O(N h^2) integer operations.
    """
    if n_bound < 1:
        raise ParameterError(f"step bound must be >= 1, got {n_bound}")
    if max_length < 0:
        raise ParameterError(f"path length must be >= 0, got {max_length}")
    sums = [1] * (max_length // 2 + 1)
    for _ in range(n_bound - 1):
        sums = [sum(comb(h, j) ** 2 * sums[h - j] for j in range(h + 1))
                for h in range(len(sums))]
    return [0 if n % 2 else comb(n, n // 2) * sums[n // 2]
            for n in range(max_length + 1)]


def count_axis_paths_recurrence(n_bound: int, length: int) -> int:
    """The axis-path count of one length (see `axis_path_counts`)."""
    return axis_path_counts(n_bound, length)[length]


def closed_form_count(n_bound: int, length: int) -> int:
    """The count at length 2h is C(2h, h) for step bound 1 and, by Vandermonde's
    identity, C(2h, h)^2 for step bound 2; odd lengths give 0."""
    if n_bound not in (1, 2):
        raise ParameterError(
            f"closed forms exist only for step bounds 1 and 2, got {n_bound}"
        )
    if length < 0:
        raise ParameterError(f"path length must be >= 0, got {length}")
    if length % 2:
        return 0
    central = comb(length, length // 2)
    return central if n_bound == 1 else central ** 2
