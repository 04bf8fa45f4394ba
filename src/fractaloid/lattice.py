"""Lattice paths over the steps (1, +-e^k), the axis property, and the count
of axis paths of a given length by three routes: brute force, which tallies
the step sequences of half an even length n by end balance and pairs them
(an odd n tallies none); the stripping recurrence over balanced
step multisets, summed over all N exponents by Miller's power rule in
O(h^2) steps; and the closed forms C(2h, h) and C(2h, h)^2 for N = 1, 2.

Steps are kept symbolic as nonzero integers k with 1 <= |k| <= N; because the
heights e^1, ..., e^N are rationally independent, a path returns to the axis
exactly when every exponent is used equally often upward and downward. No
floating-point height arithmetic appears anywhere.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, groupby
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
    """Count axis paths by tallying the step sequences of half the length.

    Each step +k must be undone by a step -k, so an odd length gives 0. A
    sequence of even length n returns to the axis exactly when its last n/2
    steps undo the per-exponent balance b of its first n/2. The n/2-step
    sequences are tallied by b one step at a time; flipping every sign maps
    those ending at b onto those ending at -b, so the count is the sum of
    tally[b]^2. No binomial or step multiset is used, so the count stays an
    independent oracle for the recurrence and the closed forms.

    The budget counts the (2N)^n sequences the count covers, and is checked
    before the parity, so the routes that may run and the errors they give
    do not depend on how the count is computed. Balances are sparse (nonzero
    exponents only), and at most two tallies of at most (2N)^(n/2) <=
    sqrt(max_paths) balances are held, whatever N is.
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
    if length % 2:
        return 0
    tally: Counter[tuple[tuple[int, int], ...]] = Counter({(): 1})
    for _ in range(length // 2):
        stepped: Counter[tuple[tuple[int, int], ...]] = Counter()
        for end, count in tally.items():
            balance = dict(end)
            for k in range(1, n_bound + 1):
                before = balance.get(k, 0)
                for after in (before + 1, before - 1):
                    moved = {**balance, k: after}.items()
                    stepped[tuple(sorted(pair for pair in moved if pair[1]))] += count
        tally = stepped
    return sum(count * count for count in tally.values())


def tuple_coefficient(values: tuple[int, ...]) -> int:
    """Number of paths realizing a sorted step multiset, via the stripping
    recurrence: remove the trailing run of m equal values and multiply by
    C(current length, m); a constant tuple counts 1.

    The same product is read here from the front: each run of m equal
    neighbours multiplies by C(length up to its end, m). That makes the
    result the multinomial of the run lengths.
    """
    coefficient, length = 1, 0
    for _, run in groupby(values):
        m = sum(1 for _ in run)
        length += m
        coefficient *= comb(length, m)
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

    Stripping the j up- and j down-steps of one exponent at a time gives
    S_1(h) = 1 and S_k(h) = sum_j C(h, j)^2 S_{k-1}(h - j), so S_N(h) is
    (h!)^2 [x^h] g(x)^N for g = sum_k x^k / (k!)^2. Miller's rule for powers
    of a series (Knuth, TAOCP 4.7) gives h S_N(h) = sum_{k=1..h} ((N + 1)k -
    h) C(h, k)^2 S_N(h - k) in O(h^2) steps whatever N is; the table starts
    as S_1, so N = 1 runs no rule. Length 2h counts C(2h, h) S_N(h), odd 0.
    """
    if n_bound < 1:
        raise ParameterError(f"step bound must be >= 1, got {n_bound}")
    if max_length < 0:
        raise ParameterError(f"path length must be >= 0, got {max_length}")
    sums = [1] * (max_length // 2 + 1)  # S_1: N = 1 runs no rule
    for h in range(1, len(sums) if n_bound > 1 else 1):
        total, binomial = 0, 1
        for k in range(1, h + 1):
            binomial = binomial * (h - k + 1) // k
            total += ((n_bound + 1) * k - h) * binomial * binomial * sums[h - k]
        sums[h] = total // h  # exact
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
