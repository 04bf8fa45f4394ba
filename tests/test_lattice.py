import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import groupby, product

import pytest

from fractaloid import (
    LatticePath,
    LimitError,
    ParameterError,
    axis_path_counts,
    balanced_tuple_classes,
    closed_form_count,
    count_axis_paths_bruteforce,
    count_axis_paths_recurrence,
    has_axis_property,
    tuple_coefficient,
)
from fractaloid.lattice import DEFAULT_MAX_PATHS


def test_axis_property_examples():
    assert has_axis_property(LatticePath((1, -1), 1))
    assert not has_axis_property(LatticePath((1, -2), 2))
    assert has_axis_property(LatticePath((2, 1, -1, -2), 2))


def test_axis_property_needs_per_exponent_balance():
    # A plain zero sum is not enough: heights e^1 and e^3 cannot cancel.
    assert not has_axis_property(LatticePath((-3, 1, 1, 1), 3))


def test_path_validation():
    with pytest.raises(ParameterError):
        LatticePath((0,), 2)
    with pytest.raises(ParameterError):
        LatticePath((3,), 2)


def test_bruteforce_small_values():
    assert count_axis_paths_bruteforce(1, 2) == 2
    assert count_axis_paths_bruteforce(1, 3) == 0
    assert count_axis_paths_bruteforce(3, 2) == 6
    assert count_axis_paths_bruteforce(2, 0) == 1


def test_bruteforce_budget():
    with pytest.raises(LimitError):
        count_axis_paths_bruteforce(3, 12)
    assert count_axis_paths_bruteforce(1, 4, max_paths=16) == 6
    with pytest.raises(LimitError):
        count_axis_paths_bruteforce(1, 4, max_paths=15)


def test_recurrence_small_values():
    assert count_axis_paths_recurrence(1, 4) == 6
    assert count_axis_paths_recurrence(2, 2) == 4
    assert count_axis_paths_recurrence(2, 4) == 36
    assert count_axis_paths_recurrence(2, 0) == 1
    assert count_axis_paths_recurrence(4, 7) == 0


def test_recurrence_coefficients():
    assert tuple_coefficient((-1, -1, 1, 1)) == math.comb(4, 2)
    assert tuple_coefficient((-2, -1, 1, 2)) == 24
    assert tuple_coefficient((2, 2, 2)) == 1
    assert tuple_coefficient(()) == 1
    # The mixed eight-step class: 8!/(2! * 2!) realizations.
    assert tuple_coefficient((-3, -2, -2, -1, 1, 2, 2, 3)) == 10080


def test_coefficient_equals_multinomial():
    for n_bound in (1, 2, 3):
        for length in range(0, 9, 2):
            for cls in balanced_tuple_classes(n_bound, length):
                runs = Counter(cls.values)
                expected = math.factorial(length)
                for run in runs.values():
                    expected //= math.factorial(run)
                assert cls.coefficient == expected


def test_coefficient_is_multinomial_of_neighbour_runs():
    # Any tuple, sorted or not: len! over the factorials of its maximal
    # runs of equal neighbours.
    def multinomial(values):
        expected = math.factorial(len(values))
        for _, run in groupby(values):
            expected //= math.factorial(len(list(run)))
        return expected

    rng = random.Random(31)
    tuples = [(), (4,) * 7]
    for _ in range(2000):
        values = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 12)))
        tuples += [values, tuple(sorted(values))]
    for values in tuples:
        assert tuple_coefficient(values) == multinomial(values), values
    assert tuple_coefficient(()) == 1
    assert tuple_coefficient((4,) * 7) == 1


def test_balanced_tuples_are_balanced_and_sorted():
    for cls in balanced_tuple_classes(3, 6):
        assert list(cls.values) == sorted(cls.values)
        counts = Counter(cls.values)
        for k in (1, 2, 3):
            assert counts[k] == counts[-k]
    # Classes come in lexicographic order of their up-step counts
    # (m_1, ..., m_N), each composition of length / 2 once.
    for n_bound in (1, 2, 3, 4):
        for length in range(0, 9, 2):
            ups = [[cls.values.count(k) for k in range(1, n_bound + 1)]
                   for cls in balanced_tuple_classes(n_bound, length)]
            assert all(a < b for a, b in zip(ups, ups[1:]))
            assert len(ups) == math.comb(length // 2 + n_bound - 1, n_bound - 1)
    # Many exponents, no recursion per exponent.
    wide = balanced_tuple_classes(1200, 2)
    assert len(wide) == 1200
    assert wide[0].values == (-1200, 1200) and wide[-1].values == (-1, 1)


def walk_every_sequence(n_bound, length):
    """Reference count: walk all (2N)^n step sequences one at a time."""
    moves = [(k, +1) for k in range(1, n_bound + 1)] + [
        (k, -1) for k in range(1, n_bound + 1)
    ]
    balance = [0] * (n_bound + 1)
    off_axis = 0

    def walk(remaining):
        nonlocal off_axis
        if remaining == 0:
            return 0 if off_axis else 1
        count = 0
        for k, delta in moves:
            before = balance[k]
            balance[k] = before + delta
            if before == 0:
                off_axis += 1
            elif balance[k] == 0:
                off_axis -= 1
            count += walk(remaining - 1)
            if balance[k] == 0:
                off_axis += 1
            elif before == 0:
                off_axis -= 1
            balance[k] = before
        return count

    return walk(length)


def test_recurrence_matches_bruteforce():
    for n_bound in (1, 2, 3):
        for length in range(0, 7):
            assert count_axis_paths_recurrence(
                n_bound, length
            ) == count_axis_paths_bruteforce(n_bound, length)
    for n_bound in (1, 2, 3):
        for length in range(0, 10):
            assert count_axis_paths_bruteforce(
                n_bound, length, max_paths=(2 * n_bound) ** length
            ) == walk_every_sequence(n_bound, length)


def test_bruteforce_matches_literal_enumeration():
    # Every step sequence spelled out and tested for the axis property.
    for n_bound in (1, 2, 3):
        steps = [k for k in range(-n_bound, n_bound + 1) if k]
        length = 0
        while (2 * n_bound) ** length <= 10**5:
            expected = sum(has_axis_property(LatticePath(seq, n_bound))
                           for seq in product(steps, repeat=length))
            assert count_axis_paths_bruteforce(n_bound, length) == expected, (
                n_bound, length)
            length += 1


def test_bruteforce_does_not_recurse():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    # Half the length is more steps than frames are left under the limit.
    length = 2 * (depth + 100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        count = count_axis_paths_bruteforce(1, length, max_paths=2**length)
    finally:
        sys.setrecursionlimit(limit)
    assert count == math.comb(length, length // 2)


def test_bruteforce_matches_recurrence_at_default_budget():
    # Every step bound 1..8 and every length the default budget admits.
    cases = 0
    for n_bound in range(1, 9):
        length = 0
        while (2 * n_bound) ** length <= DEFAULT_MAX_PATHS:
            length += 1
        expected = axis_path_counts(n_bound, length - 1)
        for n in range(length):
            assert count_axis_paths_bruteforce(n_bound, n) == expected[n], (
                n_bound, n)
            cases += 1
        with pytest.raises(LimitError):
            count_axis_paths_bruteforce(n_bound, length)
    assert cases == 81


def test_bruteforce_memory_does_not_grow_with_step_bound():
    tracemalloc.start()
    try:
        assert count_axis_paths_bruteforce(10**6, 0) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("n_bound, length, expected",
                         [(10**4, 1, 0), (1000, 2, 2000)])
def test_bruteforce_memory_at_short_lengths(n_bound, length, expected):
    # The tally holds at most (2N)^(n/2) balances, whatever N is.
    tracemalloc.start()
    try:
        assert count_axis_paths_bruteforce(n_bound, length) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_axis_property_memory_does_not_grow_with_step_bound():
    tracemalloc.start()
    try:
        assert has_axis_property(LatticePath((), 10**6))
        assert not has_axis_property(LatticePath((10**6, 1, -(10**6)), 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_closed_forms():
    assert closed_form_count(1, 6) == 20
    assert closed_form_count(2, 6) == 400
    assert closed_form_count(1, 0) == 1
    with pytest.raises(ParameterError):
        closed_form_count(3, 4)


def test_closed_form_matches_recurrence():
    for n_bound in (1, 2):
        for length in range(0, 13):
            assert closed_form_count(n_bound, length) == count_axis_paths_recurrence(
                n_bound, length
            )
        table = axis_path_counts(n_bound, 400)
        assert table == [closed_form_count(n_bound, n) for n in range(401)]


def test_table_cost_does_not_follow_step_bound():
    # One power-rule pass over h, whatever N is; one convolution pass per
    # exponent takes seconds here.
    start = time.perf_counter()
    counts = axis_path_counts(2000, 200)
    assert time.perf_counter() - start < 1.0
    assert counts[2] == 4000
    assert counts[4] == 6 * (2 * 2000**2 - 2000)
    assert not any(counts[1::2])


def test_counts_monotone_in_step_bound():
    for length in (2, 4, 6):
        values = [count_axis_paths_recurrence(nb, length) for nb in (1, 2, 3, 4)]
        assert values == sorted(values)


def test_odd_lengths_vanish():
    for n_bound in (1, 2, 3):
        for length in (1, 3, 5, 7):
            assert count_axis_paths_recurrence(n_bound, length) == 0
            assert count_axis_paths_bruteforce(n_bound, length) == 0


def test_reversal_and_sign_flip_preserve_axis_property():
    rng = random.Random(23)
    for _ in range(200):
        n_bound = rng.randint(1, 3)
        steps = tuple(
            rng.choice([k for k in range(-n_bound, n_bound + 1) if k != 0])
            for _ in range(rng.randint(0, 8))
        )
        path = LatticePath(steps, n_bound)
        reversed_path = LatticePath(tuple(reversed(steps)), n_bound)
        flipped = LatticePath(tuple(-s for s in steps), n_bound)
        assert has_axis_property(path) == has_axis_property(reversed_path)
        assert has_axis_property(path) == has_axis_property(flipped)


def test_counts_are_exact_big_integers():
    # C(40, 20) exceeds 64-bit signed range well before n = 40; stay exact.
    assert closed_form_count(2, 40) == math.comb(40, 20) * sum(
        math.comb(20, j) ** 2 for j in range(21)
    )
    assert count_axis_paths_recurrence(1, 40) == math.comb(40, 20)
