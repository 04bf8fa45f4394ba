"""Spans and work counters around the calls into each fractaloid layer.

The tracer runs inside a traced child. It replaces the public functions that
`fractaloid.cli` and `fractaloid.moments` import (and the functions
`fractaloid.moments` defines, so that its internal calls nest) with wrappers
that record a span per call, and wraps `TruncatedOperator.power_diagonal` on
the class. Spans stay in memory and are written once, when the child ends.
A span is [name, start, end, parent index, raised]; spans are named
`<module>.<function>` after the defining module under `fractaloid`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import Counter
from math import comb
from time import perf_counter

# Called too often to time each call; only counted.
COUNT_ONLY = {"words.multiply"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_nodes(tree) -> int:
    nodes, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    return nodes


def _count_radial_moment(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    tracer.counters["moments.radial_moment.order_sum"] += n
    graph = id(_arg(args, kwargs, 0, "graph"))
    tracer.max_order[graph] = max(tracer.max_order.get(graph, 0), n)


def _count_recurrence(tracer, args, kwargs, result):
    bound = _arg(args, kwargs, 0, "n_bound")
    length = _arg(args, kwargs, 1, "length")
    if length % 2 == 0:
        tracer.counters["lattice.count_axis_paths_recurrence.classes"] += comb(
            length // 2 + bound - 1, bound - 1)


def _count_bruteforce(tracer, args, kwargs, result):
    bound = _arg(args, kwargs, 0, "n_bound")
    length = _arg(args, kwargs, 1, "length")
    tracer.counters["lattice.count_axis_paths_bruteforce.paths"] += (
        2 * bound) ** length


def _adder(counter, measure):
    def count(tracer, args, kwargs, result):
        tracer.counters[counter] += measure(args, kwargs, result)
    return count


# Work counters, computed after a successful call from its arguments and
# result, inside a `trace.count` span so that no layer is charged for them.
COUNTERS = {
    "graphs.load_graph": _adder(
        "graphs.load_graph.bytes",
        lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "graphs.shadow": _adder("graphs.shadow.arcs", lambda a, k, r: len(r.arcs)),
    "fractality.vertex_tree": _adder(
        "fractality.vertex_tree.nodes", lambda a, k, r: _tree_nodes(r)),
    "words.enumerate_words": _adder(
        "words.enumerate_words.words", lambda a, k, r: len(r)),
    "moments.radial_moment": _count_radial_moment,
    "moments.truncated_radial_matrix": _adder(
        "moments.truncated_radial_matrix.basis", lambda a, k, r: len(r.basis)),
    "moments.power_diagonal": _adder(
        "moments.power_diagonal.order_sum", lambda a, k, r: _arg(a, k, 2, "n")),
    "lattice.count_axis_paths_recurrence": _count_recurrence,
    "lattice.count_axis_paths_bruteforce": _count_bruteforce,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.max_order: dict[int, int] = {}
        self._wrapped: dict = {}

    def install(self) -> None:
        import fractaloid.cli as cli
        import fractaloid.moments as moments

        for module in (cli, moments):
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("fractaloid.")
                        or value.__module__ == "fractaloid.cli"):
                    continue
                setattr(module, attr, self.wrap(value))
        operator = getattr(moments, "TruncatedOperator", None)
        if operator is not None and hasattr(operator, "power_diagonal"):
            operator.power_diagonal = self.wrap(
                operator.power_diagonal, "moments.power_diagonal")

    def wrap(self, fn, name: str | None = None):
        if fn in self._wrapped:
            return self._wrapped[fn]
        if name is None:
            name = f"{fn.__module__.removeprefix('fractaloid.')}.{fn.__name__}"
        if name in COUNT_ONLY:
            counters, key = self.counters, f"{name}.calls"

            def wrapper(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)
        else:
            counter = COUNTERS.get(name)

            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, counter)
        self._wrapped[fn] = functools.wraps(fn)(wrapper)
        return self._wrapped[fn]

    def call(self, name, fn, args, kwargs, counter=None):
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent, False]
        spans.append(record)
        stack.append(len(spans) - 1)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = perf_counter()
            stack.pop()
        if counter is not None:
            start = perf_counter()
            counter(self, args, kwargs, result)
            spans.append(["trace.count", start, perf_counter(), parent, False])
        return result

    def dump(self, path) -> None:
        counters = dict(self.counters)
        counters["moments.radial_moment.useful_orders"] = sum(
            self.max_order.values())
        # One file per invocation; its name is the op id all its spans share.
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"op": os.path.basename(path), "spans": self.spans,
                       "counters": counters}, out)
