"""Arithmetic of the benchmark: self times of spans, per-layer totals, and
the end-to-end figures of a list of passes."""

from __future__ import annotations

import statistics
from collections import defaultdict


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of `intervals` covers."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.
    A span is [name, start, end, parent index, raised]."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """`<span>.s`, `<span>.calls`, `<span>.errors` per span name and
    `<module>.self_s` per module; the root span `cli.main` gives
    `cli.self_s`. The tracer's own `trace.*` spans are left out."""
    totals: dict[str, float] = defaultdict(float)
    for (name, _, _, _, raised), own in zip(spans, self_times(spans)):
        if name.startswith("trace."):
            continue
        totals[f"{name}.s"] += own
        totals[f"{name}.calls"] += 1
        totals[f"{name}.errors"] += raised
        totals[f"{name.split('.', 1)[0]}.self_s"] += own
    return totals


def pass_figures(passes: list[list[tuple]]) -> dict:
    """End-to-end figures of complete passes over a job list. Each pass is a
    list of (job key, subcommand, seconds, peak RSS in KiB, ...) per
    invocation; the last pass may be partial. A job's time is its median
    over the passes. The time of the job list, `wall_s`, is the sum of the
    job times, and `op_p50_s` is their median, so that a partial pass
    weighs no job more than another."""
    walls: dict[str, list[float]] = defaultdict(list)
    commands = {}
    for key, command, wall, *_ in (op for p in passes for op in p):
        walls[key].append(wall)
        commands[key] = command
    job_s = {key: statistics.median(times) for key, times in walls.items()}
    figures = {
        "wall_s": sum(job_s.values()),
        "op_p50_s": statistics.median(job_s.values()),
        "peak_rss_mb": max(op[3] for p in passes for op in p) / 1024,
    }
    for key, seconds in job_s.items():
        name = f"cmd.{commands[key]}_s"
        figures[name] = figures.get(name, 0.0) + seconds
    return figures
