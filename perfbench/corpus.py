"""Seeded graph corpus: named graphs through `fractaloid gen`, seeded edge
shuffles of them, and seeded random regular digraphs."""

from __future__ import annotations

import json
import random
from pathlib import Path

from workloads import NAMED, RANDOM


class SetupError(Exception):
    pass


def _write_graph(path: Path, graph: dict) -> None:
    path.write_text(json.dumps(graph) + "\n", encoding="utf-8")


def mixed_copy(graph: dict, rng: random.Random) -> dict:
    """The same graph with its edges in a seeded order under seeded new ids.
    The spectral reports do not mention edge ids or edge order."""
    edges = list(graph["edges"])
    rng.shuffle(edges)
    ids = [f"a{i}" for i in range(1, len(edges) + 1)]
    rng.shuffle(ids)
    return {
        "name": graph["name"],
        "vertices": graph["vertices"],
        "edges": [{"id": i, "src": e["src"], "dst": e["dst"]}
                  for i, e in zip(ids, edges)],
    }


def random_regular(name: str, degree: int, size: int,
                   rng: random.Random) -> dict:
    """Union of `degree` random permutations of `size` vertices; the first is
    a single cycle, so the graph is connected and every vertex has
    out-degree = in-degree = `degree`."""
    vertices = [f"v{i}" for i in range(1, size + 1)]
    cycle = vertices[:]
    rng.shuffle(cycle)
    pairs = [(cycle[i - 1], cycle[i]) for i in range(size)]
    for _ in range(degree - 1):
        targets = vertices[:]
        rng.shuffle(targets)
        pairs.extend(zip(vertices, targets))
    rng.shuffle(pairs)
    return {
        "name": name,
        "vertices": vertices,
        "edges": [{"id": f"e{i}", "src": s, "dst": d}
                  for i, (s, d) in enumerate(pairs, start=1)],
    }


def build_corpus(dest: Path, seed: int, runner, timeout: float) -> None:
    """Write gen/, mixed/ and random/ under `dest`."""
    rng = random.Random(seed)
    for sub in ("gen", "mixed", "random"):
        (dest / sub).mkdir(parents=True)
    for key, (gen_args, _) in NAMED.items():
        path = dest / "gen" / f"{key}.json"
        result = runner.run(["gen", *gen_args, "--out", str(path)],
                            timeout=timeout)
        if result.exit_code != 0:
            raise SetupError(f"fractaloid gen for {key} exited "
                             f"{result.exit_code}: {result.stderr[-500:]}")
        graph = json.loads(path.read_text(encoding="utf-8"))
        _write_graph(dest / "mixed" / f"{key}.json", mixed_copy(graph, rng))
    for key, (degree, size) in RANDOM.items():
        _write_graph(dest / "random" / f"{key}.json",
                     random_regular(key, degree, size, rng))
