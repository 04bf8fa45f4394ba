"""Correctness gate for each invocation, with oracles written independently
of the program.

An invocation *fails* when it crashes: a traceback on stderr, exit 1
without a usage error, death by a signal, or another exit code than the job
expects. An invocation that completes is *wrong* when its report differs
from the frozen digest of the seed commit or from an oracle.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from math import comb
from pathlib import Path

from workloads import NAMED, RANDOM, Job

TRACEBACK = "Traceback (most recent call last)"


def failure(job: Job, exit_code: int, stderr: str) -> str | None:
    """Why the invocation counts as failed, or None."""
    if TRACEBACK in stderr:
        return "traceback on stderr"
    if exit_code == 1 and "usage error:" not in stderr:
        return "exit 1 without a usage error"
    if exit_code != job.exit_code:
        return f"exit {exit_code}, expected {job.exit_code}"
    return None


# --- oracles ----------------------------------------------------------------

@lru_cache(maxsize=None)
def _excursions(branching: int, half: int) -> int:
    """Closed walks of length 2*half from a node into its own subtree, in a
    tree where every node has `branching` children."""
    if half == 0:
        return 1
    return branching * sum(
        _excursions(branching, i) * _excursions(branching, half - 1 - i)
        for i in range(half)
    )


@lru_cache(maxsize=None)
def tree_returns(degree: int, length: int) -> int:
    """Closed walks at the root of the 2N-regular tree, by first-return
    decomposition: leave by one of 2N arcs, make an excursion below the
    child, come back, continue."""
    if length % 2:
        return 0
    half = length // 2
    if half == 0:
        return 1
    return 2 * degree * sum(
        _excursions(2 * degree - 1, i) * tree_returns(degree, 2 * (half - 1 - i))
        for i in range(half)
    )


@lru_cache(maxsize=None)
def _balanced_products(degree: int, half: int) -> int:
    # S_N(h) = sum_j C(h, j)^2 S_{N-1}(h - j), S_1 = 1.
    if degree == 1:
        return 1
    return sum(comb(half, j) ** 2 * _balanced_products(degree - 1, half - j)
               for j in range(half + 1))


def axis_paths(degree: int, length: int) -> int:
    """Axis paths of the given length with steps +-1..+-N, as
    C(2h, h) * S_N(h) for length 2h."""
    if length % 2:
        return 0
    half = length // 2
    return comb(length, half) * _balanced_products(degree, half)


def closed_walks(graph: dict, vertex: str, length: int) -> int:
    """(A^n)_vv for the symmetric arc-count matrix A of the shadowed graph.
    On a tree every closed walk reduces to the unit, so this is the moment."""
    neighbours: dict[str, list[str]] = {v: [] for v in graph["vertices"]}
    for e in graph["edges"]:
        neighbours[e["src"]].append(e["dst"])
        neighbours[e["dst"]].append(e["src"])
    counts = {vertex: 1}
    for _ in range(length):
        nxt: dict[str, int] = {}
        for v, c in counts.items():
            for w in neighbours[v]:
                nxt[w] = nxt.get(w, 0) + c
        counts = nxt
    return counts.get(vertex, 0)


def fractal_pair(graph: dict) -> list[int] | None:
    """[N, |V|] when the graph is connected with out = in = N everywhere."""
    vertices = graph["vertices"]
    if not vertices:
        return None
    out = {v: 0 for v in vertices}
    inc = {v: 0 for v in vertices}
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in graph["edges"]:
        out[e["src"]] += 1
        inc[e["dst"]] += 1
        root[find(e["src"])] = find(e["dst"])
    degree = max(out.values())
    if len({find(v) for v in vertices}) != 1 or degree == 0:
        return None
    if any(out[v] != degree or inc[v] != degree for v in vertices):
        return None
    return [degree, len(vertices)]


# --- the gate ----------------------------------------------------------------

class Gate:
    """Checks reports against frozen digests and oracles. `corpus` is the
    directory `build_corpus` wrote; `digests` maps job keys to the sha256 of
    the seed commit's stdout."""

    def __init__(self, corpus: Path, digests: dict[str, str]):
        self.corpus = corpus
        self.digests = digests
        self._graphs: dict[str, dict] = {}

    def path(self, arg: str) -> str:
        if not arg.startswith("@"):
            return arg
        if arg.endswith("/"):
            return str(self.corpus / arg[1:])
        return str(self.corpus / f"{arg[1:]}.json")

    def argv(self, job: Job) -> list[str]:
        return [self.path(a) for a in job.argv]

    def graph(self, arg: str) -> dict:
        if arg not in self._graphs:
            self._graphs[arg] = json.loads(
                Path(self.path(arg)).read_text(encoding="utf-8"))
        return self._graphs[arg]

    def problems(self, job: Job, stdout: bytes) -> list[str]:
        """Why the report of a completed invocation is wrong; empty if right."""
        found = []
        if job.deterministic:
            digest = hashlib.sha256(stdout).hexdigest()
            if self.digests.get(job.key) != digest:
                found.append("stdout differs from the frozen digest")
        oracle = getattr(self, f"_check_{job.command}", None)
        if job.exit_code == 0 and oracle is not None:
            try:
                found.extend(oracle(job, json.loads(stdout)["payload"]))
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"malformed report: {exc!r}")
        return [f"{job.key}: {p}" for p in found]

    def _moment_oracle(self, arg: str):
        key = arg.rsplit("/", 1)[1]
        degree = NAMED[key][1]
        if degree is None:
            graph = self.graph(arg)
            return lambda v, n: closed_walks(graph, v, n)
        if degree == 1:
            return lambda v, n: 0 if n % 2 else comb(n, n // 2)
        return lambda v, n: tree_returns(degree, n)

    def _check_moments(self, job, payload):
        oracle = self._moment_oracle(job.argv[1])
        rows = payload["moments"]
        if [r["n"] for r in rows] != list(range(1, len(rows) + 1)):
            return ["orders are not 1..max-n"]
        return [f"moment n={r['n']} at {v} is {c}"
                for r in rows for v, c in r["per_vertex"].items()
                if int(c) != oracle(v, r["n"])]

    def _check_matrix(self, job, payload):
        oracle = self._moment_oracle(job.argv[1])
        return [f"matrix diagonal n={r['n']} at {v} is {c}"
                for r in payload["diagonal"] for v, c in r["per_vertex"].items()
                if int(c) != oracle(v, r["n"])]

    def _check_verify(self, job, payload):
        degree = payload["N"]
        return [f"verify row n={r['n']} is wrong"
                for r in payload["rows"]
                if not (int(r["walk"]) == int(r["tree"])
                        == tree_returns(degree, r["n"])
                        and int(r["lattice"]) == axis_paths(degree, r["n"])
                        and r["a_eq_b"])]

    def _check_compare(self, job, payload):
        pairs = [fractal_pair(self.graph(a)) for a in job.argv[1:3]]
        found = [] if payload["pairs"] == pairs else ["wrong fractal pairs"]
        if None not in pairs and payload["identically_distributed"] != (
                pairs[0] == pairs[1]):
            found.append("identical distribution disagrees with the pairs")
        return found

    def _check_lattice(self, job, payload):
        degree = payload["N"]
        method = job.argv[job.argv.index("--method") + 1] \
            if "--method" in job.argv else None
        columns = {"brute": method in (None, "brute"),
                   "recurrence": method in (None, "recurrence"),
                   "closed_form": method in (None, "closed") and degree <= 2}
        found = []
        for row in payload["rows"]:
            n = row["n"]
            if int(row["total"]) != (2 * degree) ** n:
                found.append(f"total n={n}")
            for column, present in columns.items():
                if (row[column] is not None) != present or (
                        present and int(row[column]) != axis_paths(degree, n)):
                    found.append(f"{column} n={n}")
        return found

    def _check_info(self, job, payload):
        graph = self.graph(job.argv[1])
        degree, size = RANDOM[job.argv[1].rsplit("/", 1)[1]]
        expected = {
            "name": graph["name"], "vertex_count": size,
            "edge_count": degree * size, "connected": True,
            "max_out_degree": degree,
            "degrees": {v: {"out": degree, "in": degree, "total": 2 * degree}
                        for v in graph["vertices"]},
        }
        return [] if payload == expected else ["info differs from the graph"]

    def _check_check(self, job, payload):
        graph = self.graph(job.argv[1])
        pair = fractal_pair(graph)
        ok = (payload["graph"] == graph["name"]
              and payload["fractal"] == (pair is not None)
              and payload["pair"] == pair
              and (payload["reason"] is None) == (pair is not None))
        return [] if ok else ["check differs from the graph"]

    def _check_pair(self, job, payload):
        graph = self.graph(job.argv[1])
        expected = {"graph": graph["name"], "pair": fractal_pair(graph)}
        return [] if payload == expected else ["pair differs from the graph"]

    def _check_label(self, job, payload):
        # More than one labeling is correct: on a graph with out = in = N
        # everywhere, the out-labels and the in-labels at every vertex must
        # each be exactly 1..N.
        graph = self.graph(job.argv[1])
        degree = fractal_pair(graph)[0]
        labels = payload["labels"]
        if payload["N"] != degree or set(labels) != {
                e["id"] for e in graph["edges"]}:
            return ["labels do not cover the edges"]
        outs = {v: [] for v in graph["vertices"]}
        ins = {v: [] for v in graph["vertices"]}
        for e in graph["edges"]:
            outs[e["src"]].append(labels[e["id"]])
            ins[e["dst"]].append(labels[e["id"]])
        full = list(range(1, degree + 1))
        bad = [v for v in graph["vertices"]
               if sorted(outs[v]) != full or sorted(ins[v]) != full]
        return [f"labels at {bad[0]} are not 1..{degree}"] if bad else []

    def _check_classify(self, job, payload):
        inputs = []
        for arg in job.argv[1:]:
            if arg.endswith("/"):
                files = sorted(Path(self.path(arg)).glob("*.json"))
                inputs.extend(f"{arg}{f.stem}" for f in files)
            else:
                inputs.append(arg)
        classes: dict[tuple, list[str]] = {}
        rejected = []
        for arg in inputs:
            graph = self.graph(arg)
            pair = fractal_pair(graph)
            if pair is None:
                rejected.append(graph["name"])
            else:
                classes.setdefault(tuple(pair), []).append(graph["name"])
        expected = [{"pair": list(p), "graphs": names}
                    for p, names in sorted(classes.items())]
        ok = (payload["classes"] == expected
              and [r["graph"] for r in payload["rejected"]] == rejected
              and all(r["reason"] for r in payload["rejected"]))
        return [] if ok else ["classes differ from the graphs"]
