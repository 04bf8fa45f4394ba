"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests"""

import hashlib
import json
import random
import sys
from itertools import product
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import Gate, axis_paths, closed_walks, failure, tree_returns  # noqa: E402
from corpus import mixed_copy, random_regular  # noqa: E402
from stats import layer_totals, pass_figures, self_times  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

K3 = {"name": "K3", "vertices": ["v1", "v2", "v3"],
      "edges": [{"id": "e1", "src": "v1", "dst": "v2"},
                {"id": "e2", "src": "v2", "dst": "v3"},
                {"id": "e3", "src": "v3", "dst": "v1"}]}


def _moments_report(per_vertex_of_n, max_n):
    rows = []
    for n in range(1, max_n + 1):
        counts = {v: str(per_vertex_of_n(v, n)) for v in K3["vertices"]}
        rows.append({"graph": "K3", "n": n, "per_vertex": counts,
                     "scalar": counts["v1"]})
    report = {"schema_version": "1.0", "command": "moments",
              "payload": {"graph": "K3", "moments": rows}, "warnings": []}
    return (json.dumps(report, indent=2) + "\n").encode()


@pytest.fixture
def gate_and_job(tmp_path):
    (tmp_path / "mixed").mkdir()
    (tmp_path / "mixed" / "K3.json").write_text(json.dumps(K3))
    job = Job(("moments", "@mixed/K3", "--max-n", "6"))
    good = _moments_report(lambda v, n: 0 if n % 2 else comb(n, n // 2), 6)
    gate = Gate(tmp_path, {job.key: hashlib.sha256(good).hexdigest()})
    return gate, job, good


def test_right_report_passes(gate_and_job):
    gate, job, good = gate_and_job
    assert gate.problems(job, good) == []


def test_tampered_report_fails(gate_and_job):
    gate, job, good = gate_and_job
    tampered = good.replace(b'"20"', b'"21"')
    assert tampered != good
    found = gate.problems(job, tampered)
    assert any("frozen digest" in p for p in found)
    assert any("moment n=6" in p for p in found)


def test_wrong_report_fails_oracle_without_digest(gate_and_job):
    gate, job, _ = gate_and_job
    wrong = _moments_report(lambda v, n: 1, 6)
    gate.digests[job.key] = hashlib.sha256(wrong).hexdigest()
    assert gate.problems(job, wrong)


def test_expected_exit_3_passes():
    job = Job(("lattice", "--N", "1", "--max-n", "40"), exit_code=3)
    assert failure(job, 3, "") is None
    assert failure(job, 0, "") is not None


def test_unexpected_budget_exit_fails():
    assert failure(Job(("moments", "@mixed/K3")), 3, "") is not None


def test_traceback_fails():
    job = Job(("label", "@random/RG3_3000"))
    stderr = ("Traceback (most recent call last):\n  ...\n"
              "RecursionError: maximum recursion depth exceeded\n")
    assert failure(job, 1, stderr) == "traceback on stderr"


def test_exit_1_without_usage_error_fails_and_usage_error_does_not():
    job = Job(("info", "@random/RG2_800"), exit_code=1)
    assert failure(job, 1, "killed\n") is not None
    assert failure(job, 1, "usage error: --depth must be >= 0\n") is None


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ["cli.main", 0.0, 10.0, None, False],
        ["graphs.load_graph", 1.0, 3.0, 0, False],
        ["moments.radial_moment", 2.5, 6.0, 0, True],  # overlaps the first
        ["graphs.shadow", 3.0, 4.0, 2, False],
        ["trace.count", 6.0, 6.5, 0, False],
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 2.5, 1.0, 0.5])
    totals = layer_totals(spans)
    assert totals["cli.self_s"] == pytest.approx(4.5)
    assert totals["graphs.self_s"] == pytest.approx(3.0)
    assert totals["moments.radial_moment.errors"] == 1
    assert totals["graphs.shadow.calls"] == 1
    assert not any(k.startswith("trace.") for k in totals)


def test_pass_figures_take_medians():
    passes = [
        [("a", "moments", 1.0, 1000), ("b", "verify", 3.0, 2048),
         ("c", "verify", 0.5, 10)],
        [("a", "moments", 2.0, 1000), ("b", "verify", 1.0, 1024),
         ("c", "verify", 0.7, 10)],
        [("a", "moments", 9.0, 1000), ("b", "verify", 2.0, 1024),
         ("c", "verify", 0.6, 10)],
        [("a", "moments", 0.1, 1000)],  # a partial last pass
    ]
    figures = pass_figures(passes)
    assert figures["wall_s"] == pytest.approx(1.5 + 2.0 + 0.6)
    assert figures["op_p50_s"] == pytest.approx(1.5)
    assert figures["peak_rss_mb"] == pytest.approx(2.0)
    assert figures["cmd.moments_s"] == pytest.approx(1.5)
    assert figures["cmd.verify_s"] == pytest.approx(2.6)


def test_oracles_agree_with_known_values_and_enumeration():
    assert [tree_returns(1, n) for n in range(0, 9)] == [
        0 if n % 2 else comb(n, n // 2) for n in range(0, 9)]
    assert tree_returns(2, 4) == 28
    assert axis_paths(2, 4) == 36
    for degree, length in product((1, 2, 3), range(0, 7)):
        steps = [s for k in range(1, degree + 1) for s in (k, -k)]
        brute = sum(
            all(path.count(k) == path.count(-k) for k in range(1, degree + 1))
            for path in product(steps, repeat=length))
        assert axis_paths(degree, length) == brute
    path3 = {"vertices": ["a", "b", "c"],
             "edges": [{"id": "x", "src": "a", "dst": "b"},
                       {"id": "y", "src": "b", "dst": "c"}]}
    assert [closed_walks(path3, "b", n) for n in range(5)] == [1, 0, 2, 0, 4]


def test_seeded_corpus_is_reproducible_and_regular():
    g1 = random_regular("G", 3, 50, random.Random(7))
    assert g1 == random_regular("G", 3, 50, random.Random(7))
    assert g1 != random_regular("G", 3, 50, random.Random(8))
    for v in g1["vertices"]:
        assert sum(e["src"] == v for e in g1["edges"]) == 3
        assert sum(e["dst"] == v for e in g1["edges"]) == 3
    mixed = mixed_copy(K3, random.Random(1))
    assert sorted((e["src"], e["dst"]) for e in mixed["edges"]) == sorted(
        (e["src"], e["dst"]) for e in K3["edges"])


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return tracer.call("m.inner", inner, (x,), {})

    assert tracer.call("cli.main", outer, (1,), {}) == 1
    with pytest.raises(ValueError):
        tracer.call("cli.main", outer, (-1,), {})
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("cli.main", None, False), ("m.inner", 0, False),
                     ("cli.main", None, True), ("m.inner", 2, True)]
    assert tracer.stack == []


def test_every_job_expects_a_documented_exit_code():
    for workload in WORKLOADS.values():
        assert workload.jobs
        for job in workload.jobs:
            assert job.exit_code in (0, 2, 3)
