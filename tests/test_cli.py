import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fractaloid
from fractaloid import (
    GraphError, family, graph_to_json, load_graph, regularize, save_graph,
)
from fractaloid.cli import _tree_to_json, json_text, main
from fractaloid.fractality import vertex_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path):
    save_graph(family("circulant", 3), tmp_path / "k3.json")
    save_graph(family("loops", 2), tmp_path / "o2.json")
    save_graph(family("complete", 3), tmp_path / "c3.json")
    save_graph(family("star", 2), tmp_path / "t21.json")
    save_graph(regularize(family("circulant", 3), 2), tmp_path / "r2k3.json")
    return tmp_path


def test_gen_writes_family_graph(capsys, tmp_path):
    out = tmp_path / "k3.json"
    code, stdout, _ = run_cli(capsys, "gen", "--family", "circulant", "--n", "3",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    assert load_graph(out) == family("circulant", 3)


def test_gen_stdout_matches_graph_schema(capsys):
    code, stdout, _ = run_cli(capsys, "gen", "--family", "loops", "--n", "1")
    assert code == 0
    assert json.loads(stdout) == graph_to_json(family("loops", 1))


def test_gen_transform_flags(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "gen", "--family", "circulant", "--n", "3",
                         "--regularize", "2", "--loops", "1", "--out", str(out))
    assert code == 0
    graph = load_graph(out)
    assert len(graph.edges) == 9
    for v in graph.vertices:
        assert graph.degrees(v).out_degree == 3


def test_gen_bad_family_is_usage_error(capsys):
    code, stdout, _ = run_cli(capsys, "gen", "--family", "pentagon", "--n", "3")
    assert code == 1
    report = json.loads(stdout)
    assert report["error"]["type"] == "ParameterError"
    assert "pentagon" in report["error"]["message"]
    # In text mode the message lands on stderr instead.
    code, _, err = run_cli(capsys, "gen", "--family", "pentagon", "--n", "3",
                           "--format", "text")
    assert code == 1 and "pentagon" in err


def test_check_fractal_graph(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "check", str(workdir / "k3.json"))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload == {"graph": "K3", "fractal": True, "pair": [1, 3],
                       "reason": None}


def test_check_non_fractal_graph_succeeds(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "check", str(workdir / "t21.json"))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["fractal"] is False and payload["pair"] is None
    assert "v1" in payload["reason"]


def test_pair_errors_on_non_fractal(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "pair", str(workdir / "t21.json"))
    assert code == 2
    assert json.loads(stdout)["error"]["type"] == "NotFractalError"


def test_info_payload(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "info", str(workdir / "c3.json"))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["vertex_count"] == 3
    assert payload["edge_count"] == 6
    assert payload["connected"] is True
    assert payload["degrees"]["v1"] == {"out": 2, "in": 2, "total": 4}


def test_moments_matches_matrix_diagonal(capsys, workdir):
    code, m_out, _ = run_cli(capsys, "moments", str(workdir / "o2.json"),
                             "--max-n", "4")
    assert code == 0
    moments = json.loads(m_out)["payload"]["moments"]
    code, x_out, _ = run_cli(capsys, "matrix", str(workdir / "o2.json"),
                             "--depth", "4")
    assert code == 0
    matrix = json.loads(x_out)["payload"]
    assert matrix["symmetric"] is True
    for entry, diag in zip(moments, matrix["diagonal"]):
        assert entry["n"] == diag["n"]
        assert entry["per_vertex"] == diag["per_vertex"]


def test_lattice_table_all_methods(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "2", "--max-n", "4")
    assert code == 0
    rows = json.loads(stdout)["payload"]["rows"]
    assert rows[4] == {"n": 4, "total": "256", "brute": "36",
                       "recurrence": "36", "closed_form": "36"}


def test_lattice_method_restriction(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "3", "--max-n", "2",
                              "--method", "recurrence")
    assert code == 0
    rows = json.loads(stdout)["payload"]["rows"]
    assert rows[2]["recurrence"] == "6"
    assert rows[2]["brute"] is None and rows[2]["closed_form"] is None


def test_lattice_closed_method_requires_small_bound(capsys):
    code, _, err = run_cli(capsys, "lattice", "--N", "3", "--max-n", "2",
                           "--method", "closed", "--format", "text")
    assert code == 1
    assert "closed" in err


def test_lattice_budget_exceeded(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "3", "--max-n", "14",
                              "--method", "brute")
    assert code == 3
    assert json.loads(stdout)["error"]["type"] == "LimitError"


def test_lattice_brute_force_fails_at_first_over_budget_length(capsys, monkeypatch):
    enumerate_paths = fractaloid.cli.count_axis_paths_bruteforce
    requested = []

    def recording(n_bound, length, **kwargs):
        requested.append(length)
        return enumerate_paths(n_bound, length, **kwargs)

    monkeypatch.setattr(fractaloid.cli, "count_axis_paths_bruteforce", recording)
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "1", "--max-n", "40",
                              "--max-paths", "1000000")
    assert code == 3
    # 2^20 = 1048576 is the first length over the budget; the table fails
    # there without enumerating any shorter length.
    assert requested == [20]
    assert "1048576 paths" in json.loads(stdout)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["verify", "@k3.json", "--max-n", "3000", "--max-states", "10"],
    ["lattice", "--N", "1", "--max-n", "3000", "--max-paths", "10"],
    ["compare", "@k3.json", "@c3.json", "--max-n", "1200", "--max-states", "4000"],
], ids=["verify", "lattice", "compare"])
def test_budget_fails_before_any_unbudgeted_column(capsys, workdir, argv):
    # The lattice column of a 3000-order table peaks near 0.5 MB, and the
    # first graph's 1200-order moment table near 1.2 MB; a job that fails at
    # its budget check peaks under 0.1 MB.
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "LimitError"
    assert peak < 200_000


def test_lattice_recurrence_needs_no_budget(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "10", "--max-n", "60",
                              "--method", "recurrence")
    assert code == 0
    rows = json.loads(stdout)["payload"]["rows"]
    assert rows[2]["recurrence"] == "20" and rows[4]["recurrence"] == "1140"
    assert all(row["recurrence"] == "0" for row in rows[1::2])


def test_lattice_csv_format(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "1", "--max-n", "2",
                              "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "N,n,total,brute,recurrence,closed_form"
    assert lines[3] == "1,2,4,2,2,2"


def test_classify_directory(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "classify", str(workdir))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    pairs = {tuple(c["pair"]): c["graphs"] for c in payload["classes"]}
    assert pairs[(2, 3)] == ["C3", "R2(K3)"]  # directory scan sorts filenames
    assert [r["graph"] for r in payload["rejected"]] == ["T2_1"]


def test_classify_is_deterministic(capsys, workdir):
    _, first, _ = run_cli(capsys, "classify", str(workdir))
    _, second, _ = run_cli(capsys, "classify", str(workdir))
    assert first == second


def test_classify_equals_union_of_checks(capsys, workdir):
    _, stdout, _ = run_cli(capsys, "classify", str(workdir))
    payload = json.loads(stdout)["payload"]
    classified = {
        name: tuple(cls["pair"])
        for cls in payload["classes"]
        for name in cls["graphs"]
    }
    rejected = {r["graph"] for r in payload["rejected"]}
    for path in sorted(workdir.glob("*.json")):
        _, check_out, _ = run_cli(capsys, "check", str(path))
        check = json.loads(check_out)["payload"]
        if check["fractal"]:
            assert classified[check["graph"]] == tuple(check["pair"])
        else:
            assert check["graph"] in rejected


def test_classify_reports_first_unloadable_file(capsys, workdir):
    # Graphs load one at a time as they are classified; a bad file sorted
    # after the valid ones still fails the command with its own error.
    first, second = workdir / "x_bad.json", workdir / "y_bad.json"
    first.write_text("{", encoding="utf-8")
    second.write_text("[]", encoding="utf-8")
    with pytest.raises(GraphError) as excinfo:
        load_graph(first)
    code, stdout, _ = run_cli(capsys, "classify", str(workdir))
    assert code == 2
    assert json.loads(stdout)["error"] == {
        "type": "GraphError", "message": str(excinfo.value),
    }


def test_classify_holds_one_graph_at_a_time(tmp_path):
    """Three large graphs peak about as one does: each graph is dropped
    before the next is loaded. Holding the previous one read 1.5 to 1.7
    times the peak of one graph."""
    paths = []
    for name in ("a", "b", "c"):
        paths.append(str(tmp_path / f"{name}.json"))
        save_graph(family("circulant", 5000), paths[-1])

    def peak(graphs):
        tracemalloc.start()
        try:
            assert main(["classify", *graphs, "--out", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(paths[:1])
    assert peak(paths) < 1.25 * one


def test_writers_leave_no_reference_cycle():
    """The JSON writer and the tree converter free what they built but did
    not return on return, without waiting for the cyclic collector."""
    tree = vertex_tree(family("complete", 3), "v1", 3).root
    shared = [1, [2, 3]]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        payload = _tree_to_json(tree)
        assert gc.collect() == 0
        json_text({"a": [1, "x", None, True], "b": {}})
        assert gc.collect() == 0
        json_text({"tree": payload, "twice": [shared, shared]})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_compare_same_class_graphs(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "compare", str(workdir / "r2k3.json"),
                              str(workdir / "c3.json"), "--max-n", "6")
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["isomorphic"] is False
    assert payload["identically_distributed"] is True
    assert payload["pairs"] == [[2, 3], [2, 3]]


def test_tree_subcommand(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "tree", str(workdir / "k3.json"),
                              "--root", "v1", "--depth", "2")
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["regular_branching"] == 2
    assert payload["regular"] is True
    assert len(payload["tree"]["children"]) == 2


def test_deep_tree_is_budget_error(capsys, tmp_path):
    save_graph(family("star", 1), tmp_path / "t11.json")
    code, stdout, err = run_cli(capsys, "tree", str(tmp_path / "t11.json"),
                                "--root", "v1", "--depth", "900")
    assert code == 3 and err == ""
    assert json.loads(stdout)["error"]["type"] == "LimitError"


@pytest.mark.parametrize("fmt, key", [("json", '"children":'),
                                      ("text", "children:")])
def test_writers_nest_one_level_per_call(tmp_path, fmt, key):
    """A tree 450 levels deep is still written in a fresh interpreter: one
    more call per nesting level in a writer would exceed the recursion
    limit. The report is scanned, not parsed: `json.loads` recurses too."""
    save_graph(family("star", 1), tmp_path / "t11.json")
    env = dict(os.environ, PYTHONPATH=str(Path(fractaloid.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "fractaloid", "tree", str(tmp_path / "t11.json"),
         "--root", "v1", "--depth", "450", "--format", fmt],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.count(key) == 451


def test_label_subcommand(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "label", str(workdir / "o2.json"))
    assert code == 0
    assert json.loads(stdout)["payload"] == {"N": 2,
                                             "labels": {"e1": 1, "e2": 2}}


def test_verify_divergence_flags(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "verify", str(workdir / "o2.json"),
                              "--max-n", "4")
    assert code == 0
    rows = json.loads(stdout)["payload"]["rows"]
    assert rows[3]["walk"] == "28" and rows[3]["lattice"] == "36"
    assert rows[3]["a_eq_b"] is True and rows[3]["a_eq_c"] is False


def test_verify_csv(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "verify", str(workdir / "k3.json"),
                              "--max-n", "2", "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("graph,N,n,walk")
    assert lines[2].startswith("K3,1,2,2,2,2")


@pytest.mark.parametrize("content", [
    pytest.param(b"{", id="truncated"),
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    # Over the int-to-str digit limit of Python 3.11 (and 3.10.7 onwards).
    pytest.param(b"1" * 5000, id="huge-int"),
])
def test_malformed_graph_file(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, stdout, _ = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert json.loads(stdout)["error"]["type"] == "GraphError"


def test_duplicate_edge_id_names_offender(capsys, tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({
        "name": "dup",
        "vertices": ["a"],
        "edges": [{"id": "e", "src": "a", "dst": "a"},
                  {"id": "e", "src": "a", "dst": "a"}],
    }), encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "'e'" in json.loads(stdout)["error"]["message"]


def test_unknown_endpoint_names_edge(capsys, tmp_path):
    bad = tmp_path / "dangling.json"
    bad.write_text(json.dumps({
        "name": "dangling",
        "vertices": ["a"],
        "edges": [{"id": "e9", "src": "a", "dst": "zz"}],
    }), encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "e9" in json.loads(stdout)["error"]["message"]


def test_missing_file(capsys, tmp_path):
    code, stdout, _ = run_cli(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2


def test_env_var_caps_moment_states(capsys, workdir, monkeypatch):
    monkeypatch.setenv("FRACTALOID_MAX_STATES", "5")
    code, stdout, _ = run_cli(capsys, "moments", str(workdir / "o2.json"),
                              "--max-n", "6")
    assert code == 3
    assert json.loads(stdout)["error"]["type"] == "LimitError"
    # An explicit flag beats the environment.
    code, _, _ = run_cli(capsys, "moments", str(workdir / "o2.json"),
                         "--max-n", "6", "--max-states", "1000000")
    assert code == 0


def test_max_states_flag_below_one_is_usage_error(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "moments", str(workdir / "o2.json"),
                              "--max-states", "0")
    assert code == 1
    report = json.loads(stdout)
    assert report["error"]["type"] == "ParameterError"
    assert "--max-states" in report["error"]["message"]


def test_max_states_env_below_one_is_usage_error(capsys, workdir, monkeypatch):
    monkeypatch.setenv("FRACTALOID_MAX_STATES", "-3")
    code, stdout, _ = run_cli(capsys, "verify", str(workdir / "o2.json"))
    assert code == 1
    report = json.loads(stdout)
    assert report["error"]["type"] == "ParameterError"
    assert "FRACTALOID_MAX_STATES" in report["error"]["message"]


def test_max_paths_below_one_is_usage_error(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "1", "--max-n", "2",
                              "--max-paths", "0")
    assert code == 1
    report = json.loads(stdout)
    assert report["error"]["type"] == "ParameterError"
    assert "--max-paths" in report["error"]["message"]


def test_out_flag_writes_report(capsys, workdir, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "check", str(workdir / "k3.json"),
                              "--out", str(out))
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["payload"]["fractal"] is True


def test_out_to_missing_directory_is_graph_error(tmp_path):
    # Run as `python -m fractaloid`, so a traceback would show on stderr.
    out = tmp_path / "missing" / "x.json"
    env = dict(os.environ, PYTHONPATH=str(Path(fractaloid.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "fractaloid", "lattice", "--N", "1",
         "--max-n", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 2
    report = json.loads(result.stdout)
    assert report["error"]["type"] == "GraphError"
    assert report["exit_code"] == 2
    assert "Traceback" not in result.stderr
    assert not out.parent.exists()


# A vertex named by a lone surrogate loads from JSON but cannot be encoded.
UNENCODABLE_GRAPH = (
    '{"name": "s", "vertices": ["\\ud800"], '
    '"edges": [{"id": "e1", "src": "\\ud800", "dst": "\\ud800"}]}'
)


def test_unencodable_report_leaves_out_file_unchanged(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(UNENCODABLE_GRAPH)
    out = tmp_path / "o.json"
    out.write_bytes(b"earlier report\n")
    code, stdout, _ = run_cli(capsys, "info", str(graph), "--out", str(out))
    assert code == 2
    assert json.loads(stdout)["error"]["type"] == "GraphError"
    assert out.read_bytes() == b"earlier report\n"


def test_unencodable_report_is_graph_error(tmp_path):
    # Run as `python -m fractaloid`, so a traceback would show on stderr.
    graph = tmp_path / "g.json"
    graph.write_text(UNENCODABLE_GRAPH)
    env = dict(os.environ, PYTHONPATH=str(Path(fractaloid.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "fractaloid", "info", str(graph)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 2
    report = json.loads(result.stdout)
    assert report["error"]["type"] == "GraphError"
    assert report["exit_code"] == 2
    assert "Traceback" not in result.stderr

def test_text_format(capsys, workdir):
    code, stdout, _ = run_cli(capsys, "check", str(workdir / "k3.json"),
                              "--format", "text")
    assert code == 0
    assert "fractal: True" in stdout


def test_csv_unavailable_for_nested_payloads(capsys, workdir):
    code, _, err = run_cli(capsys, "tree", str(workdir / "k3.json"),
                           "--root", "v1", "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_schema_version_present(capsys, workdir):
    _, stdout, _ = run_cli(capsys, "info", str(workdir / "k3.json"))
    report = json.loads(stdout)
    assert report["schema_version"] == "1.0"
    assert report["command"] == "info"
    assert report["warnings"] == []


# Every subcommand in every format, pinned to its exit code, the leading 16
# hex digits of the sha256 of its stdout, and its stderr. In an argv, "@name"
# is a workdir file and "@" the workdir itself.
EMPTY = "e3b0c44298fc1c14"


def _no_csv(command):
    return 1, EMPTY, f"error: csv format is not available for {command!r}\n"


def _error(code, message):
    return code, EMPTY, f"error: {message}\n"


NOT_FRACTAL = ("graph 'T2_1' is not fractal: vertex 'v1' has out-degree 2 "
               "and in-degree 0, expected 2 and 2")
UNKNOWN_FAMILY = ("unknown family 'pentagoné'; expected one of "
                  "('loops', 'circulant', 'complete', 'path', 'star')")
OVER_BUDGET = ("brute-force enumeration of 10077696 paths exceeds the "
               "10000000-path budget")

GOLDEN = [
    ("gen", ["gen", "--family", "circulant", "--n", "3"], {
        "json": (0, "c043200166e1b6a6", ""), "csv": _no_csv("gen"),
        "text": (0, "bb69c5297e31875a", "")}),
    ("gen-unicode", ["gen", "--family", "loops", "--n", "2", "--name", "λ"], {
        "json": (0, "8704bfca33654625", ""), "csv": _no_csv("gen"),
        "text": (0, "a44e7f907aff1081", "")}),
    ("info", ["info", "@c3.json"], {
        "json": (0, "4555149c5a28290d", ""), "csv": _no_csv("info"),
        "text": (0, "b9f95df0ccca1b4d", "")}),
    ("check-fractal", ["check", "@k3.json"], {
        "json": (0, "9714c849b35bc3f7", ""), "csv": _no_csv("check"),
        "text": (0, "e607f1e2b3538c9a", "")}),
    ("check-non-fractal", ["check", "@t21.json"], {
        "json": (0, "ba03c81ccd72588d", ""), "csv": _no_csv("check"),
        "text": (0, "83d00a171634efd4", "")}),
    ("pair", ["pair", "@r2k3.json"], {
        "json": (0, "36cd351024b47a64", ""), "csv": _no_csv("pair"),
        "text": (0, "a1a43689bcac7b35", "")}),
    ("label", ["label", "@o2.json"], {
        "json": (0, "5488edc072c7dbd2", ""), "csv": _no_csv("label"),
        "text": (0, "874322b35b163bf1", "")}),
    ("moments", ["moments", "@o2.json", "--max-n", "4"], {
        "json": (0, "e76ff99b4ab0c119", ""), "csv": (0, "454d088f46aa230a", ""),
        "text": (0, "ba0ba912110fd940", "")}),
    ("lattice", ["lattice", "--N", "2", "--max-n", "4"], {
        "json": (0, "646449da6420ae09", ""), "csv": (0, "1536f557cccc2ae3", ""),
        "text": (0, "5a0bfffa3e00253f", "")}),
    ("lattice-closed", ["lattice", "--N", "2", "--max-n", "4", "--method", "closed"], {
        "json": (0, "96f60eb68eb7156f", ""), "csv": (0, "fe0a254af3b7e2bb", ""),
        "text": (0, "2566d9c701c89fe7", "")}),
    ("classify", ["classify", "@"], {
        "json": (0, "accd210435af8558", ""), "csv": (0, "c0839137417e65b5", ""),
        "text": (0, "20f6a0702830d0f5", "")}),
    ("compare", ["compare", "@r2k3.json", "@c3.json", "--max-n", "6"], {
        "json": (0, "6010f9e83ed54b24", ""), "csv": _no_csv("compare"),
        "text": (0, "4ed152439f408bb3", "")}),
    ("compare-non-fractal", ["compare", "@t21.json", "@k3.json", "--max-n", "4"], {
        "json": (0, "e5c4fc2e8a2b16d1", ""), "csv": _no_csv("compare"),
        "text": (0, "b6c931aa23036ede", "")}),
    ("matrix", ["matrix", "@o2.json", "--depth", "3"], {
        "json": (0, "e083eed0196b3059", ""), "csv": _no_csv("matrix"),
        "text": (0, "a8014ba4d1a51f5e", "")}),
    ("verify", ["verify", "@o2.json", "--max-n", "4"], {
        "json": (0, "0614a71189326547", ""), "csv": (0, "4dab847f5817fe1f", ""),
        "text": (0, "545db04f9f1456ab", "")}),
    # The vertex tree of K3 shares its subtrees.
    ("tree", ["tree", "@k3.json", "--root", "v1", "--depth", "3"], {
        "json": (0, "7109bb097fe3dc7d", ""), "csv": _no_csv("tree"),
        "text": (0, "7a84be71fcc693ea", "")}),
    ("exit1-unicode", ["gen", "--family", "pentagoné", "--n", "3"], {
        "json": (1, "2f15c18b910f48ae", ""), "csv": _error(1, UNKNOWN_FAMILY),
        "text": _error(1, UNKNOWN_FAMILY)}),
    ("exit1-max-n", ["moments", "@o2.json", "--max-n", "0"], {
        "json": (1, "fa01ecc0845ec356", ""),
        "csv": _error(1, "--max-n must be >= 1"),
        "text": _error(1, "--max-n must be >= 1")}),
    ("exit2-not-fractal", ["pair", "@t21.json"], {
        "json": (2, "77bf2f0bea564126", ""), "csv": _error(2, NOT_FRACTAL),
        "text": _error(2, NOT_FRACTAL)}),
    ("exit3-budget", ["lattice", "--N", "3", "--max-n", "14", "--method", "brute"], {
        "json": (3, "c6e081497a037eb9", ""), "csv": _error(3, OVER_BUDGET),
        "text": _error(3, OVER_BUDGET)}),
]


@pytest.mark.parametrize("argv, fmt, expected", [
    pytest.param(argv, fmt, expected, id=f"{name}-{fmt}")
    for name, argv, by_format in GOLDEN
    for fmt, expected in by_format.items()
])
def test_report_bytes_are_pinned(capsys, workdir, argv, fmt, expected):
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    code, stdout, err = run_cli(capsys, *argv, "--format", fmt)
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]
    assert (code, digest, err) == expected
