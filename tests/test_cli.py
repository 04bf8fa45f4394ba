import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fractaloid
from fractaloid import (
    GraphError, ParameterError, family, graph_to_json, load_graph, regularize,
    save_graph,
)
from fractaloid.cli import (
    _cmd_info, _report, _tree_to_json, _write_through, build_parser, json_text, main,
)
from fractaloid.fractality import vertex_tree
from text_oracle import text_lines


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


# The start of a valid command line of each subcommand, and an int option.
_VALID_STARTS = {
    "gen": (["--family", "circulant", "--n", "3"], "--n"),
    "info": (["g.json"], None),
    "check": (["g.json"], None),
    "pair": (["g.json"], None),
    "label": (["g.json"], None),
    "moments": (["g.json"], "--max-n"),
    "lattice": (["--N", "1"], "--N"),
    "classify": (["g.json"], None),
    "compare": (["a.json", "b.json"], "--max-n"),
    "tree": (["g.json", "--root", "v1"], "--depth"),
    "matrix": (["g.json"], "--depth"),
    "verify": (["g.json"], "--max-states"),
}


def _bad_command_lines(name: str) -> list[list[str]]:
    """Help and usage errors of the subcommand `name`: a missing required
    argument, an unknown option, a bad choice, a non-integer and an
    ambiguous or unfinished option."""
    start, int_option = _VALID_STARTS[name]
    lines = [[name, "-h"], [name, *start, "-h"], [name], [name, *start, "--bogus"],
             [name, *start, "--format", "xml"], [name, *start, "--max"],
             [name, *start, "--out"]]
    if int_option is not None:
        lines.append([name, *start, int_option, "x"])
    return lines


def _parse_outcome(capsys, parse, argv) -> tuple:
    """What `parse(argv)` prints and how it ends, as `main` reports a usage
    error: stdout, stderr and exit code (help exits 0)."""
    try:
        code = parse(argv)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 1
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("argv", [
    argv for name in _VALID_STARTS for argv in _bad_command_lines(name)
] + [["lattice", "--N", "1", "--method", "nope"], ["lattice", "--max"],
     ["lattice", "--N", "1", "extra"], ["compare", "a.json"]], ids=" ".join)
def test_parser_of_one_subcommand_parses_as_the_full_parser(capsys, argv):
    """The parser of the subcommand a command line names gives the full
    parser's help and usage errors, byte for byte, and `main` prints them."""
    full = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert full[2] in (0, 1)
    assert _parse_outcome(capsys, build_parser(argv[0]).parse_args, argv) == full
    assert _parse_outcome(capsys, main, argv) == full


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["lattic"], ["Lattice"], ["--format", "json", "lattice"],
    ["-h", "lattice"], ["--", "lattice", "--N", "1"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_command_lines_naming_no_subcommand_get_the_full_parser(capsys, argv):
    full = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert full[2] in (0, 1)
    assert _parse_outcome(capsys, main, argv) == full


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_budget_message_prints_a_total_of_any_size(capsys, fmt):
    # (2 * 10^4298)^2 = 4 * 10^8596 is twice the int-to-str digit limit of
    # Python 3.11 (and 3.10.7 onwards).
    code, stdout, err = run_cli(
        capsys, "lattice", "--N", "1" + "0" * 4298, "--max-n", "2",
        "--max-paths", "1" + "0" * 4299, "--method", "brute", "--format", fmt)
    assert code == 3
    total = "4" + "0" * 8596
    message = json.loads(stdout)["error"]["message"] if fmt == "json" else err
    assert f" {total} paths exceeds" in message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before 3.10.7")
@pytest.mark.parametrize("argv", [
    ["lattice", "--N", "2", "--max-n", "4"],
    ["lattice", "--N", "3", "--max-n", "14", "--method", "brute"],
    ["lattice", "--N", "0"],
], ids=["report", "budget", "usage"])
def test_main_restores_the_int_digit_limit(capsys, argv):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    capsys.readouterr()


def test_unindexable_max_n_is_limit_error(capsys):
    code, stdout, _ = run_cli(capsys, "lattice", "--N", "1", "--max-n",
                              "1" + "0" * 21, "--method", "recurrence")
    assert code == 3
    error = json.loads(stdout)["error"]
    assert error == {"type": "LimitError",
                     "message": "lattice: input too large to index"}


def test_matrix_walks_each_diagonal_once(capsys, monkeypatch, workdir):
    walk = fractaloid.moments.TruncatedOperator.power_diagonals
    requested = []

    def recording(self, v, n_max):
        requested.append((v, n_max))
        return walk(self, v, n_max)

    monkeypatch.setattr(fractaloid.moments.TruncatedOperator, "power_diagonals",
                        recording)
    code, _, _ = run_cli(capsys, "matrix", str(workdir / "k3.json"), "--depth", "5")
    assert code == 0
    assert requested == [("v1", 5), ("v2", 5), ("v3", 5)]


def test_matrix_builds_neither_columns_nor_basis(capsys, monkeypatch, workdir):
    # The report reads the basis size, the diagonals and the symmetry from
    # the word tree; the column dicts and the words are built only on request.
    build = fractaloid.cli.truncated_radial_matrix
    built = []

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(fractaloid.cli, "truncated_radial_matrix", recording)
    code, stdout, _ = run_cli(capsys, "matrix", str(workdir / "r2k3.json"),
                              "--depth", "4")
    assert code == 0
    [op] = built
    assert "columns" not in vars(op) and "basis" not in vars(op)
    payload = json.loads(stdout)["payload"]
    assert payload["basis_size"] == op.size == len(op.columns)
    assert payload["symmetric"] is True


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
    """The JSON and text writers and the tree converter free what they built
    but did not return on return, without waiting for the cyclic collector."""
    tree = vertex_tree(family("complete", 3), "v1", 3).root
    shared = [1, [2, 3]]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        payload = _tree_to_json(tree)
        assert gc.collect() == 0
        for value in ({"a": [1, "x", None, True], "b": {}},
                      {"tree": payload, "twice": [shared, shared]}):
            json_text(value)
            assert gc.collect() == 0
            _write_through(io.StringIO(), _report("tree", value, "text")[1])
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_tree_payload_builds_one_list_per_children_tuple():
    """`vertex_tree` shares one `children` tuple per (vertex, level), so the
    payload holds at most |V| * depth + 1 distinct children lists."""
    graph = family("complete", 4)
    payload = _tree_to_json(vertex_tree(graph, "v1", 6).root)
    lists, stack = {}, [payload]
    while stack:
        children = stack.pop()["children"]
        if id(children) not in lists:
            lists[id(children)] = children
            stack.extend(children)
    assert len(lists) <= len(graph.vertices) * 6 + 1


def test_matrix_budget_counts_the_vertex_units(capsys, tmp_path):
    save_graph(family("circulant", 5), tmp_path / "k5.json")
    code, stdout, _ = run_cli(capsys, "matrix", str(tmp_path / "k5.json"),
                              "--depth", "0", "--max-states", "1")
    assert code == 3
    assert json.loads(stdout)["error"] == {
        "type": "LimitError",
        "message": "word enumeration exceeded the 1-word budget at length 0"}
    code, stdout, _ = run_cli(capsys, "matrix", str(tmp_path / "k5.json"),
                              "--depth", "0", "--max-states", "5")
    assert code == 0 and json.loads(stdout)["payload"]["basis_size"] == 5


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


def test_tree_depth_rule_is_checked_before_the_tree_is_built(capsys, tmp_path):
    """A `tree` report nests at most `MAX_TREE_REPORT_DEPTH` (480) levels, on
    every interpreter: deeper, a root with an incident edge exits 3 before
    any node is built, and an isolated root (height 0) is written at any
    depth. Run in a fresh interpreter, whose recursion limit is the default."""
    star = tmp_path / "t11.json"
    save_graph(family("star", 1), star)
    for fmt, key in [("json", b'"children":'), ("text", b"children:")]:
        result = _run_module(["tree", str(star), "--root", "v1", "--depth", "480",
                              "--format", fmt])
        assert result.returncode == 0 and result.stderr == b""
        assert result.stdout.count(key) == 481
    result = _run_module(["tree", str(star), "--root", "v1", "--depth", "481"])
    assert result.returncode == 3 and result.stderr == b""
    assert json.loads(result.stdout)["error"] == {
        "type": "LimitError", "message": "tree: input nests too deeply"}
    result = _run_module(["tree", str(star), "--root", "v1", "--depth", "481",
                          "--format", "text"])
    assert result.returncode == 3 and result.stdout == b""
    assert result.stderr == b"error: tree: input nests too deeply\n"
    isolated = tmp_path / "i1.json"
    isolated.write_text('{"name": "I1", "vertices": ["v1"], "edges": []}')
    result = _run_module(["tree", str(isolated), "--root", "v1",
                          "--depth", "1000000"])
    assert result.returncode == 0 and result.stderr == b""
    assert json.loads(result.stdout)["payload"]["tree"]["children"] == []
    tracemalloc.start()
    try:
        code, stdout, err = run_cli(capsys, "tree", str(star), "--root", "v1",
                                    "--depth", "499999")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err == ""
    assert json.loads(stdout)["error"]["message"] == "tree: input nests too deeply"
    assert peak < 1_000_000


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


def test_huge_integer_literal_fails_fast(capsys, tmp_path):
    # No number is valid in a graph file; a 10^6-digit one is never converted.
    bad = tmp_path / "huge.json"
    bad.write_text('{"name": "g", "vertices": [' + "7" * 10**6 + '], "edges": []}',
                   encoding="utf-8")
    start = time.perf_counter()
    code, stdout, _ = run_cli(capsys, "check", str(bad))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(stdout)["error"] == {
        "type": "GraphError", "message": "vertices must be a list of strings"}


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


def _cycle_graph_text(names) -> str:
    """A graph file of the directed cycle through `names`, in that order,
    with every non-ASCII character escaped."""
    edges = [{"id": f"e{i}", "src": v, "dst": names[(i + 1) % len(names)]}
             for i, v in enumerate(names)]
    return json.dumps({"name": "cycle", "vertices": list(names), "edges": edges})


def _run_module(argv, **env):
    """Run `python -m fractaloid ARGV` with `env` added to the environment,
    capturing stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(fractaloid.__file__).parents[1]),
               **env)
    return subprocess.run([sys.executable, "-m", "fractaloid", *argv],
                          capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unencodable_report_past_first_slice(capsys, monkeypatch, tmp_path, fmt):
    """Reports are written in 64 KiB slices after a dry pass encodes them
    all: a lone surrogate rendered after the first slice still leaves no
    partial output, and the error names its position in the whole report."""
    graph = tmp_path / "g.json"
    graph.write_text(_cycle_graph_text([f"v{i}" for i in range(3000)] + ["\ud800"]))
    argv = ["info", str(graph), "--format", fmt]
    # A StringIO has no encoding, so the report is written as it is.
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv) == 0
    position = sys.stdout.getvalue().index("\ud800")
    assert position > 1 << 16
    monkeypatch.undo()

    out = tmp_path / "o.json"
    out.write_bytes(b"earlier report\n")
    for extra in ([], ["--out", str(out)]):
        code, stdout, stderr = run_cli(capsys, *argv, *extra)
        assert code == 2
        if fmt == "json":
            report = json.loads(stdout)
            assert list(report) == ["schema_version", "command", "error", "exit_code"]
            message = report["error"]["message"]
        else:
            assert stdout == ""
            message = stderr
        assert f"in position {position}:" in message
        assert out.read_bytes() == b"earlier report\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unencodable_report_after_kept_subtree_texts(capsys, monkeypatch, tmp_path,
                                                     fmt):
    """A lone surrogate that first prints after the kept texts of shared
    subtrees (a chain away from a root with three loops) is found at its
    position in the whole report, which is several MB long."""
    chain = ["r", "p1", "p2", "p3", "p4", "p5", "z\ud800"]
    edges = [{"id": loop, "src": "r", "dst": "r"} for loop in ("a", "b", "b2")]
    edges += [{"id": f"c{i}", "src": chain[i], "dst": chain[i + 1]} for i in range(6)]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"name": "late", "vertices": chain, "edges": edges}))
    argv = ["tree", str(graph), "--root", "r", "--depth", "6", "--format", fmt]
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv) == 0
    position = sys.stdout.getvalue().index("\ud800")
    assert position > 1 << 20
    monkeypatch.undo()
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    message = json.loads(stdout)["error"]["message"] if fmt == "json" else stderr
    assert f"in position {position}:" in message


def test_stdout_error_handler_decides_what_is_written(tmp_path):
    escaped = tmp_path / "escaped.json"
    escaped.write_text(_cycle_graph_text(["\udc80"]))
    result = _run_module(["info", str(escaped)],
                         PYTHONIOENCODING="utf-8:surrogateescape")
    assert result.returncode == 0
    assert b'"\x80": {' in result.stdout

    accented = tmp_path / "accented.json"
    accented.write_text(_cycle_graph_text(["\u00e9"]))
    result = _run_module(["info", str(accented)], PYTHONIOENCODING="ascii")
    assert result.returncode == 2
    report = json.loads(result.stdout)
    assert report["error"]["type"] == "GraphError"
    assert report["error"]["message"].startswith("cannot encode the report:")
    assert b"Traceback" not in result.stderr


class _FailingStdout:
    """A stdout whose every write raises `error`."""
    encoding, errors = "utf-8", "strict"

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")],
                         ids=["EPIPE", "ENOSPC"])
def test_failed_write_to_stdout_is_one_line_on_stderr(capsys, monkeypatch, workdir,
                                                      fmt, error):
    """When stdout cannot take a report, no error report is written to it:
    one `error:` line goes to stderr, in every format, and stdout is left
    pointed at os.devnull, so the interpreter's last flush raises nothing."""
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
    code = main(["info", str(workdir / "k3.json"), "--format", fmt])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot read or write file: {error}\n"
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_closed_pipe_on_stdout_is_one_line_on_stderr(tmp_path):
    save_graph(family("complete", 4), tmp_path / "c4.json")
    env = dict(os.environ, PYTHONPATH=str(Path(fractaloid.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fractaloid", "tree", str(tmp_path / "c4.json"),
         "--root", "v1", "--depth", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        # The 11 MB report is far larger than a pipe holds, so the writer is
        # still writing when the read end closes.
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b"error: cannot read or write file: [Errno 32] Broken pipe\n"


class _CountingStdout:
    """A stdout that counts the calls of its `write` and records each text
    it takes; `write` raises `error` from call number `fail_at` on (never,
    when `fail_at` is None)."""
    encoding, errors = "utf-8", "strict"

    def __init__(self, fail_at=None, error=None):
        self.calls, self.texts, self.fail_at, self.error = 0, [], fail_at, error

    def write(self, text):
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise self.error
        self.texts.append(text)

    def flush(self):
        pass


@pytest.mark.parametrize("graph, argv", [
    (("complete", 4), ["tree", "--root", "v1", "--depth", "6"]),
    (("circulant", 5000), ["info"]),
    (("complete", 4), ["tree", "--root", "v1", "--depth", "6", "--format", "text"]),
    (("circulant", 5000), ["info", "--format", "text"]),
], ids=["tree", "info", "tree-text", "info-text"])
def test_streamed_report_reaches_stdout_in_chunks(monkeypatch, tmp_path, graph, argv):
    """A large report reaches stdout in chunks of tens of KiB, not one piece
    at a time (a stdout that writes through, as under PYTHONUNBUFFERED,
    would pay a system call per write), in JSON and in text: the 11 MB
    vertex tree of complete 4 at depth 6 (7 MB in text), most of it kept
    subtree texts, and `info` of 5,000 vertices, all of it small pieces.
    The JSON text is the stdlib's, and the text is the reference's."""
    save_graph(family(*graph), tmp_path / "g.json")
    argv = [argv[0], str(tmp_path / "g.json"), *argv[1:]]
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    monkeypatch.undo()
    args = build_parser().parse_args(argv)
    payload = args.handler(args)
    envelope = {"schema_version": "1.0", "command": argv[0],
                "payload": payload, "warnings": []}
    report = "".join(stdout.texts)
    if args.format == "json":
        assert report == json.dumps(envelope, indent=2, ensure_ascii=False) + "\n"
    else:
        assert report == "".join(line + "\n" for line in text_lines(payload))
    assert len(stdout.texts) <= len(report) / (32 << 10) + 2


def test_stdout_failing_part_way_through_a_report(capsys, monkeypatch, tmp_path):
    """A stdout that takes the first chunk of a streamed report and then
    fails: one `error:` line on stderr, nothing more offered to that stdout,
    exit 2, and stdout left at os.devnull for the interpreter's last flush."""
    save_graph(family("complete", 4), tmp_path / "c4.json")
    error = BrokenPipeError(errno.EPIPE, "Broken pipe")
    stdout = _CountingStdout(fail_at=2, error=error)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["tree", str(tmp_path / "c4.json"), "--root", "v1", "--depth", "6"])
    assert code == 2
    assert stdout.calls == 2
    assert len(stdout.texts) == 1 and stdout.texts[0].startswith('{\n  "schema')
    assert capsys.readouterr().err == f"error: cannot read or write file: {error}\n"
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_out_file_is_json_report(capsys, workdir):
    code, stdout, err = run_cli(capsys, "info", str(workdir / "k3.json"),
                                "--out", "/dev/full")
    assert code == 2 and err == ""
    assert json.loads(stdout)["error"] == {
        "type": "GraphError",
        "message": "cannot read or write file: [Errno 28] No space left on device"}


def test_report_to_stream_without_encoding_is_unchanged(monkeypatch, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(UNENCODABLE_GRAPH)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(["info", str(graph)]) == 0
    payload = {
        "name": "s", "vertex_count": 1, "edge_count": 1, "connected": True,
        "max_out_degree": 1, "degrees": {"\ud800": {"out": 1, "in": 1, "total": 2}},
    }
    report = {"schema_version": "1.0", "command": "info", "payload": payload,
              "warnings": []}
    assert sys.stdout.getvalue() == json.dumps(report, indent=2,
                                               ensure_ascii=False) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_tree_report_is_written_without_a_second_copy(monkeypatch, tmp_path, fmt):
    """The 11 MB vertex tree of complete 4 at depth 6, written to a real
    file, peaks under 1.85 times the report length: about 0.82 in JSON and
    0.81 in text on 3.10 and 3.11, and 1.03 and 1.01 on 3.12 and 3.13.
    Encoding the whole report in one piece read 2.0 in both formats, and so
    did adding the final newline of text as a second join."""
    save_graph(family("complete", 4), tmp_path / "c4.json")
    path = tmp_path / "report"
    with open(path, "w", encoding="utf-8") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        tracemalloc.start()
        try:
            code = main(["tree", str(tmp_path / "c4.json"), "--root", "v1",
                         "--depth", "6", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1.85 * len(path.read_text(encoding="utf-8"))


def test_text_tree_report_holds_no_list_of_its_lines(monkeypatch, tmp_path):
    """The text report of the same tree, written to a real file, peaks under
    1.1 times its length: about 0.81 on 3.10 and 3.11, and 1.01 on 3.12 and
    3.13. It is streamed by the JSON report's walk, with its one cache of
    shared subtree texts. A list of every line, joined in batches, read 1.29."""
    save_graph(family("complete", 4), tmp_path / "c4.json")
    path = tmp_path / "report"
    with open(path, "w", encoding="utf-8") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        tracemalloc.start()
        try:
            code = main(["tree", str(tmp_path / "c4.json"), "--root", "v1",
                         "--depth", "6", "--format", "text"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1.1 * len(path.read_text(encoding="utf-8"))


def test_info_drops_the_graph_before_the_degrees(tmp_path):
    """`info` on 20,000 vertices peaks near the loaded graph: about 0.7
    times the graph and the degree object together, against 0.96 when it
    held both."""
    path = tmp_path / "k20000.json"
    save_graph(family("circulant", 20_000), path)
    args = build_parser().parse_args(["info", str(path)])
    tracemalloc.start()
    try:
        graph = load_graph(path)
        kept = tracemalloc.get_traced_memory()[0]
        del graph
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        payload = _cmd_info(args)
        degrees, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(payload["degrees"]) == 20_000
    assert peak < 0.8 * (kept + degrees)


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


@pytest.mark.parametrize("argv, fmt", [
    pytest.param(argv, fmt, id=f"{name}-{fmt}")
    for name, argv, by_format in GOLDEN
    for fmt, expected in by_format.items() if expected[0] == 0
])
def test_out_file_holds_the_bytes_of_stdout(capsys, workdir, argv, fmt):
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    code, stdout, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    # Not a *.json file, so `classify` of the workdir does not read it.
    out = workdir / "report.out"
    code, written, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(out))
    assert (code, written) == (0, "")
    assert out.read_bytes() == stdout.encode("utf-8")
