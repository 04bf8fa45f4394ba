"""Command-line front end: graph generation and IO, analysis subcommands,
and the three-way moment verification harness.

Reports are deterministic: stable key order, counts as decimal strings, no
timestamps. Exit codes: 0 success, 1 usage error, 2 invalid graph or domain
error, 3 computation budget exceeded.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .errors import (
    DisconnectedGraphError,
    FractaloidError,
    GraphError,
    LimitError,
    NotFractalError,
    ParameterError,
)
from .fractality import (
    classification_report,
    classify,
    fractal_pair,
    max_out_degree,
    tree_regular_to_depth,
    vertex_tree,
)
from .graphs import (
    DirectedGraph,
    family,
    graph_to_json,
    is_connected,
    iterated_glue_loops,
    load_graph,
    regularize,
)
from .isomorphism import graph_isomorphic
from .labeling import canonical_labeling, labeling_dump
from .lattice import (
    DEFAULT_MAX_PATHS,
    axis_path_counts,
    closed_form_count,
    count_axis_paths_bruteforce,
)
from .moments import (
    DEFAULT_MAX_STATES,
    identically_distributed,
    moment_report,
    radial_moments,
    truncated_radial_matrix,
    verification_report,
    verify_moment_theorem,
)

SCHEMA_VERSION = "1.0"

MAX_STATES_ENV = "FRACTALOID_MAX_STATES"

# The deepest tree a `tree` report may nest. The writer recurses once per
# nesting level, and a fresh interpreter's recursion limit lets it reach
# 493 levels on 3.10 (495 on 3.12); 480 keeps headroom on every interpreter.
MAX_TREE_REPORT_DEPTH = 480


def _resolve_max_states(args: argparse.Namespace) -> int:
    source, cap = "--max-states", getattr(args, "max_states", None)
    if cap is None:
        source, env = MAX_STATES_ENV, os.environ.get(MAX_STATES_ENV)
        if env is None:
            return DEFAULT_MAX_STATES
        try:
            cap = int(env)
        except ValueError:
            raise ParameterError(
                f"{MAX_STATES_ENV} must be an integer, got {env!r}"
            ) from None
    if cap < 1:
        raise ParameterError(f"{source} must be >= 1, got {cap}")
    return cap


# --- subcommand handlers; each returns its payload ---------------------------

def _cmd_gen(args) -> dict:
    graph = family(args.family, args.n)
    if args.regularize is not None:
        graph = regularize(graph, args.regularize)
    if args.loops is not None:
        graph = iterated_glue_loops(graph, args.loops)
    if args.name is not None:
        graph = DirectedGraph(args.name, graph.vertices, graph.edges)
    return graph_to_json(graph)


def _cmd_info(args) -> dict:
    graph = load_graph(args.graph)
    report = {
        "name": graph.name,
        "vertex_count": len(graph.vertices),
        "edge_count": len(graph.edges),
        "connected": is_connected(graph),
        "max_out_degree": max_out_degree(graph) if graph.vertices else None,
    }
    table = list(graph.degree_table())
    # The graph is dropped before the degree object is built, so the two are
    # never held together.
    del graph
    report["degrees"] = {v: {"out": out, "in": inc, "total": out + inc}
                         for v, out, inc in table}
    return report


def _pair_or_reason(graph) -> tuple[list[int] | None, str | None]:
    """The fractal pair of `graph` and None, or None and why it has none."""
    try:
        return list(fractal_pair(graph)), None
    except (NotFractalError, DisconnectedGraphError) as exc:
        return None, str(exc)


def _cmd_check(args) -> dict:
    graph = load_graph(args.graph)
    pair, reason = _pair_or_reason(graph)
    return {"graph": graph.name, "fractal": pair is not None, "pair": pair,
            "reason": reason}


def _cmd_pair(args) -> dict:
    graph = load_graph(args.graph)
    return {"graph": graph.name, "pair": list(fractal_pair(graph))}


def _cmd_label(args) -> dict:
    graph = load_graph(args.graph)
    return labeling_dump(canonical_labeling(graph))


def _cmd_moments(args) -> dict:
    if args.max_n < 1:
        raise ParameterError("--max-n must be >= 1")
    graph = load_graph(args.graph)
    cap = _resolve_max_states(args)
    reports = [
        moment_report(graph, moment)
        for moment in radial_moments(graph, args.max_n, max_states=cap)
    ]
    return {"graph": graph.name, "moments": reports}


def _cmd_lattice(args) -> dict:
    if args.n_bound < 1:
        raise ParameterError("--N must be >= 1")
    if args.max_n < 0:
        raise ParameterError("--max-n must be >= 0")
    if args.method == "closed" and args.n_bound not in (1, 2):
        raise ParameterError("--method closed requires --N 1 or --N 2")
    if args.max_paths < 1:
        raise ParameterError("--max-paths must be >= 1")
    brute = args.method in (None, "brute")
    closed = args.method in (None, "closed") and args.n_bound in (1, 2)
    if brute:
        # The first length over the budget fails before any column is computed.
        for n in range(args.max_n + 1):
            if (2 * args.n_bound) ** n > args.max_paths:
                count_axis_paths_bruteforce(args.n_bound, n, max_paths=args.max_paths)
    recurrence = (axis_path_counts(args.n_bound, args.max_n)
                  if args.method in (None, "recurrence") else None)
    rows = [{
        "n": n,
        "total": str((2 * args.n_bound) ** n),
        "brute": str(count_axis_paths_bruteforce(
            args.n_bound, n, max_paths=args.max_paths)) if brute else None,
        "recurrence": None if recurrence is None else str(recurrence[n]),
        "closed_form": str(closed_form_count(args.n_bound, n)) if closed else None,
    } for n in range(args.max_n + 1)]
    return {"N": args.n_bound, "rows": rows}


def _collect_graph_paths(paths: list[Path]) -> list[Path]:
    found: list[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(sorted(path.glob("*.json")))
        else:
            found.append(path)
    return found


def _cmd_classify(args) -> dict:
    # One graph is held at a time. Classification never raises, so the first
    # file that fails to load still gives the error.
    graphs = (load_graph(p) for p in _collect_graph_paths(args.graphs))
    return classification_report(classify(graphs))


def _cmd_compare(args) -> dict:
    g1 = load_graph(args.graph1)
    g2 = load_graph(args.graph2)
    cap = _resolve_max_states(args)
    match = graph_isomorphic(g1, g2)
    return {
        "graphs": [g1.name, g2.name],
        "isomorphic": match is not None,
        "vertex_map": None if match is None else match.vertex_map,
        "pairs": [_pair_or_reason(g)[0] for g in (g1, g2)],
        "identically_distributed": identically_distributed(
            g1, g2, args.max_n, max_states=cap
        ),
        "max_n": args.max_n,
    }


def _tree_to_json(node, lists: dict | None = None) -> dict:
    """The payload of the vertex tree at `node`, one dict per distinct node
    and one list per distinct `children` tuple: shared subtrees share their
    lists. `lists` keeps the children list built for each `children` tuple
    by tuple id, so each tuple is converted once."""
    if lists is None:
        lists = {}
    children = lists.get(id(node.children))
    if children is None:
        children = lists[id(node.children)] = [
            _tree_to_json(child, lists) for child in node.children]
    return {"vertex": node.vertex,
            "arc": None if node.arc is None else node.arc.token,
            "children": children}


def _cmd_tree(args) -> dict:
    graph = load_graph(args.graph)
    # A root with an incident edge has a tree as high as `--depth`, since every
    # arc has a reverse; an isolated root has height 0. The check comes before
    # any node is built.
    if args.depth > MAX_TREE_REPORT_DEPTH and graph.degrees(args.root).total:
        raise LimitError("tree: input nests too deeply")
    tree = vertex_tree(graph, args.root, args.depth)
    branching = 2 * max_out_degree(graph)
    return {
        "graph": graph.name,
        "root": args.root,
        "depth": args.depth,
        "regular_branching": branching,
        "regular": tree_regular_to_depth(tree, branching),
        "tree": _tree_to_json(tree.root),
    }


def _cmd_matrix(args) -> dict:
    if args.depth < 0:
        raise ParameterError("--depth must be >= 0")
    graph = load_graph(args.graph)
    cap = _resolve_max_states(args)
    op = truncated_radial_matrix(graph, args.depth, max_words=cap)
    powers = {v: op.power_diagonals(v, args.depth) for v in graph.vertices}
    diagonal = [{"n": n, "per_vertex": {v: str(d[n]) for v, d in powers.items()}}
                for n in range(1, args.depth + 1)]
    return {
        "graph": graph.name,
        "depth": args.depth,
        "basis_size": op.size,
        "symmetric": op.is_symmetric(),
        "diagonal": diagonal,
    }


def _cmd_verify(args) -> dict:
    if args.max_n < 1:
        raise ParameterError("--max-n must be >= 1")
    graph = load_graph(args.graph)
    cap = _resolve_max_states(args)
    return verification_report(
        verify_moment_theorem(graph, args.max_n, max_states=cap)
    )


# --- the command line -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; usage errors are exit 1
    # in this tool, so surface them as ParameterError instead.
    def error(self, message):
        raise ParameterError(message)


# Every subcommand once, by name: its handler, its help and its arguments in
# the order of its usage, each a name with the keywords of `add_argument`.
# The moment-table budget comes after a command's own options, and the
# output flags come last in every subcommand.
_GRAPH = ("graph", {"type": Path})
_MAX_STATES = ("--max-states", {"type": int})
_OUTPUT = (("--format", {"choices": ("json", "csv", "text"), "default": "json"}),
           ("--out", {"type": Path}))
_COMMANDS = {
    "gen": (_cmd_gen, "generate a named family graph file", (
        ("--family", {"required": True}),
        ("--n", {"type": int, "required": True}),
        ("--regularize", {"type": int, "metavar": "K",
                          "help": "replace every edge by K parallel copies"}),
        ("--loops", {"type": int, "metavar": "M",
                     "help": "attach M fresh loops at every vertex"}),
        ("--name", {"help": "override the graph name"}))),
    "info": (_cmd_info, "structural summary of a graph", (_GRAPH,)),
    "check": (_cmd_check, "decide fractality and report the fractal pair",
              (_GRAPH,)),
    "pair": (_cmd_pair, "fractal pair of a fractal graph (error when non-fractal)",
             (_GRAPH,)),
    "label": (_cmd_label, "canonical lattice labeling of a graph", (_GRAPH,)),
    "moments": (_cmd_moments, "diagonal radial moments", (
        _GRAPH, ("--max-n", {"type": int, "default": 6}), _MAX_STATES)),
    "lattice": (_cmd_lattice, "axis-path count table", (
        ("--N", {"type": int, "required": True, "dest": "n_bound"}),
        ("--max-n", {"type": int, "default": 8}),
        ("--method", {"choices": ("brute", "recurrence", "closed"),
                      "help": "restrict to one counting method"}),
        ("--max-paths", {"type": int, "default": DEFAULT_MAX_PATHS}))),
    "classify": (_cmd_classify, "partition graphs into spectral classes", (
        ("graphs", {"type": Path, "nargs": "+",
                    "help": "graph files or directories of *.json files"}),)),
    "compare": (_cmd_compare, "isomorphism and moment comparison", (
        ("graph1", {"type": Path}), ("graph2", {"type": Path}),
        ("--max-n", {"type": int, "default": 6}), _MAX_STATES)),
    "tree": (_cmd_tree, "depth-bounded vertex tree", (
        _GRAPH, ("--root", {"required": True}),
        ("--depth", {"type": int, "default": 3}))),
    "matrix": (_cmd_matrix, "truncated radial matrix diagnostics", (
        _GRAPH, ("--depth", {"type": int, "default": 4}), _MAX_STATES)),
    "verify": (_cmd_verify, "three-way moment comparison table", (
        _GRAPH, ("--max-n", {"type": int, "default": 8}), _MAX_STATES)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand `command` alone:
    that subcommand parses and prints its help and usage errors as it does
    in the full parser."""
    parser = _Parser(prog="fractaloid", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        if command in (None, name):
            sub = commands.add_parser(name, help=help_text)
            sub.set_defaults(handler=handler)
            for flag, keywords in (*arguments, *_OUTPUT):
                sub.add_argument(flag, **keywords)
    return parser


# --- rendering --------------------------------------------------------------

def _json_style(encode) -> tuple:
    """The JSON format, with `encode` as the text of a str."""
    def leaf(o) -> str:
        if isinstance(o, str):
            return encode(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    return ((dict, list, tuple), encode, leaf, ("{", "}", ": ", ": "), ("[", "]", "", ""),
            ",", -2, "", "\n  ", "\n")


# A report format is the plain tuple (a subclass unpacks slower) that
# `_write_items` unpacks: the types walked as a dict or list; the text of a
# str and of any other leaf; of a dict and of a list, the opening, the
# closing, and the marks before a nested item and a leaf (after a dict's
# key); what precedes every item but the first; the cut of the items' indent
# that indents a closing bracket; what ends a leaf; the top value's items'
# indent, and what follows it. Text prints tuples and scalars through `str`.
_JSON = _json_style(encode_basestring)
_JSON_ASCII = _json_style(encode_basestring_ascii)
_TEXT = ((dict, list), str, str, ("", "", ":\n", ": "), ("", "", "-\n", "- "),
         "", 0, "\n", "", "")


def _writer(value, style: tuple):
    """The function that writes the report of `value` in `style` through a `_Sink`."""
    nested, _, leaf, *_, top, last = style

    def write_report(sink: _Sink) -> None:
        if isinstance(value, nested):
            _write_items(value, top, sink.write, style, {}, sink)
        else:
            sink.write(leaf(value))
        sink.write(last)
    return write_report


def _write_items(o, pad: str, write, style: tuple, texts: dict, sink) -> None:
    """Write the dict or list `o`, its items at indent `pad`, in `style`
    through `write`: one call per nesting level, leaves inline. A list met
    again at the same indent (a shared subtree of a vertex tree) is written
    apart once and its text kept for later visits: `texts` holds, by
    (id, indent) of each list seen, None after its first visit and its text
    from the second on. With a `sink` (whose `write` is `write`), each dict
    or list ends with `sink.spill()` and a kept text goes by `sink.put`; a
    list written apart gets no sink, since its text is not written yet."""
    nested, string, leaf, dict_marks, list_marks, comma, cut, end, _, _ = style
    is_dict = isinstance(o, dict)
    opening, closing, nested_mark, leaf_mark = dict_marks if is_dict else list_marks
    if not o:
        write(opening + closing)
        return
    inner, sep, rest = pad + "  ", opening + pad, comma + pad
    if is_dict:
        for key, item in o.items():
            # Counts (not bools) and names, the bulk of large reports, skip `leaf`.
            if type(item) is int:
                write(f"{sep}{string(key)}{leaf_mark}{item}{end}")
            elif type(item) is str:
                write(f"{sep}{string(key)}{leaf_mark}{string(item)}{end}")
            elif isinstance(item, nested):
                write(f"{sep}{string(key)}{nested_mark}")
                _write_items(item, inner, write, style, texts, sink)
            else:
                write(f"{sep}{string(key)}{leaf_mark}{leaf(item)}{end}")
            sep = rest
        write(pad[:cut] + closing)
        if sink is not None:
            sink.spill()
        return
    key = (id(o), pad)
    text = texts.get(key)
    if text is None:
        part, out, out_sink = None, write, sink
        if key in texts:
            part = io.StringIO()
            out, out_sink = part.write, None
        else:
            texts[key] = None
        for item in o:
            if isinstance(item, nested):
                out(sep + nested_mark)
                _write_items(item, inner, out, style, texts, out_sink)
            else:
                out(f"{sep}{leaf_mark}{leaf(item)}{end}")
            sep = rest
        out(pad[:cut] + closing)
        if part is None:
            if sink is not None:
                sink.spill()
            return
        text = texts[key] = part.getvalue()
    if sink is None:
        write(text)
    else:
        sink.put(text)


# The CSV tables with one row per payload row: the payload fields that start
# every row, then the fields of each row.
_CSV_TABLES = {
    "lattice": (("N",), ("n", "total", "brute", "recurrence", "closed_form")),
    "verify": (("graph", "N"),
               ("n", "walk", "tree", "lattice", "a_eq_b", "a_eq_c", "b_eq_c")),
}


def _csv_rows(command: str, payload: dict) -> tuple[list[str], list[list]]:
    if command in _CSV_TABLES:
        leading, fields = _CSV_TABLES[command]
        start = [payload[field] for field in leading]
        rows = [start + [r[field] for field in fields] for r in payload["rows"]]
        return [*leading, *fields], rows
    if command == "moments":
        header = ["graph", "n", "vertex", "count", "scalar"]
        rows = []
        for entry in payload["moments"]:
            for v, count in entry["per_vertex"].items():
                rows.append([payload["graph"], entry["n"], v, count,
                             entry["scalar"]])
        return header, rows
    if command == "classify":
        header = ["kind", "pair_n", "pair_m", "graph", "reason"]
        rows: list[list] = []
        for cls in payload["classes"]:
            for name in cls["graphs"]:
                rows.append(["class", cls["pair"][0], cls["pair"][1], name, ""])
        for rej in payload["rejected"]:
            rows.append(["rejected", "", "", rej["graph"], rej["reason"]])
        return header, rows
    raise ParameterError(f"csv format is not available for {command!r}")


def json_text(value, *, ensure_ascii: bool = False) -> str:
    """`json.dumps(value, indent=2, ensure_ascii=ensure_ascii) + "\\n"`, byte
    for byte, for values built of dicts with str keys, lists, tuples, str,
    int, bool and None: the text a JSON report of `value` writes to a
    StringIO destination, through the walk that writes every JSON and text
    report.

    The walk exists for shared subtrees: a list met again at the same
    indent is copied, not rendered again. On other reports it is 2.1 to 2.9
    times faster than the stdlib on 3.11, and about half as fast on 3.13.
    """
    buffer = io.StringIO()
    _write_through(buffer, _writer(value, _JSON_ASCII if ensure_ascii else _JSON))
    return buffer.getvalue()


def _envelope(command: str, **fields) -> dict:
    """A JSON report: the schema version and the command, then `fields`."""
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _report(command: str, payload: dict, fmt: str):
    """The report of `command` in `fmt`: the value that holds every string
    it prints, and the function that writes it through a `_Sink`. JSON and
    text are written by the one walk of `_write_items`."""
    if fmt == "csv":
        # Imported here, so that the other reports' processes never load it.
        import csv

        header, rows = _csv_rows(command, payload)

        def write_csv(sink: _Sink) -> None:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
                sink.spill()
        return [header, rows], write_csv
    # `gen` writes the bare graph schema, so its output loads as a graph.
    if fmt == "json" and command != "gen":
        payload = _envelope(command, payload=payload, warnings=[])
    return payload, _writer(payload, _JSON if fmt == "json" else _TEXT)


# A report reaches its destination in chunks of just over this many
# characters; a kept subtree text longer than that goes as it is.
_CHUNK = 1 << 16


class _Sink:
    """The way of every report to its destination `stream`: the writers
    write pieces into a StringIO through `write`, and `spill` passes them on
    once there are more than `_CHUNK` characters. So no whole report is
    held, and the stream takes one write per chunk, not one per piece: a
    stream that writes through on every call (stdout under
    PYTHONUNBUFFERED) costs a system call per write."""

    def __init__(self, stream) -> None:
        self.stream, self.buffer = stream, io.StringIO()
        self.write = self.buffer.write

    def spill(self, least: int = _CHUNK) -> None:
        buffer = self.buffer
        if buffer.tell() > least:
            self.stream.write(buffer.getvalue())
            # Emptied by seek and truncate, a StringIO would keep four bytes
            # per character from then on; a fresh one keeps one for ASCII.
            buffer.__init__()

    def put(self, text: str) -> None:
        """Write `text`, then spill; a text over `_CHUNK` characters (a
        kept subtree) goes to the stream as it is, not through the buffer."""
        if len(text) > _CHUNK:
            self.spill(0)
            self.stream.write(text)
        else:
            self.write(text)
            self.spill()


class _Encoder:
    """A stream that keeps nothing of its text: it encodes each piece as
    `encoding` with `errors` would, and raises the error of the first that
    fails with its position in the whole text."""

    def __init__(self, encoding: str, errors: str) -> None:
        self.encoding, self.errors, self.done = encoding, errors, 0

    def write(self, text: str) -> None:
        try:
            text.encode(self.encoding, self.errors)
        except UnicodeEncodeError as exc:
            # Its message shows `object[start]`: pad the piece to its place.
            raise UnicodeEncodeError(exc.encoding, " " * self.done + text,
                                     exc.start + self.done, exc.end + self.done,
                                     exc.reason) from None
        self.done += len(text)

    def flush(self) -> None:
        pass


def _strings(value, strings: set, seen: set) -> set:
    """Add every str in the dict, list or tuple `value` to `strings`, dict
    keys included, walking each list or tuple once however often it occurs
    (`seen` holds the ids of those walked)."""
    if isinstance(value, dict):
        strings.update(value)
        value = value.values()
    elif id(value) in seen:
        return strings
    else:
        seen.add(id(value))
    for item in value:
        if type(item) is int:  # the bulk of large reports: counts
            continue
        if isinstance(item, str):
            strings.add(item)
        elif isinstance(item, (dict, list, tuple)):
            _strings(item, strings, seen)
    return strings


def _write_through(stream, write_report) -> None:
    """Write a report into `stream` through a new `_Sink`, then flush it."""
    sink = _Sink(stream)
    write_report(sink)
    sink.spill(0)
    stream.flush()


def _emit(out: Path | None, value, write_report) -> None:
    """Write a report to stdout, or to the file `out`, through one `_Sink`:
    `write_report(sink)` writes it, and `value` holds every string it prints
    (None: a report of ASCII only). Before anything is written, or the file
    opened, those strings are encoded as the destination encodes them:
    stdout's own encoding and error handler, or UTF-8 for a file. Only when
    one fails is the report written to an `_Encoder`, which raises the error
    with its position in the whole report. The stream is flushed before
    return, so a failed write to stdout raises here, not at exit. Every
    report, error reports included, leaves the program here."""
    encoding, errors = ((sys.stdout.encoding, sys.stdout.errors) if out is None
                        else ("utf-8", "strict"))
    if encoding is not None and value is not None:  # None: a StringIO
        try:
            "".join(map(str, _strings(value, set(), set()))).encode(encoding, errors)
        except UnicodeEncodeError:
            _write_through(_Encoder(encoding, errors), write_report)
    with (nullcontext(sys.stdout) if out is None
          else out.open("w", encoding="utf-8", newline="")) as stream:
        _write_through(stream, write_report)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A command line that names its subcommand first parses with that
    # subcommand's parser alone: building all twelve costs more than most
    # jobs' own work. Any other command line gets the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # Counts are exact and printed in full: lift the int-to-str digit limit
    # (3.11, and 3.10.7 on) for the run, and restore the caller's on return.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    report = None
    try:
        try:
            payload = args.handler(args)
            report = _report(args.command, payload, args.format)
            _emit(args.out, *report)
        except OSError as exc:
            raise GraphError(f"cannot read or write file: {exc}") from exc
        except UnicodeEncodeError as exc:
            raise GraphError(f"cannot encode the report: {exc}") from exc
        except RecursionError:
            # Graph files nested too deeply for `json.loads`, and in-process
            # callers whose stack is already deep.
            raise LimitError(f"{args.command}: input nests too deeply") from None
        except OverflowError:
            # A size no list can have, such as `lattice --max-n 10**21`.
            raise LimitError(f"{args.command}: input too large to index") from None
        return 0
    except FractaloidError as exc:
        if isinstance(exc, ParameterError):
            code = 1
        elif isinstance(exc, LimitError):
            code = 3
        else:
            code = 2
        # Once the report is made, an OSError comes from its destination.
        # When that is stdout, the error goes to stderr, and stdout is pointed
        # at os.devnull so that the interpreter's last flush raises nothing.
        stdout_failed = (report is not None and args.out is None
                         and isinstance(exc.__cause__, OSError))
        if stdout_failed:
            sys.stdout = open(os.devnull, "w")
        if args.format == "json" and not stdout_failed:
            error = {"type": type(exc).__name__, "message": str(exc)}
            _emit(None, None, _writer(
                _envelope(args.command, error=error, exit_code=code), _JSON_ASCII))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
