"""Each module of the package keeps its underscore names to itself.

No module imports another module's private name, and none reads a private
attribute of an object other than `self` or `cls` unless the reading module
defines that attribute itself (in `__slots__`, by assignment, or as a keyword
of `Frozen._set`). Dunder names are public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fractaloid"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module defines as attributes or slots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_set"):
            names.update(k.arg for k in node.keywords if k.arg)
    return {name for name in names if _private(name)}


def private_reads(source: str, filename: str) -> list[str]:
    """Where `source` imports or reads another module's private name."""
    tree = ast.parse(source, filename)
    defined = _defined(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("fractaloid")
        ):
            found += [
                f"{filename}:{node.lineno} imports {alias.name}"
                for alias in node.names if _private(alias.name)
            ]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and _private(node.attr) and node.attr not in defined
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            found.append(f"{filename}:{node.lineno} reads .{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        line for path in modules
        for line in private_reads(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_the_scan_flags_imports_and_foreign_reads():
    source = (
        "from .fractality import _first_degree_defect, max_out_degree\n"
        "from json.encoder import _make_iterencode\n"
        "class Table:\n"
        "    __slots__ = ('_rows',)\n"
        "    def size(self, other):\n"
        "        return len(self._rows) + len(other._rows) + len(self._cols)\n"
        "def info(graph):\n"
        "    return graph._out, graph.__class__\n"
    )
    assert private_reads(source, "m.py") == [
        "m.py:1 imports _first_degree_defect",
        "m.py:8 reads ._out",
    ]
