"""Start-up cost gate: every CLI process imports `fractaloid.cli`, so modules
it pulls in are paid for by every invocation."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# `-S` keeps the imports of `site` (and of whatever it loads) out of the count.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
heavy = {"dataclasses", "inspect"}
import fractaloid.cli
print(sorted(heavy & set(sys.modules)))
fractaloid.cli.main(["lattice", "--N", "2", "--max-n", "4", "--format", "csv"])
print(sorted(heavy & set(sys.modules)))
"""


def test_cli_starts_without_dataclasses_or_inspect():
    run = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "[]", "imported by `import fractaloid.cli`"
    assert lines[-1] == "[]", "imported by running `lattice`"
    assert lines[1] == "N,n,total,brute,recurrence,closed_form"


# Counts the parsers built by one `main` call in a fresh interpreter.
PARSERS_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import fractaloid.cli
built = []
init = fractaloid.cli._Parser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
fractaloid.cli._Parser.__init__ = counted
fractaloid.cli.main(["lattice", "--N", "1", "--max-n", "2", "--format", "csv"])
print(built)
"""


def test_cli_builds_only_the_parser_of_its_subcommand():
    """A command line that names its subcommand first builds the top-level
    parser and that subcommand's, not all twelve."""
    run = subprocess.run(
        [sys.executable, "-S", "-c", PARSERS_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "N,n,total,brute,recurrence,closed_form"
    assert lines[-1] == "['fractaloid', 'fractaloid lattice']"
