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
