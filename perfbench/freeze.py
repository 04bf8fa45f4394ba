"""Freeze the stdout digests of every job whose report does not depend on
the seed: `python3 perfbench/freeze.py` from the root of a checkout of the
commit whose reports are the reference. Writes perfbench/expected.json."""

import hashlib
import json
import shutil
import sys
from pathlib import Path

from checks import Gate, failure
from corpus import build_corpus
from procs import Runner
from workloads import WORKLOADS

TIMEOUT_S = 120.0


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(root, work)
    digests = {}
    try:
        build_corpus(work / "corpus", 0, runner, TIMEOUT_S)
        gate = Gate(work / "corpus", {})
        for workload in WORKLOADS.values():
            for job in workload.jobs:
                if not job.deterministic:
                    continue
                inv = runner.run(gate.argv(job), timeout=TIMEOUT_S)
                why = failure(job, inv.exit_code, inv.stderr)
                if why is not None:
                    print(f"{job.key}: {why}", file=sys.stderr)
                    return 1
                digests[job.key] = hashlib.sha256(inv.stdout).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = Path(__file__).with_name("expected.json")
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"froze {len(digests)} digests in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
