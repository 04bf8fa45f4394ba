"""Running one fractaloid child process and measuring it from outside."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# What the installed `fractaloid` console script runs, plus an exit hook that
# saves the peak RSS of the process image (VmHWM). The child's rusage cannot
# give it: its max RSS starts from the parent's high-water mark at the fork.
LAUNCH = """import atexit, sys
def _save_peak(path={path!r}):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(_save_peak)
from fractaloid.cli import main
sys.exit(main())"""
TRACED_ENTRY = Path(__file__).with_name("traced_child.py")

# On a machine whose cores are shared, the speed one process gets drifts by
# 20-45% over tens of seconds. A fixed pure-Python workload, timed in this
# process right before and right after each child, measures that speed. A
# child's time times REF_NOMINAL_S / (reference time) is its time at the
# speed at which the reference takes REF_NOMINAL_S (about the median on a
# 2-core x86-64 VM with Python 3.11).
REF_NOMINAL_S = 0.035


def reference_s() -> float:
    """Time of the fixed reference workload in this process: integer
    arithmetic, a small dict of tuple keys, and a larger dict built and
    summed, the kinds of work the CLI does."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    small: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        key = (i & 255, (i >> 8) & 63)
        small[key] = small.get(key, 0) + i
    big = {(i, i >> 3, "x"): i for i in range(30_000)}
    total += sum(big.values())
    return time.perf_counter() - start


def speed_factor(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two reference runs into a
    time at the nominal speed. The faster reading is used, since noise only
    ever slows a reading down."""
    return REF_NOMINAL_S / min(before_s, after_s)


class ChildTimeout(Exception):
    pass


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    speed: float
    peak_rss_kb: int
    stdout: bytes
    stderr: str


def _alarm(signum, frame):
    raise ChildTimeout("a child ran past the time limit")


class Runner:
    """Starts the CLI of the checkout at `root` as a child process, one at a
    time, with stdout and stderr captured in files under `work`."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        # FRACTALOID_* settings of the caller would change budgets and reports.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("FRACTALOID_")}
        self.env["PYTHONPATH"] = str(root / "src")

    def run(self, argv: list[str], *, timeout: float,
            spans_path: Path | None = None) -> Invocation:
        """Run `fractaloid ARGV`; with `spans_path`, run it through the traced
        entry point, which writes its spans there. Wall time runs from spawn
        to reap; `speed` is its factor from `speed_factor`. The peak RSS is
        0 when the child died before its exit hook ran, and with
        `spans_path`."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        peak_path = self.work / "peak"
        peak_path.unlink(missing_ok=True)
        if spans_path is None:
            cmd = [sys.executable, "-c", LAUNCH.format(path=str(peak_path)), *argv]
        else:
            cmd = [sys.executable, str(TRACED_ENTRY), str(spans_path), *argv]
        before = reference_s()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.work)
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        speed = speed_factor(before, reference_s())
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(
            exit_code=proc.returncode,
            wall_s=wall,
            speed=speed,
            peak_rss_kb=int(peak_path.read_text().split()[1])
            if peak_path.exists() else 0,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
