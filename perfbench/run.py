"""Benchmark of the fractaloid CLI.

    python3 perfbench/run.py --workload spectral|lattice|structure|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a fractaloid checkout; it imports the program from
`src/` there and works in `.perfbench_work/`, which it removes at the end.

One run sets up the seeded corpus three times (`setup_s` is the median),
runs the workload's known-defect probes once (counted apart, in
`probe.failed`), then, as one client in a closed loop, starts one CLI child
at a time and
repeats the workload's job list, in a seeded order, for S seconds: after
the first pass it stops before a job that would end past S. Every
invocation goes through the correctness gate of `checks.py`. Times are
normalized to a nominal machine speed (see `procs.py`); the raw seconds are
printed as `raw.*`. With `--trace 1`, whole untraced and traced passes
alternate; the traced ones give the per-layer metrics, the untraced ones
the per-subcommand times and the base of the tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. The lines before it
print every figure of the run by name and unit.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import Gate, failure
from corpus import SetupError, build_corpus
from procs import ChildTimeout, Runner, reference_s, speed_factor
from stats import layer_totals, pass_figures
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORT_PROBES = 5
# Every run must end well within 180 s; no child may run past this.
HARD_LIMIT_S = 150.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fractaloid.cli; "
                "print(time.perf_counter() - t)")


class RunError(Exception):
    pass


def _setup(runner: Runner, work: Path, seed: int, deadline: float):
    """Build the corpus SETUP_REPEATS times; return the last one and the
    median set-up time, normalized and raw."""
    times, raw = [], []
    for i in range(SETUP_REPEATS):
        corpus = work / f"corpus{i}"
        before = reference_s()
        start = time.perf_counter()
        build_corpus(corpus, seed, runner, timeout=deadline - time.perf_counter())
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * speed_factor(before, reference_s()))
        if i:
            shutil.rmtree(work / f"corpus{i - 1}")
    return corpus, statistics.median(times), statistics.median(raw)


def _import_probe(runner: Runner) -> float:
    """Median time to import `fractaloid.cli` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=runner.env,
                             cwd=runner.work, capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 runner: Runner, work: Path) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    corpus, setup_s, raw_setup_s = _setup(runner, work, seed, deadline)
    digests = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    gate = Gate(corpus, digests)
    jobs = list(WORKLOADS[name].jobs)
    random.Random(seed).shuffle(jobs)
    import_s = _import_probe(runner) if trace else None
    defects, problems = _run_probes(WORKLOADS[name].probes, runner, gate,
                                    deadline)

    plain, traced = [], []
    failures: Counter = Counter()
    layers: Counter = Counter()
    counters: Counter = Counter()
    attempted = out_bytes = 0
    measure_start = time.perf_counter()
    last_s: dict[str, float] = {}
    stop = timed_out = False
    while not (stop or timed_out):
        with_trace = trace and len(traced) < len(plain)
        ops = []
        for index, job in enumerate(jobs):
            # Untraced runs fill the time job by job once a pass is done;
            # traced runs compare whole passes.
            elapsed = time.perf_counter() - measure_start
            if not trace and plain and elapsed + last_s[job.key] > seconds:
                stop = True
                break
            spans_path = work / f"op{index}.spans" if with_trace else None
            attempted += 1
            try:
                inv = runner.run(gate.argv(job), spans_path=spans_path,
                                 timeout=deadline - time.perf_counter())
            except ChildTimeout:
                failures[f"{job.key}: killed at the time limit"] += 1
                timed_out = True
                break
            last_s[job.key] = inv.wall_s
            why = failure(job, inv.exit_code, inv.stderr)
            if why is not None:
                failures[f"{job.key}: {why}"] += 1
            else:
                problems.extend(gate.problems(job, inv.stdout))
            ops.append((job.key, job.command, inv.wall_s * inv.speed,
                        inv.peak_rss_kb, inv.wall_s))
            if with_trace and spans_path.exists():
                data = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
                layers.update(layer_totals(data["spans"]))
                counters.update(data["counters"])
            elif not with_trace:
                out_bytes += len(inv.stdout)
        if ops and not timed_out:
            (traced if with_trace else plain).append(ops)
        elapsed = time.perf_counter() - measure_start
        if trace and traced and elapsed + sum(op[4] for op in ops) > seconds:
            stop = True

    if not plain or (trace and not traced):
        raise RunError(f"{name}: no complete pass; " + "; ".join(failures))
    figures = pass_figures(plain)
    figures.update({f"raw.{k}": v for k, v in pass_figures(_raw(plain)).items()
                    if k != "peak_rss_mb"})
    figures["setup_s"] = setup_s
    figures["raw.setup_s"] = raw_setup_s
    figures["failed_frac"] = sum(failures.values()) / attempted
    figures["probe.failed"] = len(defects)
    if trace:
        figures.update(_layer_figures(layers, counters, len(traced)))
        figures["cli.import_s"] = import_s
        figures["cli.out_bytes"] = out_bytes / len(plain)
        traced_wall = pass_figures(traced)["wall_s"]
        figures["trace.wall_s"] = traced_wall
        figures["trace.overhead_ratio"] = traced_wall / figures["wall_s"] - 1
        figures["trace.moments_words_share"] = (
            figures["moments.self_s"] + figures["words.self_s"]
        ) / pass_figures(_raw(traced))["wall_s"]
    return {
        "passes": f"{len(plain)} untraced, {len(traced)} traced",
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "defects": defects,
        "problems": problems,
        "figures": figures,
    }


def _run_probes(probes, runner: Runner, gate: Gate, deadline: float):
    """Run each known-defect probe once. Return why each failed probe failed,
    and what is wrong in the reports of those that completed."""
    defects, problems = [], []
    for job in probes:
        inv = runner.run(gate.argv(job), timeout=deadline - time.perf_counter())
        why = failure(job, inv.exit_code, inv.stderr)
        if why is not None:
            defects.append(f"{job.key}: {why}")
        else:
            problems.extend(gate.problems(job, inv.stdout))
    return defects, problems


def _raw(passes: list[list[tuple]]) -> list[list[tuple]]:
    """The passes with the raw times in place of the normalized ones."""
    return [[(key, cmd, raw, rss) for key, cmd, _, rss, raw in p] for p in passes]


def _layer_figures(layers: Counter, counters: Counter, passes: int) -> dict:
    """Per-pass layer totals and work counters of the traced passes."""
    figures = {k: v / passes for k, v in (layers + counters).items()}
    for module in ("cli", "graphs", "fractality", "words", "moments",
                   "lattice", "labeling", "isomorphism"):
        figures.setdefault(f"{module}.self_s", 0.0)
    orders = counters["moments.radial_moment.order_sum"]
    figures["moments.radial_moment.useful_ratio"] = (
        counters["moments.radial_moment.useful_orders"] / orders if orders else 0.0)
    return figures


def _metrics(spec: list[dict], figures: dict) -> dict:
    # A layer that does not run in a workload reports 0.
    return {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fractaloid" / "cli.py").is_file():
        print("perfbench: no src/fractaloid/cli.py here; run from the root of "
              "a fractaloid checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), Runner(root, work),
                                      work)
                   for name in names}
    except (RunError, SetupError, ChildTimeout,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name, result in results.items():
        workload = WORKLOADS[name]
        print(f"{name}: {workload.why} (layers: {', '.join(workload.layers)})")
        print(f"  {result['passes']} passes, {result['attempted']} "
              f"invocations, {result['failed']} failed, seed {args.seed}")
        for why, count in result["failures"].items():
            print(f"  failed {count}x  {why}")
        for why in result["defects"]:
            print(f"  known defect (probe, not measured)  {why}")
        for problem in result["problems"][:20]:
            print(f"  WRONG  {problem}")
        for key, value in sorted(result["figures"].items()):
            unit = units.get(key.removeprefix("raw."), "")
            print(f"  {key:<48} {value:.6g} {unit}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in
                        _metrics(chosen, result["figures"]).items()})
    print(json.dumps({
        "correct": not any(r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
