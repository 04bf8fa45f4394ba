"""Graph corpus and job lists of the three benchmark workloads.

A job argument that starts with `@` names a corpus file: `@gen/K` is the
`fractaloid gen` output for named graph K, `@mixed/K` is the same graph with
its edges shuffled and renamed from the seed, `@random/K` is a seeded random
regular digraph, and `@random/` is the directory of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

# Named graphs: `fractaloid gen` arguments, and the common degree N of the
# graph when it is fractal (None for the non-fractal ones).
NAMED = {
    "R2K3": (["--family", "circulant", "--n", "3", "--regularize", "2"], 2),
    "C3": (["--family", "complete", "--n", "3"], 2),
    "K3": (["--family", "circulant", "--n", "3"], 1),
    "K3O2": (["--family", "circulant", "--n", "3", "--loops", "2"], 3),
    "R3K2": (["--family", "circulant", "--n", "2", "--regularize", "3"], 3),
    "C4": (["--family", "complete", "--n", "4"], 3),
    "P4": (["--family", "path", "--n", "4"], None),
    "T2_1": (["--family", "star", "--n", "2"], None),
}

# Random N-regular digraphs: the union of N random permutations of n
# vertices, the first a single cycle so that the graph is connected.
# Sizes up to 800 stay below the matching's recursion depth; 3000 is past it.
RANDOM = {
    "RG2_800": (2, 800),
    "RG3_800": (3, 800),
    "RG3_3000": (3, 3000),
    "RG2_5000": (2, 5000),
    "RG3_10000": (3, 10000),
    "RG2_20000": (2, 20000),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the exit code a correct program gives."""

    argv: tuple[str, ...]
    exit_code: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def deterministic(self) -> bool:
        """Whether the report is the same for every seed (no random graph)."""
        return not any(a.startswith("@random/") for a in self.argv)


@dataclass(frozen=True)
class Workload:
    """`jobs` are measured and must all succeed on a correct program.
    `probes` are jobs that show a known defect of the program: each runs once
    per run, before the measurement, and counts apart from the jobs."""

    why: str
    layers: tuple[str, ...]
    jobs: tuple[Job, ...]
    probes: tuple[Job, ...] = ()


def _jobs(*specs) -> tuple[Job, ...]:
    return tuple(
        Job(tuple(spec.split())) if isinstance(spec, str)
        else Job(tuple(spec[0].split()), spec[1])
        for spec in specs
    )


WORKLOADS = {
    "spectral": Workload(
        why="moment engine on small named graphs: moments and words do nearly "
            "all the work, load and render almost none",
        layers=("moments", "words", "isomorphism", "graphs", "cli"),
        jobs=_jobs(
            "moments @mixed/R2K3 --max-n 8",
            "moments @mixed/C3 --max-n 8",
            "moments @mixed/K3 --max-n 40",
            "moments @mixed/K3O2 --max-n 6",
            "moments @mixed/P4 --max-n 40",
            "moments @mixed/T2_1 --max-n 30",
            "verify @mixed/R2K3 --max-n 8",
            "verify @mixed/C4 --max-n 6",
            ("verify @mixed/P4 --max-n 8", 2),
            "compare @mixed/R2K3 @mixed/C3 --max-n 8",
            "compare @mixed/P4 @mixed/T2_1 --max-n 8",
            "matrix @mixed/R2K3 --depth 6",
            "matrix @mixed/R3K2 --depth 5",
        ),
    ),
    "lattice": Workload(
        why="lattice tables for N = 1..8: the lattice module does nearly all "
            "the work and no graph layer runs",
        layers=("lattice", "cli"),
        jobs=_jobs(
            "lattice --N 1 --max-n 400 --method recurrence",
            "lattice --N 2 --max-n 200 --method recurrence",
            "lattice --N 3 --max-n 80 --method recurrence",
            "lattice --N 4 --max-n 40 --method recurrence",
            "lattice --N 5 --max-n 30 --method recurrence",
            "lattice --N 6 --max-n 26 --method recurrence",
            "lattice --N 7 --max-n 22 --method recurrence",
            "lattice --N 8 --max-n 22 --method recurrence",
            "lattice --N 1 --max-n 400 --method closed",
            "lattice --N 2 --max-n 200 --method closed",
            "lattice --N 2 --max-n 10",
            "lattice --N 3 --max-n 7 --method brute",
            ("lattice --N 1 --max-n 40 --max-paths 1000000", 3),
            ("lattice --N 4 --max-n 12 --method brute --max-paths 300000", 3),
        ),
    ),
    "structure": Workload(
        why="engine-free commands on seeded random regular digraphs of 800 to "
            "20000 vertices: load, fractality, labeling and rendering",
        layers=("graphs", "fractality", "labeling", "cli"),
        jobs=_jobs(
            "info @random/RG2_20000",
            "info @random/RG3_800",
            "check @random/RG2_20000",
            "check @random/RG3_10000",
            "check @gen/P4",
            "pair @random/RG3_3000",
            ("pair @gen/T2_1", 2),
            "label @random/RG2_800",
            "label @random/RG3_800",
            "label @gen/C3",
            "classify @random/ @gen/P4 @gen/T2_1 @gen/C4",
            "tree @gen/C4 --root v1 --depth 6",
            "tree @gen/K3O2 --root v1 --depth 5",
            "tree @gen/P4 --root v2 --depth 12",
        ),
        # The matching of `label` recurses once per vertex it visits and
        # dies with a RecursionError past Python's recursion limit.
        probes=_jobs("label @random/RG3_3000"),
    ),
}
