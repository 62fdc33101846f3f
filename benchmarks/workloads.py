"""Workloads of the sweep benchmark, shared by run.py, repeat.py and pin.py.

The measured grids keep the default sweep's population of 8, its three
builtin schedules, mutation 0.02 and 1000 replicates per point, and take a
subset of its coordination, content and memory levels, so that one repeat
finishes in a few seconds and several fit in one measured run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# `--seed n` selects MASTER_SEEDS[n % len(MASTER_SEEDS)]. The first entry is
# the CLI's default master seed; output digests are pinned for every entry.
MASTER_SEEDS = (20240101, 1, 2, 3, 4, 5, 6, 7)

# Keyword arguments of engine.SweepGrid; "inf" stands for an unbounded memory.
GRIDS = {
    "fixed": dict(
        coordination_bias_levels=(0.2, 0.8),
        content_bias_levels=(0.3, 0.7),
    ),
    # Drift under full coordination with memory 3: every point steps to the
    # 200-round cap on every seed, so the work is the same on every seed,
    # while only about 37% of the stepped run-rounds come before convergence.
    "converge": dict(
        coordination_bias_levels=(1.0,),
        content_bias_levels=(0.0,),
        memory_levels=(3,),
    ),
    # The self-test's grid: one schedule, two memory levels, 20 replicates.
    "tiny": dict(
        connectivity=("early",),
        coordination_bias_levels=(0.5,),
        content_bias_levels=(0.5,),
        memory_levels=(1, "inf"),
        replicates=20,
    ),
}

CONVERGENCE_CAP = 200


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str
    converge: bool  # UntilConvergence(CONVERGENCE_CAP) instead of FixedHorizon()
    csv: bool  # CsvSweepSink in a temp directory, else MemorySink(want_runs=False)
    parallel: bool  # one worker per CPU in the affinity mask (at least 2), else 1

    def pin_key(self, grid: str | None = None) -> str:
        """Key of this workload's digests in pinned.json."""
        return f"{grid or self.grid}/{'converge' if self.converge else 'fixed'}"

    def workers(self) -> int:
        return max(2, len(os.sched_getaffinity(0))) if self.parallel else 1


# BENCHMARK.json records why each of its workloads was chosen; README.md says
# why fixed_csv_pool is run only by hand.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixed_csv", "fixed", converge=False, csv=True, parallel=False),
        Workload("converge_summary", "converge", converge=True, csv=False, parallel=False),
        Workload("fixed_csv_pool", "fixed", converge=False, csv=True, parallel=True),
    )
}


def master_seed(seed: int) -> int:
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


def sweep_grid(engine, name: str):
    """The engine.SweepGrid for one of GRIDS."""
    spec = dict(GRIDS[name])
    if "memory_levels" in spec:
        spec["memory_levels"] = tuple(
            float("inf") if m == "inf" else m for m in spec["memory_levels"]
        )
    return engine.SweepGrid(**spec)
