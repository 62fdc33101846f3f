"""Self-test of the sweep benchmark on the tiny grid (about 20 s).

    python3 benchmarks/selftest.py

For every workload it checks that the output verifies against the pins, that
both kinds of run report exactly the metrics BENCHMARK.json names, with their
units, that the traced self times and sweep.unattributed_s add up to the
traced wall time, that the traced work counts repeat exactly, and that a
tampered pinned digest makes the run report failure, with exactly the
tampered point counted in the error rate. Exits 1 and lists the problems if
any check fails.
"""

from __future__ import annotations

import copy
import json
import sys

from run import PINS, ROOT, run_workload
from workloads import MASTER_SEEDS, WORKLOADS

SELF_TIMES = (
    "rng.seed_derive.s",
    "engine.run_replicates.s",
    "output.runs_block.s",
    "output.summarize_batch.s",
    "metrics.aggregate.s",
    "output.summary_block.s",
    "sink.write_point.s",
    "sweep.unattributed_s",
)
EXACT_COUNTS = (
    "rng.seed_derive.calls",
    "engine.kernel.run_rounds",
    "engine.kernel.stepped_run_rounds",
    "output.runs_block.rows",
)


def flip(digest: str) -> str:
    return ("1" if digest[0] == "0" else "0") + digest[1:]


def tiny_run(workload, trace: bool, pins: dict) -> dict:
    result, _ = run_workload(workload, 0, 0, trace, pins, grid="tiny", min_repeats=1)
    return result


def check(workload, spec: dict, pins: dict) -> list[str]:
    problems = []
    traced = []
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"]),
                            (True, spec["per_layer"])):
        result = tiny_run(workload, trace, pins)
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={int(trace)}: {result['failed']} of "
                            f"{result['attempted']} points failed")
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != {m["name"]: m["unit"] for m in declared}:
            problems.append(f"trace={int(trace)}: metrics or units differ from BENCHMARK.json")
        if trace:
            traced.append({name: m["value"] for name, m in result["metrics"].items()})
    if len(problems) == 0:
        figures = traced[0]
        attributed = sum(figures[name] for name in SELF_TIMES)
        if abs(attributed - figures["trace.wall_s"]) > 1e-9:
            problems.append(f"self times add up to {attributed}, not {figures['trace.wall_s']}")
        for name in EXACT_COUNTS:
            if traced[0][name] != traced[1][name]:
                problems.append(f"{name} differs between runs: "
                                f"{traced[0][name]} vs {traced[1][name]}")

    # Tamper with one file digest and the first point's digest: exactly that
    # point must count as failed.
    tampered = copy.deepcopy(pins)
    pin = tampered[workload.pin_key("tiny")][str(MASTER_SEEDS[0])]
    name = next(iter(pin["sha256"]))
    pin["sha256"][name] = flip(pin["sha256"][name])
    pin["points"][0] = flip(pin["points"][0])
    result = tiny_run(workload, False, tampered)
    if result["correct"] or result["failed"] != 1:
        problems.append(f"tampered pins gave {result['failed']} failed points, not 1")
    return [f"{workload.name}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(PINS.read_text())
    problems = [p for workload in WORKLOADS.values() for p in check(workload, spec, pins)]
    print("\n".join(problems) or f"selftest passed: {', '.join(WORKLOADS)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
