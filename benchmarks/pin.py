"""Write pinned.json: the output digests and run-round counts run.py checks.

The pins are the benchmark's correctness oracle, so regenerate them only at a
commit whose output is known to be right:

    python3 benchmarks/pin.py

Each workload's grid is pinned at every master seed, the self-test's tiny grid
at the first one. The pool workload shares the pins of its serial twin.
"""

from __future__ import annotations

import json
import shutil

from run import PINS, SCRATCH, file_digests, point_digests, read_outputs, spawn
from workloads import MASTER_SEEDS, WORKLOADS


def main() -> None:
    pins: dict = {}
    for workload in WORKLOADS.values():
        if workload.parallel:
            continue
        for grid, seeds in ((workload.grid, MASTER_SEEDS), ("tiny", MASTER_SEEDS[:1])):
            for seed in seeds:
                out = SCRATCH / "pin"
                result = spawn(workload, grid, seed, True, out, 170)
                if result["exit"] != 0:
                    raise SystemExit(f"{workload.name} {grid} {seed}: {result['error']}")
                files = read_outputs(out, workload)
                shutil.rmtree(out)
                figures = result["trace"]["figures"]
                pins.setdefault(workload.pin_key(grid), {})[str(seed)] = {
                    "sha256": file_digests(files),
                    "run_rounds": figures["engine.kernel.run_rounds"],
                    "stepped_run_rounds": figures["engine.kernel.stepped_run_rounds"],
                    "points": point_digests(files),
                }
                print(workload.pin_key(grid), seed, figures["engine.kernel.run_rounds"],
                      figures["engine.kernel.stepped_run_rounds"], flush=True)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
