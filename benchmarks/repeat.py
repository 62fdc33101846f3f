"""One repeat of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repeat, so that every repeat pays the
import cost and the cold caches a CLI user pays. It builds and validates the
grid, opens the sink, calls engine.sweep, and prints one JSON line with the
sweep's start and end on the system-wide monotonic clock, the peak RSS, and,
when traced, the per-layer figures. The outputs stay in --out for run.py to
verify: runs.csv and summary.csv from the CSV sink, or summary_block.txt (the
summary rows a MemorySink collected) otherwise.

    python3 benchmarks/repeat.py --src SRC --workload NAME --grid GRID \
        --master-seed N --out DIR --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import layertrace
from workloads import CONVERGENCE_CAP, WORKLOADS, sweep_grid


def own_peak_rss_kib() -> int:
    """Peak RSS of this process image.

    Linux carries the ru_maxrss of the process that started this one over
    exec, so the runner's own memory would leak into it; VmHWM starts afresh.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--grid", required=True)
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, args.src)
    import microsoc
    import numpy
    from microsoc import engine, metrics, output, rng

    if not os.path.abspath(microsoc.__file__).startswith(os.path.abspath(args.src)):
        raise SystemExit(f"microsoc imported from {microsoc.__file__}, not {args.src}")

    grid = sweep_grid(engine, args.grid)
    grid.validate()
    if workload.converge:
        horizon = engine.UntilConvergence(CONVERGENCE_CAP)
    else:
        horizon = engine.FixedHorizon()
    if workload.csv:
        digest = hashlib.sha256(
            f"{args.grid}/{horizon}/{args.master_seed}".encode()
        ).hexdigest()
        sink = output.CsvSweepSink(args.out, digest)
    else:
        sink = output.MemorySink(want_runs=False)
    workers = workload.workers()
    tracer = None
    if args.trace:
        modules = dict(rng=rng, engine=engine, output=output, metrics=metrics)
        tracer = layertrace.install(modules, sink, parallel=workers > 1)

    error = None
    start = time.monotonic()
    try:
        engine.sweep(grid, args.master_seed, sink, horizon=horizon, workers=workers)
    except Exception:  # counted by run.py as failed points, via the missing output
        error = traceback.format_exc()
    end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()

    # On Linux the children's ru_maxrss is that of the largest pool worker.
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not workload.csv:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "summary_block.txt"), "wb") as fh:
            fh.write(output.summary_block(sink.summaries).encode("ascii"))

    result = {
        "sweep_start": start,
        "sweep_end": end,
        "peak_rss_mb": (own_peak_rss_kib() + largest_child) * 1024 / 1e6,
        "workers": workers,
        "error": error,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "microsoc": microsoc.__version__,
        },
    }
    if tracer is not None:
        result["trace"] = tracer.report(end - start)
    print(json.dumps(result))
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
