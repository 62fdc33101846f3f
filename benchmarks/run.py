"""Sweep benchmark: end-to-end and per-layer metrics of `engine.sweep`.

    python3 benchmarks/run.py --workload fixed_csv --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

For --seconds it starts repeats of one workload, each in a fresh interpreter
(repeat.py), checks each repeat's output bytes against pinned.json and deletes
them. It prints one line per metric and, last, one JSON object with
`correct`, `attempted` and `failed` (grid points, summed over repeats) and
`metrics`. With --trace 0 the metrics are the end-to-end ones, each the median
over repeats. With --trace 1 untraced and traced repeats alternate, and the
metrics are the per-layer figures of the traced repeat with the median wall
time, the point-interval percentiles over all traced repeats, and the tracing
overhead (median traced minus median untraced wall time). `--workload all`
runs every workload with --trace 0.

The exit code is 0 when every output matched, 1 when one did not, and 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, master_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
PINS = HERE / "pinned.json"

MIN_REPEATS = 3  # per kind of repeat, even past --seconds
DEADLINE_S = 150  # no repeat starts later than this, so a run ends within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "run_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "rng.seed_derive.calls": "count",
    "rng.seed_derive.s": "s",
    "engine.run_replicates.calls": "count",
    "engine.run_replicates.s": "s",
    "engine.kernel.run_rounds": "count",
    "engine.kernel.stepped_run_rounds": "count",
    "engine.kernel.useful_ratio": "ratio",
    "engine.kernel.peak_tensor_mb": "MB",
    "output.runs_block.s": "s",
    "output.runs_block.rows": "count",
    "output.runs_block.mb": "MB",
    "output.summarize_batch.s": "s",
    "output.summarize_batch.records": "count",
    "metrics.aggregate.calls": "count",
    "metrics.aggregate.s": "s",
    "output.summary_block.s": "s",
    "sink.write_point.calls": "count",
    "sink.write_point.s": "s",
    "sink.mb_written": "MB",
    "sweep.between_points_s": "s",
    "sweep.point_p50_ms": "ms",
    "sweep.point_p99_ms": "ms",
    "sweep.point_samples": "count",
    "sweep.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def output_files(workload: Workload) -> tuple[tuple[str, int, bool], ...]:
    """(file name, column where the point's six identity fields start, has header)."""
    if workload.csv:
        return (("runs.csv", 2, True), ("summary.csv", 0, True))
    return (("summary_block.txt", 0, False),)


def point_chunks(data: bytes, first: int, header: bool) -> list[bytes]:
    """Split rows into the runs of consecutive rows that share a grid point."""
    chunks: list[list[bytes]] = []
    key = None
    for line in data.splitlines(keepends=True)[1 if header else 0:]:
        k = line.split(b",", first + 6)[first:first + 6]
        if k != key:
            chunks.append([])
            key = k
        chunks[-1].append(line)
    return [b"".join(c) for c in chunks]


def read_outputs(out: Path, workload: Workload) -> list[tuple[str, bytes, int, bool]]:
    """(name, bytes, first identity column, has header) per output file; b"" if missing."""
    return [(name, (out / name).read_bytes() if (out / name).is_file() else b"", first, header)
            for name, first, header in output_files(workload)]


def file_digests(files) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data, _, _ in files}


def point_digests(files) -> list[str]:
    """A short digest of each grid point's rows, across all output files."""
    per_file = [point_chunks(data, first, header) for _, data, first, header in files]
    n = min(len(chunks) for chunks in per_file)
    return [hashlib.sha256(b"".join(chunks[i] for chunks in per_file)).hexdigest()[:16]
            for i in range(n)]


def failed_points(out: Path, workload: Workload, pin: dict) -> int:
    """Grid points whose output bytes differ from the pinned ones, or are missing.

    A dropped point also fails every point after it; any difference counts at
    least one point.
    """
    files = read_outputs(out, workload)
    if file_digests(files) == pin["sha256"]:
        return 0
    points = point_digests(files)
    failed = sum(1 for i, d in enumerate(pin["points"]) if i >= len(points) or points[i] != d)
    return max(failed, 1)


def spawn(workload: Workload, grid: str, seed: int, trace: bool, out: Path,
          timeout: float) -> dict:
    """Run repeat.py once; its result, or {"error": ...} if it printed none."""
    cmd = [sys.executable, str(HERE / "repeat.py"), "--src", str(SRC),
           "--workload", workload.name, "--grid", grid, "--master-seed", str(seed),
           "--out", str(out), "--trace", str(int(trace))]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the repeat and its pool workers
        stdout, stderr = proc.communicate()
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": stderr[-2000:] or f"exit code {proc.returncode}"}
    result["spawned"] = spawned
    result["exit"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def wall(repeat: dict) -> float:
    return repeat["sweep_end"] - repeat["sweep_start"]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 pins: dict, grid: str | None = None,
                 min_repeats: int = MIN_REPEATS) -> tuple[dict, list[str]]:
    """Measure one workload; the result object and the lines that explain it."""
    grid = grid or workload.grid
    mseed = master_seed(seed)
    pin = pins[workload.pin_key(grid)][str(mseed)]
    points = len(pin["points"])
    SCRATCH.mkdir(exist_ok=True)
    base = SCRATCH / f"run-{os.getpid()}"
    # Untimed: compiles the bytecode caches and pages in numpy.
    spawn(workload, "tiny", master_seed(0), False, base / "warm", 60)
    started = time.monotonic()
    repeats: list[tuple[bool, dict, int]] = []
    kinds = 2 if trace else 1
    while True:
        elapsed = time.monotonic() - started
        n = len(repeats)
        # Start another repeat only if it is expected to end within --seconds
        # (and before the deadline) once the minimum is met.
        expected_end = elapsed + elapsed / n if n else 0.0
        if n >= min_repeats * kinds and expected_end > seconds or expected_end > DEADLINE_S:
            break
        traced = trace and n % 2 == 1
        out = base / str(n)
        result = spawn(workload, grid, mseed, traced, out, max(10.0, 170 - elapsed))
        failed = failed_points(out, workload, pin)
        if result["exit"] != 0:
            failed = max(failed, 1)
        repeats.append((traced, result, failed))
        shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(base, ignore_errors=True)

    attempted = points * len(repeats)
    failed = sum(f for _, _, f in repeats)
    ok = [(traced, r) for traced, r, f in repeats if not f]
    lines = [f"# workload {workload.name}: grid {grid}, master seed {mseed}, "
             f"{points} points, {len(repeats)} repeats ({len(ok)} clean)"]
    for i, (traced, r, f) in enumerate(repeats):
        if r.get("error"):
            lines.append(f"# repeat {i}: error: {r['error'].strip().splitlines()[-1]}")
        else:
            lines.append(f"# repeat {i}{' (traced)' if traced else ''}: wall "
                         f"{wall(r):.4f} s, setup "
                         f"{r['sweep_start'] - r['spawned']:.4f} s, peak rss "
                         f"{r['peak_rss_mb']:.2f} MB, {f} points failed")
    lines.append(f"error_rate = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} points failed)")

    plain = [r for traced, r in ok if not traced]
    samples = {
        "wall_s": [wall(r) for r in plain],
        "setup_s": [r["sweep_start"] - r["spawned"] for r in plain],
        "run_rounds_per_s": [pin["run_rounds"] / wall(r) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if plain:
        versions = plain[0]["versions"]
        lines.append(f"# env: nproc {os.cpu_count()}, affinity "
                     f"{sorted(os.sched_getaffinity(0))}, workers {plain[0]['workers']}, "
                     f"python {versions['python']}, numpy {versions['numpy']}, "
                     f"microsoc {versions['microsoc']}, commit {git_commit()}")
    metrics = {}
    if not trace:
        for name, values in samples.items():
            if not values:
                continue
            value = statistics.median(values)
            q1, q3 = quartiles(values)
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} "
                         f"(median of {len(values)}, quartiles {q1:.6g}..{q3:.6g})")
    else:
        traced_runs = sorted((r for traced, r in ok if traced), key=wall)
        if traced_runs and plain:
            chosen = traced_runs[len(traced_runs) // 2]
            figures = dict(chosen["trace"]["figures"])
            if not workload.parallel and figures["engine.kernel.run_rounds"] != pin["run_rounds"]:
                lines.append("# error: traced run-rounds differ from the pinned count")
                failed = max(failed, 1)
            intervals = [x for r in traced_runs for x in r["trace"]["point_intervals_ms"]]
            figures["sweep.point_p50_ms"] = percentile(intervals, 50)
            figures["sweep.point_p99_ms"] = percentile(intervals, 99)
            figures["sweep.point_samples"] = len(intervals)
            figures["trace.overhead_s"] = (
                statistics.median(wall(r) for r in traced_runs)
                - statistics.median(samples["wall_s"])
            )
            for name, unit in PER_LAYER_UNITS.items():
                metrics[name] = {"value": figures[name], "unit": unit}
                lines.append(f"{name} = {figures[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "microsoc" / "__init__.py").is_file():
        print(f"error: no microsoc sources at {SRC}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())

    if args.workload != "all":
        result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), pins)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    results = {}
    for workload in WORKLOADS.values():
        results[workload.name], lines = run_workload(workload, args.seed, args.seconds,
                                                     False, pins)
        print("\n".join(lines), flush=True)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
