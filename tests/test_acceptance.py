"""Whole-package acceptance gate.

Every check prints one PASS or FAIL line with its measured numbers so the
verdicts can be read straight off the terminal. The expensive fixture drives
the complete default sweep through the command-line entry point once per
session; the lighter checks run the engine directly.

One check is knowingly red: the strong-content-bias entropy band in
criterion 4. The band is kept as pinned rather than widened to fit; the
comment on that test explains why the measured value sits above it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest

from microsoc.cli import main
from microsoc.engine import UNBOUNDED, ParameterPoint, UntilConvergence, run_replicates
from microsoc.metrics import AggregateStats, detect_bursts, pooled
from microsoc.output import read_summary
from microsoc.schedule import ConnectivityKind, builtin_schedule, reachability_profile

from oracles import (
    build_memory,
    dist_probs,
    random_memory_instances,
    reference_distribution,
    reference_reach,
)
from scalar_model import condition_gap

MASTER = 20240101
KINDS = (ConnectivityKind.EARLY, ConnectivityKind.MID, ConnectivityKind.LATE)
MEMORY_LEVELS = (1.0, 3.0, 5.0, UNBOUNDED)
BIAS_LEVELS = tuple(round(0.1 * i, 1) for i in range(11))
N_POINTS = 11 * 11 * 4 * 3
ROUNDS = 7
REPLICATES = 1000
TC_CAP = 200


def announce(capsys, ok: bool, criterion: int, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}", flush=True)


@pytest.fixture(scope="session")
def full_sweep(tmp_path_factory):
    """Run the complete default sweep once, through the real CLI.

    Returns the parsed summary records, the wall time, a digest of the
    summary file, and a digest of the raw per-round file (which is deleted
    afterwards; it is over a gigabyte).
    """
    base = tmp_path_factory.mktemp("acceptance")
    out_dir = base / "sweep"
    config = base / "config.json"
    config.write_text(json.dumps({"output_dir": str(out_dir)}))

    start = time.perf_counter()
    code = main(["sweep", str(config), "--threads", "1"])
    wall = time.perf_counter() - start
    assert code == 0

    digest = hashlib.sha256()
    lines = 0
    runs_path = out_dir / "runs.csv"
    with open(runs_path, "rb") as fh:
        while chunk := fh.read(1 << 23):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    runs_path.unlink()
    summary_path = out_dir / "summary.csv"

    return {
        "summaries": read_summary(summary_path),
        "summary_sha256": hashlib.sha256(summary_path.read_bytes()).hexdigest(),
        "wall_seconds": wall,
        "runs_sha256": digest.hexdigest(),
        "runs_lines": lines,
    }


def grand(summaries, metric, *, rounds=None, **filters) -> AggregateStats:
    """Pooled mean over every summary cell matching the filters.

    Filter values may be scalars or collections; round 0 rows (the
    time-to-convergence slot) are never included.
    """
    picked = []
    for rec in summaries:
        if rec.metric != metric or rec.round_no == 0:
            continue
        if rounds is not None and rec.round_no not in rounds:
            continue
        keep = True
        for key, want in filters.items():
            have = getattr(rec, key)
            if isinstance(want, (list, tuple, set, frozenset)):
                if have not in want:
                    keep = False
                    break
            elif have != want:
                keep = False
                break
        if keep:
            picked.append(AggregateStats(rec.mean, rec.sd, rec.ci95, rec.n))
    return pooled(picked)


def test_criterion_01_neutral_fixed_point(capsys):
    start = time.perf_counter()
    worst = 0.0
    for kind in KINDS:
        for mem in MEMORY_LEVELS:
            point = ParameterPoint(
                connectivity=kind,
                coordination_bias=0.0,
                content_sensitivity=0.0,
                mutation_rate=0.0,
                memory_window=mem,
            )
            batch = run_replicates(point, 4, MASTER)
            worst = max(worst, float(np.max(np.abs(batch.entropy - 3.0))))
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and elapsed < 1.0
    announce(
        capsys, ok, 1,
        f"neutral dynamics hold entropy at exactly 3 bits across 12 "
        f"schedule/memory combinations (max deviation {worst}, {elapsed:.2f}s)",
    )
    assert worst == 0.0
    assert elapsed < 1.0


def test_criterion_02_egocentric_with_mutation(full_sweep, capsys):
    g = grand(
        full_sweep["summaries"], "entropy",
        coordination_bias=0.0, content_bias=0.0,
    )
    ok = 2.85 <= g.mean <= 2.96
    announce(
        capsys, ok, 2,
        f"egocentric grand mean entropy {g.mean:.4f} "
        f"{'in' if ok else 'outside'} [2.85, 2.96] (n={g.n})",
    )
    assert ok


def test_criterion_03_drift_entropy(full_sweep, capsys):
    g = grand(
        full_sweep["summaries"], "entropy",
        content_bias=0.0, coordination_bias=0.5,
    )
    ok = 2.18 <= g.mean <= 2.38
    announce(
        capsys, ok, 3,
        f"drift grand mean entropy {g.mean:.4f} "
        f"{'in' if ok else 'outside'} [2.18, 2.38] (n={g.n})",
    )
    assert ok


def test_criterion_04_full_content_bias_entropy(full_sweep, capsys):
    # Known red. The pooled mean cannot reach the pinned band under these
    # mechanics: with the quality variant seeded in a single agent, the
    # pairing schedules cap how many agents can even hold it by round 4
    # (at most 6 of 8 under the mid schedule), so mid-schedule round-4
    # entropy has a floor near 0.81 bits and the grand mean lands around
    # 1.18. The band is asserted as pinned rather than widened to fit.
    g = grand(
        full_sweep["summaries"], "entropy",
        content_bias=1.0, coordination_bias=0.5,
    )
    ok = 0.90 <= g.mean <= 1.15
    announce(
        capsys, ok, 4,
        f"strong-content-bias grand mean entropy {g.mean:.4f} "
        f"{'in' if ok else 'outside'} [0.90, 1.15] (sd {g.sd:.3f}, n={g.n})",
    )
    assert ok


def test_criterion_05_memory_ordering(full_sweep, capsys):
    targets = {UNBOUNDED: 1.935, 5.0: 1.920, 3.0: 1.834, 1.0: 1.675}
    means = {
        mem: grand(full_sweep["summaries"], "entropy", memory=mem).mean
        for mem in targets
    }
    ordered = (
        means[UNBOUNDED] > means[5.0] > means[3.0] > means[1.0]
    )
    soft = {
        mem: abs(means[mem] - targets[mem]) <= 0.08 for mem in targets
    }
    missed = [
        f"m={'inf' if math.isinf(m) else int(m)} "
        f"({means[m]:.4f} vs {targets[m]:.3f}±0.08)"
        for m, hit in soft.items() if not hit
    ]
    shown = " > ".join(f"{means[m]:.4f}" for m in (UNBOUNDED, 5.0, 3.0, 1.0))
    detail = f"memory ordering unbounded > 5 > 3 > 1 holds ({shown})"
    detail += (
        "; all soft targets hit" if not missed
        else f"; soft target missed for {', '.join(missed)}"
    )
    announce(capsys, ordered, 5, detail)
    assert ordered


def test_criterion_06_connectivity_ordering_round4(full_sweep, capsys):
    targets = {"late": 0.805, "mid": 0.464, "early": 0.133}
    lines = []
    all_ordered = True
    for b in (0.8, 1.0):
        means = {
            kind: grand(
                full_sweep["summaries"], "entropy",
                rounds={4}, content_bias=b, coordination_bias=0.5,
                connectivity=kind,
            ).mean
            for kind in ("late", "mid", "early")
        }
        ordered = means["late"] > means["mid"] > means["early"]
        all_ordered = all_ordered and ordered
        hits = sum(abs(means[k] - targets[k]) <= 0.15 for k in targets)
        lines.append(
            f"b={b}: {means['late']:.3f} > {means['mid']:.3f} > "
            f"{means['early']:.3f} ({'ok' if ordered else 'BROKEN'}, "
            f"{hits}/3 soft targets within ±0.15)"
        )
    announce(
        capsys, all_ordered, 6,
        "round-4 entropy late > mid > early; " + "; ".join(lines),
    )
    assert all_ordered


def test_criterion_07_drift_connectivity_null(full_sweep, capsys):
    late = [
        grand(
            full_sweep["summaries"], "entropy",
            rounds={t}, content_bias=0.0, connectivity="late",
        ).mean
        for t in range(1, ROUNDS + 1)
    ]
    early = [
        grand(
            full_sweep["summaries"], "entropy",
            rounds={t}, content_bias=0.0, connectivity="early",
        ).mean
        for t in range(1, ROUNDS + 1)
    ]
    gaps = condition_gap(late, early, 8)
    worst = float(np.max(np.abs(gaps)))
    ok = worst < 0.05
    announce(
        capsys, ok, 7,
        f"per-round |condition gap| under drift peaks at {worst:.4f} "
        f"({'<' if ok else '>='} 0.05)",
    )
    assert ok


def test_criterion_08_punctuational_bursts(full_sweep, capsys):
    strong = [b for b in BIAS_LEVELS if b >= 0.6]
    series = {
        kind: [
            grand(
                full_sweep["summaries"], "delta_adaptiveness",
                rounds={t}, coordination_bias=0.5,
                content_bias=strong, connectivity=kind,
            ).mean
            for t in range(1, ROUNDS + 1)
        ]
        for kind in ("late", "early")
    }
    late_bursts = detect_bursts(series["late"])
    early_bursts = detect_bursts(series["early"])
    parts = [f"N=8 late {late_bursts} / early {early_bursts}"]
    ok = len(late_bursts) >= 2 and len(early_bursts) == 1

    # Larger populations, checked qualitatively at a representative strong
    # bias level. 1000 replicates: smaller batches leave enough noise at the
    # series endpoints to fake an extra burst.
    larger: dict[int, dict[str, list[int]]] = {}
    for n in (16, 32):
        larger[n] = {}
        for kind in (ConnectivityKind.LATE, ConnectivityKind.EARLY):
            point = ParameterPoint(
                n_agents=n,
                connectivity=kind,
                coordination_bias=0.5,
                content_sensitivity=0.8,
                memory_window=UNBOUNDED,
            )
            batch = run_replicates(point, 1000, MASTER)
            mean_delta = batch.delta_adaptiveness.mean(axis=0)
            larger[n][kind.value] = detect_bursts(list(mean_delta))
        parts.append(f"N={n} late {larger[n]['late']} / early {larger[n]['early']}")
        ok = ok and len(larger[n]["late"]) >= 2 and len(larger[n]["early"]) == 1

    announce(capsys, ok, 8, "burst rounds " + "; ".join(parts))
    assert len(late_bursts) >= 2
    assert len(early_bursts) == 1
    for n in (16, 32):
        assert len(larger[n]["late"]) >= 2, f"N={n} late schedule lost its multi-burst shape"
        assert len(larger[n]["early"]) == 1, f"N={n} early schedule is not single-peaked"


def test_criterion_09_time_to_convergence_ordering(capsys):
    reps = 2000
    strong = [b for b in BIAS_LEVELS if b >= 0.5]

    def mean_tc(kind, b):
        point = ParameterPoint(
            connectivity=kind,
            coordination_bias=0.5,
            content_sensitivity=b,
            memory_window=UNBOUNDED,
        )
        batch = run_replicates(point, reps, MASTER, horizon=UntilConvergence(TC_CAP))
        # Censored runs count at the cap, which can only understate how
        # much slower the slow condition is.
        conv = batch.convergence_rounds
        return float(np.where(conv > 0, conv, TC_CAP).mean())

    drift = {kind: mean_tc(kind, 0.0) for kind in KINDS}
    ordered_at = []
    faster_than_drift = True
    table = {}
    for b in strong:
        tc = {kind: mean_tc(kind, b) for kind in KINDS}
        table[b] = tc
        ordered_at.append(
            tc[ConnectivityKind.LATE] > tc[ConnectivityKind.MID] > tc[ConnectivityKind.EARLY]
        )
        faster_than_drift = faster_than_drift and all(
            tc[kind] < drift[kind] for kind in KINDS
        )
    ok = all(ordered_at) and faster_than_drift
    sample = table[1.0]
    announce(
        capsys, ok, 9,
        f"time-to-convergence late > mid > early at every content bias "
        f">= 0.5 ({sum(ordered_at)}/{len(strong)} levels; e.g. b=1: "
        f"{sample[ConnectivityKind.LATE]:.2f} > "
        f"{sample[ConnectivityKind.MID]:.2f} > "
        f"{sample[ConnectivityKind.EARLY]:.2f}), and every biased mean "
        f"beats its drift counterpart ({faster_than_drift})",
    )
    assert all(ordered_at)
    assert faster_than_drift


def test_criterion_10_deterministic_spread(capsys):
    expected_conv = {
        ConnectivityKind.EARLY: 4,
        ConnectivityKind.MID: 5,
        ConnectivityKind.LATE: 5,
    }
    reps = 25
    ok = True
    bits = []
    for kind, want in expected_conv.items():
        point = ParameterPoint(
            connectivity=kind,
            coordination_bias=0.5,
            content_sensitivity=1.0,
            mutation_rate=0.0,
            quality_owner=0,
        )
        batch = run_replicates(point, reps, MASTER)
        sched = builtin_schedule(kind, 8)
        profile = reachability_profile(sched, 0)
        assert profile == reference_reach(sched.rounds, 0)
        expected_a = np.array([1] + profile[:-1], dtype=np.float64) / 8.0
        conv_ok = bool(np.all(batch.convergence_rounds == want))
        traj_ok = bool(
            np.array_equal(batch.adaptiveness, np.tile(expected_a, (reps, 1)))
        )
        ok = ok and conv_ok and traj_ok
        bits.append(
            f"{kind.value}: converges at {want} ({'ok' if conv_ok else 'WRONG'}), "
            f"spread curve exact ({'ok' if traj_ok else 'WRONG'})"
        )
    announce(capsys, ok, 10, "; ".join(bits))
    assert ok


def test_criterion_11_adaptiveness_needs_content_bias(full_sweep, capsys):
    final = {ROUNDS}
    drift = grand(
        full_sweep["summaries"], "adaptiveness",
        rounds=final, content_bias=0.0,
    )
    se = drift.sd / math.sqrt(drift.n)
    drift_ok = drift.n >= 10_000 and abs(drift.mean - 0.125) < 3 * se

    strong = {
        b: grand(
            full_sweep["summaries"], "adaptiveness",
            rounds=final, content_bias=b,
        ).mean
        for b in BIAS_LEVELS
        if b >= 0.5
    }
    strong_ok = all(v > 0.5 for v in strong.values())
    lo = min(strong.values())
    ok = drift_ok and strong_ok
    announce(
        capsys, ok, 11,
        f"final-round adaptiveness without content bias {drift.mean:.5f} "
        f"(|dev| {abs(drift.mean - 0.125):.5f} < 3*SE {3 * se:.5f}, "
        f"n={drift.n}); every level >= 0.5 exceeds 0.5 (min {lo:.4f})",
    )
    assert drift.n >= 10_000
    assert abs(drift.mean - 0.125) < 3 * se
    assert strong_ok


def test_criterion_12_brute_force_agreement(capsys):
    cases = random_memory_instances(1100, seed=715)
    checked = 0
    worst = 0.0
    for entries, p in cases:
        mem = build_memory(0, entries)
        probs = dist_probs(mem, **p)
        expected = reference_distribution(
            entries,
            coordination_bias=p["c"],
            content_sensitivity=p["b"],
            mutation_rate=p["mu"],
            memory_window=p["m"],
            quality_variants=[p["owner"]],
            n_variants=p["n"],
            current_round=p["t"],
        )
        worst = max(worst, float(np.max(np.abs(np.asarray(probs) - expected))))
        checked += 1
    ok = checked >= 1000 and worst <= 1e-12
    announce(
        capsys, ok, 12,
        f"production rule matches the brute-force evaluator on {checked} "
        f"randomized instances (max abs deviation {worst:.2e})",
    )
    assert checked >= 1000
    assert worst <= 1e-12


# sha256 of the default sweep's runs.csv, the byte-level oracle of the writer,
# and of its summary.csv, the oracle of the summaries.
DEFAULT_RUNS_SHA256 = "9de310071ac011ada30c4299f8e4cba7d23af8d25576a729c510e409bae64219"
DEFAULT_SUMMARY_SHA256 = "773183d5f67e2e6a1d5bdc2f36397326e8e01dd5c75c1bfbb5b9489d4721d8a8"


def test_criterion_13_determinism_and_performance(full_sweep, capsys, tmp_path):
    config = {
        "coordination_bias_levels": [0.0, 0.5],
        "content_bias_levels": [0.2, 0.9],
        "memory_levels": [3, "inf"],
        "connectivity": ["early", "late"],
        "replicates": 40,
        "output_dir": "",
    }
    outputs = {}
    for threads in (1, 3):
        out_dir = tmp_path / f"threads{threads}"
        config["output_dir"] = str(out_dir)
        path = tmp_path / f"config{threads}.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", str(path), "--threads", str(threads)]) == 0
        outputs[threads] = (
            (out_dir / "runs.csv").read_bytes(),
            (out_dir / "summary.csv").read_bytes(),
        )
    identical = outputs[1] == outputs[3]

    wall = full_sweep["wall_seconds"]
    lines = full_sweep["runs_lines"]
    expected_lines = 1 + N_POINTS * REPLICATES * ROUNDS
    fast = wall < 300.0
    pinned = (full_sweep["runs_sha256"] == DEFAULT_RUNS_SHA256
              and full_sweep["summary_sha256"] == DEFAULT_SUMMARY_SHA256)
    ok = identical and fast and pinned and lines == expected_lines
    announce(
        capsys, ok, 13,
        f"1 and 3 worker processes produce byte-identical CSVs "
        f"({'yes' if identical else 'NO'}); full {N_POINTS}-point sweep "
        f"wrote {lines - 1} rows in {wall:.1f}s "
        f"({'<' if fast else '>='} 300s; sha256 of the raw file "
        f"{full_sweep['runs_sha256'][:16]}..., of the summary "
        f"{full_sweep['summary_sha256'][:16]}...)",
    )
    assert identical
    assert lines == expected_lines
    assert full_sweep["runs_sha256"] == DEFAULT_RUNS_SHA256
    assert full_sweep["summary_sha256"] == DEFAULT_SUMMARY_SHA256
    assert fast
