"""Simulation runs, replicate batches, and parameter sweeps.

The batch kernel simulates all replicates of one parameter point at once,
carrying a (replicates, agents, variants) pair of ego/allo count tensors and
updating them incrementally as the memory window slides. Its arithmetic is
written in exactly the IEEE evaluation order of the test suite's scalar
reference, tests/scalar_model.py (same divisions, same mixture expression,
same cumulative-sum sampling), and the uniforms come from the same
counter-based keys, so a batched run is bit-identical to the scalar reference
loop; tests enforce that.

Under an open-ended horizon the kernel steps only the replicates still
running: one that has converged and finished the round-robin retires, and its
columns past n_rounds hold a fixed fill (NaN, and -1 for productions), so a
replicate's row depends on its seed alone, never on its batch-mates.

Sweeps iterate the parameter grid in a fixed order and derive every run seed
from (master_seed, point_index, replicate_index) alone, which makes output
independent of worker count and lets an interrupted sweep resume exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product
from typing import ClassVar

import numpy as np

from . import output, rng
from .errors import InvalidParamsError, InvalidReplicatesError
from .metrics import entropy_from_counts
from .schedule import BUILTIN_SIZES, ConnectivityKind, Schedule, builtin_schedule

DEFAULT_MAX_ROUNDS = 200
UNBOUNDED = math.inf


@dataclass(frozen=True)
class FixedHorizon:
    """Run exactly this many rounds (None: one full round-robin, N-1)."""

    open_ended: ClassVar[bool] = False
    rounds: int | None = None


@dataclass(frozen=True)
class UntilConvergence:
    """Run the full round-robin, then cycle the schedule until the round's
    productions are unanimous, giving up after max_rounds."""

    open_ended: ClassVar[bool] = True
    max_rounds: int = DEFAULT_MAX_ROUNDS


# open_ended: runs may stop at convergence, so summaries add a
# time-to-convergence row.
Horizon = FixedHorizon | UntilConvergence


@dataclass(frozen=True)
class ParameterPoint:
    """One cell of the parameter grid.

    quality_owner is a 0-based agent id whose seed variant is the high-quality
    one, or None to draw the owner per run. schedule must be supplied iff
    connectivity is CUSTOM.
    """

    n_agents: int = 8
    connectivity: ConnectivityKind = ConnectivityKind.EARLY
    coordination_bias: float = 0.5
    content_sensitivity: float = 0.0
    memory_window: float = UNBOUNDED
    mutation_rate: float = 0.02
    quality_owner: int | None = None
    schedule: Schedule | None = None

    def validate(self) -> None:
        for name in ("coordination_bias", "content_sensitivity", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParamsError(f"{name} must lie in [0, 1], got {v!r}")
        m = self.memory_window
        if m != UNBOUNDED and not (
            isinstance(m, (int, float)) and float(m).is_integer() and m >= 1
        ):
            raise InvalidParamsError(
                f"memory_window must be a positive integer or unbounded, got {m!r}"
            )
        kind = ConnectivityKind(self.connectivity)
        if kind is ConnectivityKind.CUSTOM:
            if self.schedule is None:
                raise InvalidParamsError("custom connectivity needs a schedule")
            if self.schedule.n_agents != self.n_agents:
                raise InvalidParamsError(
                    f"schedule is for {self.schedule.n_agents} agents, "
                    f"point has {self.n_agents}"
                )
        elif self.schedule is not None:
            raise InvalidParamsError("schedule given but connectivity is builtin")
        elif self.n_agents not in BUILTIN_SIZES:
            raise InvalidParamsError(
                f"population size {self.n_agents} has no builtin schedule"
            )
        if self.quality_owner is not None and not (
            0 <= self.quality_owner < self.n_agents
        ):
            raise InvalidParamsError(
                f"quality owner {self.quality_owner} outside population of "
                f"{self.n_agents}"
            )

    def resolve_schedule(self) -> Schedule:
        if self.schedule is not None:
            return self.schedule
        return builtin_schedule(ConnectivityKind(self.connectivity), self.n_agents)


@dataclass
class BatchResult:
    """Dense per-round metrics for all replicates of one point.

    Rows of the metric arrays are replicates; columns are rounds 1..max
    executed. n_rounds[r] says how many leading columns are meaningful for
    replicate r (they differ only in until-convergence mode). The columns
    past n_rounds[r] are NaN in the four metric arrays and -1 in productions
    (where column t is round t, so the fill starts at n_rounds[r] + 1): a
    converged replicate is no longer stepped.
    """

    point: ParameterPoint
    horizon: Horizon
    run_seeds: np.ndarray
    quality_owners: np.ndarray
    n_rounds: np.ndarray
    entropy: np.ndarray
    entropy_norm: np.ndarray
    adaptiveness: np.ndarray
    delta_adaptiveness: np.ndarray
    convergence_rounds: np.ndarray  # 0 where censored
    productions: np.ndarray  # (replicates, max_rounds + 1, n_agents)

    @property
    def n_replicates(self) -> int:
        return len(self.run_seeds)


def _simulate_batch(
    point: ParameterPoint,
    horizon: Horizon,
    run_seeds: np.ndarray,
) -> BatchResult:
    """Run all replicates of one parameter point in lockstep."""
    point.validate()
    schedule = point.resolve_schedule()
    n = point.n_agents
    n_variants = n
    partners = schedule.partner_matrix()
    cycle = schedule.n_rounds

    if isinstance(horizon, FixedHorizon):
        max_rounds = horizon.rounds if horizon.rounds is not None else cycle
        if max_rounds < 1:
            raise InvalidParamsError(f"horizon must be >= 1 rounds, got {max_rounds}")
        stop_early = False
    else:
        max_rounds = horizon.max_rounds
        if max_rounds < cycle:
            raise InvalidParamsError(
                f"max_rounds {max_rounds} shorter than one round-robin ({cycle})"
            )
        stop_early = True

    n_reps = len(run_seeds)
    seeds = np.asarray(run_seeds, dtype=np.uint64)
    if point.quality_owner is not None:
        owners = np.full(n_reps, point.quality_owner, dtype=np.int64)
    else:
        owners = (rng.absorb_np(seeds, rng.STREAM_OWNER) % np.uint64(n)).astype(np.int64)

    c = point.coordination_bias
    b = point.content_sensitivity
    mu = point.mutation_rate
    m = point.memory_window
    mu_floor = mu / n_variants
    log2n = math.log2(n)

    # History, indexed by replicate: full-size for the whole run.
    prods = np.empty((n_reps, max_rounds + 1, n), dtype=np.int16)
    prods[:, 0, :] = np.arange(n, dtype=np.int16)
    heard = np.empty((n_reps, max_rounds + 1, n), dtype=np.int16)
    ent = np.zeros((n_reps, max_rounds))
    adapt = np.zeros((n_reps, max_rounds))
    conv = np.zeros(n_reps, dtype=np.int64)
    agent_ids = np.arange(n, dtype=np.uint64)

    # Working state of the active set: its row i belongs to replicate rows[i].
    # `active` indexes the history with a basic slice while the set is whole.
    rows = np.arange(n_reps)
    active = slice(None)
    act_seeds, act_owners = seeds, owners
    ego_counts = np.zeros((n_reps, n, n_variants), dtype=np.int32)
    allo_counts = np.zeros((n_reps, n, n_variants), dtype=np.int32)
    target = np.zeros((n_reps, n_variants))
    target[rows, owners] = 1.0

    def window_start(t: int) -> int:
        return 0 if math.isinf(m) else max(0, t - int(m))

    executed = 0
    for t in range(1, max_rounds + 1):
        k = len(rows)
        rep_idx = np.arange(k)
        flat_rows = np.arange(k * n)
        ego_flat = ego_counts.reshape(k * n, n_variants)
        allo_flat = allo_counts.reshape(k * n, n_variants)
        # Slide the window to [window_start(t), t-1]: the previous round's
        # productions enter, rounds that fell off the left edge leave.
        ego_flat[flat_rows, prods[active, t - 1, :].ravel()] += 1
        if t >= 2:
            allo_flat[flat_rows, heard[active, t - 1, :].ravel()] += 1
        lo, prev_lo = window_start(t), window_start(t - 1)
        for w in range(prev_lo, lo):
            ego_flat[flat_rows, prods[active, w, :].ravel()] -= 1
            if w >= 1:
                allo_flat[flat_rows, heard[active, w, :].ravel()] -= 1

        ego_total = t - lo
        allo_total = t - max(lo, 1)
        f_ego = ego_counts / ego_total
        if allo_total == 0:
            pooled = f_ego
        else:
            pooled = (1.0 - c) * f_ego + c * (allo_counts / allo_total)

        q_count = (
            ego_counts[rep_idx, :, act_owners] + allo_counts[rep_idx, :, act_owners]
        )  # (reps, agents): occurrences of the high-quality variant in window
        gate = (q_count > 0).astype(np.float64)
        beta = b * gate
        base = (1.0 - beta)[:, :, None] * pooled + beta[:, :, None] * target[:, None, :]
        probs = (1.0 - mu) * base + mu_floor

        cumulative = np.cumsum(probs, axis=-1)
        u = rng.production_uniform_np(act_seeds[:, None], agent_ids[None, :], t)
        idx = (cumulative <= u[:, :, None]).sum(axis=-1)
        np.minimum(idx, n_variants - 1, out=idx)
        produced = idx.astype(np.int16)
        prods[active, t, :] = produced
        heard[active, t, :] = produced[:, partners[(t - 1) % cycle]]

        pool_counts = np.bincount(
            (rep_idx[:, None] * n_variants + idx).ravel(),
            minlength=k * n_variants,
        ).reshape(k, n_variants)
        h = entropy_from_counts(pool_counts)
        ent[active, t - 1] = h
        adapt[active, t - 1] = pool_counts[rep_idx, act_owners] / n
        conv[rows[(conv[active] == 0) & (h == 0.0)]] = t

        executed = t
        if stop_early and t >= cycle:
            # A converged replicate's n_rounds is final from here on, so it
            # retires. Retirees keep being stepped until a quarter of the set
            # has retired; what they compute meanwhile lands past n_rounds,
            # where the fill below overwrites it.
            keep = conv[active] == 0
            kept = int(np.count_nonzero(keep))
            if kept == 0:
                break
            if 4 * (k - kept) >= k:
                rows = active = rows[keep]
                act_seeds, act_owners = act_seeds[keep], act_owners[keep]
                ego_counts, allo_counts = ego_counts[keep], allo_counts[keep]
                target = target[keep]

    ent = ent[:, :executed]
    adapt = adapt[:, :executed]
    ent_norm = ent / log2n
    a0 = np.full((n_reps, 1), 1 / n)
    delta = np.diff(np.concatenate([a0, adapt], axis=1), axis=1)
    productions = prods[:, : executed + 1, :]

    if stop_early:
        n_rounds = np.where(conv > 0, np.maximum(conv, cycle), executed)
        # Columns past a replicate's own horizon get a fixed fill, so its row
        # depends on its seed alone and not on its batch-mates.
        past = np.arange(executed) >= n_rounds[:, None]
        for metric in (ent, ent_norm, adapt, delta):
            metric[past] = np.nan
        productions[:, 1:, :][past] = -1
    else:
        n_rounds = np.full(n_reps, executed, dtype=np.int64)

    return BatchResult(
        point=point,
        horizon=horizon,
        run_seeds=seeds,
        quality_owners=owners,
        n_rounds=n_rounds,
        entropy=ent,
        entropy_norm=ent_norm,
        adaptiveness=adapt,
        delta_adaptiveness=delta,
        convergence_rounds=conv,
        productions=productions,
    )


def run_replicates(
    point: ParameterPoint,
    replicates: int,
    master_seed: int,
    horizon: Horizon = FixedHorizon(),
    point_index: int = 0,
) -> BatchResult:
    """All replicates of one point as a dense batch."""
    if not isinstance(replicates, int) or replicates < 1:
        raise InvalidReplicatesError(f"replicates must be >= 1, got {replicates!r}")
    # An array, not a numpy scalar: uint64 scalar arithmetic warns on wraparound.
    master = np.array([master_seed & rng.MASK64], dtype=np.uint64)
    seeds = rng.absorb_np(master, point_index, np.arange(replicates))
    return _simulate_batch(point, horizon, seeds)


@dataclass(frozen=True)
class SweepGrid:
    """The cartesian parameter grid of a sweep.

    Points enumerate in the fixed order (n_agents, connectivity, coordination,
    content, memory); the index of a point in that order keys its run seeds.
    """

    population_sizes: tuple[int, ...] = (8,)
    connectivity: tuple[ConnectivityKind, ...] = (
        ConnectivityKind.EARLY,
        ConnectivityKind.MID,
        ConnectivityKind.LATE,
    )
    coordination_bias_levels: tuple[float, ...] = tuple(
        round(0.1 * i, 1) for i in range(11)
    )
    content_bias_levels: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))
    memory_levels: tuple[float, ...] = (1, 3, 5, UNBOUNDED)
    mutation_rate: float = 0.02
    replicates: int = 1000
    quality_owner: int | None = None
    custom_schedules: dict = field(default_factory=dict)  # name -> Schedule

    def validate(self) -> None:
        if not all(
            self.__getattribute__(name)
            for name in (
                "population_sizes",
                "connectivity",
                "coordination_bias_levels",
                "content_bias_levels",
                "memory_levels",
            )
        ):
            raise InvalidParamsError("every grid dimension needs at least one level")
        if self.replicates < 1:
            raise InvalidReplicatesError(
                f"replicates must be >= 1, got {self.replicates!r}"
            )
        for p in self.points():
            p.validate()

    def points(self) -> list[ParameterPoint]:
        out = []
        for n, kind, c, b, m in product(
            self.population_sizes,
            self.connectivity,
            self.coordination_bias_levels,
            self.content_bias_levels,
            self.memory_levels,
        ):
            if isinstance(kind, str) and kind in self.custom_schedules:
                conn, sched = ConnectivityKind.CUSTOM, self.custom_schedules[kind]
            else:
                conn, sched = ConnectivityKind(kind), None
            out.append(
                ParameterPoint(
                    n_agents=n,
                    connectivity=conn,
                    coordination_bias=c,
                    content_sensitivity=b,
                    memory_window=m,
                    mutation_rate=self.mutation_rate,
                    quality_owner=self.quality_owner,
                    schedule=sched,
                )
            )
        return out


def _sweep_point(args) -> tuple[int, "object"]:
    """Worker body: simulate one point and format its output rows."""
    (point_index, point, master_seed, replicates, horizon, want_runs) = args
    batch = run_replicates(
        point,
        replicates,
        master_seed,
        horizon=horizon,
        point_index=point_index,
    )
    runs_text = output.runs_block(batch) if want_runs else ""
    summaries = output.summarize_batch(batch)
    return point_index, (runs_text, summaries)


def sweep(
    grid: SweepGrid,
    master_seed: int,
    sink,
    horizon: Horizon = FixedHorizon(),
    workers: int = 1,
    progress=None,
) -> None:
    """Run every grid point (skipping any the sink already has) into sink.

    The sink must provide start_index() -> int, wants_runs() -> bool,
    write_point(point_index, runs_text, summaries) and finalize(), which is
    called even when no point is left. Output bytes depend only on grid,
    master_seed, and horizon: never on workers or resume splits.
    """
    grid.validate()
    points = grid.points()
    todo = [
        (i, points[i], master_seed, grid.replicates, horizon, sink.wants_runs())
        for i in range(sink.start_index(), len(points))
    ]
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = (
            pool.map(_sweep_point, todo, chunksize=4) if pool else map(_sweep_point, todo)
        )
        for point_index, (runs_text, summaries) in results:
            sink.write_point(point_index, runs_text, summaries)
            del runs_text, summaries  # free the rows before the next point is made
            if progress:
                progress(point_index + 1, len(points))
    sink.finalize()
