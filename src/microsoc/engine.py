"""Simulation runs, replicate batches, and parameter sweeps.

The batch kernel simulates all replicates of one parameter point at once. Its
state is the rounds of productions that it keeps and one integer code per
(variant, agent) cell, E * S + A for the cell's ego and allo counts over the
memory window, which slides by one round per step (S, one more than the
longest window the run can hold, exceeds every count; the quality owner's
cell carries an offset of S**2). The productions take one byte per id below
128 agents and two otherwise, as do the high-quality counts. By default the
kernel keeps every round and the batch stores it as its history; with
history=False it keeps only the rounds the window reads, and the batch has
no history. The codes are variant-major, (variants, replicates * agents),
with column i * n + a for agent a of active replicate i. What an agent heard
is its partner's production, read from the kept rounds through the
schedule's partner matrix. A production probability depends only on a
cell's two counts, on whether it is the quality owner's variant and on
whether the column's window holds that variant. _pooled_frequency and
_production_probability compute it with the scalar reference's IEEE
operations (tests/scalar_model.py) in that reference's order. While S**2 is
at most four times the number of cells, a round looks it up in a table of
every code, rebuilt only when the window's totals change; otherwise it
computes it from each cell's own code. Either way a round costs in proportion
to the cells. A round's draw then runs one variant at a time: a running sum
over that variant's probabilities, compared with each agent's uniform. The
sum adds variants left to right, as the reference's cumulative sum does, and
never decreases, so the last variant needs no comparison. The uniforms come
from the same counter-based keys: a production uniform folds the round into
its (run, agent) key last, so the keys are built once per point and a round
costs one mix. A batched run is therefore bit-identical to the scalar
reference loop; tests enforce that. A batch stores, for each round, the
entropy and high-quality count of the replicates that ran it, the two metrics
the kernel measures; it builds each (replicates, rounds) metric array on
access.

Under an open-ended horizon the kernel steps only the replicates still
running: one that has converged and finished the round-robin retires, and its
columns past n_rounds hold a fixed fill (NaN, and -1 for counts and
history), so a replicate's row depends on its seed alone. Retiring moves the
kept codes and keys to the front of the arrays they were in, so the point
allocates its codes once.

A point's connectivity is one field: a built-in kind or a Schedule. One call,
ParameterPoint.validate(), decides whether a point runs and returns the
schedule the kernel steps: a sequence of perfect matchings for the point's
population. horizon_rounds decides whether a horizon fits that schedule.

Sweeps iterate the parameter grid in a fixed order and derive every run seed
from (master_seed, point_index, replicate_index) alone, which makes output
independent of worker count and lets an interrupted sweep resume exactly.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product
from numbers import Integral, Real
from typing import ClassVar

import numpy as np

from . import metrics, output, rng
from .errors import InvalidParamsError, MicrosocError, ScheduleValidationError
from .schedule import (BUILTIN_SIZES, ConnectivityKind, Schedule, builtin_schedule,
                       validate_schedule)

UNBOUNDED = math.inf
# The largest population whose ids and high-quality counts fit int16; below
# 128 agents they fit int8.
_MAX_AGENTS = 2**15 - 1
# The longest horizon: every cell code, below 2 * S**2, then fits int64.
_MAX_ROUNDS = 2**31 - 1


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
    max_rounds: int = 200


# open_ended: runs may stop at convergence, so summaries add a
# time-to-convergence row.
Horizon = FixedHorizon | UntilConvergence


@dataclass(frozen=True)
class ParameterPoint:
    """One cell of the parameter grid.

    connectivity is a built-in kind, resolved for n_agents, or a Schedule of
    perfect matchings on exactly n_agents agents; output labels it "custom".
    quality_owner is a 0-based agent id whose seed variant is the
    high-quality one, or None to draw the owner per run.
    """

    n_agents: int = 8
    connectivity: ConnectivityKind | Schedule = ConnectivityKind.EARLY
    coordination_bias: float = 0.5
    content_sensitivity: float = 0.0
    memory_window: float = UNBOUNDED
    mutation_rate: float = 0.02
    quality_owner: int | None = None

    @property
    def connectivity_label(self) -> str:
        """The connectivity column of both output files and of simulate."""
        if isinstance(self.connectivity, Schedule):
            return "custom"
        return ConnectivityKind(self.connectivity).value

    def validate(self) -> Schedule:
        """Raise unless the point can run; return the schedule it steps."""
        for name, rule in _FIELD_RULES.items():
            rule(name, getattr(self, name))
        n, owner = self.n_agents, self.quality_owner
        _refuse_bool("quality_owner", owner)
        if owner is not None and not (isinstance(owner, Integral) and 0 <= owner < n):
            raise InvalidParamsError(
                f"quality owner {owner!r} outside population of {n}"
            )
        if not isinstance(self.connectivity, Schedule):
            if n not in BUILTIN_SIZES:
                raise InvalidParamsError(f"population size {n} has no builtin schedule")
            return builtin_schedule(self.connectivity, n)
        schedule = self.connectivity
        if schedule.n_agents != n:
            raise InvalidParamsError(
                f"schedule is for {schedule.n_agents} agents, point has {n}"
            )
        violations = validate_schedule(schedule)
        if violations:
            raise ScheduleValidationError(violations)
        return schedule


def _refuse_bool(name: str, value) -> None:
    """bool is Integral, so True would otherwise pass for the integer 1."""
    if isinstance(value, bool):
        raise InvalidParamsError(f"{name} must not be a bool, got {value!r}")


# One rule per point field, which holds whatever the other fields are and
# raises InvalidParamsError naming the field: ParameterPoint.validate applies
# the rules to a point, and SweepGrid.validate to each level of a grid.
def _check_integer(name: str, v) -> None:
    _refuse_bool(name, v)
    if not isinstance(v, Integral):
        raise InvalidParamsError(f"{name} must be an integer, got {v!r}")


def _check_population(name: str, n) -> None:
    _check_integer(name, n)
    if n > _MAX_AGENTS:
        raise InvalidParamsError(f"{name} must be at most {_MAX_AGENTS}, got {n}")


def _check_connectivity(name: str, kind) -> None:
    if not (isinstance(kind, Schedule) or kind in list(ConnectivityKind)):
        raise InvalidParamsError(f"{name} must be a built-in kind or a Schedule, got {kind!r}")


def _check_unit(name: str, v) -> None:
    if isinstance(v, bool) or not (isinstance(v, Real) and 0.0 <= v <= 1.0):
        raise InvalidParamsError(f"{name} must lie in [0, 1], got {v!r}")


def _check_window(name: str, m) -> None:
    _refuse_bool(name, m)
    # Output labels a window through float, exact up to 2**53.
    if m != UNBOUNDED and not (
        isinstance(m, (Integral, float)) and 1 <= m <= 2**53 and m == int(m)
    ):
        raise InvalidParamsError(f"{name} must be a positive integer of at most 2**53 "
                                 f"or unbounded, got {m!r}")


# ParameterPoint's fields in order but quality_owner, whose range depends on
# n_agents; SweepGrid.LEVELS hold the levels of the first five.
_FIELD_RULES = dict(n_agents=_check_population, connectivity=_check_connectivity,
                    coordination_bias=_check_unit, content_sensitivity=_check_unit,
                    memory_window=_check_window, mutation_rate=_check_unit)


def horizon_rounds(horizon: Horizon, cycle: int) -> int:
    """The most rounds a run steps under horizon with a cycle-round schedule;
    raise unless it lies in [1, _MAX_ROUNDS], and open-ended, covers a cycle."""
    if horizon.open_ended:
        rounds, least = horizon.max_rounds, cycle
    else:
        rounds, least = (cycle if horizon.rounds is None else horizon.rounds), 1
    _refuse_bool("max_rounds" if horizon.open_ended else "rounds", rounds)
    if not (isinstance(rounds, Integral) and least <= rounds <= _MAX_ROUNDS):
        raise InvalidParamsError(
            f"{horizon} needs an integer number of rounds >= {least}, for a "
            f"{cycle}-round schedule, and at most {_MAX_ROUNDS}"
        )
    return rounds


def _pooled_frequency(ego, allo, ego_total, allo_total, c):
    """The frequency of a variant that the agent's window counts ego times
    among its own productions and allo times among what it heard, for each
    entry of ego and allo, which have one shape. The steps after the first
    work in place; multiplication and addition commute in IEEE arithmetic,
    so each entry has the bits of (1 - c) * pooled + c * heard."""
    pooled = ego / ego_total
    if allo_total != 0:
        # An empty allo partition hands its weight c to the ego side.
        pooled *= 1.0 - c
        heard = allo / allo_total
        heard *= c
        pooled += heard
    return pooled


def _production_probability(owner, pooled, beta, mu, mu_floor):
    """The probability of a variant, for each entry of the broadcast (owner,
    pooled, beta): owner is 1 for the high-quality variant, and beta the
    content bias where the window holds that variant, 0 elsewhere. With
    _pooled_frequency, each entry takes the scalar reference's IEEE operations
    in its order, so it gives the agent-by-agent rule's bits. Content bias
    adds beta * owner: beta * 0 == +0.0, which changes no bit. The sum with
    the owner term creates the broadcast array, which the last two steps
    update in place.
    """
    probability = (1.0 - beta) * pooled + beta * owner
    probability *= 1.0 - mu
    probability += mu_floor
    return probability


@dataclass
class BatchResult:
    """Per-round metrics for all replicates of one point.

    rounds holds one (entropy, quality_counts) pair per executed round: the
    entropy (float64) and high-quality count (how many of the round's n
    productions are the high-quality variant, in the history's dtype) of each
    replicate that ran the round.
    n_rounds[r] says how many leading rounds replicate r ran (they differ
    only in until-convergence mode), so round t's pair holds the replicates
    with n_rounds >= t, in ascending id. history is every round's
    productions, (replicates, max_rounds + 1, n_agents), int8 below 128
    agents and int16 otherwise, or None for a batch run with history=False:
    column 0 holds each agent's seed variant, and what agents heard in round
    t is history[:, t] permuted by the round's partners; its columns past
    n_rounds[r] + 1 are -1.

    entropy, quality_counts, productions and the derived metrics are
    read-only properties; each access builds a whole (replicates, rounds)
    array, with rows for replicates and columns for rounds 1..max executed,
    NaN past n_rounds (-1 in quality_counts).
    """

    point: ParameterPoint
    horizon: Horizon
    run_seeds: np.ndarray
    quality_owners: np.ndarray
    n_rounds: np.ndarray
    rounds: list[tuple[np.ndarray, np.ndarray]]
    convergence_rounds: np.ndarray  # 0 where censored
    history: np.ndarray | None

    def _dense(self, part: int, fill) -> np.ndarray:
        """Part `part` of the round pairs as (replicates, rounds), with fill
        past n_rounds: each round scattered into the replicates that ran it."""
        rounds = self.rounds
        out = np.full((self.n_replicates, len(rounds)), fill, dtype=rounds[0][part].dtype)
        for t, pair in enumerate(rounds):
            out[self.n_rounds > t, t] = pair[part]
        return out

    @property
    def entropy(self) -> np.ndarray:
        return self._dense(0, np.nan)

    @property
    def quality_counts(self) -> np.ndarray:
        return self._dense(1, -1)

    @property
    def productions(self) -> np.ndarray:
        """The history as int16, whatever the population."""
        if self.history is None:
            raise MicrosocError("this batch was run with history=False and "
                                "keeps no productions")
        return self.history.astype(np.int16, copy=False)

    @property
    def n_replicates(self) -> int:
        return len(self.run_seeds)

    @property
    def entropy_norm(self) -> np.ndarray:
        return metrics.entropy_norm(self.entropy, self.point.n_agents)

    @property
    def adaptiveness(self) -> np.ndarray:
        return metrics.adaptiveness(self.quality_counts, self.point.n_agents)

    @property
    def delta_adaptiveness(self) -> np.ndarray:
        now = self.adaptiveness
        before = np.insert(now[:, :-1], 0, 1 / self.point.n_agents, axis=1)
        return metrics.delta_adaptiveness(now, before)


def run_replicates(
    point: ParameterPoint,
    replicates: int,
    master_seed: int,
    horizon: Horizon = FixedHorizon(),
    point_index: int = 0,
    *,
    history: bool = True,
) -> BatchResult:
    """All replicates of one point, run in lockstep as a dense batch.

    history=False keeps only the rounds the memory window reads, and the
    batch's history is None; every other array is the same.
    """
    # A bool is Integral, but np.empty refuses it as a dimension.
    if isinstance(replicates, bool) or not isinstance(replicates, Integral) or replicates < 1:
        raise InvalidParamsError(f"replicates must be an integer >= 1, got {replicates!r}")
    _check_integer("master_seed", master_seed)
    _check_integer("point_index", point_index)
    seeds = rng.seed_derive(master_seed, point_index, np.arange(replicates))
    schedule = point.validate()
    n = point.n_agents
    n_variants = n
    partners = schedule.partner_matrix()
    cycle = schedule.n_rounds
    max_rounds = horizon_rounds(horizon, cycle)

    if point.quality_owner is not None:
        owners = np.full(replicates, point.quality_owner, dtype=np.int64)
    else:
        owners = (rng.absorb_np(seeds, rng.STREAM_OWNER) % np.uint64(n)).astype(np.int64)

    c = point.coordination_bias
    b = point.content_sensitivity
    mu = point.mutation_rate
    m = point.memory_window
    mu_floor = mu / n_variants

    # Productions, indexed by replicate, keep L rounds, round w in column
    # w % L: every round with history; without, the m + 1 rounds t - 1 - m
    # .. t - 1 that slide reads before round t overwrites column t % L, or
    # round t - 1 alone when no round leaves the window. Its ids, the
    # high-quality counts and the -1 fill take one byte below 128 agents.
    L = max_rounds + 1 if history else (int(m) + 1 if m < max_rounds else 1)
    hist_dtype = np.int8 if n < 128 else np.int16
    prods = np.empty((replicates, L, n), dtype=hist_dtype)
    prods[:, 0, :] = np.arange(n, dtype=hist_dtype)
    rounds = []
    conv = np.zeros(replicates, dtype=np.int64)
    # What a count adds to a round's entropy: the pool always holds n.
    term_table = metrics.count_terms(np.arange(n + 1), n)

    # A cell's window counts E (ego) and A (allo) stay below S, so
    # code = E * S + A tells them apart; the quality owner's cell adds S**2.
    S = int(min(max_rounds, m)) + 1
    owner_code = S * S
    dense, built = None, None

    # Working state of the active set: its row i belongs to replicate rows[i],
    # and column i * n + a to that replicate's agent a, so that variant x of
    # column j is element x * k * n + j of a flat view. `active` indexes the
    # history with a basic slice while the set is whole. keys and codes view
    # the fronts of the point's two buffers, which compaction reuses.
    rows = np.arange(replicates)
    active = slice(None)
    keys = keys_buf = rng.production_keys_np(seeds[:, None],
                                             np.arange(n, dtype=np.uint64)).ravel()
    all_cols = np.arange(replicates * n)
    # intp, not narrower: np.add.at is about 20 times slower on int16 or int32.
    codes_buf = np.zeros(n_variants * replicates * n, dtype=np.intp)
    codes = codes_buf.reshape(n_variants, -1)
    codes[np.repeat(owners, n), all_cols] = owner_code
    laid_out = 0
    # Buffers for the per-variant draw; each round slices the active columns.
    acc_buf = np.empty(replicates * n)
    hits_buf = np.empty(replicates * n, dtype=hist_dtype)
    mask_buf = np.empty(replicates * n, dtype=bool)

    # A round is three steps, each a function so that its temporaries are
    # freed before the next step allocates its own.
    def slide(t):
        """Slide every column's window by one round: round t - 1 enters and
        round t - 1 - m leaves, so it holds rounds max(0, t - m) .. t - 1.
        What an agent heard in round w >= 1 is its partner's production then;
        round 0 has no allo entries."""
        codes_flat = codes.reshape(-1)
        for w, step in ((t - 1, 1), (t - 1 - m, -1)):
            if w >= 0:
                w = int(w)
                produced = prods[active, w % L].astype(np.intp) * kn
                np.add.at(codes_flat, produced.ravel() + cols, step * S)
                if w > 0:
                    heard = produced[:, partners[(w - 1) % cycle]]
                    np.add.at(codes_flat, heard.ravel() + cols, step)

    def draw(t):
        """Round t's productions, (k, n): each column draws from its cells'
        probabilities with its uniform."""
        nonlocal dense, built
        ego_total = int(min(t, m))
        allo_total = ego_total - 1 if t <= m else ego_total
        # A column's window holds the high-quality variant unless the owner's
        # cell counts nothing. While S**2 is at most four times the cells, the
        # probabilities come from dense[holds, owner, E, A], which every code
        # indexes and which changes only with the window's totals; otherwise
        # from each cell's own code, so that a round costs in proportion to
        # the cells, however long the window grows.
        holds = codes.reshape(-1)[owned] != owner_code
        if owner_code <= 4 * codes.size:
            if (ego_total, allo_total) != built:
                if dense is None:
                    dense = np.empty((2, 2, S, S))
                pooled = _pooled_frequency(*np.indices((ego_total + 1, allo_total + 1)),
                                           ego_total, allo_total, c)
                # One beta at a time: both at once double the temporaries.
                for flag, beta in enumerate((0.0, b)):
                    dense[flag, :, : ego_total + 1, : allo_total + 1] = _production_probability(
                        np.arange(2)[:, None, None], pooled, beta, mu, mu_floor)
                built = ego_total, allo_total
            table, offset = dense.reshape(-1), holds * (2 * owner_code)
            probs = (table[row + offset] for row in codes[:-1])
        else:
            # count becomes the allo count, and both intp counts go before
            # the probabilities are built.
            owner_bit, count = np.divmod(codes[:-1], owner_code)
            ego = np.divmod(count, S, out=(None, count))[0]
            pooled = _pooled_frequency(ego, count, ego_total, allo_total, c)
            del ego, count
            probs = _production_probability(owner_bit, pooled, holds * b, mu, mu_floor)
        u = rng.production_uniform_np(keys, t)
        acc, hits, mask = acc_buf[:kn], hits_buf[:kn], mask_buf[:kn]
        acc[:] = hits[:] = 0
        # The reference's cumulative order; the last variant needs no sum.
        for p in probs:
            np.add(acc, p, out=acc)
            np.less_equal(acc, u, out=mask)
            np.add(hits, mask, out=hits)
        return hits.reshape(k, n)

    def measure(t, idx):
        """Store round t's productions idx and the metrics of its runners' pools."""
        prods[active, t % L, :] = idx
        pool_counts = np.bincount((pool_base + idx).ravel(), minlength=k * n_variants)
        h = metrics.entropy_from_terms(term_table[pool_counts.reshape(k, n_variants)])
        counts = pool_counts[owner_pool].astype(hist_dtype)
        ran = conv[active] == 0  # before this round's convergences are set
        conv[rows[ran & (h == 0.0)]] = t
        if horizon.open_ended and t > cycle and not ran.all():
            h, counts = h[ran], counts[ran]
        rounds.append((h, counts))

    for t in range(1, max_rounds + 1):
        k = len(rows)
        kn = k * n
        if k != laid_out:  # the first round, or the set was just compacted
            laid_out, cols, act_owners = k, all_cols[:kn], owners[rows]
            # Where each column's high-quality variant sits in the flat
            # codes, and each replicate's variants in the flat pool counts.
            owned = np.repeat(act_owners, n) * kn + cols
            pool_base = all_cols[:k, None] * n_variants
            owner_pool = pool_base[:, 0] + act_owners
        slide(t)
        measure(t, draw(t))

        if horizon.open_ended and t >= cycle:
            # A converged replicate's n_rounds is final from here on, so it
            # retires. Retirees keep being stepped until a quarter of the set
            # has retired; measure drops their metrics, and the fill below
            # overwrites their productions past n_rounds. After the last round
            # no round reads the set, so it is left as it is.
            keep = conv[active] == 0
            kept = int(np.count_nonzero(keep))
            if kept == 0:
                break
            if 4 * (k - kept) >= k and t < max_rounds:
                # Compact in place: variant row x of the kept columns moves to
                # [x * kept_n, (x + 1) * kept_n) of the buffer, at or before
                # where it was. Moving the rows first to last, each from a
                # copy, overwrites only rows already moved.
                keep_cols = np.repeat(keep, n)
                rows = active = rows[keep]
                kept_n = kept * n
                keys_buf[:kept_n] = keys.compress(keep_cols)
                keys = keys_buf[:kept_n]
                for x in range(n_variants):
                    codes_buf[x * kept_n:(x + 1) * kept_n] = codes[x].compress(keep_cols)
                codes = codes_buf[: n_variants * kept_n].reshape(n_variants, kept_n)

    executed = t
    kept_history = prods[:, : executed + 1, :] if history else None
    if horizon.open_ended:
        n_rounds = np.where(conv > 0, np.maximum(conv, cycle), executed)
        # Columns past a replicate's own horizon get a fixed fill, so its row
        # depends on its seed alone and not on its batch-mates; the metrics
        # get theirs on access.
        if history:
            past = np.arange(executed) >= n_rounds[:, None]
            np.copyto(kept_history[:, 1:, :], -1, where=past[:, :, None])
    else:
        n_rounds = np.full(replicates, executed, dtype=np.int64)

    return BatchResult(
        point=point,
        horizon=horizon,
        run_seeds=seeds,
        quality_owners=owners,
        n_rounds=n_rounds,
        rounds=rounds,
        convergence_rounds=conv,
        history=kept_history,
    )


@dataclass(frozen=True)
class SweepGrid:
    """The cartesian parameter grid of a sweep: the CLI's config takes its
    keys and defaults from these fields.

    Points enumerate in the fixed order (n_agents, connectivity, coordination,
    content, memory); the index of a point in that order keys its run seeds.
    Each level field is non-empty and repeats no level, and each level obeys
    the rule of the ParameterPoint field it sets. connectivity holds at most
    one Schedule (output labels every Schedule "custom"), so summary rows are
    told apart by their levels; replicates is at least 2.
    """

    # The level fields in nesting order, that of ParameterPoint's first five.
    LEVELS: ClassVar = ("population_sizes", "connectivity", "coordination_bias_levels",
                        "content_bias_levels", "memory_levels")

    population_sizes: tuple[int, ...] = (8,)
    connectivity: tuple[ConnectivityKind | Schedule, ...] = tuple(ConnectivityKind)
    coordination_bias_levels: tuple[float, ...] = tuple(
        round(0.1 * i, 1) for i in range(11)
    )
    content_bias_levels: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))
    memory_levels: tuple[float, ...] = (1, 3, 5, UNBOUNDED)
    mutation_rate: float = 0.02
    replicates: int = 1000
    quality_owner: int | None = None

    def validate(self) -> tuple[Schedule, ...]:
        """Raise, naming the field, unless the sweep can run: sweep's first step.
        Each level meets its point field's rule before the levels are
        compared. Return the distinct schedules that the points resolved."""
        for name, field in zip(self.LEVELS, _FIELD_RULES):
            levels = getattr(self, name)
            # Not a set: the levels' order decides the point indices.
            if not isinstance(levels, (tuple, list)):
                raise InvalidParamsError(f"{name} must be a tuple or list of levels, "
                                         f"got {levels!r}")
            if not levels:
                raise InvalidParamsError(f"{name} needs at least one level")
            for level in levels:
                _FIELD_RULES[field](f"{name}: {field}", level)
            if len(set(levels)) != len(levels):
                raise InvalidParamsError(f"{name} must not repeat a level")
        if not isinstance(self.replicates, Integral) or self.replicates < 2:
            raise InvalidParamsError(
                f"replicates must be an integer of at least 2, since a summary "
                f"row needs two runs; got {self.replicates!r}"
            )
        if sum(isinstance(k, Schedule) for k in self.connectivity) > 1:
            raise InvalidParamsError(
                "a grid takes at most one custom schedule: output labels "
                "every one of them 'custom'"
            )
        return tuple(dict.fromkeys(p.validate() for p in self.points()))

    def points(self) -> list[ParameterPoint]:
        return [ParameterPoint(*levels, self.mutation_rate, self.quality_owner)
                for levels in product(*(getattr(self, name) for name in self.LEVELS))]


def _sweep_point(args) -> tuple[int, "object"]:
    """Worker body: simulate one point and format its output rows."""
    (point_index, point, master_seed, replicates, horizon, want_runs) = args
    batch = run_replicates(
        point,
        replicates,
        master_seed,
        horizon=horizon,
        point_index=point_index,
        history=False,
    )
    runs_text = output.runs_block(batch) if want_runs else ""
    summaries = output.summarize_batch(batch)
    return point_index, (runs_text, summaries)


def _end_with_parent(parent_pid: int) -> None:
    """Pool initializer: end this worker when the sweep's process ends.

    A worker left without its parent would wait on the pool's call queue for
    good: it holds the queue's write end itself, so it never reads EOF. On
    Linux the kernel kills the worker when the thread that forked it ends,
    which is the sweep's calling thread, since a forking pool starts every
    worker at its first submit. A parent gone before this call is caught by
    its pid. Without prctl, a worker outlives a killed parent.
    """
    if sys.platform.startswith("linux"):
        import ctypes
        import signal
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG, from linux/prctl.h
        if os.getppid() != parent_pid:
            os._exit(1)


def sweep(
    grid: SweepGrid,
    master_seed: int,
    sink,
    horizon: Horizon = FixedHorizon(),
    workers: int = 1,
    progress=None,
) -> None:
    """Run every grid point (skipping any the sink already has) into sink.

    The sink must provide start_index(n_points) -> int, which is given the
    grid's point count, wants_runs() -> bool, write_point(point_index,
    runs_text, summaries) and finalize(), which is called whatever happens,
    even when no point is left. The master seed, an integer; workers, an
    integer of at least 1; the grid; and the horizon against each of its
    schedules are checked before start_index, the sink's first effect, so a
    sweep that cannot run leaves earlier output untouched. progress, if
    given, is called as progress(done, n_points) with the start index once
    start_index returns, then after each point is written. Output bytes
    depend only on grid, master_seed, and horizon: never on workers or
    resume splits.
    """
    try:
        _check_integer("master_seed", master_seed)
        _check_integer("workers", workers)
        if workers < 1:
            raise InvalidParamsError(f"workers must be at least 1, got {workers}")
        for schedule in grid.validate():
            horizon_rounds(horizon, schedule.n_rounds)
        points = grid.points()
        start = sink.start_index(len(points))
        if progress:
            progress(start, len(points))
        todo = [
            (i, points[i], master_seed, grid.replicates, horizon, sink.wants_runs())
            for i in range(start, len(points))
        ]
        # A pool forks all its workers at its first task: no more than points left.
        workers = min(workers, len(todo))
        if workers > 1:
            # Imported here, so that a serial sweep does not load multiprocessing.
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            # Fork on Linux, its default before Python 3.14, so that each
            # worker's parent is this process (_end_with_parent).
            context = get_context("fork") if sys.platform.startswith("linux") else None
            pooling = ProcessPoolExecutor(workers, context, initializer=_end_with_parent,
                                          initargs=(os.getpid(),))
        else:
            pooling = nullcontext()
        with pooling as pool:
            results = (
                pool.map(_sweep_point, todo, chunksize=4)
                if pool
                else map(_sweep_point, todo)
            )
            for point_index, (runs_text, summaries) in results:
                sink.write_point(point_index, runs_text, summaries)
                del runs_text, summaries  # free the rows before the next point is made
                if progress:
                    progress(point_index + 1, len(points))
    finally:
        sink.finalize()
