"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built from different machinery than the
package (collections.Counter, plain dicts, explicit loops, set algebra), so
agreement between the two is evidence of correctness rather than a tautology.
A few shared case builders live here too so several test modules can drive
the same comparisons.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from microsoc.engine import FixedHorizon, ParameterPoint
from scalar_model import (
    AgentMemory,
    BiasParams,
    MemoryEntry,
    Origin,
    QualityAssignment,
    entropy,
    owner_draw,
    production_distribution,
    production_uniform,
    record_interaction,
    sample_variant,
)


def build_memory(agent_id, entries):
    """entries: (round, 'ego'|'allo', variant) triples, rounds nondecreasing."""
    mem = AgentMemory(agent_id=agent_id, entries=[])
    for round_no, origin, variant in entries:
        mem.record(
            MemoryEntry(
                round_no,
                Origin.EGO if origin == "ego" else Origin.ALLO,
                variant,
            )
        )
    return mem


def dist_probs(mem, *, c, b, mu, m, owner, n, t):
    params = BiasParams(
        coordination_bias=c, content_sensitivity=b, mutation_rate=mu, memory_window=m
    )
    quality = QualityAssignment.single(owner)
    return production_distribution(mem, params, quality, n, t).probs


def random_memory_instances(count, seed):
    """Randomized (entries, params) cases spanning the full input space."""
    gen = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(gen.choice([4, 8, 16]))
        t = int(gen.integers(1, 12))
        entries = [(0, "ego", int(gen.integers(0, n)))]
        for r in range(1, t):
            entries.append((r, "ego", int(gen.integers(0, n))))
            entries.append((r, "allo", int(gen.integers(0, n))))
        m = float(gen.choice([1, 2, 3, 5, 7, math.inf]))
        params = dict(
            c=float(gen.uniform(0, 1)),
            b=float(gen.uniform(0, 1)),
            mu=float(gen.uniform(0, 1)),
            m=m,
            owner=int(gen.integers(0, n)),
            n=n,
            t=t,
        )
        cases.append((entries, params))
    return cases


def reference_distribution(
    entries,
    *,
    coordination_bias: float,
    content_sensitivity: float,
    mutation_rate: float,
    memory_window: float,
    quality_variants,
    n_variants: int,
    current_round: int,
):
    """Brute-force evaluation of the production rule, one variant at a time.

    ``entries`` is a list of (round, origin, variant) tuples with origin given
    as the string "ego" or "allo". Returns a list of n_variants probabilities.
    """
    lo = current_round - memory_window
    hi = current_round - 1
    ego = collections.Counter()
    allo = collections.Counter()
    for round_no, origin, variant in entries:
        if round_no < lo or round_no > hi:
            continue
        if origin == "ego":
            ego[variant] += 1
        elif origin == "allo":
            allo[variant] += 1
        else:
            raise ValueError(f"bad origin {origin!r}")
    ego_total = sum(ego.values())
    allo_total = sum(allo.values())
    if ego_total == 0 and allo_total == 0:
        raise ValueError("window is empty")

    remembered = {v for v, k in ego.items() if k} | {v for v, k in allo.items() if k}
    high_present = sorted(v for v in remembered if v in set(quality_variants))
    beta = content_sensitivity if high_present else 0.0

    probs = []
    for x in range(n_variants):
        f_ego = ego[x] / ego_total if ego_total else 0.0
        f_allo = allo[x] / allo_total if allo_total else 0.0
        if allo_total == 0:
            mixed = f_ego
        elif ego_total == 0:
            mixed = f_allo
        else:
            mixed = (1.0 - coordination_bias) * f_ego + coordination_bias * f_allo
        boost = (1.0 / len(high_present)) if x in high_present else 0.0
        base = (1.0 - beta) * mixed + beta * boost
        probs.append((1.0 - mutation_rate) * base + mutation_rate / n_variants)
    return probs


def reference_reach(matchings, source: int):
    """Set-growth oracle: who could hold a variant seeded at ``source``.

    ``matchings`` is a list of rounds, each a list of (a, b) pairs. After a
    round, anyone paired with a current holder becomes a holder.
    """
    holders = {source}
    profile = []
    for matching in matchings:
        joined = set()
        for a, b in matching:
            if a in holders or b in holders:
                joined.add(a)
                joined.add(b)
        holders |= joined
        profile.append(len(holders))
    return profile


def compactions(batch):
    """How often the kernel compacted the batch's active set, from its
    convergence rounds: after each round from the cycle's last on but the
    horizon's last, once a quarter of the set has converged, the set drops
    those replicates, and a later round steps the rest."""
    left = batch.convergence_rounds
    count = 0
    for t in range(batch.point.validate().n_rounds, batch.horizon.max_rounds):
        done = (left > 0) & (left <= t)
        if done.all():
            break
        if 4 * np.count_nonzero(done) >= len(left):
            count += 1
            left = left[~done]
    return count


def scalar_run(point: ParameterPoint, run_seed: int, rounds: int | None = None):
    """A full simulation run built only from the scalar primitives.

    Walks the schedule with per-agent AgentMemory objects and one explicit
    production_distribution/sample_variant call per agent per round. Returns
    (productions, entropies, convergence_round) where productions[t] is the
    length-N list for round t (index 0 = the initial variants).
    """
    sched = point.validate()
    n = point.n_agents
    params = BiasParams(
        coordination_bias=point.coordination_bias,
        content_sensitivity=point.content_sensitivity,
        mutation_rate=point.mutation_rate,
        memory_window=point.memory_window,
    )
    if point.quality_owner is not None:
        owner = point.quality_owner
    else:
        owner = owner_draw(run_seed, n)
    quality = QualityAssignment.single(owner)

    memories = [AgentMemory.initial(i) for i in range(n)]
    horizon = rounds if rounds is not None else sched.n_rounds
    productions = [list(range(n))]
    entropies = []
    convergence_round = None
    for t in range(1, horizon + 1):
        matching = sched.rounds[(t - 1) % sched.n_rounds]
        prods = []
        for i in range(n):
            dist = production_distribution(memories[i], params, quality, n, t)
            u = production_uniform(run_seed, i, t)
            prods.append(sample_variant(dist, u))
        for a, b in matching:
            record_interaction(memories[a], memories[b], prods[a], prods[b], t)
        productions.append(prods)
        h = entropy(prods, n)
        entropies.append(h)
        if convergence_round is None and h == 0.0:
            convergence_round = t
    return productions, entropies, convergence_round


def reference_runs_block(batch) -> str:
    """runs.csv rows of a batch, one f-string per (run, round) cell.

    The straightforward row-by-row formatter that output.runs_block replaced;
    it formats every float with plain '%.17g' and every row afresh.
    """
    point = batch.point
    memory = "inf" if math.isinf(point.memory_window) else str(int(point.memory_window))
    mid = (
        f"{point.n_agents},{str(point.connectivity)},"
        f"{'%.17g' % point.content_sensitivity},{'%.17g' % point.coordination_bias},"
        f"{memory},{'%.17g' % point.mutation_rate}"
    )
    # Each derived metric is a property that computes its whole array, so it
    # is read once here, not once per cell.
    entropy, entropy_norm = batch.entropy, batch.entropy_norm
    adaptiveness, delta = batch.adaptiveness, batch.delta_adaptiveness
    rows = []
    for r in range(batch.n_replicates):
        head = f"{r},{batch.run_seeds[r]},{mid},{batch.quality_owners[r] + 1}"
        for t in range(int(batch.n_rounds[r])):
            e = float(entropy[r, t])
            rows.append(
                f"{head},{t + 1},{'%.17g' % e},{'%.17g' % entropy_norm[r, t]},"
                f"{'%.17g' % adaptiveness[r, t]},"
                f"{'%.17g' % delta[r, t]},{int(e == 0.0)}"
            )
    return "".join(row + "\n" for row in rows)
