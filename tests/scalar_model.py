"""Scalar reference of the production rule: agent memory, one entry at a time.

An agent's memory is a list of (round, origin, variant) entries, split into an
ego partition (what the agent itself produced) and an allo partition (what it
heard from partners). At production time the agent mixes the two partitions'
variant frequencies inside a sliding window of the last m rounds, optionally
redirects probability mass toward a high-quality variant it remembers, and
adds a uniform innovation floor:

    base(x) = (1 - beta) * [(1 - c) * f_ego(x) + c * f_allo(x)] + beta * target(x)
    P(x)    = (1 - mu) * base(x) + mu / n_variants

where beta = b * d and d is 1 iff some high-quality variant appears anywhere
in the window. target(x) spreads beta's mass uniformly over the high-quality
variants present (in this engine there is always exactly one). When the allo
partition is empty inside the window (always true in round 1), the social
weight c is reassigned to the ego side: the mixture falls back to f_ego alone.

Everything here is scalar and readable. The package's batch kernel
(microsoc.engine) computes the same arithmetic vectorized, in the same IEEE
evaluation order, and the test suite pins the kernel to this reference
bit for bit; test_model_core.py checks this reference against the brute-force
evaluator in oracles.py.

The seed derivation, draws and per-round metrics at the end of this file are
the scalar definitions of what the package computes in arrays. They keep
their own copy of the splitmix64 constants, so that microsoc.rng is checked
against an independent reference. The Python-int seeds and draws and
microsoc.rng's numpy-uint64 ones must match exactly (test_rng.py): the scalar
seed_derive and production_uniform stay the one definition of a run's seed
and of the draw that the kernel's seeds and uniforms are checked against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from microsoc.engine import UNBOUNDED
from microsoc.errors import InvalidParamsError, MicrosocError
from microsoc.metrics import count_terms, entropy_from_terms
from microsoc.rng import STREAM_OWNER, STREAM_PRODUCTION


class EmptyMemoryError(MicrosocError, ValueError):
    """No memory entry falls inside the active window, so no distribution exists."""


class DuplicateRoundError(MicrosocError, ValueError):
    """An interaction for this round was already recorded in the memory."""


class EmptyRoundError(MicrosocError, ValueError):
    """A per-round statistic was requested for an empty production list."""


class LengthMismatchError(MicrosocError, ValueError):
    """Two paired series differ in length."""


class Origin(enum.Enum):
    """Which side of an interaction a memory entry came from."""

    EGO = "ego"
    ALLO = "allo"


@dataclass(frozen=True)
class MemoryEntry:
    """One remembered production: who produced it is folded into origin."""

    round_no: int
    origin: Origin
    variant: int


@dataclass
class AgentMemory:
    """Chronological record of everything one agent produced and heard."""

    agent_id: int
    entries: list[MemoryEntry] = field(default_factory=list)

    @classmethod
    def initial(cls, agent_id: int) -> "AgentMemory":
        """Memory at the start of a run: the agent's own id as its seed variant."""
        return cls(agent_id, [MemoryEntry(0, Origin.EGO, agent_id)])

    def record(self, entry: MemoryEntry) -> None:
        if self.entries and entry.round_no < self.entries[-1].round_no:
            raise DuplicateRoundError(
                f"entry for round {entry.round_no} arrives after round "
                f"{self.entries[-1].round_no}"
            )
        self.entries.append(entry)

    def last_round(self) -> int:
        return self.entries[-1].round_no if self.entries else -1

    def window_entries(self, memory_window: float, current_round: int):
        """Entries visible when producing in current_round.

        The window covers rounds [current_round - m, current_round - 1]; an
        unbounded window keeps everything.
        """
        lo = -1 if math.isinf(memory_window) else current_round - memory_window
        hi = current_round - 1
        return [e for e in self.entries if lo <= e.round_no <= hi]


@dataclass(frozen=True)
class BiasParams:
    """Model parameters for one agent (shared by all agents in this engine).

    coordination_bias (c) weighs heard variants against own ones;
    content_sensitivity (b) is the maximum mass redirected to a remembered
    high-quality variant; mutation_rate (mu) is the uniform innovation floor;
    memory_window (m) is the number of past rounds kept, UNBOUNDED for all.
    """

    coordination_bias: float = 0.5
    content_sensitivity: float = 0.0
    mutation_rate: float = 0.0
    memory_window: float = UNBOUNDED

    def validate(self) -> None:
        for name in ("coordination_bias", "content_sensitivity", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParamsError(f"{name} must lie in [0, 1], got {v!r}")
        m = self.memory_window
        if math.isinf(m) and m > 0:
            return
        if not (isinstance(m, (int, float)) and float(m).is_integer() and m >= 1):
            raise InvalidParamsError(
                f"memory_window must be a positive integer or unbounded, got {m!r}"
            )


@dataclass(frozen=True)
class QualityAssignment:
    """Which variants count as high quality (adaptive content)."""

    high_quality: frozenset[int]

    @classmethod
    def single(cls, variant: int) -> "QualityAssignment":
        return cls(frozenset((variant,)))

    def is_high(self, variant: int) -> bool:
        return variant in self.high_quality


@dataclass(frozen=True)
class ProductionDistribution:
    """A probability vector over the variant space, with its cumulative sums."""

    probs: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "ProductionDistribution":
        return cls(probs, np.cumsum(probs))


def partition_frequencies(
    memory: AgentMemory,
    origin: Origin,
    memory_window: float,
    current_round: int,
) -> dict[int, float]:
    """Relative frequencies of variants in one partition of the active window.

    Returns an empty dict when the partition has no in-window entries.
    """
    counts: dict[int, int] = {}
    total = 0
    for e in memory.window_entries(memory_window, current_round):
        if e.origin is origin:
            counts[e.variant] = counts.get(e.variant, 0) + 1
            total += 1
    if total == 0:
        return {}
    return {v: k / total for v, k in counts.items()}


def production_distribution(
    memory: AgentMemory,
    params: BiasParams,
    quality: QualityAssignment,
    n_variants: int,
    current_round: int,
) -> ProductionDistribution:
    """The full production rule for one agent at one round.

    Raises InvalidParamsError for out-of-range parameters and EmptyMemoryError
    if no entry at all falls inside the window.
    """
    params.validate()
    if n_variants < 1:
        raise InvalidParamsError(f"n_variants must be positive, got {n_variants}")
    f_ego = partition_frequencies(memory, Origin.EGO, params.memory_window, current_round)
    f_allo = partition_frequencies(
        memory, Origin.ALLO, params.memory_window, current_round
    )
    if not f_ego and not f_allo:
        raise EmptyMemoryError(
            f"agent {memory.agent_id} remembers nothing within "
            f"{params.memory_window} rounds before round {current_round}"
        )
    for v in (*f_ego, *f_allo):
        if not 0 <= v < n_variants:
            raise InvalidParamsError(
                f"remembered variant {v} outside the space of {n_variants}"
            )

    ego_vec = np.zeros(n_variants)
    for v, p in f_ego.items():
        ego_vec[v] = p
    allo_vec = np.zeros(n_variants)
    for v, p in f_allo.items():
        allo_vec[v] = p

    c = params.coordination_bias
    # An empty partition hands its mixture weight to the other side.
    if not f_allo:
        pooled = ego_vec
    elif not f_ego:
        pooled = allo_vec
    else:
        pooled = (1.0 - c) * ego_vec + c * allo_vec

    remembered_high = sorted(
        v for v in set((*f_ego, *f_allo)) if quality.is_high(v)
    )
    gate = 1.0 if remembered_high else 0.0
    beta = params.content_sensitivity * gate
    target = np.zeros(n_variants)
    if remembered_high:
        target[remembered_high] = 1.0 / len(remembered_high)

    base = (1.0 - beta) * pooled + beta * target
    mu = params.mutation_rate
    probs = (1.0 - mu) * base + mu / n_variants
    return ProductionDistribution.from_probs(probs)


def sample_variant(dist: ProductionDistribution, u: float) -> int:
    """Inverse-CDF sample: the variant whose cumulative bin contains u in [0, 1)."""
    idx = int(np.searchsorted(dist.cumulative, u, side="right"))
    return min(idx, len(dist.cumulative) - 1)


def record_interaction(
    memory_a: AgentMemory,
    memory_b: AgentMemory,
    produced_a: int,
    produced_b: int,
    round_no: int,
) -> None:
    """Write one pairing's outcome into both partners' memories.

    Each partner stores its own production as an ego entry and the partner's
    as an allo entry. Recording the same round twice is an error.
    """
    if round_no < 1:
        raise InvalidParamsError(f"interactions start at round 1, got {round_no}")
    for mem in (memory_a, memory_b):
        if mem.last_round() >= round_no:
            raise DuplicateRoundError(
                f"agent {mem.agent_id} already has entries for round {round_no}"
            )
    memory_a.record(MemoryEntry(round_no, Origin.EGO, produced_a))
    memory_a.record(MemoryEntry(round_no, Origin.ALLO, produced_b))
    memory_b.record(MemoryEntry(round_no, Origin.EGO, produced_b))
    memory_b.record(MemoryEntry(round_no, Origin.ALLO, produced_a))


MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Bijective avalanche on 64-bit integers (splitmix64 finalizer)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def absorb(seed: int, *words: int) -> int:
    """Fold integer words into a seed, one avalanche pass per word."""
    h = seed & MASK64
    for w in words:
        h = mix64((h + _GAMMA + (w & MASK64)) & MASK64)
    return h


def seed_derive(master_seed: int, point_index: int, replicate_index: int) -> int:
    """Run seed for one replicate of one grid point.

    Distinct (point_index, replicate_index) pairs give independent streams
    under the same master seed.
    """
    return absorb(master_seed, point_index, replicate_index)


def to_unit(h: int) -> float:
    """Map a 64-bit hash to a float in [0, 1) using its top 53 bits."""
    return (h >> 11) * 2.0**-53


def production_uniform(run_seed: int, agent_id: int, round_no: int) -> float:
    """The single uniform behind one agent's production draw in one round."""
    return to_unit(absorb(run_seed, STREAM_PRODUCTION, agent_id, round_no))


def owner_draw(run_seed: int, n_agents: int) -> int:
    """Pick the high-quality variant's initial owner for one run.

    For power-of-two n_agents the modulo is exactly uniform.
    """
    return absorb(run_seed, STREAM_OWNER) % n_agents


def entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) along the last axis of a counts array."""
    counts = np.asarray(counts, dtype=np.float64)
    return entropy_from_terms(count_terms(counts, counts.sum(axis=-1, keepdims=True)))


def entropy(productions: Sequence[int], n_variants: int) -> float:
    """Entropy of one round's productions over a variant space of n_variants."""
    if len(productions) == 0:
        raise EmptyRoundError("cannot take the entropy of an empty round")
    if n_variants < 1:
        raise InvalidParamsError(f"n_variants must be positive, got {n_variants}")
    arr = np.asarray(productions, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= n_variants:
        raise InvalidParamsError("production outside the variant space")
    counts = np.bincount(arr, minlength=n_variants)
    return float(entropy_from_counts(counts))


def entropy_normalized(productions: Sequence[int], n_variants: int) -> float:
    """Entropy as a fraction of its maximum log2(n_variants)."""
    if n_variants < 2:
        raise InvalidParamsError("normalized entropy needs at least 2 variants")
    return entropy(productions, n_variants) / math.log2(n_variants)


def adaptiveness(productions: Sequence[int], high_quality: Iterable[int]) -> float:
    """Share of one round's productions that are high-quality variants."""
    if len(productions) == 0:
        raise EmptyRoundError("cannot take the adaptiveness of an empty round")
    high = frozenset(high_quality)
    return sum(1 for p in productions if p in high) / len(productions)


def delta_adaptiveness(series: Sequence[float]) -> list[float]:
    """First differences of an adaptiveness series (one element shorter)."""
    if len(series) < 2:
        raise InvalidParamsError("need at least two rounds to difference")
    return [float(series[t] - series[t - 1]) for t in range(1, len(series))]


def time_to_convergence(entropy_series: Sequence[float]) -> int | None:
    """First 1-based round whose entropy is exactly zero, or None if censored."""
    for t, h in enumerate(entropy_series, start=1):
        if h == 0.0:
            return t
    return None


def condition_gap(
    series_a: Sequence[float], series_b: Sequence[float], n_agents: int
) -> np.ndarray:
    """Per-round difference of two entropy series on the normalized scale."""
    if len(series_a) != len(series_b):
        raise LengthMismatchError(
            f"series lengths differ: {len(series_a)} vs {len(series_b)}"
        )
    if n_agents < 2:
        raise InvalidParamsError("need at least 2 agents for a normalized gap")
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    return (a - b) / math.log2(n_agents)
