"""The entropy terms and the summary statistics that the package computes.

Every entropy in the package is entropy_from_terms over count_terms of counts
spanning the full variant space (zeros included), so numpy's
length-dependent pairwise summation can never make two code paths disagree:
the summation tree is fixed by the variant count. The batch kernel looks the
terms up in a table of count_terms over 0..n, since a round's pool always
holds n productions. Convergence is detected by exact comparison with 0.0,
which is safe because a unanimous round's entropy is computed as
-(1.0 * log2(1.0)) == 0.0 with no rounding.

entropy_norm, adaptiveness and delta_adaptiveness are the one definition of
each metric that a batch derives from what the kernel measures.

aggregate_rows is the one definition of the summary statistics; aggregate
is its one-row case, pooled merges them and detect_bursts marks the plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParamsError


def count_terms(counts, total) -> np.ndarray:
    """p * log2(p) for each count's share p = count / total; exactly 0.0 for
    a zero count. The one definition of what a count adds to an entropy."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = counts / total
    safe = np.where(counts > 0, probs, 1.0)
    return np.where(counts > 0, probs * np.log2(safe), 0.0)


def entropy_from_terms(terms: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) from count_terms along the last axis.

    The result is normalized so a unanimous distribution yields +0.0, never
    -0.0.
    """
    return -terms.sum(axis=-1) + 0.0


def entropy_norm(entropy, n_agents):
    """Entropy as a share of its largest value, log2 of the population."""
    return entropy / math.log2(n_agents)


def adaptiveness(counts, n_agents):
    """The high-quality variant's share of a round's n_agents productions."""
    return counts / n_agents


def delta_adaptiveness(now, before):
    """The change in adaptiveness from the round before."""
    return now - before


@dataclass(frozen=True)
class AggregateStats:
    """Mean, sample SD, normal-approximation 95% half-width, and count."""

    mean: float
    sd: float
    ci95: float
    n: int


def aggregate_rows(table: np.ndarray) -> list[AggregateStats]:
    """Mean, sample SD (n-1 denominator) and 1.96*sd/sqrt(n) of each row of a
    2-D array with >= 2 columns, each row summed once.

    These are the operations of numpy's mean and std(ddof=1), in their
    order, so the stats have their bits. The rows are reduced in C order,
    where numpy sums a row with the same pairwise tree as a 1-D array of its
    length, so each row's stats equal those of the row alone to the last
    bit. A Fortran-ordered table would be summed column by column instead,
    so it is copied first.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    n = table.shape[1]
    if n < 2:
        raise InvalidParamsError(f"need at least 2 values, got {n}")
    mean = np.add.reduce(table, axis=1, keepdims=True) / n
    d = table - mean
    d *= d
    sd = np.sqrt(np.add.reduce(d, axis=1) / (n - 1))
    root = math.sqrt(n)
    return [AggregateStats(m, s, 1.96 * s / root, n)
            for m, s in zip(mean[:, 0].tolist(), sd.tolist())]


def aggregate(values: Sequence[float]) -> AggregateStats:
    """Mean / sample SD (n-1 denominator) / 1.96*sd/sqrt(n) over >= 2 values,
    as aggregate_rows gives them for a one-row table."""
    return aggregate_rows(np.asarray(values, dtype=np.float64).reshape(1, -1))[0]


def pooled(stats: Sequence[AggregateStats]) -> AggregateStats:
    """Exactly merge per-group stats into the stats of the concatenated data.

    Uses the total-sum-of-squares identity, so pooling summaries equals
    aggregating the raw values (up to float round-off).
    """
    if not stats:
        raise InvalidParamsError("nothing to pool")
    total_n = sum(s.n for s in stats)
    if total_n < 2:
        raise InvalidParamsError("pooled sample needs at least 2 values")
    mean = sum(s.n * s.mean for s in stats) / total_n
    # Products, not **, which raises OverflowError where a product gives inf.
    ss = sum((s.n - 1) * s.sd * s.sd + s.n * (s.mean - mean) * (s.mean - mean) for s in stats)
    sd = math.sqrt(max(ss, 0.0) / (total_n - 1))
    return AggregateStats(mean, sd, 1.96 * sd / math.sqrt(total_n), total_n)


def detect_bursts(series: Sequence[float], prominence: float = 0.01) -> list[int]:
    """1-based positions of local maxima exceeding both neighbours by >= prominence.

    Endpoints are compared one-sided (only against their single neighbour).
    """
    if len(series) < 3:
        raise InvalidParamsError("burst detection needs at least three points")
    if prominence < 0:
        raise InvalidParamsError(f"prominence must be nonnegative, got {prominence}")
    out = []
    last = len(series) - 1
    for i, v in enumerate(series):
        left_ok = i == 0 or v - series[i - 1] >= prominence
        right_ok = i == last or v - series[i + 1] >= prominence
        if left_ok and right_ok:
            out.append(i + 1)
    return out
