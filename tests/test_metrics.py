"""Entropy, adaptiveness, aggregation, and burst-detection checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from microsoc import metrics
from microsoc.errors import InvalidParamsError
from scalar_model import (
    EmptyRoundError,
    LengthMismatchError,
    adaptiveness,
    condition_gap,
    delta_adaptiveness,
    entropy,
    entropy_from_counts,
    entropy_normalized,
    time_to_convergence,
)


class TestEntropy:
    def test_all_distinct_is_full_bits(self):
        assert entropy(list(range(8)), 8) == 3.0
        assert entropy(list(range(16)), 16) == 4.0

    def test_six_two_split(self):
        assert entropy([0] * 6 + [1] * 2, 8) == pytest.approx(
            0.8112781244591328, abs=1e-15
        )

    def test_unanimous_is_exact_zero(self):
        h = entropy([5] * 8, 8)
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0  # normalized, not -0.0

    def test_empty_round_rejected(self):
        with pytest.raises(EmptyRoundError):
            entropy([], 8)

    def test_normalized_scale(self):
        assert entropy_normalized(list(range(8)), 8) == 1.0
        assert entropy_normalized([3] * 8, 8) == 0.0

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_label_invariance(self, prods):
        h = entropy(prods, 8)
        assert 0.0 <= h <= 3.0
        relabeled = [(v + 3) % 8 for v in prods]
        assert entropy(relabeled, 8) == pytest.approx(h, abs=1e-12)
        assert entropy(list(reversed(prods)), 8) == h

    def test_matches_counts_helper(self):
        prods = [0, 0, 1, 2, 2, 2, 5, 7]
        counts = np.bincount(prods, minlength=8)
        assert entropy(prods, 8) == float(entropy_from_counts(counts))


def compositions(total, parts):
    """Every count vector of `parts` nonnegative counts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class TestEntropyTable:
    """The batch kernel looks each count's term up in count_terms(0..n, n)."""

    @staticmethod
    def assert_table_matches(counts):
        n = int(counts[0].sum())
        table = metrics.count_terms(np.arange(n + 1), n)
        looked_up = metrics.entropy_from_terms(table[counts])
        assert looked_up.tobytes() == entropy_from_counts(counts).tobytes()
        return looked_up

    def test_every_eight_agent_composition(self):
        counts = np.array(list(compositions(8, 8)))
        assert len(counts) == 6435
        h = self.assert_table_matches(counts)
        unanimous = counts.max(axis=1) == 8
        assert unanimous.sum() == 8
        assert h[unanimous].tobytes() == np.zeros(8).tobytes()  # +0.0, not -0.0

    @pytest.mark.parametrize("n", [16, 32])
    def test_sampled_compositions(self, n):
        rng = np.random.default_rng(n)
        # Pools like the kernel's: a few dominant variants, and unanimity.
        draws = [rng.integers(0, rng.integers(1, n + 1), size=n) for _ in range(3000)]
        counts = np.array([np.bincount(d, minlength=n) for d in draws])
        assert (counts.max(axis=1) == n).any()
        h = self.assert_table_matches(counts)
        assert np.signbit(h).sum() == 0


class TestAdaptiveness:
    def test_fraction_of_high_quality(self):
        assert adaptiveness([5, 5, 0, 1, 2, 3, 4, 6], [5]) == 0.25
        assert adaptiveness([0] * 8, [5]) == 0.0
        assert adaptiveness([5] * 8, [5]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyRoundError):
            adaptiveness([], [5])


class TestDeltaAdaptiveness:
    def test_first_difference(self):
        assert delta_adaptiveness([0.125, 0.25]) == [0.125]

    def test_constant_series_is_zero(self):
        assert delta_adaptiveness([0.5, 0.5, 0.5]) == [0.0, 0.0]

    def test_decreases_allowed(self):
        deltas = delta_adaptiveness([0.5, 0.25])
        assert deltas == [-0.25]

    def test_too_short_rejected(self):
        with pytest.raises(InvalidParamsError, match="at least two rounds"):
            delta_adaptiveness([0.5])

    @given(st.lists(st.integers(0, 8), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_telescoping_is_exact_on_dyadic_values(self, counts):
        series = [k / 8 for k in counts]
        deltas = delta_adaptiveness(series)
        assert math.fsum(deltas) == series[-1] - series[0]


class TestTimeToConvergence:
    def test_first_zero_wins(self):
        assert time_to_convergence([3, 2, 1, 0, 0.5, 0]) == 4

    def test_immediate(self):
        assert time_to_convergence([0.0, 1.0]) == 1

    def test_censored_is_none(self):
        assert time_to_convergence([3, 2, 1]) is None

    def test_near_zero_does_not_count(self):
        assert time_to_convergence([1e-12, 1e-300]) is None


class TestAggregate:
    def test_constant_values(self):
        stats = metrics.aggregate([1.0, 1.0, 1.0])
        assert (stats.mean, stats.sd, stats.ci95, stats.n) == (1.0, 0.0, 0.0, 3)

    def test_two_point_hand_values(self):
        stats = metrics.aggregate([0.0, 2.0])
        assert stats.mean == 1.0
        assert stats.sd == pytest.approx(math.sqrt(2), abs=1e-15)
        assert stats.ci95 == pytest.approx(1.96, abs=1e-12)

    def test_single_value_rejected(self):
        with pytest.raises(InvalidParamsError, match="at least 2 values"):
            metrics.aggregate([1.0])

    def test_pooling_equals_concatenation(self):
        gen = np.random.default_rng(5)
        chunks = [gen.normal(size=k) for k in (3, 17, 40, 2)]
        parts = [metrics.aggregate(list(c)) for c in chunks]
        merged = metrics.pooled(parts)
        flat = metrics.aggregate([float(x) for c in chunks for x in c])
        assert merged.n == flat.n
        assert merged.mean == pytest.approx(flat.mean, abs=1e-12)
        assert merged.sd == pytest.approx(flat.sd, abs=1e-12)
        assert merged.ci95 == pytest.approx(flat.ci95, abs=1e-12)


    @pytest.mark.parametrize("ns,message", [
        ((), "nothing to pool"),
        ((1,), "pooled sample needs at least 2 values"),
        ((1, 0), "pooled sample needs at least 2 values"),
    ], ids=["no-groups", "one-value", "one-value-in-two-groups"])
    def test_pooling_needs_two_values(self, ns, message):
        with pytest.raises(InvalidParamsError, match=message):
            metrics.pooled([metrics.AggregateStats(1.0, 0.0, 0.0, n) for n in ns])

    def test_pooling_overflows_to_inf_without_raising(self):
        # A square past the largest float is inf, as the product gives it.
        merged = metrics.pooled([metrics.AggregateStats(1e308, 1e308, 1e308, 10)])
        assert (merged.mean, merged.sd, merged.ci95, merged.n) == (math.inf,) * 3 + (10,)

# -0.0, subnormals and values whose squares or sums overflow, beside
# ordinary ones.
EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.7e308]),
    st.floats(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestAggregateRows:
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 300)),
                  elements=EDGE_FLOATS))
    @settings(max_examples=200, deadline=None)
    def test_each_row_has_numpys_bits(self, table):
        n = table.shape[1]
        with np.errstate(all="ignore"):
            got = metrics.aggregate_rows(table)
            for stats, row in zip(got, table):
                sd = float(row.std(ddof=1))
                assert [stats.mean.hex(), stats.sd.hex(), stats.ci95.hex(), stats.n] == [
                    float(row.mean()).hex(), sd.hex(), (1.96 * sd / math.sqrt(n)).hex(), n]


class TestDetectBursts:
    def test_two_interior_maxima(self):
        assert metrics.detect_bursts([0.1, 0.4, 0.1, 0.3, 0.1], 0.05) == [2, 4]

    def test_unimodal_single_maximum(self):
        assert metrics.detect_bursts([0.1, 0.3, 0.2, 0.1], 0.05) == [2]

    def test_flat_series_has_none(self):
        assert metrics.detect_bursts([0.2, 0.2, 0.2, 0.2], 0.05) == []

    def test_endpoints_use_one_sided_rule(self):
        assert metrics.detect_bursts([0.5, 0.1, 0.1], 0.05) == [1]
        assert metrics.detect_bursts([0.1, 0.1, 0.5], 0.05) == [3]

    def test_prominence_filters_small_wiggles(self):
        series = [0.1, 0.109, 0.1, 0.3, 0.1]
        assert metrics.detect_bursts(series, 0.05) == [4]

    def test_too_short_rejected(self):
        with pytest.raises(InvalidParamsError, match="at least three points"):
            metrics.detect_bursts([0.1, 0.2], 0.05)

    def test_negative_prominence_rejected(self):
        with pytest.raises(InvalidParamsError, match="prominence must be nonnegative"):
            metrics.detect_bursts([0.1, 0.4, 0.1], -0.05)

    @given(
        peak=st.integers(1, 6),
        scale=st.floats(0.2, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_strict_unimodal_yields_one_burst(self, peak, scale):
        xs = np.arange(8, dtype=float)
        series = scale * np.exp(-0.5 * (xs - peak) ** 2)
        found = metrics.detect_bursts(list(series), 0.01)
        assert found == [peak + 1]


class TestConditionGap:
    def test_identical_series_is_zero(self):
        gap = condition_gap([1.0, 2.0], [1.0, 2.0], 8)
        assert np.all(gap == 0.0)

    def test_hand_value(self):
        gap = condition_gap([3.0], [1.5], 8)
        assert gap[0] == pytest.approx(0.5, abs=1e-15)

    def test_sign_preserved(self):
        gap = condition_gap([1.0], [2.0], 8)
        assert gap[0] < 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            condition_gap([1.0, 2.0], [1.0], 8)

    def test_degenerate_population_rejected(self):
        with pytest.raises(InvalidParamsError):
            condition_gap([1.0], [1.0], 1)
