"""The scalar reference production rule, checked against an independent evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microsoc import rng
from microsoc.engine import UNBOUNDED
from microsoc.errors import InvalidParamsError

from scalar_model import (
    AgentMemory,
    BiasParams,
    DuplicateRoundError,
    EmptyMemoryError,
    MemoryEntry,
    Origin,
    ProductionDistribution,
    QualityAssignment,
    partition_frequencies,
    production_distribution,
    record_interaction,
    sample_variant,
)

from oracles import (
    build_memory,
    dist_probs,
    random_memory_instances,
    reference_distribution,
)


class TestPartitionFrequencies:
    def test_window_counts_three_rounds(self):
        mem = build_memory(0, [(1, "ego", 2), (2, "ego", 2), (3, "ego", 5)])
        freqs = partition_frequencies(mem, Origin.EGO, 3, 4)
        assert freqs == {2: pytest.approx(2 / 3), 5: pytest.approx(1 / 3)}

    def test_window_of_one_keeps_last_round_only(self):
        mem = build_memory(0, [(1, "ego", 2), (2, "ego", 2), (3, "ego", 5)])
        assert partition_frequencies(mem, Origin.EGO, 1, 4) == {5: 1.0}

    def test_missing_partition_is_empty_not_error(self):
        mem = AgentMemory.initial(3)
        assert partition_frequencies(mem, Origin.ALLO, UNBOUNDED, 1) == {}

    def test_unbounded_window_reaches_round_zero(self):
        mem = AgentMemory.initial(3)
        assert partition_frequencies(mem, Origin.EGO, UNBOUNDED, 5) == {3: 1.0}

    def test_bounded_window_expels_round_zero(self):
        mem = build_memory(0, [(0, "ego", 0), (1, "ego", 7)])
        assert partition_frequencies(mem, Origin.EGO, 1, 2) == {7: 1.0}


class TestProductionDistribution:
    def test_point_mass_when_fully_egocentric(self):
        mem = build_memory(1, [(0, "ego", 1)])
        probs = dist_probs(mem, c=0, b=0, mu=0, m=UNBOUNDED, owner=5, n=8, t=1)
        assert probs[1] == 1.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_hand_evaluated_mixture(self):
        # Ego all variant 0; allo split between 1 and 0. Neutral coordination,
        # no content bias, 2% mutation over 8 variants.
        mem = build_memory(
            0,
            [
                (0, "ego", 0),
                (1, "ego", 0),
                (1, "allo", 1),
                (2, "ego", 0),
                (2, "allo", 0),
            ],
        )
        probs = dist_probs(mem, c=0.5, b=0, mu=0.02, m=UNBOUNDED, owner=7, n=8, t=3)
        assert probs[0] == pytest.approx(0.7375, abs=1e-12)
        assert probs[1] == pytest.approx(0.2475, abs=1e-12)
        for v in range(2, 8):
            assert probs[v] == pytest.approx(0.0025, abs=1e-12)

    def test_full_content_bias_forces_target(self):
        mem = build_memory(0, [(0, "ego", 3), (1, "ego", 3), (1, "allo", 6)])
        probs = dist_probs(mem, c=0.5, b=1, mu=0, m=UNBOUNDED, owner=6, n=8, t=2)
        assert probs[6] == 1.0

    def test_partial_content_bias_hand_value(self):
        # Ego holds variant 0, allo holds the high-quality variant 6:
        # 0.4 * 0.5 + 0.6 = 0.8 on the target, 0.2 left on the ego variant.
        mem = build_memory(0, [(0, "ego", 0), (1, "ego", 0), (1, "allo", 6)])
        probs = dist_probs(mem, c=0.5, b=0.6, mu=0, m=1, owner=6, n=8, t=2)
        assert probs[6] == pytest.approx(0.8, abs=1e-12)
        assert probs[0] == pytest.approx(0.2, abs=1e-12)

    def test_round_one_reassigns_empty_allo_weight(self):
        mem = AgentMemory.initial(2)
        probs = dist_probs(mem, c=0.9, b=0, mu=0, m=UNBOUNDED, owner=5, n=8, t=1)
        assert probs[2] == 1.0

    def test_quality_out_of_window_is_ignored(self):
        # The high-quality variant was heard at round 1 but the window only
        # covers round 2, so no content boost applies.
        mem = build_memory(
            0, [(0, "ego", 0), (1, "ego", 0), (1, "allo", 6), (2, "ego", 0), (2, "allo", 0)]
        )
        probs = dist_probs(mem, c=0.5, b=1, mu=0, m=1, owner=6, n=8, t=3)
        assert probs[6] == 0.0
        assert probs[0] == 1.0

    def test_quality_seen_in_either_partition_triggers_boost(self):
        ego_side = build_memory(0, [(1, "ego", 6), (1, "allo", 2)])
        allo_side = build_memory(0, [(1, "ego", 2), (1, "allo", 6)])
        for mem in (ego_side, allo_side):
            probs = dist_probs(mem, c=0.5, b=1, mu=0, m=UNBOUNDED, owner=6, n=8, t=2)
            assert probs[6] == 1.0

    def test_empty_window_raises(self):
        mem = build_memory(0, [(0, "ego", 0)])
        with pytest.raises(EmptyMemoryError):
            dist_probs(mem, c=0.5, b=0, mu=0, m=1, owner=5, n=8, t=5)

    def test_bad_params_raise(self):
        mem = AgentMemory.initial(0)
        with pytest.raises(InvalidParamsError):
            dist_probs(mem, c=1.5, b=0, mu=0, m=UNBOUNDED, owner=5, n=8, t=1)
        with pytest.raises(InvalidParamsError):
            dist_probs(mem, c=0.5, b=-0.1, mu=0, m=UNBOUNDED, owner=5, n=8, t=1)
        with pytest.raises(InvalidParamsError):
            dist_probs(mem, c=0.5, b=0, mu=2, m=UNBOUNDED, owner=5, n=8, t=1)
        with pytest.raises(InvalidParamsError):
            dist_probs(mem, c=0.5, b=0, mu=0, m=0, owner=5, n=8, t=1)

    def test_variant_outside_space_raises(self):
        mem = build_memory(0, [(0, "ego", 9)])
        with pytest.raises(InvalidParamsError):
            dist_probs(mem, c=0.5, b=0, mu=0, m=UNBOUNDED, owner=5, n=8, t=1)


class TestOracleEquivalence:
    def test_matches_brute_force_on_randomized_instances(self):
        cases = random_memory_instances(1200, seed=20240816)
        checked = 0
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
            assert np.allclose(probs, expected, atol=1e-12, rtol=0)
            checked += 1
        assert checked >= 1000

    def test_matches_brute_force_on_corner_params(self):
        entries = [(0, "ego", 0), (1, "ego", 0), (1, "allo", 5), (2, "ego", 5), (2, "allo", 0)]
        mem = build_memory(0, entries)
        for c in (0.0, 0.5, 1.0):
            for b in (0.0, 0.5, 1.0):
                for mu in (0.0, 0.02, 1.0):
                    for m in (1.0, 3.0, math.inf):
                        probs = dist_probs(mem, c=c, b=b, mu=mu, m=m, owner=5, n=8, t=3)
                        expected = reference_distribution(
                            entries,
                            coordination_bias=c,
                            content_sensitivity=b,
                            mutation_rate=mu,
                            memory_window=m,
                            quality_variants=[5],
                            n_variants=8,
                            current_round=3,
                        )
                        assert np.allclose(probs, expected, atol=1e-12, rtol=0)


class TestInvariants:
    @given(
        data=st.data(),
        c=st.floats(0, 1),
        b=st.floats(0, 1),
        mu=st.floats(0, 1),
        m=st.sampled_from([1.0, 2.0, 3.0, 5.0, math.inf]),
    )
    @settings(max_examples=150, deadline=None)
    def test_normalization(self, data, c, b, mu, m):
        t = data.draw(st.integers(1, 9))
        n = data.draw(st.sampled_from([4, 8, 16]))
        entries = [(0, "ego", data.draw(st.integers(0, n - 1)))]
        for r in range(1, t):
            entries.append((r, "ego", data.draw(st.integers(0, n - 1))))
            entries.append((r, "allo", data.draw(st.integers(0, n - 1))))
        mem = build_memory(0, entries)
        owner = data.draw(st.integers(0, n - 1))
        probs = dist_probs(mem, c=c, b=b, mu=mu, m=m, owner=owner, n=n, t=t)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()

    def test_egocentric_fixed_point_is_exact(self):
        mem = AgentMemory.initial(4)
        for t in range(1, 8):
            probs = dist_probs(mem, c=0, b=0, mu=0, m=UNBOUNDED, owner=2, n=8, t=t)
            assert probs[4] == 1.0
            record_interaction(mem, AgentMemory.initial(5 if t == 1 else t), 4, t % 8, t)

    def test_content_dominance_whenever_target_in_window(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            t = int(gen.integers(2, 8))
            entries = [(0, "ego", int(gen.integers(0, 8)))]
            for r in range(1, t):
                entries.append((r, "ego", int(gen.integers(0, 8))))
                entries.append((r, "allo", int(gen.integers(0, 8))))
            # Plant the target inside the last round so every window sees it.
            entries[-1] = (t - 1, "allo", 6)
            mem = build_memory(0, entries)
            for m in (1.0, 3.0, math.inf):
                probs = dist_probs(mem, c=0.5, b=1, mu=0, m=m, owner=6, n=8, t=t)
                assert probs[6] == 1.0

    def test_relabeling_symmetry_without_content_bias(self):
        gen = np.random.default_rng(9)
        perm = list(gen.permutation(8))
        entries = [(0, "ego", 3), (1, "ego", 3), (1, "allo", 5), (2, "ego", 5), (2, "allo", 1)]
        relabeled = [(r, o, perm[v]) for r, o, v in entries]
        base = dist_probs(build_memory(0, entries), c=0.3, b=0, mu=0.1, m=UNBOUNDED, owner=0, n=8, t=3)
        moved = dist_probs(
            build_memory(0, relabeled), c=0.3, b=0, mu=0.1, m=UNBOUNDED, owner=0, n=8, t=3
        )
        for v in range(8):
            assert moved[perm[v]] == pytest.approx(base[v], abs=1e-15)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_window_growth_never_shrinks_support(self, data):
        t = data.draw(st.integers(2, 9))
        entries = [(0, "ego", data.draw(st.integers(0, 7)))]
        for r in range(1, t):
            entries.append((r, "ego", data.draw(st.integers(0, 7))))
            entries.append((r, "allo", data.draw(st.integers(0, 7))))
        mem = build_memory(0, entries)
        supports = []
        for m in (1.0, 3.0, 5.0, math.inf):
            freqs = partition_frequencies(mem, Origin.EGO, m, t)
            supports.append(set(freqs))
        for small, big in zip(supports, supports[1:]):
            assert small <= big


class TestSampling:
    def test_point_mass_always_returns_it(self):
        mem = build_memory(0, [(0, "ego", 3)])
        params = BiasParams(0.5, 0.0, 0.0, UNBOUNDED)
        dist = production_distribution(mem, params, QualityAssignment.single(7), 8, 1)
        for u in (0.0, 0.3, 0.999999):
            assert sample_variant(dist, u) == 3

    def test_u_at_bin_edges(self):
        dist = ProductionDistribution.from_probs(np.array([0.25, 0.25, 0.5]))
        assert sample_variant(dist, 0.0) == 0
        assert sample_variant(dist, 0.25) == 1
        assert sample_variant(dist, 0.4999) == 1
        assert sample_variant(dist, 0.5) == 2
        assert sample_variant(dist, 0.9999999) == 2

    def test_empirical_frequencies_match_probs(self):
        # 10^6 keyed uniforms against the hand-evaluated mixture example.
        mem = build_memory(
            0,
            [(0, "ego", 0), (1, "ego", 0), (1, "allo", 1), (2, "ego", 0), (2, "allo", 0)],
        )
        params = BiasParams(0.5, 0.0, 0.02, UNBOUNDED)
        dist = production_distribution(mem, params, QualityAssignment.single(7), 8, 3)
        units = rng.to_unit_np(rng.absorb_np(np.arange(1_000_000, dtype=np.uint64), 77))
        idx = np.searchsorted(dist.cumulative, units, side="right")
        counts = np.bincount(np.minimum(idx, 7), minlength=8)
        freqs = counts / 1_000_000
        for v in range(8):
            se = math.sqrt(dist.probs[v] * (1 - dist.probs[v]) / 1_000_000)
            assert abs(freqs[v] - dist.probs[v]) < 3 * se + 1e-9


class TestRecordInteraction:
    def test_both_sides_store_both_variants(self):
        a, b = AgentMemory.initial(0), AgentMemory.initial(1)
        record_interaction(a, b, 4, 6, 1)
        assert a.entries[-2:] == [
            MemoryEntry(1, Origin.EGO, 4),
            MemoryEntry(1, Origin.ALLO, 6),
        ]
        assert b.entries[-2:] == [
            MemoryEntry(1, Origin.EGO, 6),
            MemoryEntry(1, Origin.ALLO, 4),
        ]

    def test_role_swap_swaps_labels_only(self):
        a1, b1 = AgentMemory.initial(0), AgentMemory.initial(1)
        record_interaction(a1, b1, 4, 6, 1)
        b2, a2 = AgentMemory.initial(1), AgentMemory.initial(0)
        record_interaction(b2, a2, 6, 4, 1)
        assert a1.entries == a2.entries
        assert b1.entries == b2.entries

    def test_duplicate_round_rejected(self):
        a, b = AgentMemory.initial(0), AgentMemory.initial(1)
        record_interaction(a, b, 4, 6, 1)
        with pytest.raises(DuplicateRoundError):
            record_interaction(a, b, 2, 2, 1)

    def test_round_zero_rejected(self):
        a, b = AgentMemory.initial(0), AgentMemory.initial(1)
        with pytest.raises(InvalidParamsError):
            record_interaction(a, b, 4, 6, 0)
