"""Engine behavior: scalar agreement, determinism, horizons, and invariants."""

import math

import numpy as np
import pytest

from microsoc import metrics, rng
from microsoc.engine import (
    FixedHorizon,
    ParameterPoint,
    SweepGrid,
    UntilConvergence,
    run_replicates,
    sweep,
)
from microsoc.errors import InvalidParamsError, InvalidReplicatesError
from microsoc.output import MemorySink
from microsoc.schedule import ConnectivityKind, Schedule, builtin_schedule

from oracles import scalar_run

MASTER = 20240101


def batch_equals_scalar(point, replicates=3, rounds=None):
    """Compare the vectorized batch against the agent-by-agent reference."""
    horizon = FixedHorizon(rounds)
    batch = run_replicates(point, replicates, MASTER, horizon=horizon)
    for r in range(replicates):
        seed = rng.seed_derive(MASTER, 0, r)
        prods, entropies, conv = scalar_run(point, seed, rounds)
        assert np.array_equal(batch.productions[r], np.asarray(prods))
        assert np.array_equal(batch.entropy[r], np.asarray(entropies))
        expected_conv = 0 if conv is None else conv
        assert batch.convergence_rounds[r] == expected_conv


class TestScalarAgreement:
    @pytest.mark.parametrize(
        "kind", [ConnectivityKind.EARLY, ConnectivityKind.MID, ConnectivityKind.LATE]
    )
    def test_all_layouts(self, kind):
        batch_equals_scalar(ParameterPoint(connectivity=kind, content_sensitivity=0.4))

    @pytest.mark.parametrize("m", [1.0, 3.0, 5.0, math.inf])
    def test_all_memory_windows(self, m):
        batch_equals_scalar(
            ParameterPoint(memory_window=m, content_sensitivity=0.6, coordination_bias=0.7)
        )

    @pytest.mark.parametrize(
        "c,b,mu",
        [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.02),
            (0.5, 1.0, 0.0),
            (0.5, 0.5, 1.0),
            (0.3, 0.8, 0.1),
        ],
    )
    def test_bias_corners(self, c, b, mu):
        batch_equals_scalar(
            ParameterPoint(
                coordination_bias=c, content_sensitivity=b, mutation_rate=mu
            )
        )

    def test_fixed_owner_and_larger_population(self):
        batch_equals_scalar(
            ParameterPoint(
                n_agents=16,
                connectivity=ConnectivityKind.LATE,
                content_sensitivity=0.8,
                quality_owner=3,
            ),
            replicates=2,
        )

    def test_truncated_horizon(self):
        batch_equals_scalar(ParameterPoint(content_sensitivity=0.9), rounds=3)


class TestDeterminism:
    def test_identical_config_identical_result(self):
        point = ParameterPoint(content_sensitivity=0.7)
        a = run_replicates(point, 6, MASTER)
        b = run_replicates(point, 6, MASTER)
        assert np.array_equal(a.productions, b.productions)
        assert np.array_equal(a.run_seeds, b.run_seeds)
        assert np.array_equal(a.convergence_rounds, b.convergence_rounds)

    def test_replicates_differ(self):
        batch = run_replicates(ParameterPoint(), 2, MASTER)
        assert batch.run_seeds[0] != batch.run_seeds[1]
        assert not np.array_equal(batch.productions[0], batch.productions[1])

    def test_pair_order_within_rounds_is_irrelevant(self):
        base = builtin_schedule(ConnectivityKind.EARLY, 8)
        shuffled = Schedule.from_pairs(
            8,
            [
                [(b, a) for a, b in reversed(matching)]
                for matching in base.rounds
            ],
        )
        point_a = ParameterPoint(
            connectivity=ConnectivityKind.CUSTOM, schedule=base, content_sensitivity=0.5
        )
        point_b = ParameterPoint(
            connectivity=ConnectivityKind.CUSTOM, schedule=shuffled, content_sensitivity=0.5
        )
        ba = run_replicates(point_a, 20, MASTER)
        bb = run_replicates(point_b, 20, MASTER)
        assert np.array_equal(ba.productions, bb.productions)

    def test_quality_label_neutral_without_content_bias(self):
        # With b=0 the owner never enters production probabilities, so the
        # trajectories are identical arrays; only adaptiveness relabels.
        a = run_replicates(ParameterPoint(quality_owner=0), 50, MASTER)
        b = run_replicates(ParameterPoint(quality_owner=7), 50, MASTER)
        assert np.array_equal(a.productions, b.productions)
        assert np.array_equal(a.entropy, b.entropy)
        assert not np.array_equal(a.adaptiveness, b.adaptiveness)


class TestHorizons:
    def test_fixed_default_is_one_round_robin(self):
        batch = run_replicates(ParameterPoint(), 4, MASTER)
        assert batch.entropy.shape == (4, 7)
        assert np.all(batch.n_rounds == 7)

    def test_fixed_horizon_is_prefix_of_until_convergence(self):
        point = ParameterPoint(content_sensitivity=0.3)
        fixed = run_replicates(point, 10, MASTER, horizon=FixedHorizon(7))
        open_ended = run_replicates(point, 10, MASTER, horizon=UntilConvergence(50))
        assert np.array_equal(
            fixed.productions, open_ended.productions[:, : 7 + 1, :]
        )
        assert np.array_equal(fixed.entropy, open_ended.entropy[:, :7])

    def test_until_convergence_stops_and_reports(self):
        point = ParameterPoint(content_sensitivity=1.0, mutation_rate=0.0, quality_owner=0)
        batch = run_replicates(point, 5, MASTER, horizon=UntilConvergence(100))
        assert np.all(batch.convergence_rounds == 4)  # doubling layout, exact
        assert np.all(batch.n_rounds == 7)  # full round-robin still executed

    def test_until_convergence_cycles_past_round_robin(self):
        point = ParameterPoint(content_sensitivity=0.4)
        batch = run_replicates(point, 30, MASTER, horizon=UntilConvergence(60))
        late = batch.convergence_rounds[batch.convergence_rounds > 7]
        assert late.size > 0  # some replicates genuinely need the cycled rounds
        for r in range(30):
            conv = batch.convergence_rounds[r]
            if conv > 0:
                assert batch.entropy[r, conv - 1] == 0.0
                assert batch.n_rounds[r] == max(conv, 7)

    def test_censoring_at_max_rounds(self):
        point = ParameterPoint()  # drift: convergence within 12 rounds is rare
        batch = run_replicates(point, 20, MASTER, horizon=UntilConvergence(12))
        censored = batch.convergence_rounds == 0
        assert censored.any()
        assert np.all(batch.n_rounds[censored] == 12)

    def test_max_rounds_below_round_robin_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_replicates(ParameterPoint(), 2, MASTER, horizon=UntilConvergence(3))


@pytest.mark.filterwarnings("error")
class TestActiveSet:
    # Drift with a short memory: within 60 rounds some replicates converge, at
    # different rounds, while others run to the cap.
    POINT = ParameterPoint(coordination_bias=1.0, content_sensitivity=0.0, memory_window=3.0)
    HORIZON = UntilConvergence(60)
    METRICS = ("entropy", "entropy_norm", "adaptiveness", "delta_adaptiveness")

    def batch(self, replicates=30):
        return run_replicates(self.POINT, replicates, MASTER, horizon=self.HORIZON)

    @pytest.mark.parametrize("point", [
        POINT,
        # Content bias added under compaction, a round leaving the window at
        # every step, and partner lookups across the 15-round cycle's end.
        ParameterPoint(
            n_agents=16, connectivity="late", coordination_bias=1.0,
            content_sensitivity=0.2, memory_window=1.0,
        ),
    ], ids=["drift", "content_bias"])
    def test_retired_and_censored_replicates_match_scalar(self, point):
        batch = run_replicates(point, 30, MASTER, horizon=self.HORIZON)
        cycle = point.resolve_schedule().n_rounds
        conv = batch.convergence_rounds
        assert (conv == 0).any()
        assert len(set(conv[conv > 0])) > 1
        for r in range(batch.n_replicates):
            prods, entropies, scalar_conv = scalar_run(
                point, rng.seed_derive(MASTER, 0, r), 60
            )
            n = int(batch.n_rounds[r])
            assert n == (max(scalar_conv, cycle) if scalar_conv else 60)
            assert np.array_equal(batch.productions[r, : n + 1], np.asarray(prods[: n + 1]))
            assert np.array_equal(batch.entropy[r, :n], np.asarray(entropies[:n]))
            assert conv[r] == (scalar_conv or 0)

    def test_smaller_batch_is_prefix_of_larger(self):
        large = self.batch()
        small = self.batch(2)
        cols = small.entropy.shape[1]
        assert cols < large.entropy.shape[1]
        for name in self.METRICS:
            assert np.array_equal(
                getattr(small, name), getattr(large, name)[:2, :cols], equal_nan=True
            )
        assert np.array_equal(small.productions, large.productions[:2, : cols + 1])
        for name in ("run_seeds", "quality_owners", "n_rounds", "convergence_rounds"):
            assert np.array_equal(getattr(small, name), getattr(large, name)[:2])

    def test_columns_past_n_rounds_hold_the_fill(self):
        batch = self.batch()
        assert (batch.n_rounds < batch.entropy.shape[1]).any()
        for r in range(batch.n_replicates):
            n = int(batch.n_rounds[r])
            for name in self.METRICS:
                row = getattr(batch, name)[r]
                assert not np.isnan(row[:n]).any()
                assert np.isnan(row[n:]).all()
            assert (batch.productions[r, : n + 1] >= 0).all()
            assert (batch.productions[r, n + 1 :] == -1).all()

    @pytest.mark.parametrize("master", [0, MASTER, 2**64 - 1, 2**70 + 5, -3])
    def test_vectorized_seeds_equal_scalar_derivation(self, master):
        batch = run_replicates(ParameterPoint(), 5, master, point_index=9)
        assert [int(s) for s in batch.run_seeds] == [
            rng.seed_derive(master, 9, r) for r in range(5)
        ]


class TestValidationAndShapes:
    def test_zero_replicates_rejected(self):
        with pytest.raises(InvalidReplicatesError):
            run_replicates(ParameterPoint(), 0, MASTER)

    @pytest.mark.parametrize("name,value", [
        *(
            (name, value)
            for name in ("coordination_bias", "content_sensitivity", "mutation_rate")
            for value in (-0.1, 1.5, math.nan)
        ),
        *(("memory_window", value) for value in (0, 2.5, -math.inf, math.nan)),
    ])
    def test_bad_bias_rejected(self, name, value):
        with pytest.raises(InvalidParamsError, match=name):
            run_replicates(ParameterPoint(**{name: value}), 1, MASTER)

    def test_custom_without_schedule_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_replicates(
                ParameterPoint(connectivity=ConnectivityKind.CUSTOM), 1, MASTER
            )

    def test_schedule_population_mismatch_rejected(self):
        sched = builtin_schedule(ConnectivityKind.EARLY, 8)
        with pytest.raises(InvalidParamsError):
            run_replicates(
                ParameterPoint(
                    n_agents=16, connectivity=ConnectivityKind.CUSTOM, schedule=sched
                ),
                1,
                MASTER,
            )

    def test_owner_outside_population_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_replicates(ParameterPoint(quality_owner=8), 1, MASTER)

    def test_unsupported_size_without_schedule_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_replicates(ParameterPoint(n_agents=10), 1, MASTER)

    def test_smaller_batch_is_prefix_of_larger(self):
        # Replicate r's seed depends on r alone, so a 2-replicate batch is
        # the first 2 rows of a 4-replicate batch.
        point = ParameterPoint(content_sensitivity=0.2)
        large = run_replicates(point, 4, MASTER)
        small = run_replicates(point, 2, MASTER)
        for name in ("run_seeds", "quality_owners", "productions", "entropy",
                     "adaptiveness", "delta_adaptiveness", "convergence_rounds"):
            assert np.array_equal(getattr(small, name), getattr(large, name)[:2])

    def test_metrics_recompute_from_productions(self):
        point = ParameterPoint(content_sensitivity=0.5, quality_owner=2)
        batch = run_replicates(point, 5, MASTER)
        for r in range(batch.n_replicates):
            for t in range(1, int(batch.n_rounds[r]) + 1):
                prods = list(batch.productions[r, t])
                assert batch.entropy[r, t - 1] == metrics.entropy(prods, 8)
                assert batch.adaptiveness[r, t - 1] == metrics.adaptiveness(prods, [2])
            a_series = [1 / 8] + list(batch.adaptiveness[r])
            assert np.allclose(
                batch.delta_adaptiveness[r],
                metrics.delta_adaptiveness(a_series),
                atol=0,
                rtol=0,
            )


class TestStatisticalInvariants:
    def test_neutral_adaptiveness_stays_at_chance(self):
        # No content bias, neutral coordination: the high-quality fraction is
        # a martingale started at 1/N, so every round's mean sits at chance.
        batch = run_replicates(ParameterPoint(), 10_000, MASTER)
        for t in range(7):
            col = batch.adaptiveness[:, t]
            se = col.std(ddof=1) / math.sqrt(len(col))
            assert abs(col.mean() - 1 / 8) < 3 * se

    def test_content_bias_lifts_adaptiveness(self):
        batch = run_replicates(ParameterPoint(content_sensitivity=0.8), 2_000, MASTER)
        assert batch.adaptiveness[:, -1].mean() > 0.5

    def test_egocentric_population_never_moves(self):
        point = ParameterPoint(
            coordination_bias=0.0, content_sensitivity=0.0, mutation_rate=0.0
        )
        batch = run_replicates(point, 10, MASTER)
        assert np.all(batch.entropy == 3.0)
        expected = np.tile(np.arange(8), (10, 8, 1))
        assert np.array_equal(batch.productions, expected)


class TestSweepGrid:
    def test_default_grid_size(self):
        grid = SweepGrid()
        assert len(grid.points()) == 11 * 11 * 4 * 3

    def test_points_order_is_documented_nesting(self):
        grid = SweepGrid(
            coordination_bias_levels=(0.0, 1.0),
            content_bias_levels=(0.5,),
            memory_levels=(1.0, math.inf),
            connectivity=(ConnectivityKind.EARLY, ConnectivityKind.LATE),
        )
        points = grid.points()
        assert len(points) == 8
        assert points[0].connectivity == ConnectivityKind.EARLY
        assert points[-1].connectivity == ConnectivityKind.LATE
        # connectivity varies slowest after population size; memory fastest.
        assert [p.memory_window for p in points[:2]] == [1.0, math.inf]

    def test_empty_levels_rejected(self):
        with pytest.raises(InvalidParamsError):
            SweepGrid(content_bias_levels=()).validate()

    def test_small_sweep_through_memory_sink(self):
        grid = SweepGrid(
            coordination_bias_levels=(0.5,),
            content_bias_levels=(0.0, 1.0),
            memory_levels=(math.inf,),
            connectivity=(ConnectivityKind.EARLY,),
            replicates=25,
        )
        sink = MemorySink(want_runs=True)
        sweep(grid, MASTER, sink, workers=1)
        assert len(sink.runs_text) == 2
        rows = "".join(sink.runs_text).strip().split("\n")
        assert len(rows) == 2 * 25 * 7
        assert len(sink.summaries) == 2 * 4 * 7

    def test_sweep_worker_count_does_not_change_results(self):
        grid = SweepGrid(
            coordination_bias_levels=(0.2, 0.8),
            content_bias_levels=(0.6,),
            memory_levels=(3.0,),
            connectivity=(ConnectivityKind.EARLY, ConnectivityKind.MID),
            replicates=10,
        )
        solo = MemorySink(want_runs=True)
        sweep(grid, MASTER, solo, workers=1)
        pooled = MemorySink(want_runs=True)
        sweep(grid, MASTER, pooled, workers=3)
        assert solo.runs_text == pooled.runs_text
        assert solo.summaries == pooled.summaries

    def test_progress_counts_from_the_resume_point_at_any_worker_count(self):
        grid = SweepGrid(
            coordination_bias_levels=(0.5,),
            content_bias_levels=(0.0, 0.5, 1.0),
            memory_levels=(3.0,),
            connectivity=(ConnectivityKind.EARLY, ConnectivityKind.LATE),
            replicates=4,
        )
        for workers in (1, 2):
            sink = MemorySink()
            sink.start_index = lambda: 3
            calls = []
            sweep(grid, MASTER, sink, workers=workers,
                  progress=lambda done, total: calls.append((done, total)))
            assert calls == [(4, 6), (5, 6), (6, 6)], workers
            assert len(sink.summaries) == 3 * 4 * 7
            assert sink.finalized
