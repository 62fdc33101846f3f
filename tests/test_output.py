"""CSV formats, round-trips, summaries, and the resumable sweep sink."""

import csv
import dataclasses
import io
import json
import math
import os
import pickle

import numpy as np
import pytest

from microsoc import metrics
from microsoc.engine import (
    BatchResult,
    FixedHorizon,
    ParameterPoint,
    SweepGrid,
    UntilConvergence,
    run_replicates,
    sweep,
)
from microsoc.errors import ConfigError, InvalidParamsError
from microsoc.output import (
    CsvSweepSink,
    MemorySink,
    ROUND_METRICS,
    RUNS_HEADER,
    SUMMARY_HEADER,
    TC_METRIC,
    fmt_float,
    fmt_memory,
    read_summary,
    runs_block,
    summarize_batch,
    summary_block,
)
from microsoc.schedule import ConnectivityKind
from oracles import compactions, reference_runs_block

MASTER = 20240101

SMALL_GRID = SweepGrid(
    coordination_bias_levels=(0.5,),
    content_bias_levels=(0.0, 0.8),
    memory_levels=(3.0, math.inf),
    connectivity=(ConnectivityKind.EARLY, ConnectivityKind.LATE),
    replicates=12,
)


class TestFieldFormats:
    def test_seventeen_digit_floats_round_trip(self):
        for x in (0.1, 1 / 3, 0.8112781244591328, 2.0**-53, 123456.75):
            assert float(fmt_float(x)) == x

    def test_integral_floats_stay_short(self):
        assert fmt_float(0.0) == "0"
        assert fmt_float(1.0) == "1"
        assert fmt_float(0.5) == "0.5"

    def test_negative_zero_keeps_its_sign_after_positive_zero(self):
        assert fmt_float(0.0) == "0"
        assert fmt_float(-0.0) == "-0"
        assert math.copysign(1.0, float(fmt_float(-0.0))) == -1.0

    def test_memory_field(self):
        assert fmt_memory(3.0) == "3"
        assert fmt_memory(math.inf) == "inf"


def parse_runs(text):
    """The rows of a runs.csv text as dicts keyed by column name."""
    return list(csv.DictReader(io.StringIO(text)))


class TestRunsBlock:
    def make_records(self, point=None, replicates=3):
        point = point or ParameterPoint(content_sensitivity=0.4, quality_owner=1)
        batch = run_replicates(point, replicates, MASTER)
        return parse_runs(RUNS_HEADER + "\n" + runs_block(batch))

    def test_one_row_per_round(self):
        records = self.make_records(replicates=2)
        assert len(records) == 2 * 7
        assert [int(r["round"]) for r in records[:7]] == list(range(1, 8))

    def test_round_trip_through_file(self, tmp_path):
        batch = run_replicates(
            ParameterPoint(content_sensitivity=0.4, memory_window=3.0), 3, MASTER
        )
        path = tmp_path / "runs.csv"
        path.write_text(RUNS_HEADER + "\n" + runs_block(batch))
        records = parse_runs(path.read_text())
        assert [int(r["run_seed"]) for r in records[::7]] == list(batch.run_seeds)
        for name in ("entropy", "entropy_norm", "adaptiveness", "delta_adaptiveness"):
            parsed = np.array([float(r[name]) for r in records]).reshape(3, 7)
            assert np.array_equal(parsed, getattr(batch, name))
        assert {r["memory"] for r in records} == {"3"}

    def test_empty_write_is_header_only(self, tmp_path):
        sink = CsvSweepSink(tmp_path, "digest-1")
        sink.start_index(0)
        sink.finalize()
        assert (tmp_path / "runs.csv").read_text() == RUNS_HEADER + "\n"

    def test_external_ids_are_one_based(self):
        records = self.make_records()
        assert records[0]["quality_owner"] == "2"  # internal owner 1

    def test_converged_flag_marks_unanimous_rounds(self):
        point = ParameterPoint(
            content_sensitivity=1.0, mutation_rate=0.0, quality_owner=0
        )
        records = self.make_records(point, replicates=1)
        assert [r["converged_flag"] for r in records] == list("0001111")
        assert float(records[3]["entropy"]) == 0.0


def assert_matches_reference(batch):
    # Compared as line lists: a failing comparison then names the first row
    # that differs instead of diffing megabytes of text.
    assert runs_block(batch).split("\n") == reference_runs_block(batch).split("\n")


def one_group(entropy, counts, n_rounds):
    """A batch's per-round form of (replicates, rounds) arrays: round t's
    pair holds the values of the replicates that ran it."""
    return [(entropy[n_rounds > t, t], counts[n_rounds > t, t])
            for t in range(entropy.shape[1])]


class TestRunsBlockMatchesReference:
    """runs_block is byte-identical to the row-by-row reference formatter."""

    def test_fixed_horizon(self):
        batch = run_replicates(ParameterPoint(content_sensitivity=0.7), 60, MASTER)
        assert_matches_reference(batch)

    def test_ragged_until_convergence_under_drift(self):
        point = ParameterPoint(
            coordination_bias=1.0, content_sensitivity=0.0, memory_window=3.0
        )
        batch = run_replicates(point, 30, MASTER, horizon=UntilConvergence(60))
        assert len(set(batch.n_rounds.tolist())) > 1
        assert np.isnan(batch.entropy).any()
        assert_matches_reference(batch)

    def test_fixed_quality_owner(self):
        point = ParameterPoint(
            connectivity=ConnectivityKind.LATE, content_sensitivity=0.8,
            memory_window=math.inf, quality_owner=5,
        )
        batch = run_replicates(point, 20, MASTER)
        assert set(batch.quality_owners.tolist()) == {5}
        assert_matches_reference(batch)

    def test_hand_built_values(self):
        # -0.0 and 0.0 are equal but format differently; a subnormal, 1/3 and
        # 0.1 need all 17 digits; values repeat across rounds and replicates,
        # and so do the quality counts, whose pairs fix the deltas.
        values = [-0.0, 0.0, 5e-324, 1 / 3, 0.1, 0.1, -0.0, 1 / 3]
        ragged = np.array(values * 3, dtype=np.float64).reshape(3, 8)
        ragged[1, 5:] = np.nan
        counts = np.array([0, 8, 1, 3, 3, 5, 2, 1] * 3, dtype=np.int16).reshape(3, 8)
        counts[1, 5:] = -1
        batch = BatchResult(
            point=ParameterPoint(coordination_bias=0.1, content_sensitivity=1 / 3),
            horizon=UntilConvergence(8),
            run_seeds=np.array([7, 2**64 - 1, 0], dtype=np.uint64),
            quality_owners=np.array([0, 7, 3]),
            n_rounds=np.array([8, 5, 8]),
            rounds=one_group(ragged, counts, np.array([8, 5, 8])),
            convergence_rounds=np.zeros(3, dtype=np.int64),
            history=np.zeros((3, 9, 8), dtype=np.int64),
        )
        assert_matches_reference(batch)
        text = runs_block(batch)
        assert len(text.splitlines()) == 21
        assert ",-0," in text and ",4.9406564584124654e-324," in text

    def test_distinct_values_beyond_the_int64_key(self):
        # One run of 2**18 rounds among 32767 agents. Its entropy repeats
        # with a period of 2**17 rounds and its count with one of 2**15, so
        # folding the round (2**18), the entropy code (2**17) and two count
        # codes (2**15 each) spans 2**65 keys: unless the key is renumbered
        # on the way, round t + 2**17 wraps onto round t and both rows get
        # the same tail.
        rounds, n = 2**18, 2**15 - 1
        t = np.arange(rounds)
        batch = BatchResult(
            point=ParameterPoint(n_agents=n),
            horizon=FixedHorizon(rounds),
            run_seeds=np.zeros(1, dtype=np.uint64),
            quality_owners=np.zeros(1, dtype=np.int64),
            n_rounds=np.array([rounds]),
            rounds=one_group(((t % 2**17 + 1) / (2**17 + 1.0))[None, :],
                             (t % (n + 1)).astype(np.int16)[None, :], np.array([rounds])),
            convergence_rounds=np.zeros(1, dtype=np.int64),
            history=np.zeros((1, rounds + 1, 1), dtype=np.int16),
        )
        assert_matches_reference(batch)


class TestSummaries:
    def test_fixed_horizon_row_count(self):
        batch = run_replicates(ParameterPoint(), 10, MASTER)
        rows = summarize_batch(batch)
        assert len(rows) == 4 * 7
        assert all(r.censored_n == 0 for r in rows)
        assert all(r.n == 10 for r in rows)

    def test_summary_file_round_trip(self, tmp_path):
        rows = summarize_batch(run_replicates(ParameterPoint(), 10, MASTER))
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER + "\n" + summary_block(rows))
        assert read_summary(path) == rows

    def test_a_record_survives_the_pool_pickle(self):
        # A pool worker returns its records pickled; slots must not lose the
        # fields or the frozenness.
        rec = summarize_batch(run_replicates(ParameterPoint(), 10, MASTER))[0]
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.mean = 0.0

    def test_empty_summary_is_header_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER + "\n" + summary_block([]))
        assert path.read_text() == SUMMARY_HEADER + "\n"
        assert read_summary(path) == []

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER.rsplit(",", 1)[0] + "\n")
        with pytest.raises(ConfigError, match="header mismatch"):
            read_summary(path)

    def test_recompute_from_raw_matches_exactly(self, tmp_path):
        # The emitted summary must equal an aggregate recomputed from the
        # per-run rows, to the last bit, for every metric and round.
        point = ParameterPoint(content_sensitivity=0.6, memory_window=3.0)
        batch = run_replicates(point, 40, MASTER)
        rows = summarize_batch(batch)

        raw = parse_runs(RUNS_HEADER + "\n" + runs_block(batch))
        for row in rows:
            values = [
                float(r[row.metric]) for r in raw if int(r["round"]) == row.round_no
            ]
            stats = metrics.aggregate(values)
            assert stats.mean == row.mean
            assert stats.sd == row.sd
            assert stats.ci95 == row.ci95
            assert stats.n == row.n

    def test_open_ended_recompute_from_raw_matches_exactly(self):
        # Under an open-ended horizon each round is summarized over the runs
        # still going, so late rounds have fewer runners, and a round with
        # fewer than two gets no rows at all.
        batch = run_replicates(
            ParameterPoint(content_sensitivity=0.6, memory_window=math.inf),
            20, MASTER, horizon=UntilConvergence(40),
        )
        rows = summarize_batch(batch)
        runners = {
            t: int((batch.n_rounds >= t).sum())
            for t in range(1, int(batch.n_rounds.max()) + 1)
        }
        assert len(set(batch.n_rounds.tolist())) > 2
        assert any(n < 2 for n in runners.values())

        raw = parse_runs(RUNS_HEADER + "\n" + runs_block(batch))
        round_rows = [row for row in rows if row.round_no > 0]
        assert sorted({row.round_no for row in round_rows}) == [
            t for t, n in runners.items() if n >= 2
        ]
        for row in round_rows:
            values = [
                float(r[row.metric]) for r in raw if int(r["round"]) == row.round_no
            ]
            assert len(values) == runners[row.round_no]
            stats = metrics.aggregate(values)
            # hex() tells -0.0 from 0.0, which summary.csv writes apart.
            assert [stats.mean.hex(), stats.sd.hex(), stats.ci95.hex(), stats.n] == [
                row.mean.hex(), row.sd.hex(), row.ci95.hex(), row.n
            ]

    def test_summaries_across_compactions(self):
        # Drift under memory 3 converges a few replicates at a time, so the
        # active set compacts again and again, and the kernel steps retirees
        # for some rounds before each compaction drops them.
        point = ParameterPoint(coordination_bias=1.0, content_sensitivity=0.0,
                               memory_window=3.0)
        batch = run_replicates(point, 300, MASTER, horizon=UntilConvergence(200),
                               history=False)
        assert compactions(batch) >= 5
        records = summarize_batch(batch)
        metric_arrays = [getattr(batch, name) for name in ROUND_METRICS]
        expected = []
        for t in range(1, metric_arrays[0].shape[1] + 1):
            runners = batch.n_rounds >= t
            if np.count_nonzero(runners) < 2:
                break
            for name, values in zip(ROUND_METRICS, metric_arrays):
                stats = metrics.aggregate(values[runners, t - 1])
                expected.append((t, name, stats.mean.hex(), stats.sd.hex(),
                                 stats.ci95.hex(), stats.n, 0))
        conv = batch.convergence_rounds[batch.convergence_rounds > 0]
        stats = metrics.aggregate(conv.astype(np.float64))
        expected.append((0, TC_METRIC, stats.mean.hex(), stats.sd.hex(), stats.ci95.hex(),
                         len(conv), 300 - len(conv)))
        assert [(r.round_no, r.metric, r.mean.hex(), r.sd.hex(), r.ci95.hex(), r.n,
                 r.censored_n) for r in records] == expected

    def test_open_ended_batches_add_convergence_row(self):
        batch = run_replicates(
            ParameterPoint(content_sensitivity=0.8),
            15,
            MASTER,
            horizon=UntilConvergence(100),
        )
        rows = summarize_batch(batch)
        tc = [r for r in rows if r.metric == "time_to_convergence"]
        assert len(tc) == 1
        assert tc[0].round_no == 0
        assert tc[0].n + tc[0].censored_n == 15
        conv = batch.convergence_rounds[batch.convergence_rounds > 0]
        assert tc[0].mean == metrics.aggregate(conv.astype(float)).mean

    def test_a_single_converged_run_has_no_spread(self):
        # Of three runs only the second converges, at round 9, and stops;
        # the time to convergence is summarized over that one run.
        n_rounds = np.array([12, 9, 12])
        entropy = np.where(np.arange(12) < n_rounds[:, None], 1.5, np.nan)
        entropy[1, 8] = 0.0
        counts = np.where(np.arange(12) < n_rounds[:, None], 3, -1).astype(np.int8)
        batch = BatchResult(
            point=ParameterPoint(),
            horizon=UntilConvergence(12),
            run_seeds=np.arange(3, dtype=np.uint64),
            quality_owners=np.zeros(3, dtype=np.int64),
            n_rounds=n_rounds,
            rounds=one_group(entropy, counts, n_rounds),
            convergence_rounds=np.array([0, 9, 0]),
            history=None,
        )
        records = summarize_batch(batch)
        tc = [r for r in records if r.metric == TC_METRIC]
        assert [(r.round_no, r.mean, r.sd, r.ci95, r.n, r.censored_n) for r in tc] == [
            (0, 9.0, 0.0, 0.0, 1, 2)]
        assert {r.n for r in records if r.round_no in (9, 10)} == {3, 2}

    def test_no_convergence_row_when_none_converged(self):
        batch = run_replicates(
            ParameterPoint(),  # drift rarely converges in 12 rounds
            5,
            MASTER,
            horizon=UntilConvergence(12),
        )
        if (batch.convergence_rounds > 0).any():
            pytest.skip("seed produced an early convergence")
        rows = summarize_batch(batch)
        assert all(r.metric != "time_to_convergence" for r in rows)

    def test_fixed_horizon_has_no_convergence_row(self):
        batch = run_replicates(
            ParameterPoint(content_sensitivity=1.0, quality_owner=0), 5, MASTER
        )
        rows = summarize_batch(batch)
        assert all(r.metric != "time_to_convergence" for r in rows)


class TestCsvSweepSink:
    def run_to_dir(self, out_dir, grid=SMALL_GRID, interrupt_after=None):
        """Run the sweep into out_dir, optionally dying after k points."""
        sink = CsvSweepSink(out_dir, "digest-1")
        if interrupt_after is None:
            sweep(grid, MASTER, sink)
            return
        points = grid.points()
        from microsoc.engine import _sweep_point

        sink.start_index(len(points))
        for idx in range(interrupt_after):
            _, payload = _sweep_point(
                (idx, points[idx], MASTER, grid.replicates, FixedHorizon(), True)
            )
            sink.write_point(idx, payload[0], payload[1])
        # Simulate a torn write from a crash mid-point.
        sink._runs.write(b"1,2,3,partial")
        sink._runs.flush()
        sink._runs.close()
        sink._summary.close()

    def test_fresh_run_writes_files_and_checkpoint(self, tmp_path):
        out = tmp_path / "out"
        self.run_to_dir(out)
        runs = (out / "runs.csv").read_text().splitlines()
        summary = (out / "summary.csv").read_text().splitlines()
        n_points = len(SMALL_GRID.points())
        assert runs[0] == RUNS_HEADER
        assert len(runs) == 1 + n_points * SMALL_GRID.replicates * 7
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 1 + n_points * 28
        state = json.loads((out / "checkpoint.json").read_text())
        assert set(state) == {"digest", "last_point", "runs_bytes", "summary_bytes"}
        assert state["last_point"] == n_points - 1

    def test_resume_after_interruption_is_byte_identical(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        self.run_to_dir(clean)
        self.run_to_dir(broken, interrupt_after=3)
        resumed = CsvSweepSink(broken, "digest-1", resume=True)
        assert resumed.start_index(len(SMALL_GRID.points())) == 3
        sweep(SMALL_GRID, MASTER, resumed)
        assert (broken / "runs.csv").read_bytes() == (clean / "runs.csv").read_bytes()
        assert (
            broken / "summary.csv"
        ).read_bytes() == (clean / "summary.csv").read_bytes()

    def test_resume_requires_matching_digest(self, tmp_path):
        out = tmp_path / "out"
        self.run_to_dir(out, interrupt_after=2)
        with pytest.raises(ConfigError):
            CsvSweepSink(out, "some-other-digest", resume=True)

    def test_resume_of_complete_sweep_runs_nothing(self, tmp_path):
        out = tmp_path / "out"
        self.run_to_dir(out)
        names = ("runs.csv", "summary.csv", CsvSweepSink.CHECKPOINT)
        before = {name: (out / name).read_bytes() for name in names}
        resumed = CsvSweepSink(out, "digest-1", resume=True)
        n_points = len(SMALL_GRID.points())
        assert resumed.start_index(n_points) == n_points
        sweep(SMALL_GRID, MASTER, resumed)
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_invalid_grid_leaves_finished_sweep_untouched(self, tmp_path):
        out = tmp_path / "out"
        self.run_to_dir(out)
        names = ("runs.csv", "summary.csv", CsvSweepSink.CHECKPOINT)
        before = {name: (out / name).read_bytes() for name in names}
        for grid, horizon, message in (
            (SweepGrid(population_sizes=(10,)), FixedHorizon(), "population size 10"),
            # A horizon that does not fit the grid's schedules is refused as early.
            (SMALL_GRID, UntilConvergence(3), "rounds >= 7"),
            (SMALL_GRID, FixedHorizon(0), "rounds >= 1"),
        ):
            with pytest.raises(InvalidParamsError, match=message):
                sweep(grid, MASTER, CsvSweepSink(out, "d"), horizon=horizon)
            assert {name: (out / name).read_bytes() for name in names} == before

    def test_unstarted_sink_creates_nothing(self, tmp_path):
        CsvSweepSink(tmp_path / "new", "digest-1").finalize()
        assert not (tmp_path / "new").exists()

    def test_resume_without_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            CsvSweepSink(tmp_path / "missing", "digest-1", resume=True)

    def test_out_of_order_points_rejected(self, tmp_path):
        sink = CsvSweepSink(tmp_path / "out", "digest-1")
        with pytest.raises(ConfigError):
            sink.write_point(5, "", [])
        sink.finalize()

    def test_worker_count_leaves_files_identical(self, tmp_path):
        solo, multi = tmp_path / "solo", tmp_path / "multi"
        sweep(SMALL_GRID, MASTER, CsvSweepSink(solo, "d"), workers=1)
        sweep(SMALL_GRID, MASTER, CsvSweepSink(multi, "d"), workers=4)
        assert (solo / "runs.csv").read_bytes() == (multi / "runs.csv").read_bytes()
        assert (
            solo / "summary.csv"
        ).read_bytes() == (multi / "summary.csv").read_bytes()


class TestMemorySink:
    def test_collects_in_point_order(self):
        sink = MemorySink()
        sweep(SMALL_GRID, MASTER, sink, workers=1)
        assert sink.finalized
        keys = [
            (r.connectivity, r.coordination_bias, r.content_bias, r.memory)
            for r in sink.summaries
        ]
        assert keys == sorted(keys, key=lambda k: (k[0] != "early", k))
