"""CSV formats, round-trips, summaries, and the resumable sweep sink."""

import csv
import io
import json
import math
import os

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
from microsoc.errors import ConfigError, SchemaError
from microsoc.output import (
    CsvSweepSink,
    MemorySink,
    RUNS_HEADER,
    SUMMARY_HEADER,
    fmt_float,
    fmt_memory,
    read_summary,
    runs_block,
    summarize_batch,
    summary_block,
)
from microsoc.schedule import ConnectivityKind
from oracles import reference_runs_block

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
        # 0.1 need all 17 digits; values repeat across rounds and replicates.
        values = [-0.0, 0.0, 5e-324, 1 / 3, 0.1, 0.1, -0.0, 1 / 3]
        grid = np.array(values * 3, dtype=np.float64).reshape(3, 8)
        ragged = grid.copy()
        ragged[1, 5:] = np.nan
        batch = BatchResult(
            point=ParameterPoint(coordination_bias=0.1, content_sensitivity=1 / 3),
            horizon=UntilConvergence(8),
            run_seeds=np.array([7, 2**64 - 1, 0], dtype=np.uint64),
            quality_owners=np.array([0, 7, 3]),
            n_rounds=np.array([8, 5, 8]),
            entropy=ragged,
            entropy_norm=ragged[::-1].copy(),
            adaptiveness=-ragged,
            delta_adaptiveness=ragged[:, ::-1].copy(),
            convergence_rounds=np.zeros(3, dtype=np.int64),
            productions=np.zeros((3, 9, 8), dtype=np.int64),
        )
        assert_matches_reference(batch)
        text = runs_block(batch)
        assert len(text.splitlines()) == 21
        assert ",-0," in text and ",4.9406564584124654e-324," in text

    def test_distinct_values_beyond_the_int64_key(self):
        # 2**16 replicates, each with one value of its own in every column and
        # both rounds. Folding the round and four 2**16-level codes spans
        # 2 * 2**64 keys: unless the key is renumbered on the way, round 2 of
        # a replicate wraps onto round 1 and both rows get the same tail.
        reps = 2**16
        values = np.repeat(np.arange(1, reps + 1)[:, None] / (reps + 1.0), 2, axis=1)
        batch = BatchResult(
            point=ParameterPoint(),
            horizon=FixedHorizon(),
            run_seeds=np.arange(reps, dtype=np.uint64),
            quality_owners=np.zeros(reps, dtype=np.int64),
            n_rounds=np.full(reps, 2),
            entropy=values,
            entropy_norm=values,
            adaptiveness=values,
            delta_adaptiveness=values,
            convergence_rounds=np.zeros(reps, dtype=np.int64),
            productions=np.zeros((reps, 3, 1), dtype=np.int64),
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

    def test_empty_summary_is_header_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER + "\n" + summary_block([]))
        assert path.read_text() == SUMMARY_HEADER + "\n"
        assert read_summary(path) == []

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER.rsplit(",", 1)[0] + "\n")
        with pytest.raises(SchemaError):
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
        assert resumed.start_index() == 3
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
        assert resumed.start_index() == len(SMALL_GRID.points())
        sweep(SMALL_GRID, MASTER, resumed)
        assert {name: (out / name).read_bytes() for name in names} == before

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
