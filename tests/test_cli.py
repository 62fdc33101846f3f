"""End-to-end command-line coverage: exit codes, stdout, and files."""

import csv
import json
import os
import re
from pathlib import Path

import pytest

import microsoc
from microsoc import cli, engine
from microsoc.cli import DEFAULT_CONFIG, _validated_config, main
from microsoc.output import CsvSweepSink, read_summary
from microsoc.schedule import builtin_schedule, export_schedule, load_schedule

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_config(tmp_path, **overrides):
    config = {
        "coordination_bias_levels": [0.5],
        "content_bias_levels": [0.0, 0.8],
        "memory_levels": [3, "inf"],
        "connectivity": ["early", "late"],
        "replicates": 10,
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def output_files(out_dir):
    """The bytes of a sweep's three files, by name."""
    names = ("runs.csv", "summary.csv", CsvSweepSink.CHECKPOINT)
    return {name: (out_dir / name).read_bytes() for name in names}


def fail_write_at(monkeypatch, point_index):
    """Make CsvSweepSink.write_point tear its write of one point and raise."""
    original = CsvSweepSink.write_point

    def write_point(self, index, runs_text, summaries):
        if index == point_index:
            self._runs.write(runs_text[: len(runs_text) // 2].encode("ascii"))
            self._runs.flush()
            raise OSError(28, "No space left on device")
        original(self, index, runs_text, summaries)

    monkeypatch.setattr(CsvSweepSink, "write_point", write_point)


class TestSimulate:
    def test_frozen_population_prints_full_entropy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--agents", "8", "--connectivity", "early",
            "--c", "0", "--b", "0", "--mu", "0", "--seed", "1",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if re.match(r"\s+\d+ ", line)]
        assert len(rows) == 7
        assert all("3.000" in row for row in rows)
        assert "did not converge" in out

    def test_forced_spread_prints_doubling_share(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--agents", "8", "--connectivity", "early",
            "--b", "1", "--c", "0.5", "--mu", "0",
            "--quality-owner", "1", "--seed", "1",
        )
        assert code == 0
        shares = [
            line.split()[3]
            for line in out.splitlines()
            if re.match(r"\s+\d+ ", line)
        ]
        assert shares == ["0.125", "0.250", "0.500", "1.000", "1.000", "1.000", "1.000"]
        assert "# converged at round 4" in out

    def test_out_of_range_bias_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--c", "1.5"])
        assert info.value.code == 2
        assert "coordination bias must lie in [0,1]" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--frobnicate", "1"])
        assert info.value.code == 2

    def test_rounds_and_until_convergence_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--rounds", "5", "--until-convergence"])

    def test_multi_run_summary_and_file_output(self, capsys, tmp_path):
        out_file = tmp_path / "runs.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--runs", "5", "--b", "0.8", "--seed", "7",
            "--until-convergence", "--out", str(out_file),
        )
        assert code == 0
        assert "# converged runs: 5/5" in out
        assert "# mean time to convergence:" in out
        with open(out_file, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len({r["run_seed"] for r in records}) == 5

    def test_custom_schedule_file_as_connectivity(self, capsys, tmp_path):
        sched_file = tmp_path / "pairs.txt"
        from microsoc.schedule import export_schedule

        export_schedule(builtin_schedule("late", 8), sched_file)
        code, out, _ = run_cli(
            capsys,
            "simulate", "--connectivity", str(sched_file), "--seed", "3",
        )
        assert code == 0
        assert "custom connectivity" in out

    def test_owner_exceeding_population_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--quality-owner", "9")
        assert code == 2
        assert "--quality-owner" in err


class TestScheduleCommands:
    def test_reach_profile_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "schedule", "reach", "--kind", "early", "--agents", "8", "--source", "1",
        )
        assert code == 0
        assert out.strip() == "2 4 8 8 8 8 8"

    def test_reach_for_slow_layout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "schedule", "reach", "--kind", "late", "--agents", "8", "--source", "5",
        )
        assert code == 0
        assert out.strip() == "2 4 4 8 8 8 8"

    def test_generate_writes_loadable_file(self, capsys, tmp_path):
        path = tmp_path / "late16.json"
        code, _, _ = run_cli(
            capsys,
            "schedule", "generate", "--kind", "late", "--agents", "16",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert load_schedule(path) == builtin_schedule("late", 16)

    def test_generate_unsupported_combination(self, capsys):
        code, _, err = run_cli(
            capsys, "schedule", "generate", "--kind", "mid", "--agents", "16"
        )
        assert code == 2
        assert "mid" in err

    def test_validate_good_file(self, capsys, tmp_path):
        path = tmp_path / "ok.txt"
        from microsoc.schedule import export_schedule

        export_schedule(builtin_schedule("early", 8), path)
        code, out, _ = run_cli(
            capsys, "schedule", "validate", str(path), "--require-complete"
        )
        assert code == 0
        assert "OK" in out

    def test_validate_lists_repeats(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("agents=4\n1-2 3-4\n1-2 3-4\n")
        code, out, _ = run_cli(capsys, "schedule", "validate", str(path))
        assert code == 1
        assert "INVALID" in out
        assert "repeat" in out.lower()

    def test_reach_needs_exactly_one_source_kind(self, capsys):
        code, _, err = run_cli(capsys, "schedule", "reach", "--source", "1")
        assert code == 2
        assert "--kind or --file" in err


class TestSweep:
    def test_small_sweep_writes_expected_files(self, capsys, tmp_path):
        config = small_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", str(config), "--threads", "1")
        assert code == 0
        assert "total wall time" in out
        out_dir = tmp_path / "out"
        summaries = read_summary(out_dir / "summary.csv")
        assert len(summaries) == 8 * 28  # 2 b x 2 m x 2 layouts, 4 metrics x 7 rounds
        runs = (out_dir / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 8 * 10 * 7

    def test_resume_completed_sweep_is_a_no_op(self, capsys, tmp_path):
        config = small_config(tmp_path)
        assert run_cli(capsys, "sweep", str(config))[0] == 0
        before = output_files(tmp_path / "out")
        code, out, _ = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 0
        assert "already complete" in out
        assert output_files(tmp_path / "out") == before

    @pytest.mark.parametrize("name", ["runs.csv", "summary.csv"])
    def test_resume_of_completed_sweep_refuses_a_shortened_file(
        self, capsys, tmp_path, name
    ):
        config = small_config(tmp_path)
        assert run_cli(capsys, "sweep", str(config))[0] == 0
        os.truncate(tmp_path / "out" / name, 1000)
        before = output_files(tmp_path / "out")
        code, out, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "refusing to mix outputs" in err
        assert "already complete" not in out
        assert output_files(tmp_path / "out") == before

    def test_resume_refuses_a_checkpoint_past_the_grid_end(self, capsys, tmp_path):
        config = small_config(tmp_path)
        assert run_cli(capsys, "sweep", str(config))[0] == 0
        checkpoint = tmp_path / "out" / CsvSweepSink.CHECKPOINT
        state = json.loads(checkpoint.read_text())
        state["last_point"] = 20
        checkpoint.write_text(json.dumps(state))
        before = output_files(tmp_path / "out")
        code, out, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "corrupt checkpoint" in err
        assert "resuming" not in out
        assert output_files(tmp_path / "out") == before

    def test_resume_after_a_failed_finalize_completes(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "clean").mkdir()
        (tmp_path / "broken").mkdir()
        clean = small_config(tmp_path / "clean")
        broken = small_config(tmp_path / "broken")
        assert run_cli(capsys, "sweep", str(clean), "--threads", "1")[0] == 0

        def finalize(self):
            # Every point and its checkpoint are on disk; closing then fails.
            self._runs.close()
            self._summary.close()
            raise OSError(5, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(CsvSweepSink, "finalize", finalize)
            code, _, err = run_cli(capsys, "sweep", str(broken), "--threads", "1")
        assert code == 1
        assert "Input/output error" in err
        code, out, _ = run_cli(capsys, "sweep", str(broken), "--resume", "--threads", "1")
        assert code == 0
        assert "sweep already complete" in out
        assert "resuming" not in out
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "broken" / "out" / name).read_bytes() == (
                tmp_path / "clean" / "out" / name
            ).read_bytes()

    def test_resume_of_completed_sweep_with_another_config_refused(self, capsys, tmp_path):
        assert run_cli(capsys, "sweep", str(small_config(tmp_path)))[0] == 0
        changed = small_config(tmp_path, master_seed=99)
        code, out, err = run_cli(capsys, "sweep", str(changed), "--resume")
        assert code == 2
        assert "refusing to mix outputs" in err
        assert "already complete" not in out

    def test_resume_across_a_version_change_refused(self, capsys, tmp_path, monkeypatch):
        config = small_config(tmp_path)
        with monkeypatch.context() as patch:
            fail_write_at(patch, 2)
            assert run_cli(capsys, "sweep", str(config), "--threads", "1")[0] == 1
        monkeypatch.setattr(cli, "__version__", "99.0.0")
        code, _, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "refusing to mix outputs" in err

    def test_rerun_without_resume_overwrites_identically(self, capsys, tmp_path):
        config = small_config(tmp_path)
        run_cli(capsys, "sweep", str(config))
        first = (tmp_path / "out" / "runs.csv").read_bytes()
        run_cli(capsys, "sweep", str(config))
        assert (tmp_path / "out" / "runs.csv").read_bytes() == first

    def test_invalid_grid_leaves_finished_sweep_untouched(self, capsys, tmp_path):
        assert run_cli(capsys, "sweep", str(small_config(tmp_path)))[0] == 0
        before = output_files(tmp_path / "out")
        code, _, err = run_cli(
            capsys, "sweep", str(small_config(tmp_path, population_sizes=[10]))
        )
        assert code == 2
        assert "population size 10 has no builtin schedule" in err
        assert output_files(tmp_path / "out") == before

    def test_empty_levels_rejected(self, capsys, tmp_path):
        config = small_config(tmp_path, content_bias_levels=[])
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "content_bias_levels" in err

    @pytest.mark.parametrize("key,levels", [
        ("population_sizes", [8, 8]),
        ("connectivity", ["early", "late", "early"]),
        ("coordination_bias_levels", [0.5, 0.5]),
        ("content_bias_levels", [0, 0.0]),
        ("memory_levels", ["inf", 3, "inf"]),
    ])
    def test_duplicate_levels_rejected(self, capsys, tmp_path, key, levels):
        config = small_config(tmp_path, **{key: levels})
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("key,value", [
        ("population_sizes", [True]),
        ("coordination_bias_levels", [True]),
        ("content_bias_levels", [False]),
        ("memory_levels", [True]),
        ("mutation_rate", False),
        ("replicates", True),
        ("master_seed", True),
        ("quality_mode", {"fixed_owner": True}),
    ])
    def test_booleans_are_not_numbers(self, capsys, tmp_path, key, value):
        config = small_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert key in err

    def test_single_replicate_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", str(small_config(tmp_path, replicates=1)))
        assert code == 2
        assert "replicates" in err and "at least 2" in err

    def test_write_failure_exits_1_and_resume_completes(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "clean").mkdir()
        (tmp_path / "broken").mkdir()
        clean = small_config(tmp_path / "clean")
        broken = small_config(tmp_path / "broken")
        assert run_cli(capsys, "sweep", str(clean), "--threads", "1")[0] == 0
        with monkeypatch.context() as patch:
            fail_write_at(patch, 3)
            code, _, err = run_cli(capsys, "sweep", str(broken), "--threads", "1")
        assert code == 1
        assert "No space left on device" in err
        code, out, _ = run_cli(capsys, "sweep", str(broken), "--resume", "--threads", "1")
        assert code == 0
        assert "resuming at point 4/8" in out
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "broken" / "out" / name).read_bytes() == (
                tmp_path / "clean" / "out" / name
            ).read_bytes()

    def test_resume_refuses_file_shorter_than_checkpoint(
        self, capsys, tmp_path, monkeypatch
    ):
        config = small_config(tmp_path)
        with monkeypatch.context() as patch:
            fail_write_at(patch, 3)
            assert run_cli(capsys, "sweep", str(config), "--threads", "1")[0] == 1
        runs = tmp_path / "out" / "runs.csv"
        os.truncate(runs, 200)
        code, _, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "refusing to mix outputs" in err
        assert runs.stat().st_size == 200

    @pytest.mark.parametrize("key,value", [
        ("summary_bytes", None), ("runs_bytes", "6547"), ("last_point", 1.5),
    ])
    def test_resume_refuses_checkpoint_without_valid_lengths(
        self, capsys, tmp_path, monkeypatch, key, value
    ):
        config = small_config(tmp_path)
        with monkeypatch.context() as patch:
            fail_write_at(patch, 3)
            assert run_cli(capsys, "sweep", str(config), "--threads", "1")[0] == 1
        checkpoint = tmp_path / "out" / CsvSweepSink.CHECKPOINT
        state = json.loads(checkpoint.read_text())
        if value is None:
            del state[key]
        else:
            state[key] = value
        checkpoint.write_text(json.dumps(state))
        code, _, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "corrupt checkpoint" in err and key in err

    def test_resume_refuses_checkpoint_that_is_not_an_object(self, capsys, tmp_path):
        config = small_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / CsvSweepSink.CHECKPOINT).write_text("[1]")
        code, _, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "corrupt checkpoint" in err

    def test_progress_line_reports_rate_and_eta(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sweep", str(small_config(tmp_path)))
        assert code == 0
        last = [line for line in out.splitlines() if line.startswith("completed")][-1]
        assert re.fullmatch(
            r"completed 8/8 points \([\d.]+s, [\d.]+ points/s, ETA 0s\)", last
        )

    def test_resume_refuses_edited_schedule_file(self, capsys, tmp_path, monkeypatch):
        sched_file = tmp_path / "pairs.txt"
        export_schedule(builtin_schedule("late", 8), sched_file)
        config = small_config(tmp_path, connectivity=[str(sched_file)])
        with monkeypatch.context() as patch:
            fail_write_at(patch, 2)
            assert run_cli(capsys, "sweep", str(config), "--threads", "1")[0] == 1
        export_schedule(builtin_schedule("early", 8), sched_file)
        code, _, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "different configuration" in err
        export_schedule(builtin_schedule("late", 8), sched_file)
        assert run_cli(capsys, "sweep", str(config), "--resume")[0] == 0

    def test_default_threads_follow_affinity_mask(self, capsys, tmp_path, monkeypatch):
        cpus = set(range((os.cpu_count() or 1) + 1))
        seen = {}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def sweep(grid, master_seed, sink, workers, **kw):
            seen.update(workers=workers)
            sink.finalize()

        monkeypatch.setattr(engine, "sweep", sweep)
        assert run_cli(capsys, "sweep", str(small_config(tmp_path)))[0] == 0
        assert seen["workers"] == len(cpus)

    def test_readme_config_block_matches_validator(self, tmp_path):
        readme = README.read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(block) == DEFAULT_CONFIG
        assert '{"fixed_owner": k}' in readme
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"quality_mode": {"fixed_owner": 1}}))
        assert _validated_config(str(path))["quality_mode"] == {"fixed_owner": 1}

    def test_public_names_match_readme_and_its_example_runs(self):
        assert sorted(microsoc.__all__) == [
            "BatchResult", "ConnectivityKind", "FixedHorizon", "MicrosocError",
            "ParameterPoint", "Schedule", "SweepGrid", "UntilConvergence",
            "run_replicates", "sweep",
        ]
        readme = README.read_text(encoding="utf-8")
        block = re.search(r"## Using the library\n\n```python\n(.*?)```", readme, re.S)
        namespace = {}
        exec(block.group(1), namespace)
        assert namespace["batch"].entropy.shape == (1000, 7)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = small_config(tmp_path, typo_key=3)
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "typo_key" in err

    def test_default_config_matches_full_grid_size(self):
        from microsoc.cli import _grid_from_config, _validated_config

        grid = _grid_from_config(_validated_config(None))
        assert len(grid.points()) == 1452
        assert grid.replicates == 1000
        assert DEFAULT_CONFIG["mutation_rate"] == 0.02


class TestPlot:
    @pytest.fixture()
    def summary_file(self, capsys, tmp_path):
        config = small_config(tmp_path, replicates=60)
        assert run_cli(capsys, "sweep", str(config))[0] == 0
        return tmp_path / "out" / "summary.csv"

    def test_entropy_plot_is_deterministic(self, capsys, tmp_path, summary_file):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys,
                "plot", str(summary_file), "--metric", "entropy", "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("<svg")
        assert "<path" in text
        assert text.count('stroke="#') >= 3  # one line per connectivity level

    def test_burst_markers_on_change_rate_plot(self, capsys, tmp_path, summary_file):
        out = tmp_path / "delta.svg"
        code, _, _ = run_cli(
            capsys,
            "plot", str(summary_file), "--metric", "delta_adaptiveness",
            "--out", str(out),
        )
        assert code == 0
        svg = out.read_text()
        # The high-bias facet must mark at least two maxima on the staged
        # layout's line (circles are only emitted for detected maxima).
        assert svg.count("<circle") >= 2

    def test_unknown_metric_rejected(self, capsys, summary_file, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(
                ["plot", str(summary_file), "--metric", "nonsense",
                 "--out", str(tmp_path / "x.svg")]
            )
        assert info.value.code == 2

    def test_missing_summary_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "plot", str(tmp_path / "absent.csv"), "--metric", "entropy",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert "error" in err
