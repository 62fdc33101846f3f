"""End-to-end command-line coverage: exit codes, stdout, and files."""

import csv
import dataclasses
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import microsoc
from microsoc import cli, engine, errors, metrics, plotting, rng
from microsoc.cli import DEFAULT_CONFIG, _validated_config, main
from microsoc.output import SUMMARY_HEADER, CsvSweepSink, read_summary
from microsoc.schedule import builtin_schedule, export_schedule, load_schedule

README = Path(__file__).resolve().parents[1] / "README.md"


def public_functions(module):
    """Sorted names of the public functions that module defines."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and not name.startswith("_"))


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


_sweep_point = engine._sweep_point


def die_at_point_3(args):
    """A sweep point body whose worker process is killed on point 3. It is a
    module-level function, so that a pool can pickle it."""
    if args[0] == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return _sweep_point(args)


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
        code, _, err = run_cli(capsys, "simulate", "--c", "1.5")
        assert code == 2
        assert "coordination_bias must lie in [0, 1]" in err

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

    @pytest.mark.parametrize("memory", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_a_memory_window_past_2_53_is_a_usage_error(self, capsys, tmp_path, memory):
        # Output labels a window through float: 2**53 + 1 would print as
        # 2**53, and 10**400 has no float at all.
        out_file = tmp_path / "runs.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--memory", str(memory), "--out", str(out_file)
        )
        assert code == 2
        assert "memory_window must be a positive integer of at most 2**53" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    def test_owner_exceeding_population_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--quality-owner", "9")
        assert code == 2
        assert "--quality-owner" in err

    def test_misspelt_connectivity_is_a_config_error(self, capsys, tmp_path):
        out_file = tmp_path / "runs.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--connectivity", "erly", "--out", str(out_file)
        )
        assert code == 2
        assert "'erly'" in err and "early, mid, late" in err
        assert not out_file.exists()

    def test_a_directory_is_not_a_schedule_file(self, capsys, tmp_path):
        # Exit 1 would say that I/O failed and the run could be retried.
        code, _, err = run_cli(capsys, "simulate", "--connectivity", str(tmp_path))
        assert code == 2
        assert "nor an existing schedule file" in err

    @staticmethod
    def engine_call(monkeypatch, capsys, *argv):
        """The arguments that simulate hands run_replicates, by name."""
        seen = {}
        run_replicates = engine.run_replicates

        def spy(point, replicates, master_seed, **kw):
            seen.update(point=point, replicates=replicates, master_seed=master_seed, **kw)
            return run_replicates(point, replicates, master_seed, **kw)

        monkeypatch.setattr(engine, "run_replicates", spy)
        assert run_cli(capsys, "simulate", *argv)[0] == 0
        return seen

    def test_no_flags_take_the_engine_defaults(self, capsys, monkeypatch):
        assert self.engine_call(monkeypatch, capsys) == dict(
            point=engine.ParameterPoint(), replicates=1, master_seed=0,
            horizon=engine.FixedHorizon(), history=False,
        )

    def test_until_convergence_alone_takes_its_default_cap(self, capsys, monkeypatch):
        seen = self.engine_call(monkeypatch, capsys, "--until-convergence")
        assert seen["horizon"] == engine.UntilConvergence()
        assert seen["point"] == engine.ParameterPoint()

    def test_a_schedule_file_sets_the_population(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "late16.txt"
        export_schedule(builtin_schedule("late", 16), path)
        point = self.engine_call(monkeypatch, capsys, "--connectivity", str(path))["point"]
        assert point == engine.ParameterPoint(n_agents=16,
                                              connectivity=builtin_schedule("late", 16))

    @pytest.mark.parametrize("argv,message", [
        (("simulate", "--runs", "0"), "replicates must be an integer >= 1, got 0"),
        (("simulate", "--runs", "-1"), "replicates must be an integer >= 1, got -1"),
        (("simulate", "--rounds", "0"), "FixedHorizon(rounds=0) needs"),
        (("simulate", "--until-convergence", "--max-rounds", "0"),
         "UntilConvergence(max_rounds=0) needs"),
        (("simulate", "--until-convergence", "--max-rounds", "3"),
         "UntilConvergence(max_rounds=3) needs an integer number of rounds >= 7"),
        # Past the limit the quality owner's cell code would not fit int64.
        (("simulate", "--until-convergence", "--max-rounds", "5000000000"),
         "UntilConvergence(max_rounds=5000000000) needs an integer number of rounds >= 7, "
         "for a 7-round schedule, and at most 2147483647"),
        (("sweep", "--threads", "0"), "workers must be at least 1, got 0"),
    ], ids=["runs-0", "runs-neg", "rounds-0", "max-rounds-0", "max-rounds-3",
            "max-rounds-5e9", "threads-0"])
    def test_the_engine_bounds_are_usage_errors(self, capsys, tmp_path, monkeypatch,
                                                argv, message):
        # A 0 must reach the engine, not read as an absent flag.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / DEFAULT_CONFIG["output_dir"]).exists()

    @pytest.mark.parametrize("memory", ["inf", "unbounded"])
    def test_an_unbounded_memory_flag_runs(self, capsys, memory):
        code, out, err = run_cli(capsys, "simulate", "--memory", memory)
        assert (code, err) == (0, "")
        assert len([line for line in out.splitlines() if re.match(r"\s+\d+ ", line)]) == 7

    def test_readme_quick_start_output_matches(self, capsys):
        readme = README.read_text(encoding="utf-8")
        section = readme.split("## Command-line quick start\n")[1].split("\n## ")[0]
        checked = 0
        for block in re.findall(r"```\n(.*?)```", section, re.S):
            for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
                command, *printed = example.splitlines()
                if printed:  # commands that only write files are not run
                    code, out, _ = run_cli(capsys, *command.split()[1:])
                    assert (code, out.splitlines()) == (0, printed), command
                    checked += 1
        assert checked == 2


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
        assert code == 2
        assert "INVALID" in out
        assert "repeat" in out.lower()

    @pytest.mark.parametrize("command", [("schedule", "validate"),
                                         ("simulate", "--connectivity")])
    def test_malformed_json_file_is_a_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text('{"agents": 8, "rounds": 5}')
        code, _, err = run_cli(capsys, *command, str(path))
        assert code == 2
        assert "'rounds' must be a list" in err

    @pytest.mark.parametrize("command", [("schedule", "validate"),
                                         ("schedule", "reach", "--file"),
                                         ("simulate", "--connectivity")], ids=" ".join)
    @pytest.mark.parametrize("name,text,size", [
        ("empty.txt", "agents=8\n", "8 agents and 0 rounds"),
        ("empty.json", '{"agents": 8, "rounds": []}', "8 agents and 0 rounds"),
        ("lone.txt", "agents=1\n", "1 agents and 0 rounds"),
    ], ids=["no-rounds-text", "no-rounds-json", "one-agent"])
    def test_too_small_a_schedule_is_refused_everywhere(self, capsys, tmp_path, command,
                                                        name, text, size):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, *command, str(path))
        assert code == 2
        assert f"a schedule needs at least 2 agents and 1 round, got {size}" in out + err
        assert "Traceback" not in out + err

    def test_validate_lists_at_most_eight_unpaired_agents(self, capsys, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("agents=100000\n1-2\n")
        code, out, _ = run_cli(capsys, "schedule", "validate", str(path))
        assert code == 2
        assert out.splitlines()[1:] == [
            "  round 1: unpaired agents: 3, 4, 5, 6, 7, 8, 9, 10 (+99990 more)"
        ]

    def test_reach_agents_defaults_to_the_point_population(self, capsys):
        n = engine.ParameterPoint.n_agents
        default = run_cli(capsys, "schedule", "reach", "--kind", "early")
        assert default == run_cli(capsys, "schedule", "reach", "--kind", "early",
                                  "--agents", str(n))
        assert default[0] == 0
        with pytest.raises(SystemExit):
            main(["schedule", "reach", "--help"])
        assert f"(default {n})" in " ".join(capsys.readouterr().out.split())

    def test_reach_file_size_must_match_agents(self, capsys, tmp_path):
        path = tmp_path / "late16.txt"
        export_schedule(builtin_schedule("late", 16), path, "text")
        code, out, err = run_cli(capsys, "schedule", "reach", "--file", str(path),
                                 "--agents", "4")
        assert (code, out) == (2, "")
        assert "--agents 4" in err and "16 agents" in err
        profile = "2 4 4 8 8 8 8 16 16 16 16 16 16 16 16\n"
        for agents in (("--agents", "16"), ()):
            assert run_cli(capsys, "schedule", "reach", "--file", str(path),
                           *agents) == (0, profile, "")

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

    @pytest.mark.parametrize("torn", [True, False], ids=["torn", "complete"])
    def test_resume_prints_its_start_only_after_every_check(
        self, capsys, tmp_path, monkeypatch, torn
    ):
        config = small_config(tmp_path, content_bias_levels=[0.0], memory_levels=[3])
        with monkeypatch.context() as patch:
            if torn:
                fail_write_at(patch, 1)
            assert run_cli(capsys, "sweep", str(config), "--threads", "1")[0] == int(torn)
        before = output_files(tmp_path / "out")
        code, out, err = run_cli(capsys, "sweep", str(config), "--resume", "--threads", "0")
        assert code == 2
        assert "workers must be at least 1, got 0" in err
        assert "resuming" not in out and "already complete" not in out
        assert output_files(tmp_path / "out") == before

    def test_resume_refuses_a_checkpoint_past_the_grid_end(self, capsys, tmp_path):
        config = small_config(tmp_path)
        assert run_cli(capsys, "sweep", str(config))[0] == 0
        checkpoint = tmp_path / "out" / CsvSweepSink.CHECKPOINT
        state = json.loads(checkpoint.read_text())
        state["last_point"] = 20
        state["runs_bytes"] = 1000
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
        for overrides, message in (
            (dict(population_sizes=[10]),
             "built-in schedules exist for (8, 16, 32), not 10 agents"),
            (dict(population_sizes=[16], connectivity=["early", "mid"]),
             "mid connectivity is only defined for 8 agents"),
        ):
            code, _, err = run_cli(
                capsys, "sweep", str(small_config(tmp_path, **overrides))
            )
            assert code == 2
            assert message in err
            assert output_files(tmp_path / "out") == before

    def test_two_custom_schedules_rejected(self, capsys, tmp_path):
        # Both would be labelled "custom", so their summary rows would collide.
        paths = [tmp_path / "early.txt", tmp_path / "late.txt"]
        for path in paths:
            export_schedule(builtin_schedule(path.stem, 8), path)
        config = small_config(tmp_path, connectivity=[str(p) for p in paths])
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "at most one custom schedule" in err
        assert not (tmp_path / "out").exists()

    def test_a_directory_is_not_a_schedule_file(self, capsys, tmp_path):
        config = small_config(tmp_path, connectivity=[str(tmp_path)])
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "nor an existing schedule file" in err
        assert not (tmp_path / "out").exists()

    def test_empty_levels_rejected(self, capsys, tmp_path):
        config = small_config(tmp_path, content_bias_levels=[])
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "content_bias_levels" in err
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("coordination_bias_levels", [1.5], "coordination_bias must lie in [0, 1]"),
        ("content_bias_levels", [-0.1], "content_sensitivity must lie in [0, 1]"),
        ("mutation_rate", float("nan"), "mutation_rate must lie in [0, 1]"),
        ("memory_levels", [0], "memory_window must be a positive integer"),
        ("memory_levels", [2**53 + 1], "memory_window must be a positive integer of at most"),
        ("memory_levels", [10**400], "memory_window must be a positive integer of at most"),
        ("population_sizes", [1], "built-in schedules exist for (8, 16, 32), not 1 agents"),
        ("quality_mode", {"fixed_owner": 9}, "fixed_owner exceeds"),
        ("connectivity", ["erly"], "neither a built-in kind (early, mid, late)"),
    ], ids=["c-1.5", "b-negative", "mu-nan", "memory-0", "memory-2**53+1", "memory-10**400",
            "agents-1", "owner-9", "misspelt-kind"])
    def test_unrunnable_config_exits_2_before_output_dir(
        self, capsys, tmp_path, key, value, message
    ):
        config = small_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert message in err
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

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

    def test_a_dead_worker_exits_1_in_one_line_and_resume_completes(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "clean").mkdir()
        (tmp_path / "broken").mkdir()
        clean = small_config(tmp_path / "clean")
        broken = small_config(tmp_path / "broken")
        assert run_cli(capsys, "sweep", str(clean), "--threads", "1")[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_sweep_point", die_at_point_3)
            code, _, err = run_cli(capsys, "sweep", str(broken), "--threads", "2")
        assert code == 1
        assert err == "error: a worker process died; --resume continues\n"
        code, _, _ = run_cli(capsys, "sweep", str(broken), "--resume", "--threads", "2")
        assert code == 0
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

    def test_resume_refuses_checkpoint_that_is_not_utf8(self, capsys, tmp_path):
        config = small_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / CsvSweepSink.CHECKPOINT).write_bytes(b"\xff{}")
        code, _, err = run_cli(capsys, "sweep", str(config), "--resume")
        assert code == 2
        assert "corrupt checkpoint" in err and "Traceback" not in err

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

    def test_settable_surface_is_pinned(self):
        assert [f.name for f in dataclasses.fields(microsoc.ParameterPoint)] == [
            "n_agents", "connectivity", "coordination_bias", "content_sensitivity",
            "memory_window", "mutation_rate", "quality_owner",
        ]
        assert [f.name for f in dataclasses.fields(microsoc.SweepGrid)] == [
            "population_sizes", "connectivity", "coordination_bias_levels",
            "content_bias_levels", "memory_levels", "mutation_rate", "replicates",
            "quality_owner",
        ]
        assert [k.value for k in microsoc.ConnectivityKind] == ["early", "mid", "late"]

    def test_public_names_match_readme_and_its_example_runs(self):
        assert sorted(microsoc.__all__) == [
            "BatchResult", "ConnectivityKind", "FixedHorizon", "MicrosocError",
            "ParameterPoint", "Schedule", "SweepGrid", "UntilConvergence",
            "run_replicates", "sweep",
        ]
        # The scalar reference of the draws and metrics lives in
        # tests/scalar_model.py; the package keeps what it calls.
        assert public_functions(metrics) == [
            "adaptiveness", "aggregate", "aggregate_rows", "count_terms",
            "delta_adaptiveness", "detect_bursts", "entropy_from_terms",
            "entropy_norm", "pooled",
        ]
        assert public_functions(rng) == [
            "absorb_np", "mix64_np", "production_keys_np", "production_uniform_np",
            "seed_derive", "to_unit_np",
        ]
        assert sorted(name for name, obj in vars(errors).items()
                      if inspect.isclass(obj) and obj.__module__ == errors.__name__) == [
            "ConfigError", "InvalidParamsError", "MicrosocError",
            "ScheduleParseError", "ScheduleValidationError",
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

    def test_default_config_matches_full_grid_size(self, capsys, tmp_path, monkeypatch):
        # Without a config, the CLI sweeps SweepGrid's defaults.
        seen = {}

        def sweep(grid, master_seed, sink, **kw):
            seen.update(grid=grid)
            sink.finalize()

        monkeypatch.setattr(engine, "sweep", sweep)
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "sweep")[0] == 0
        grid = seen["grid"]
        assert grid == engine.SweepGrid()
        assert len(grid.points()) == 1452
        assert grid.replicates == 1000
        assert DEFAULT_CONFIG["mutation_rate"] == 0.02

    @pytest.mark.parametrize("overrides", [
        *({key: levels} for key in engine.SweepGrid.LEVELS
          for levels in (["8"], [[8]], [{}], [None])),
        # The owner is compared with the sizes only where they are integers.
        {"population_sizes": ["8"], "quality_mode": {"fixed_owner": 1}},
    ], ids=repr)
    def test_a_level_of_another_type_exits_2_naming_its_key(
        self, capsys, tmp_path, overrides
    ):
        code, _, err = run_cli(capsys, "sweep", str(small_config(tmp_path, **overrides)))
        assert code == 2
        assert next(iter(overrides)) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def cli_command(*argv, **env):
    """The command line and environment that run the CLI of this checkout in
    a fresh interpreter."""
    path = [str(Path(microsoc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return [sys.executable, "-m", "microsoc.cli", *argv], env


def run_into_closed_pipe(*argv, unbuffered=""):
    """Run the CLI in a fresh interpreter whose stdout is a pipe with no
    reader: the read end is closed before the program starts."""
    command, env = cli_command(*argv, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


class TestClosedStdout:
    """cli.main's BrokenPipeError path: stdout is a pipe whose reader has gone."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ("simulate", "--seed", "3", "--until-convergence"),
        ("simulate", "--seed", "3"),
        ("schedule", "generate", "--kind", "early", "--agents", "8"),
        ("schedule", "reach", "--kind", "late"),
    ], ids=" ".join)
    def test_reader_gone_ends_quietly(self, argv, unbuffered):
        assert run_into_closed_pipe(*argv, unbuffered=unbuffered) == (0, "")

    def test_sweep_exits_1_and_resume_completes(self, capsys, tmp_path):
        (tmp_path / "clean").mkdir()
        (tmp_path / "piped").mkdir()
        clean = small_config(tmp_path / "clean")
        piped = small_config(tmp_path / "piped")
        assert run_cli(capsys, "sweep", str(clean), "--threads", "1")[0] == 0
        assert run_into_closed_pipe("sweep", str(piped), "--threads", "1") == (1, "")
        code, out, _ = run_cli(capsys, "sweep", str(piped), "--resume", "--threads", "1")
        assert code == 0
        assert "resuming at point 2/8" in out
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "piped" / "out" / name).read_bytes() == (
                tmp_path / "clean" / "out" / name
            ).read_bytes()


class TestKilledSweep:
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
    def test_pool_workers_end_with_the_sweep(self, tmp_path, sig):
        # Drift points step to their cap, so the sweep is still running when
        # its first point is reported. The signal goes to the parent alone;
        # its session's process group then holds only the two workers.
        config = small_config(tmp_path, coordination_bias_levels=[1.0],
                              content_bias_levels=[0.0, 0.1], memory_levels=[3, 5],
                              connectivity=["early", "mid", "late"], replicates=300,
                              horizon_mode="until_convergence")
        command, env = cli_command("sweep", str(config), "--threads", "2")
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        try:
            assert proc.stdout.readline().startswith("completed 1/12 points")
            proc.send_signal(sig)
            proc.wait(timeout=5)
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a pool worker outlived its sweep"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=5)
            proc.stdout.close()


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
        # Every round of the 7-round sweep is labelled, in each panel.
        labels = re.findall(r'text-anchor="middle">(\d+)</text>', text)
        assert labels == [str(t) for t in range(1, 8)] * 2

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

    @pytest.mark.parametrize("metric,facet,message", [
        ("nonsense", "content_bias", "metric must be one of"),
        ("entropy", "round_no", "facet must be one of"),
    ], ids=["metric", "facet"])
    def test_render_svg_refuses_an_unknown_metric_or_facet(self, metric, facet, message):
        # The CLI's choices refuse both first; the library call checks them itself.
        with pytest.raises(errors.InvalidParamsError, match=message):
            plotting.render_svg([], metric, facet)

    def test_unknown_connectivity_label_rejected(self, capsys, tmp_path):
        summary = tmp_path / "summary.csv"
        summary.write_text(SUMMARY_HEADER + "\n8,foo,0,0.5,inf,0.02,1,entropy,3,0,0,10,0\n")
        code, _, err = run_cli(
            capsys, "plot", str(summary), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert "'foo'" in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("column,value", [
        ("content_bias", "nan"), ("coordination_bias", "inf"), ("memory", "nan"),
        ("memory", "-inf"), ("mutation_rate", "nan"), ("mean", "nan"), ("mean", "inf"),
        ("sd", "nan"), ("ci95", "-inf"),
    ])
    def test_non_finite_value_is_a_usage_error(self, capsys, tmp_path, column, value):
        fields = dict(zip(SUMMARY_HEADER.split(","),
                          "8,early,0,0.5,inf,0.02,1,entropy,3,0.1,0.05,10,0".split(",")))
        fields[column] = value
        summary = tmp_path / "summary.csv"
        summary.write_text(SUMMARY_HEADER + "\n" + ",".join(fields.values()) + "\n")
        code, _, err = run_cli(
            capsys, "plot", str(summary), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert f"{summary}: non-finite value" in err and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    def test_round_labels_are_at_most_eleven(self, capsys, tmp_path):
        summary = tmp_path / "summary.csv"
        summary.write_text(SUMMARY_HEADER + "\n" + "".join(
            f"8,early,0,0.5,inf,0.02,{t},entropy,3,0.1,0.05,10,0\n" for t in (1, 1000)))
        started = time.monotonic()
        code, _, _ = run_cli(capsys, "plot", str(summary), "--out", str(tmp_path / "x.svg"))
        assert code == 0 and time.monotonic() - started < 5
        labels = re.findall(r'text-anchor="middle">(\d+)</text>',
                            (tmp_path / "x.svg").read_text())
        assert labels == [str(t) for t in range(1, 1000, 100)]

    # Finite rows at the edge of a float: two means one ulp apart, where a
    # tick loop that adds its step never moves; a flat series too far from 0
    # for a unit to widen it, or a span too small to divide; and means, sds
    # or CIs whose sums or squares overflow, which have no finite plot.
    @pytest.mark.parametrize("rows,code", [
        (("1,-1.0,0,0", "2,-1.0000000000000002,0,0"), 0),
        (("1,-1e300,0,0",), 0),
        (("1,5e-324,0,0",), 0),
        (("1,1e308,1e308,1e308",), 2),
        (("1,1e308,0,1e308", "2,-1e308,0,1e308"), 2),
    ], ids=["one-ulp-apart", "flat-at-minus-1e300", "subnormal-span", "sd-overflows",
            "range-overflows"])
    def test_extreme_finite_values_neither_hang_nor_crash(self, tmp_path, rows, code):
        summary, svg = tmp_path / "summary.csv", tmp_path / "x.svg"
        summary.write_text(SUMMARY_HEADER + "\n" + "".join(
            f"8,early,0,0.5,inf,0.02,{t},delta_adaptiveness,{mean},{sd},{ci},10,0\n"
            for t, mean, sd, ci in (row.split(",") for row in rows)))
        command, env = cli_command("plot", str(summary), "--metric", "delta_adaptiveness",
                                   "--out", str(svg))
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert svg.read_text().startswith("<svg")
        else:
            assert proc.stderr == ("error: cannot plot 'delta_adaptiveness': a pooled "
                                   "statistic or the y range is not finite\n")
            assert not svg.exists()

    def test_missing_summary_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "plot", str(tmp_path / "absent.csv"), "--metric", "entropy",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert "error" in err


SCHEDULE_FILE = ("simulate", "--connectivity", "{path}", "--out", "{out}")
PLOT_FILE = ("plot", "{path}", "--out", "{out}")


@pytest.mark.parametrize("argv,content,message", [
    (("sweep", "{path}"), "{", "is not valid JSON"),
    (("sweep", "{path}"), "[]", "config must be a JSON object"),
    (("sweep", "{path}"), '{"population_sizes": 8}', "population_sizes must be a list"),
    (("sweep", "{path}"), '{"horizon_mode": "forever"}',
     "horizon_mode must be 'fixed' or 'until_convergence'"),
    (("sweep", "{path}"), '{"output_dir": ""}', "output_dir must be a nonempty path"),
    (("simulate", "--max-rounds", "50", "--out", "{out}"), None,
     "--max-rounds only applies with --until-convergence"),
    (("simulate", "--memory", "2.5", "--out", "{out}"), None,
     "memory window must be a positive integer or 'inf', got '2.5'"),
    (("simulate", "--quality-owner", "0", "--out", "{out}"), None,
     "quality owner must be >= 1"),
    (("schedule", "reach", "--kind", "early", "--source", "0"), None,
     "source agent must be >= 1"),
    (("schedule", "reach", "--kind", "early", "--source", "9"), None,
     "--source 9 exceeds population of 8"),
    (SCHEDULE_FILE, "agents=x\n1-2 3-4 5-6 7-8\n", "agent count is not an integer: 'x'"),
    (SCHEDULE_FILE, "1-2 3-4 5-6 7-8\n", "expected header 'agents=N' before pairings"),
    (SCHEDULE_FILE, "agents=8\n1-1 2-3 4-5 6-7\n", "round 1: agent 1 paired with itself"),
    (SCHEDULE_FILE, '{"agents": 8, "rounds": [[[1, 2]', "line 1, column 33: Expecting"),
    (SCHEDULE_FILE, '{"agents": 8}', "document must have exactly 'agents' and 'rounds'"),
    (PLOT_FILE, SUMMARY_HEADER + "\n8,early,0\n", "expected 13 columns, got 3"),
    (PLOT_FILE, SUMMARY_HEADER + "\n8,early,0,0.5,inf,0.02,1,entropy,x,0,0,10,0\n",
     "bad value in row"),
    (PLOT_FILE, SUMMARY_HEADER + "\n", "no 'entropy' rows in the summary"),
    (PLOT_FILE, SUMMARY_HEADER + "\n8,early,0,0.5,inf,0.02,1,entropy,3,0.1,0.05,-5,0\n"
     "8,early,0,0.5,inf,0.02,1,entropy,3,0.1,0.05,10,0\n", "input: n or censored_n out of range"),
    (PLOT_FILE, SUMMARY_HEADER + f"\n8,early,0,0.5,inf,0.02,1,entropy,3,0.1,0.05,{10**400},0\n",
     "input: n or censored_n out of range"),
    (PLOT_FILE, SUMMARY_HEADER + "\n8,early,0,0.5,inf,0.02,1,entropy,3,0.1,0.05,10,-1\n",
     "input: n or censored_n out of range"),
], ids=["config-not-json", "config-array", "level-not-a-list", "horizon-mode",
        "empty-output-dir", "max-rounds-alone", "memory-2.5", "quality-owner-0",
        "source-0", "source-9", "agents-x", "no-header", "self-pair", "truncated-json",
        "json-without-rounds", "summary-3-columns", "summary-not-a-number",
        "summary-header-only", "summary-negative-n", "summary-n-past-a-float",
        "summary-negative-censored-n"])
def test_a_refused_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, content,
                                          message):
    # Run where a default output_dir would land, so that anything written shows.
    monkeypatch.chdir(tmp_path)
    path, out = tmp_path / "input", tmp_path / "out"
    if content is not None:
        path.write_text(content)
    before = sorted(tmp_path.iterdir())
    try:
        code = main([a.format(path=path, out=out) for a in argv])
    except SystemExit as exc:  # argparse refuses a flag with a usage line
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(("usage: ", "error: "))
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ("simulate", "--connectivity", "{path}"),
    ("schedule", "validate", "{path}"),
    ("sweep", "{path}"),
    ("plot", "{path}", "--out", "{svg}"),
], ids=["simulate", "schedule-validate", "sweep", "plot"])
def test_an_input_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, argv):
    # Exit 1 would say that I/O failed and the run could be retried.
    path, svg = tmp_path / "input", tmp_path / "x.svg"
    path.write_bytes(b"\xffagents=8\n")
    code, out, err = run_cli(capsys, *(a.format(path=path, svg=svg) for a in argv))
    assert code == 2
    assert f"{path} is not UTF-8 text" in err and "Traceback" not in err
    assert out == "" and not svg.exists()
