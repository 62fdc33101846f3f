"""Command-line interface.

Subcommands:
  simulate   run one parameter point and print a per-round table
  sweep      run a parameter grid from a JSON config into CSV files
  schedule   generate, validate, or analyze pairing schedules
  plot       render a faceted SVG chart from a summary CSV

Exit codes: 0 success, 1 I/O failure (a sweep can be resumed), 2 invalid
flags, configuration or input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor

from . import __version__, engine, output, plotting
from .engine import UNBOUNDED
from .errors import ConfigError, MicrosocError, ScheduleValidationError
from .schedule import (
    BUILTIN_SIZES,
    ConnectivityKind,
    Schedule,
    builtin_schedule,
    dumps_schedule,
    export_schedule,
    load_schedule,
    reachability_profile,
)

BUILTIN_KINDS = tuple(kind.value for kind in ConnectivityKind)


def _as_json(value):
    """A SweepGrid default as the config writes it."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    if isinstance(value, ConnectivityKind):
        return value.value
    return "inf" if value == UNBOUNDED else value


# SweepGrid's fields but quality_owner, which quality_mode sets, then the
# keys that are not the grid's.
DEFAULT_CONFIG = {f.name: _as_json(f.default) for f in dataclasses.fields(engine.SweepGrid)
                  if f.name != "quality_owner"}
DEFAULT_CONFIG.update(master_seed=20240101, horizon_mode="fixed", output_dir="sweep_out",
                      quality_mode="random")


def _memory_window(text: str) -> float:
    if text.lower() in ("inf", "unbounded"):
        return UNBOUNDED
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"memory window must be a positive integer or 'inf', got {text!r}"
        ) from None
    return v


def _positive_int(label: str):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be an integer, got {text!r}"
            ) from None
        if v < 1:
            raise argparse.ArgumentTypeError(f"{label} must be >= 1")
        return v

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microsoc",
        description="Agent-based simulator of variant transmission in small "
        "societies under staged pairing schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A point flag sets the ParameterPoint field named by its dest; an absent
    # one leaves the field's default.
    unset = dict(default=argparse.SUPPRESS)
    sim = sub.add_parser("simulate", help="run one parameter point")
    sim.add_argument("--agents", dest="n_agents", metavar="AGENTS", type=int, **unset,
                     help=f"population size (default {engine.ParameterPoint.n_agents}, "
                     "or the schedule file's)")
    sim.add_argument("--connectivity", **unset,
                     help=f"{'|'.join(BUILTIN_KINDS)} or a schedule file path")
    sim.add_argument("--c", dest="coordination_bias", metavar="C", type=float, **unset,
                     help="coordination bias in [0,1]")
    sim.add_argument("--b", dest="content_sensitivity", metavar="B", type=float, **unset,
                     help="content bias sensitivity in [0,1]")
    sim.add_argument("--memory", dest="memory_window", metavar="MEMORY",
                     type=_memory_window, **unset,
                     help="memory window in rounds, or 'inf'")
    sim.add_argument("--mu", dest="mutation_rate", metavar="MU", type=float, **unset,
                     help="mutation rate in [0,1]")
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument("--runs", type=int, default=1, help="independent replicates to run")
    sim.add_argument("--quality-owner", type=_positive_int("quality owner"), **unset,
                     metavar="AGENT",
                     help="1-based agent whose seed variant is high quality "
                     "(default: random per run)")
    horizon = sim.add_mutually_exclusive_group()
    horizon.add_argument("--rounds", type=int, default=None,
                         help="fixed number of rounds (default: one round-robin)")
    horizon.add_argument("--until-convergence", action="store_true",
                         help="cycle the schedule until a round is unanimous")
    sim.add_argument("--max-rounds", type=int, default=None,
                     help="cap for --until-convergence "
                     f"(default {engine.UntilConvergence.max_rounds})")
    sim.add_argument("--out", default=None, help="write per-round records to this CSV")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="run a parameter grid into CSV files")
    swp.add_argument("config", nargs="?", default=None,
                     help="JSON config (omit for the default full grid)")
    swp.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: available parallelism)")
    swp.add_argument("--resume", action="store_true",
                     help="continue an interrupted sweep from its checkpoint")
    swp.set_defaults(func=cmd_sweep)

    sch = sub.add_parser("schedule", help="pairing-schedule utilities")
    sch_sub = sch.add_subparsers(dest="subcommand", required=True)

    gen = sch_sub.add_parser("generate", help="emit a built-in schedule")
    gen.add_argument("--kind", choices=BUILTIN_KINDS, required=True)
    gen.add_argument("--agents", type=int, required=True,
                     help=f"population size, one of {BUILTIN_SIZES}")
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.add_argument("--out", default=None, help="output file (default: stdout)")
    gen.set_defaults(func=cmd_schedule_generate)

    val = sch_sub.add_parser("validate", help="check a schedule file")
    val.add_argument("path")
    val.add_argument("--require-complete", action="store_true",
                     help="also demand a full round-robin")
    val.set_defaults(func=cmd_schedule_validate)

    rch = sch_sub.add_parser("reach", help="print a reachability profile")
    rch.add_argument("--kind", choices=BUILTIN_KINDS, default=None)
    rch.add_argument("--agents", type=int, **unset,
                     help=f"population size (default {engine.ParameterPoint.n_agents}), "
                     "or with --file, the file's")
    rch.add_argument("--file", default=None, help="schedule file instead of --kind")
    rch.add_argument("--source", type=_positive_int("source agent"), default=1,
                     help="1-based source agent (default 1)")
    rch.set_defaults(func=cmd_schedule_reach)

    plt = sub.add_parser("plot", help="render an SVG chart from a summary CSV")
    plt.add_argument("summary", help="summary.csv produced by sweep")
    plt.add_argument("--metric", choices=output.ROUND_METRICS, default="entropy")
    plt.add_argument("--facet", choices=plotting.FACET_COLUMNS,
                     default="content_bias")
    plt.add_argument("--out", required=True, help="output SVG path")
    plt.set_defaults(func=cmd_plot)

    return parser


def _connectivity(value: str) -> ConnectivityKind | Schedule:
    """A built-in kind by name, or the schedule loaded from a regular file."""
    if value in BUILTIN_KINDS:
        return ConnectivityKind(value)
    if not (isinstance(value, str) and os.path.isfile(value)):
        raise ConfigError(f"connectivity {value!r} is neither a built-in kind "
                          f"({', '.join(BUILTIN_KINDS)}) nor an existing schedule file")
    return load_schedule(value)


def cmd_simulate(args) -> int:
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(engine.ParameterPoint)
             if hasattr(args, f.name)}
    owner = given.pop("quality_owner", None)
    if "connectivity" in given:
        given["connectivity"] = _connectivity(given["connectivity"])
        if isinstance(given["connectivity"], Schedule):
            # A schedule file for another size than --agents fails validate().
            given.setdefault("n_agents", given["connectivity"].n_agents)
    point = engine.ParameterPoint(**given)
    if owner is not None:
        if owner > point.n_agents:
            raise ConfigError(f"--quality-owner {owner} exceeds population of {point.n_agents}")
        point = dataclasses.replace(point, quality_owner=owner - 1)
    if args.until_convergence:
        horizon = (engine.UntilConvergence() if args.max_rounds is None
                   else engine.UntilConvergence(args.max_rounds))
    elif args.max_rounds is not None:
        raise ConfigError("--max-rounds only applies with --until-convergence")
    else:
        horizon = engine.FixedHorizon(args.rounds)
    # The printed metrics and runs_block never read the production history.
    batch = engine.run_replicates(point, args.runs, args.seed, horizon=horizon,
                                  history=False)

    # Rows of (round, entropy, entropy_norm, adaptiveness, delta_a): one run's
    # own, or the per-round means over the runs.
    if args.runs == 1:
        # Each derived metric is a property that computes its whole array.
        columns = [getattr(batch, name)[0] for name in output.ROUND_METRICS]
        rows = zip(range(1, int(batch.n_rounds[0]) + 1), *columns)
        conv = int(batch.convergence_rounds[0])  # 0: not converged
        notes = [f"# converged at round {conv}" if conv
                 else "# did not converge within the horizon"]
    else:
        means = {(rec.round_no, rec.metric): rec.mean for rec in output.summarize_batch(batch)}
        rows = ((t, *(means[t, name] for name in output.ROUND_METRICS))
                for t in sorted({t for t, _ in means if t > 0}))  # round 0: convergence
        conv = batch.convergence_rounds
        n_conv = int((conv > 0).sum())
        notes = [f"# converged runs: {n_conv}/{batch.n_replicates}"]
        if n_conv:
            notes.append(f"# mean time to convergence: {conv[conv > 0].mean():.3f}")

    print(f"# {args.runs} run(s), {point.n_agents} agents, "
          f"{point.connectivity_label} connectivity")
    header = ("round", "entropy", "entropy_norm", "adaptiveness", "delta_a")
    print("{:>5} {:>9} {:>13} {:>13} {:>8}".format(*header))
    for t, e, en, a, d in rows:
        print(f"{t:>5} {e:>9.3f} {en:>13.3f} {a:>13.3f} {d:>8.3f}")
    for note in notes:
        print(note)

    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(output.RUNS_HEADER + "\n" + output.runs_block(batch))
        print(f"# wrote {args.out}")
    return 0


def _validated_config(path: str | None) -> dict:
    """The merged sweep configuration, checked as JSON only: SweepGrid.validate
    and sweep check the values, and _connectivity each connectivity entry."""
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
            except UnicodeDecodeError:
                raise ConfigError(f"{path} is not UTF-8 text") from None
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(user) - set(DEFAULT_CONFIG))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config.update(user)

    for key in engine.SweepGrid.LEVELS:
        if not isinstance(config[key], list):
            raise ConfigError(f"{key} must be a list")
    if config["horizon_mode"] not in ("fixed", "until_convergence"):
        raise ConfigError("horizon_mode must be 'fixed' or 'until_convergence'")
    if not isinstance(config["output_dir"], str) or not config["output_dir"]:
        raise ConfigError("output_dir must be a nonempty path")
    quality = config["quality_mode"]
    if quality != "random":
        if not (isinstance(quality, dict) and set(quality) == {"fixed_owner"}
                and type(quality["fixed_owner"]) is int and quality["fixed_owner"] >= 1):
            raise ConfigError('quality_mode must be "random" or {"fixed_owner": k} with k >= 1')
        # SweepGrid.validate refuses a size that is no integer.
        if any(type(n) is int and quality["fixed_owner"] > n
               for n in config["population_sizes"]):
            raise ConfigError("fixed_owner exceeds a configured population size")
    return config


def config_digest(config: dict) -> str:
    """sha256 of the config's canonical JSON; the checkpoint stores it."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def cmd_sweep(args) -> int:
    config = _validated_config(args.config)
    quality = config["quality_mode"]
    grid = engine.SweepGrid(**dict(
        {key: tuple(config[key]) for key in engine.SweepGrid.LEVELS},
        connectivity=tuple(map(_connectivity, config["connectivity"])),
        memory_levels=tuple(UNBOUNDED if v == "inf" else v for v in config["memory_levels"]),
        mutation_rate=config["mutation_rate"], replicates=config["replicates"],
        quality_owner=None if quality == "random" else quality["fixed_owner"] - 1))
    horizon = (
        engine.UntilConvergence()
        if config["horizon_mode"] == "until_convergence"
        else engine.FixedHorizon()
    )
    if args.threads is not None:
        workers = args.threads
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    # Hash each custom schedule's content, not its path, so that --resume
    # refuses a schedule file edited since the sweep began; hash the package
    # version, so that it refuses an upgrade that may change output bytes.
    hashed = dict(config, version=__version__, connectivity=[
        dumps_schedule(k, "json") if isinstance(k, Schedule) else k.value
        for k in grid.connectivity
    ])
    digest = config_digest(hashed)
    sink = output.CsvSweepSink(config["output_dir"], digest, resume=args.resume)
    start = sink.next_point
    t0 = time.monotonic()

    def progress(done: int, n_points: int):
        if done == start:
            # sweep's first call, made once every check it makes has passed.
            if args.resume and start == n_points:
                print("sweep already complete; nothing to resume")
            elif args.resume:
                print(f"resuming at point {start + 1}/{n_points}")
        elif done % max(1, n_points // 20) == 0 or done == n_points:
            elapsed = time.monotonic() - t0
            # Rate over the points of this invocation, so a resume's ETA holds.
            rate = (done - start) / max(elapsed, 1e-9)
            print(
                f"completed {done}/{n_points} points ({elapsed:.1f}s, "
                f"{rate:.1f} points/s, ETA {(n_points - done) / rate:.0f}s)",
                flush=True,
            )

    engine.sweep(
        grid,
        config["master_seed"],
        sink,
        horizon=horizon,
        workers=workers,
        progress=progress,
    )
    wall = time.monotonic() - t0
    print(f"wrote {sink.runs_path} and {sink.summary_path}")
    print(f"total wall time: {wall:.1f}s")
    return 0


def cmd_schedule_generate(args) -> int:
    sched = builtin_schedule(args.kind, args.agents)
    if args.out:
        export_schedule(sched, args.out, args.format)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dumps_schedule(sched, args.format))
    return 0


def cmd_schedule_validate(args) -> int:
    try:
        sched = load_schedule(args.path, require_complete=args.require_complete)
    except ScheduleValidationError as exc:
        print(f"{args.path}: INVALID")
        for v in exc.violations:
            print(f"  {v}")
        return 2
    checks = "matchings, no repeated pairs"
    if args.require_complete:
        checks += ", complete round-robin"
    print(f"{args.path}: OK ({sched.n_agents} agents, {sched.n_rounds} rounds; "
          f"{checks})")
    return 0


def cmd_schedule_reach(args) -> int:
    if (args.kind is None) == (args.file is None):
        raise ConfigError("give exactly one of --kind or --file")
    if args.file:
        sched = load_schedule(args.file)
        if getattr(args, "agents", sched.n_agents) != sched.n_agents:
            raise ConfigError(f"--agents {args.agents} differs from the "
                              f"{sched.n_agents} agents of {args.file}")
    else:
        sched = builtin_schedule(args.kind, getattr(args, "agents",
                                                    engine.ParameterPoint.n_agents))
    if args.source > sched.n_agents:
        raise ConfigError(
            f"--source {args.source} exceeds population of {sched.n_agents}"
        )
    profile = reachability_profile(sched, args.source - 1)
    print(" ".join(str(v) for v in profile))
    return 0


def cmd_plot(args) -> int:
    records = output.read_summary(args.summary)
    plotting.write_svg(records, args.metric, args.out, facet=args.facet)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # Whoever read stdout has gone (`| head`). Point stdout at devnull, as
        # the Python docs advise, so the flush at shutdown stays quiet. Only a
        # sweep has failed: its files stop at a point, and --resume continues.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1 if args.command == "sweep" else 0
    except MicrosocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor:
        print("error: a worker process died; --resume continues", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
