"""Command-line interface.

Subcommands:
  simulate   run one parameter point and print a per-round table
  sweep      run a parameter grid from a JSON config into CSV files
  schedule   generate, validate, or analyze pairing schedules
  plot       render a faceted SVG chart from a summary CSV

Exit codes: 0 success, 1 I/O failure (a sweep can be resumed), 2 invalid
flags or configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, engine, output, plotting
from .engine import UNBOUNDED
from .errors import ConfigError, MicrosocError, ScheduleValidationError
from .schedule import (
    BUILTIN_SIZES,
    ConnectivityKind,
    builtin_schedule,
    dumps_schedule,
    export_schedule,
    load_schedule,
    reachability_profile,
)

BUILTIN_KINDS = ("early", "mid", "late")

DEFAULT_CONFIG = {
    "population_sizes": [8],
    "connectivity": ["early", "mid", "late"],
    "coordination_bias_levels": [round(0.1 * i, 1) for i in range(11)],
    "content_bias_levels": [round(0.1 * i, 1) for i in range(11)],
    "memory_levels": [1, 3, 5, "inf"],
    "mutation_rate": 0.02,
    "replicates": 1000,
    "master_seed": 20240101,
    "horizon_mode": "fixed",
    "output_dir": "sweep_out",
    "quality_mode": "random",
}


def _unit_interval(label: str):
    def parse(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be a number, got {text!r}"
            ) from None
        if not 0.0 <= v <= 1.0:
            raise argparse.ArgumentTypeError(f"{label} must lie in [0,1]")
        return v

    return parse


def _memory_window(text: str) -> float:
    if text.lower() in ("inf", "unbounded"):
        return UNBOUNDED
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"memory window must be a positive integer or 'inf', got {text!r}"
        ) from None
    if v < 1:
        raise argparse.ArgumentTypeError("memory window must be >= 1")
    return float(v)


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

    sim = sub.add_parser("simulate", help="run one parameter point")
    sim.add_argument("--agents", type=int, default=None,
                     help="population size (default 8, or the schedule file's)")
    sim.add_argument("--connectivity", default="early",
                     help="early|mid|late or a schedule file path")
    sim.add_argument("--c", type=_unit_interval("coordination bias"), default=0.5,
                     help="coordination bias in [0,1]")
    sim.add_argument("--b", type=_unit_interval("content bias"), default=0.0,
                     help="content bias sensitivity in [0,1]")
    sim.add_argument("--memory", type=_memory_window, default=UNBOUNDED,
                     help="memory window in rounds, or 'inf'")
    sim.add_argument("--mu", type=_unit_interval("mutation rate"), default=0.02,
                     help="mutation rate in [0,1]")
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument("--runs", type=_positive_int("runs"), default=1,
                     help="independent replicates to run")
    sim.add_argument("--quality-owner", type=_positive_int("quality owner"),
                     default=None, metavar="AGENT",
                     help="1-based agent whose seed variant is high quality "
                     "(default: random per run)")
    horizon = sim.add_mutually_exclusive_group()
    horizon.add_argument("--rounds", type=_positive_int("rounds"), default=None,
                         help="fixed number of rounds (default: one round-robin)")
    horizon.add_argument("--until-convergence", action="store_true",
                         help="cycle the schedule until a round is unanimous")
    sim.add_argument("--max-rounds", type=_positive_int("max rounds"), default=None,
                     help="cap for --until-convergence (default 200)")
    sim.add_argument("--out", default=None, help="write per-round records to this CSV")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="run a parameter grid into CSV files")
    swp.add_argument("config", nargs="?", default=None,
                     help="JSON config (omit for the default full grid)")
    swp.add_argument("--threads", type=_positive_int("threads"), default=None,
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
    rch.add_argument("--agents", type=int, default=8)
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


def _resolve_connectivity(value: str, n_agents: int | None):
    """(kind, schedule, n_agents) from a --connectivity value."""
    if value in BUILTIN_KINDS:
        return ConnectivityKind(value), None, n_agents if n_agents else 8
    sched = load_schedule(value)
    if n_agents is not None and n_agents != sched.n_agents:
        raise ConfigError(
            f"--agents {n_agents} conflicts with schedule file for "
            f"{sched.n_agents} agents"
        )
    return ConnectivityKind.CUSTOM, sched, sched.n_agents


def cmd_simulate(args) -> int:
    kind, sched, n_agents = _resolve_connectivity(args.connectivity, args.agents)
    owner = None
    if args.quality_owner is not None:
        if args.quality_owner > n_agents:
            raise ConfigError(
                f"--quality-owner {args.quality_owner} exceeds population "
                f"of {n_agents}"
            )
        owner = args.quality_owner - 1
    point = engine.ParameterPoint(
        n_agents=n_agents,
        connectivity=kind,
        coordination_bias=args.c,
        content_sensitivity=args.b,
        memory_window=args.memory,
        mutation_rate=args.mu,
        quality_owner=owner,
        schedule=sched,
    )
    if args.until_convergence:
        horizon = engine.UntilConvergence(args.max_rounds or engine.DEFAULT_MAX_ROUNDS)
    else:
        if args.max_rounds is not None:
            raise ConfigError("--max-rounds only applies with --until-convergence")
        horizon = engine.FixedHorizon(args.rounds)
    batch = engine.run_replicates(point, args.runs, args.seed, horizon=horizon)

    print(f"# {args.runs} run(s), {point.n_agents} agents, "
          f"{ConnectivityKind(point.connectivity).value} connectivity")
    header = ("round", "entropy", "entropy_norm", "adaptiveness", "delta_a")
    print("{:>5} {:>9} {:>13} {:>13} {:>8}".format(*header))
    if args.runs == 1:
        for t in range(1, int(batch.n_rounds[0]) + 1):
            print(
                f"{t:>5} {batch.entropy[0, t - 1]:>9.3f} "
                f"{batch.entropy_norm[0, t - 1]:>13.3f} "
                f"{batch.adaptiveness[0, t - 1]:>13.3f} "
                f"{batch.delta_adaptiveness[0, t - 1]:>8.3f}"
            )
        conv = int(batch.convergence_rounds[0])  # 0: not converged
        if conv:
            print(f"# converged at round {conv}")
        else:
            print("# did not converge within the horizon")
    else:
        by_round: dict[int, dict[str, float]] = {}
        for rec in output.summarize_batch(batch):
            if rec.round_no > 0:
                by_round.setdefault(rec.round_no, {})[rec.metric] = rec.mean
        for t in sorted(by_round):
            row = by_round[t]
            print(
                f"{t:>5} {row['entropy']:>9.3f} {row['entropy_norm']:>13.3f} "
                f"{row['adaptiveness']:>13.3f} {row['delta_adaptiveness']:>8.3f}"
            )
        conv = batch.convergence_rounds
        n_conv = int((conv > 0).sum())
        print(f"# converged runs: {n_conv}/{batch.n_replicates}")
        if n_conv:
            print(f"# mean time to convergence: {conv[conv > 0].mean():.3f}")

    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(output.RUNS_HEADER + "\n" + output.runs_block(batch))
        print(f"# wrote {args.out}")
    return 0


def _is_int(v) -> bool:
    """An integer that is not a JSON boolean (bool subclasses int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _validated_config(path: str | None) -> dict:
    """The merged, schema-checked sweep configuration."""
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(user) - set(DEFAULT_CONFIG))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config.update(user)

    def fail(msg: str):
        raise ConfigError(msg)

    sizes = config["population_sizes"]
    if not (isinstance(sizes, list) and sizes
            and all(_is_int(n) and n >= 2 for n in sizes)):
        fail("population_sizes must be a nonempty list of integers >= 2")
    conn = config["connectivity"]
    if not (isinstance(conn, list) and conn
            and all(isinstance(k, str) for k in conn)):
        fail("connectivity must be a nonempty list of kinds or schedule paths")
    for key in ("coordination_bias_levels", "content_bias_levels"):
        levels = config[key]
        if not (isinstance(levels, list) and levels
                and all(_is_number(v) and 0 <= v <= 1 for v in levels)):
            fail(f"{key} must be a nonempty list of numbers in [0,1]")
    mem = config["memory_levels"]
    ok_mem = isinstance(mem, list) and mem and all(
        (_is_int(v) and v >= 1) or v == "inf" for v in mem
    )
    if not ok_mem:
        fail("memory_levels must be a nonempty list of integers >= 1 or \"inf\"")
    for key in ("population_sizes", "connectivity", "coordination_bias_levels",
                "content_bias_levels", "memory_levels"):
        if len(set(config[key])) != len(config[key]):
            fail(f"{key} must not repeat a level")
    if not (_is_number(config["mutation_rate"])
            and 0 <= config["mutation_rate"] <= 1):
        fail("mutation_rate must lie in [0,1]")
    if not (_is_int(config["replicates"]) and config["replicates"] >= 2):
        fail("replicates must be an integer >= 2: summary rows need at least "
             "2 replicates")
    if not _is_int(config["master_seed"]):
        fail("master_seed must be an integer")
    if config["horizon_mode"] not in ("fixed", "until_convergence"):
        fail("horizon_mode must be 'fixed' or 'until_convergence'")
    if not isinstance(config["output_dir"], str) or not config["output_dir"]:
        fail("output_dir must be a nonempty path")
    quality = config["quality_mode"]
    if quality != "random":
        if not (isinstance(quality, dict) and set(quality) == {"fixed_owner"}
                and _is_int(quality["fixed_owner"])
                and quality["fixed_owner"] >= 1):
            fail("quality_mode must be \"random\" or {\"fixed_owner\": k} with k >= 1")
        if any(quality["fixed_owner"] > n for n in sizes):
            fail("fixed_owner exceeds a configured population size")
    return config


def _grid_from_config(config: dict) -> engine.SweepGrid:
    custom = {}
    for value in config["connectivity"]:
        if value not in BUILTIN_KINDS:
            custom[value] = load_schedule(value)
    owner = None
    if config["quality_mode"] != "random":
        owner = config["quality_mode"]["fixed_owner"] - 1
    return engine.SweepGrid(
        population_sizes=tuple(config["population_sizes"]),
        connectivity=tuple(config["connectivity"]),
        coordination_bias_levels=tuple(float(v) for v in config["coordination_bias_levels"]),
        content_bias_levels=tuple(float(v) for v in config["content_bias_levels"]),
        memory_levels=tuple(
            UNBOUNDED if v == "inf" else float(v) for v in config["memory_levels"]
        ),
        mutation_rate=float(config["mutation_rate"]),
        replicates=config["replicates"],
        quality_owner=owner,
        custom_schedules=custom,
    )


def config_digest(config: dict) -> str:
    """sha256 of the config's canonical JSON; the checkpoint stores it."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def cmd_sweep(args) -> int:
    config = _validated_config(args.config)
    grid = _grid_from_config(config)
    # Before the sink opens: a bad grid must not truncate an earlier sweep.
    grid.validate()
    horizon = (
        engine.UntilConvergence()
        if config["horizon_mode"] == "until_convergence"
        else engine.FixedHorizon()
    )
    if args.threads:
        workers = args.threads
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    # Hash each custom schedule's content, not its path, so that --resume
    # refuses a schedule file edited since the sweep began; hash the package
    # version, so that it refuses an upgrade that may change output bytes.
    hashed = dict(config, version=__version__, connectivity=[
        dumps_schedule(grid.custom_schedules[v], "json") if v in grid.custom_schedules
        else v
        for v in config["connectivity"]
    ])
    digest = config_digest(hashed)
    sink = output.CsvSweepSink(config["output_dir"], digest, resume=args.resume)
    total = len(grid.points())
    start = sink.start_index()
    # A start past the grid's end is a corrupt checkpoint, which engine.sweep
    # refuses.
    if start == total:
        print("sweep already complete; nothing to resume")
    elif args.resume and start < total:
        print(f"resuming at point {start + 1}/{total}")
    step = max(1, total // 20)
    t0 = time.monotonic()

    def progress(done: int, n_points: int):
        if done % step == 0 or done == n_points:
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
        return 1
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
    else:
        sched = builtin_schedule(args.kind, args.agents)
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
        return args.func(args)
    except MicrosocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
