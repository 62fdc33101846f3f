"""CSV record formats and the sweep's checkpointed file sink.

Two files describe a sweep: runs.csv holds one row per (run, round) and
summary.csv one row per (parameter point, round, metric). Floats are written
with 17 significant digits so float() recovers them bit-exactly; unbounded
memory is the literal "inf"; agent ids are 1-based on disk. Row order is
fixed by (point index, run id, round), so identical configuration and seed
produce byte-identical files no matter how execution was parallelized or
interrupted.

Formatting runs.csv is the sweep's hot path. Its values repeat heavily
across rows (an 8-agent round has only a handful of possible entropies), so
runs_block formats each distinct row tail of a point once and assembles the
rows from a table of heads and a table of tails.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import ConfigError, SchemaError
from .schedule import ConnectivityKind

RUNS_HEADER = (
    "run_id,run_seed,n_agents,connectivity,content_bias,coordination_bias,"
    "memory,mutation_rate,quality_owner,round,entropy,entropy_norm,"
    "adaptiveness,delta_adaptiveness,converged_flag"
)
SUMMARY_HEADER = (
    "n_agents,connectivity,content_bias,coordination_bias,memory,"
    "mutation_rate,round,metric,mean,sd,ci95,n,censored_n"
)

ROUND_METRICS = ("entropy", "entropy_norm", "adaptiveness", "delta_adaptiveness")
TC_METRIC = "time_to_convergence"


@dataclass(frozen=True)
class SummaryRecord:
    """One row of summary.csv; round_no is 0 for the time_to_convergence row."""

    n_agents: int
    connectivity: str
    content_bias: float
    coordination_bias: float
    memory: float
    mutation_rate: float
    round_no: int
    metric: str
    mean: float
    sd: float
    ci95: float
    n: int
    censored_n: int


def fmt_float(x: float) -> str:
    """'%.17g': float() parses the result back bit-exactly, -0.0 included."""
    return "%.17g" % x


def fmt_memory(m: float) -> str:
    return "inf" if math.isinf(m) else str(int(m))


def _point_fields(point) -> str:
    """The shared point-identity column block of both files."""
    return ",".join(
        (
            str(point.n_agents),
            ConnectivityKind(point.connectivity).value,
            fmt_float(point.content_sensitivity),
            fmt_float(point.coordination_bias),
            fmt_memory(point.memory_window),
            fmt_float(point.mutation_rate),
        )
    )


def runs_block(batch) -> str:
    """All runs.csv rows (no header) for one point's batch, in run/round order.

    A row is a per-replicate head (run_id .. quality_owner) and a tail
    (round .. converged_flag). A point has far fewer distinct tails than
    rows, so each distinct metric value is formatted once and each distinct
    tail is built once: cells are keyed by their round and the bit patterns
    of their four metrics (bits, not values, because -0.0 == 0.0 but
    formats as "-0"), and rows are joined from the head and tail tables.
    """
    n_cols = batch.entropy.shape[1]
    # Row-major order of the meaningful cells is the file's run/round order.
    run_idx, round_idx = np.nonzero(np.arange(n_cols) < batch.n_rounds[:, None])
    if len(run_idx) == 0:
        return ""
    key = round_idx.astype(np.int64)
    span = n_cols
    levels_of, codes = [], []
    for a in (batch.entropy, batch.entropy_norm, batch.adaptiveness,
              batch.delta_adaptiveness):
        levels, code = np.unique(
            a[run_idx, round_idx].view(np.uint64), return_inverse=True
        )
        levels_of.append(levels.view(np.float64).tolist())
        codes.append(code)
        if span * len(levels) >= 2**63:
            # Renumber the key densely so the next fold cannot overflow.
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key = key * len(levels) + code
        span *= len(levels)
    _, first, tail_idx = np.unique(key, return_index=True, return_inverse=True)
    ent, entn, adapt, delta = (["%.17g" % x for x in lv] for lv in levels_of)
    converged = [int(x == 0.0) for x in levels_of[0]]
    tails = [
        f",{t + 1},{ent[e]},{entn[en]},{adapt[a]},{delta[d]},{converged[e]}\n"
        for t, e, en, a, d in zip(
            round_idx[first].tolist(), *(code[first].tolist() for code in codes)
        )
    ]
    mid = _point_fields(batch.point)
    heads = [
        f"{r},{seed},{mid},{owner + 1}"
        for r, (seed, owner) in enumerate(
            zip(batch.run_seeds.tolist(), batch.quality_owners.tolist())
        )
    ]
    parts = np.empty(2 * len(run_idx), dtype=object)
    parts[0::2] = np.array(heads, dtype=object)[run_idx]
    parts[1::2] = np.array(tails, dtype=object)[tail_idx]
    return "".join(parts.tolist())


def summarize_batch(batch) -> list[SummaryRecord]:
    """Per-round aggregate rows for one batch, plus a TC row if open-ended.

    A round is summarized over the replicates that executed it (all of them
    under a fixed horizon) and only if at least two did. The TC row appears
    only under an open-ended horizon (until-convergence mode), whatever the
    run lengths, and only if at least one run converged; with a single
    converged run its sd and ci95 are 0.
    """
    point = batch.point
    key = dict(
        n_agents=point.n_agents,
        connectivity=ConnectivityKind(point.connectivity).value,
        content_bias=point.content_sensitivity,
        coordination_bias=point.coordination_bias,
        memory=float(point.memory_window),
        mutation_rate=point.mutation_rate,
    )
    out = []
    n_rounds = batch.n_rounds
    by_metric = {
        "entropy": batch.entropy,
        "entropy_norm": batch.entropy_norm,
        "adaptiveness": batch.adaptiveness,
        "delta_adaptiveness": batch.delta_adaptiveness,
    }
    for t in range(1, int(n_rounds.max()) + 1):
        mask = n_rounds >= t
        n = int(mask.sum())
        if n < 2:
            continue
        for name in ROUND_METRICS:
            stats = metrics.aggregate(by_metric[name][mask, t - 1])
            out.append(
                SummaryRecord(
                    **key, round_no=t, metric=name,
                    mean=stats.mean, sd=stats.sd, ci95=stats.ci95,
                    n=stats.n, censored_n=0,
                )
            )
    if batch.horizon.open_ended:
        conv = batch.convergence_rounds
        done = conv[conv > 0]
        n = len(done)
        if n >= 1:
            if n >= 2:
                stats = metrics.aggregate(done.astype(np.float64))
                mean, sd, ci = stats.mean, stats.sd, stats.ci95
            else:
                mean, sd, ci = float(done[0]), 0.0, 0.0
            out.append(
                SummaryRecord(
                    **key, round_no=0, metric=TC_METRIC,
                    mean=mean, sd=sd, ci95=ci,
                    n=n, censored_n=batch.n_replicates - n,
                )
            )
    return out


def summary_row(rec: SummaryRecord) -> str:
    return ",".join(
        (
            str(rec.n_agents),
            rec.connectivity,
            fmt_float(rec.content_bias),
            fmt_float(rec.coordination_bias),
            fmt_memory(rec.memory),
            fmt_float(rec.mutation_rate),
            str(rec.round_no),
            rec.metric,
            fmt_float(rec.mean),
            fmt_float(rec.sd),
            fmt_float(rec.ci95),
            str(rec.n),
            str(rec.censored_n),
        )
    )


def summary_block(records) -> str:
    return "".join(summary_row(r) + "\n" for r in records)


def _check_header(row, expected: str, path) -> None:
    if row is None or ",".join(row) != expected:
        raise SchemaError(
            f"{path}: header mismatch, expected {expected!r}"
        )


def read_summary(path) -> list[SummaryRecord]:
    with open(str(path), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), SUMMARY_HEADER, path)
        out = []
        for row in reader:
            if len(row) != 13:
                raise SchemaError(f"{path}: expected 13 columns, got {len(row)}")
            try:
                out.append(
                    SummaryRecord(
                        n_agents=int(row[0]), connectivity=row[1],
                        content_bias=float(row[2]), coordination_bias=float(row[3]),
                        memory=float(row[4]), mutation_rate=float(row[5]),
                        round_no=int(row[6]), metric=row[7],
                        mean=float(row[8]), sd=float(row[9]), ci95=float(row[10]),
                        n=int(row[11]), censored_n=int(row[12]),
                    )
                )
            except ValueError as exc:
                raise SchemaError(f"{path}: bad value in row {row!r}: {exc}") from None
        return out


class MemorySink:
    """Collects sweep output in memory; used by tests and targeted analyses."""

    def __init__(self, want_runs: bool = False):
        self._want_runs = want_runs
        self.summaries: list[SummaryRecord] = []
        self.runs_text: list[str] = []
        self.finalized = False

    def start_index(self) -> int:
        return 0

    def wants_runs(self) -> bool:
        return self._want_runs

    def write_point(self, point_index: int, runs_text: str, summaries) -> None:
        if self._want_runs:
            self.runs_text.append(runs_text)
        self.summaries.extend(summaries)

    def finalize(self) -> None:
        self.finalized = True


class CsvSweepSink:
    """Writes runs.csv + summary.csv with a checkpoint for exact resume.

    The checkpoint records the config digest, the last completed point index,
    and the byte length of both files after that point. Resuming verifies the
    digest, truncates the files back to those lengths (discarding a torn
    write), and continues; the final bytes equal an uninterrupted execution.
    A file shorter than its recorded length, or a checkpoint without valid
    lengths, is refused with ConfigError rather than padded or guessed at.
    Resuming a finished sweep runs the same checks and leaves no point to run.
    """

    CHECKPOINT = "checkpoint.json"

    def __init__(self, out_dir, config_digest: str, resume: bool = False):
        self.out_dir = str(out_dir)
        self.digest = config_digest
        os.makedirs(self.out_dir, exist_ok=True)
        self.runs_path = os.path.join(self.out_dir, "runs.csv")
        self.summary_path = os.path.join(self.out_dir, "summary.csv")
        self.checkpoint_path = os.path.join(self.out_dir, self.CHECKPOINT)
        self._next = 0
        if resume:
            state = self._load_checkpoint()
            for path, key in ((self.runs_path, "runs_bytes"),
                              (self.summary_path, "summary_bytes")):
                try:
                    size = os.path.getsize(path)
                except FileNotFoundError:
                    size = 0
                if size < state[key]:
                    raise ConfigError(
                        f"{path} is shorter than the checkpoint records "
                        f"({size} < {state[key]} bytes); refusing to mix outputs"
                    )
            os.truncate(self.runs_path, state["runs_bytes"])
            os.truncate(self.summary_path, state["summary_bytes"])
            self._next = state["last_point"] + 1
            self._runs = open(self.runs_path, "ab")
            self._summary = open(self.summary_path, "ab")
        else:
            self._runs = open(self.runs_path, "wb")
            self._runs.write((RUNS_HEADER + "\n").encode("ascii"))
            self._summary = open(self.summary_path, "wb")
            self._summary.write((SUMMARY_HEADER + "\n").encode("ascii"))
            self._write_checkpoint(-1)

    def _load_checkpoint(self) -> dict:
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(
                f"nothing to resume: {self.checkpoint_path} does not exist"
            ) from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt checkpoint: {exc}") from None
        if not isinstance(state, dict):
            raise ConfigError("corrupt checkpoint: not a JSON object")
        if state.get("digest") != self.digest:
            raise ConfigError(
                "checkpoint belongs to a different configuration or seed; "
                "refusing to mix outputs"
            )
        for key, least in (("last_point", -1), ("runs_bytes", 0), ("summary_bytes", 0)):
            value = state.get(key)
            if type(value) is not int or value < least:
                raise ConfigError(
                    f"corrupt checkpoint: {key!r} is {value!r}, "
                    f"expected an integer >= {least}"
                )
        return state

    def _write_checkpoint(self, last_point: int) -> None:
        state = {
            "digest": self.digest,
            "last_point": last_point,
            "runs_bytes": self._runs.tell(),
            "summary_bytes": self._summary.tell(),
        }
        tmp = self.checkpoint_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        os.replace(tmp, self.checkpoint_path)

    def start_index(self) -> int:
        return self._next

    def wants_runs(self) -> bool:
        return True

    def write_point(self, point_index: int, runs_text: str, summaries) -> None:
        if point_index != self._next:
            raise ConfigError(
                f"points must arrive in order: expected {self._next}, "
                f"got {point_index}"
            )
        self._runs.write(runs_text.encode("ascii"))
        self._summary.write(summary_block(summaries).encode("ascii"))
        self._runs.flush()
        self._summary.flush()
        self._write_checkpoint(point_index)
        self._next = point_index + 1

    def finalize(self) -> None:
        self._runs.close()
        self._summary.close()
