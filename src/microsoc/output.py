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
from .errors import ConfigError

RUNS_HEADER = (
    "run_id,run_seed,n_agents,connectivity,content_bias,coordination_bias,"
    "memory,mutation_rate,quality_owner,round,entropy,entropy_norm,"
    "adaptiveness,delta_adaptiveness,converged_flag"
)
SUMMARY_HEADER = (
    "n_agents,connectivity,content_bias,coordination_bias,memory,"
    "mutation_rate,round,metric,mean,sd,ci95,n,censored_n"
)

# The per-round metrics of a BatchResult, in column order.
ROUND_METRICS = ("entropy", "entropy_norm", "adaptiveness", "delta_adaptiveness")
TC_METRIC = "time_to_convergence"
# The characters CsvSweepSink encodes and writes of runs.csv at a time.
_WRITE_SLICE = 64 * 1024


@dataclass(frozen=True, slots=True)
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


def _point_key(point) -> tuple:
    """SummaryRecord's six point fields, in order."""
    return (point.n_agents, point.connectivity_label, point.content_sensitivity,
            point.coordination_bias, float(point.memory_window), point.mutation_rate)


def _point_fields(n_agents, connectivity, content_bias, coordination_bias, memory,
                  mutation_rate) -> str:
    """The shared point-identity column block of both files."""
    return ",".join((str(n_agents), connectivity, fmt_float(content_bias),
                     fmt_float(coordination_bias), fmt_memory(memory), fmt_float(mutation_rate)))


def runs_block(batch) -> str:
    """All runs.csv rows (no header) for one point's batch, in run/round order:
    a row for each round a replicate ran, as BatchResult.ran says.

    A row is a per-replicate head (run_id .. quality_owner) and a tail
    (round .. converged_flag). A point has far fewer distinct tails than
    rows, so each distinct metric value is formatted once and each distinct
    tail is built once: cells are keyed by their round, the bit pattern of
    their entropy (bits, not values, because -0.0 == 0.0 but formats as
    "-0") and their quality count paired with the round before's, and rows
    are joined from the head and tail tables.
    """
    entropy = batch.entropy  # each access builds the array
    n_cols = entropy.shape[1]
    # Row-major order of the cells that ran is the file's run/round order.
    run_idx, round_idx = np.nonzero(batch.ran(np.arange(1, n_cols + 1)))
    n = batch.point.n_agents
    levels, ent_code = np.unique(entropy[run_idx, round_idx].view(np.uint64),
                                 return_inverse=True)
    del entropy
    counts = batch.quality_counts
    # share[c] is a count c's share, and share[n + 1] the one before round 1.
    share = np.append(metrics.adaptiveness(np.arange(n + 1), n), batch.initial_adaptiveness)
    prior = np.where(round_idx > 0, counts[run_idx, round_idx - 1], np.intp(n + 1))
    pair = counts[run_idx, round_idx].astype(np.int64) * (n + 2) + prior
    key = round_idx.astype(np.int64)
    span = n_cols
    for size, code in ((len(levels), ent_code), ((n + 1) * (n + 2), pair)):
        if span * size >= 2**63:
            # Renumber the key densely so the next fold cannot overflow.
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key = key * size + code
        span *= size
    # Every cell with a key formats the same tail, so any one stands for it.
    distinct, tail_idx = np.unique(key, return_inverse=True)
    rep = np.empty(len(distinct), dtype=np.intp)
    rep[tail_idx] = np.arange(len(key))
    e = levels.view(np.float64)
    ent = ["%.17g,%.17g" % xy
           for xy in zip(e.tolist(), metrics.entropy_norm(e, n).tolist())]
    converged = [int(x == 0.0) for x in e.tolist()]
    pairs, pair_idx = np.unique(pair[rep], return_inverse=True)
    now, before = np.divmod(pairs, n + 2)
    adapt = ["%.17g,%.17g" % xy for xy in zip(
        share[now].tolist(), metrics.delta_adaptiveness(share[now], share[before]).tolist())]
    tails = [f",{t + 1},{ent[i]},{adapt[j]},{converged[i]}\n" for t, i, j in
             zip(round_idx[rep].tolist(), ent_code[rep].tolist(), pair_idx.tolist())]
    mid = _point_fields(*_point_key(batch.point))
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

    A round is summarized from batch.rounds over the replicates that ran it,
    as BatchResult.ran says (all of them under a fixed horizon), and only if
    at least two did. The TC row appears only under an open-ended horizon
    (until-convergence mode), whatever the run lengths, and only if at least
    one run converged; with a single converged run its sd and ci95 are 0.
    """
    # Records are built positionally: cheaper than a keyword expansion each.
    key = _point_key(batch.point)
    out = []
    n_agents = batch.point.n_agents
    # Each replicate's adaptiveness in the round before, by replicate id; a
    # replicate that ran a round ran every round before it.
    prev_a = np.full(batch.n_replicates, batch.initial_adaptiveness)
    for t, (e, counts) in enumerate(batch.rounds, 1):
        n = len(e)
        if n < 2:  # and fewer in every later round
            break
        ran = batch.ran(t)
        now = metrics.adaptiveness(counts, n_agents)
        before = prev_a[ran]
        prev_a[ran] = now
        # C order, as aggregate_rows expects.
        table = np.stack([e, metrics.entropy_norm(e, n_agents), now,
                          metrics.delta_adaptiveness(now, before)])
        for name, stats in zip(ROUND_METRICS, metrics.aggregate_rows(table)):
            out.append(SummaryRecord(*key, t, name, stats.mean, stats.sd, stats.ci95,
                                     stats.n, 0))
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
            out.append(SummaryRecord(*key, 0, TC_METRIC, mean, sd, ci, n,
                                     batch.n_replicates - n))
    return out


def summary_row(rec: SummaryRecord) -> str:
    point = _point_fields(rec.n_agents, rec.connectivity, rec.content_bias,
                          rec.coordination_bias, rec.memory, rec.mutation_rate)
    return (f"{point},{rec.round_no},{rec.metric},{fmt_float(rec.mean)},"
            f"{fmt_float(rec.sd)},{fmt_float(rec.ci95)},{rec.n},{rec.censored_n}")


def summary_block(records) -> str:
    return "".join(summary_row(r) + "\n" for r in records)


def _check_header(row, expected: str, path) -> None:
    if row is None or ",".join(row) != expected:
        raise ConfigError(
            f"{path}: header mismatch, expected {expected!r}"
        )


def _summary_record(row: list[str], path) -> SummaryRecord:
    if len(row) != 13:
        raise ConfigError(f"{path}: expected 13 columns, got {len(row)}")
    try:
        rec = SummaryRecord(
            n_agents=int(row[0]), connectivity=row[1],
            content_bias=float(row[2]), coordination_bias=float(row[3]),
            memory=float(row[4]), mutation_rate=float(row[5]),
            round_no=int(row[6]), metric=row[7],
            mean=float(row[8]), sd=float(row[9]), ci95=float(row[10]),
            n=int(row[11]), censored_n=int(row[12]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad value in row {row!r}: {exc}") from None
    # Every float is finite but an unbounded memory, which reads inf.
    floats = (rec.content_bias, rec.coordination_bias, rec.mutation_rate,
              rec.mean, rec.sd, rec.ci95)
    if not (all(map(math.isfinite, floats))
            and (math.isfinite(rec.memory) or rec.memory == math.inf)):
        raise ConfigError(f"{path}: non-finite value in row {row!r}")
    # Pooling takes n as a float, exact up to 2**53; no sum of such n overflows.
    if not (0 <= rec.n <= 2**53 and rec.censored_n >= 0):
        raise ConfigError(f"{path}: n or censored_n out of range in row {row!r}")
    return rec


def read_summary(path) -> list[SummaryRecord]:
    with open(str(path), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            _check_header(next(reader, None), SUMMARY_HEADER, path)
            return [_summary_record(row, path) for row in reader]
        except UnicodeDecodeError:
            raise ConfigError(f"{path} is not UTF-8 text") from None


class MemorySink:
    """Collects sweep output in memory; used by tests and targeted analyses."""

    def __init__(self, want_runs: bool = False):
        self._want_runs = want_runs
        self.summaries: list[SummaryRecord] = []
        self.runs_text: list[str] = []
        self.finalized = False

    def start_index(self, n_points: int) -> int:
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
    A file shorter than its recorded length, a checkpoint without valid
    lengths, or one that resumes past the end of the grid is refused with
    ConfigError, rather than padded or guessed at, before any file is cut.
    The constructor only reads. start_index(n_points), the first call that
    writes, makes the last resume check and cuts the files back, or creates
    out_dir, both headers and a checkpoint at point -1 for a fresh sweep.
    next_point is the first point still to run; on a finished sweep, none is.
    """

    CHECKPOINT = "checkpoint.json"

    def __init__(self, out_dir, config_digest: str, resume: bool = False):
        self.out_dir = str(out_dir)
        self.digest = config_digest
        self.runs_path = os.path.join(self.out_dir, "runs.csv")
        self.summary_path = os.path.join(self.out_dir, "summary.csv")
        self.checkpoint_path = os.path.join(self.out_dir, self.CHECKPOINT)
        self.next_point = 0
        self._runs = self._summary = self._state = None
        if resume:
            state = self._state = self._load_checkpoint()
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
            self.next_point = state["last_point"] + 1

    def _load_checkpoint(self) -> dict:
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(
                f"nothing to resume: {self.checkpoint_path} does not exist"
            ) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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

    def start_index(self, n_points: int) -> int:
        if self._runs is None and self._state is None:
            os.makedirs(self.out_dir, exist_ok=True)
            self._runs = open(self.runs_path, "wb")
            self._runs.write((RUNS_HEADER + "\n").encode("ascii"))
            self._summary = open(self.summary_path, "wb")
            self._summary.write((SUMMARY_HEADER + "\n").encode("ascii"))
            self._write_checkpoint(-1)
        elif self._runs is None:
            if self.next_point > n_points:
                raise ConfigError(
                    f"corrupt checkpoint: it resumes at point {self.next_point + 1}, "
                    f"past the end of the {n_points}-point grid"
                )
            os.truncate(self.runs_path, self._state["runs_bytes"])
            os.truncate(self.summary_path, self._state["summary_bytes"])
            self._runs = open(self.runs_path, "ab")
            self._summary = open(self.summary_path, "ab")
        return self.next_point

    def wants_runs(self) -> bool:
        return True

    def write_point(self, point_index: int, runs_text: str, summaries) -> None:
        if point_index != self.next_point:
            raise ConfigError(
                f"points must arrive in order: expected {self.next_point}, "
                f"got {point_index}"
            )
        # In slices, so that a point never holds a full-size bytes copy too.
        for start in range(0, len(runs_text), _WRITE_SLICE):
            self._runs.write(runs_text[start : start + _WRITE_SLICE].encode("ascii"))
        self._summary.write(summary_block(summaries).encode("ascii"))
        self._runs.flush()
        self._summary.flush()
        self._write_checkpoint(point_index)
        self.next_point = point_index + 1

    def finalize(self) -> None:
        if self._runs is not None:
            self._runs.close()
            self._summary.close()
