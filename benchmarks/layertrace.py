"""Per-layer timing of a sweep, taken from outside the program.

install() replaces the public functions of the sweep path's layers with timing
wrappers, by attribute on their modules (and on the sink object), so that
nothing under src/ changes. Each call leaves a span (name, start, end, self
time) in memory; report() summarises them after the sweep. A span's self time
is its duration minus the spans it encloses, and time covered by no span is
sweep.unattributed_s, so the self times plus that remainder equal the traced
wall time exactly.

Under a process pool only the parent's functions are wrapped: worker-side
layers then report zero calls, since their spans would stay in the workers.
"""

from __future__ import annotations

import time
from functools import wraps

WORKER_SIDE = (
    ("rng", "seed_derive", "rng.seed_derive"),
    ("engine", "run_replicates", "engine.run_replicates"),
    ("output", "runs_block", "output.runs_block"),
    ("output", "summarize_batch", "output.summarize_batch"),
    ("metrics", "aggregate", "metrics.aggregate"),
)
TIMED = [name for _, _, name in WORKER_SIDE] + ["output.summary_block", "sink.write_point"]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, float]] = []
        # Time covered by finished child spans, one slot per open span; the
        # bottom slot collects the top-level spans.
        self._inner = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self.batches: list[tuple[int, int, int, int]] = []  # reps, agents, stepped rounds, sum n_rounds
        self.runs_rows = 0
        self.runs_bytes = 0
        self.summary_records = 0
        self.summary_bytes = 0
        self.sink_runs_bytes = 0

    def _patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        spans, inner, clock = self.spans, self._inner, time.monotonic

        @wraps(original)
        def timed(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                covered = inner.pop()
                inner[-1] += t1 - t0
                spans.append((name, t0, t1, t1 - t0 - covered))
            if observe is not None:
                observe(result, args)
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _on_batch(self, batch, args) -> None:
        reps, stepped = batch.entropy.shape
        self.batches.append((reps, batch.point.n_agents, reps * stepped, int(batch.n_rounds.sum())))

    def _on_runs_block(self, text, args) -> None:
        self.runs_rows += text.count("\n")
        self.runs_bytes += len(text)

    def _on_summarize(self, records, args) -> None:
        self.summary_records += len(records)

    def _on_summary_block(self, text, args) -> None:
        self.summary_bytes += len(text)

    def _on_write(self, result, args) -> None:
        self.sink_runs_bytes += len(args[1])

    def report(self, wall: float) -> dict:
        """Per-layer figures of one traced sweep that took `wall` seconds."""
        own = {name: 0.0 for name in TIMED}
        calls = {name: 0 for name in TIMED}
        for name, _, _, self_s in self.spans:
            own[name] += self_s
            calls[name] += 1
        writes = [(t0, t1) for name, t0, t1, _ in self.spans if name == "sink.write_point"]
        run_rounds = sum(b[3] for b in self.batches)
        stepped = sum(b[2] for b in self.batches)
        figures = {
            "rng.seed_derive.calls": calls["rng.seed_derive"],
            "rng.seed_derive.s": own["rng.seed_derive"],
            "engine.run_replicates.calls": calls["engine.run_replicates"],
            "engine.run_replicates.s": own["engine.run_replicates"],
            "engine.kernel.run_rounds": run_rounds,
            "engine.kernel.stepped_run_rounds": stepped,
            "engine.kernel.useful_ratio": run_rounds / stepped if stepped else 0.0,
            # The kernel's largest float64 temporaries are (replicates, agents, variants)
            # with as many variants as agents.
            "engine.kernel.peak_tensor_mb": max(
                (reps * n * n * 8 / 1e6 for reps, n, _, _ in self.batches), default=0.0
            ),
            "output.runs_block.s": own["output.runs_block"],
            "output.runs_block.rows": self.runs_rows,
            "output.runs_block.mb": self.runs_bytes / 1e6,
            "output.summarize_batch.s": own["output.summarize_batch"],
            "output.summarize_batch.records": self.summary_records,
            "metrics.aggregate.calls": calls["metrics.aggregate"],
            "metrics.aggregate.s": own["metrics.aggregate"],
            "output.summary_block.s": own["output.summary_block"],
            "sink.write_point.calls": calls["sink.write_point"],
            "sink.write_point.s": own["sink.write_point"],
            "sink.mb_written": (self.sink_runs_bytes + self.summary_bytes) / 1e6,
            "sweep.between_points_s": sum(
                start - end for (_, end), (start, _) in zip(writes, writes[1:])
            ),
            "sweep.unattributed_s": wall - sum(own.values()),
            "trace.wall_s": wall,
        }
        return {
            "figures": figures,
            "point_intervals_ms": [
                (b - a) * 1e3 for (a, _), (b, _) in zip(writes, writes[1:])
            ],
        }


def install(modules: dict, sink, parallel: bool) -> Tracer:
    """Wrap the sweep path's layers; `modules` maps "rng", "engine", ... to modules."""
    tracer = Tracer()
    if not parallel:
        observers = {
            "engine.run_replicates": tracer._on_batch,
            "output.runs_block": tracer._on_runs_block,
            "output.summarize_batch": tracer._on_summarize,
        }
        for module, attr, name in WORKER_SIDE:
            tracer._patch(modules[module], attr, name, observers.get(name))
    tracer._patch(modules["output"], "summary_block", "output.summary_block",
                  tracer._on_summary_block)
    tracer._patch(sink, "write_point", "sink.write_point", tracer._on_write)
    return tracer
