"""Engine behavior: scalar agreement, determinism, horizons, and invariants."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from microsoc import engine, rng
from microsoc.engine import (
    FixedHorizon,
    ParameterPoint,
    SweepGrid,
    UntilConvergence,
    run_replicates,
    sweep,
)
from microsoc.errors import InvalidParamsError, MicrosocError, ScheduleValidationError
from microsoc.output import CsvSweepSink, MemorySink, summarize_batch, summary_block
from microsoc.schedule import ConnectivityKind, Schedule, builtin_schedule

from oracles import compactions, scalar_run
from scalar_model import (
    adaptiveness,
    delta_adaptiveness,
    entropy,
    entropy_normalized,
    seed_derive,
    time_to_convergence,
)

MASTER = 20240101


def run_python(code):
    """Standard output of code run in a fresh interpreter that imports this
    checkout's microsoc."""
    path = [str(Path(engine.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def batch_equals_scalar(point, replicates=3, horizon=FixedHorizon()):
    """Compare the vectorized batch against the agent-by-agent reference, each
    run up to its own horizon; return the batch."""
    batch = run_replicates(point, replicates, MASTER, horizon=horizon)
    cycle = point.validate().n_rounds
    rounds = engine.horizon_rounds(horizon, cycle)
    productions, entropy = batch.productions, batch.entropy
    assert productions.dtype == np.int16
    for r in range(replicates):
        seed = seed_derive(MASTER, 0, r)
        prods, entropies, conv = scalar_run(point, seed, rounds)
        n = max(conv, cycle) if horizon.open_ended and conv else rounds
        assert batch.n_rounds[r] == n
        assert np.array_equal(productions[r, : n + 1], np.asarray(prods[: n + 1]))
        assert np.array_equal(entropy[r, :n], np.asarray(entropies[:n]))
        assert batch.convergence_rounds[r] == (conv or 0)
    return batch


def two_matchings(n):
    """A schedule of two matchings: even agents with the next one, then odd
    agents with the next one."""
    return Schedule.from_pairs(n, (
        [(a, a + 1) for a in range(0, n, 2)],
        [(a, (a + 1) % n) for a in range(1, n, 2)],
    ))


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

    def test_thirty_two_agents(self):
        # The kernel steps one variant at a time, so its loop grows with n.
        batch_equals_scalar(
            ParameterPoint(
                n_agents=32,
                connectivity=ConnectivityKind.LATE,
                content_sensitivity=0.8,
                memory_window=3.0,
            ),
            replicates=3,
        )

    @pytest.mark.parametrize("n,history_dtype", [(126, np.int8), (128, np.int16)])
    def test_the_history_dtype_boundary(self, n, history_dtype):
        # Ids, high-quality counts and the -1 fill fit one byte below 128
        # agents.
        point = ParameterPoint(n_agents=n, connectivity=two_matchings(n),
                               content_sensitivity=0.5)
        batch = batch_equals_scalar(point)
        assert batch.history.dtype == history_dtype
        assert batch.quality_counts.dtype == history_dtype

    def test_truncated_horizon(self):
        batch_equals_scalar(ParameterPoint(content_sensitivity=0.9), horizon=FixedHorizon(3))

    # Past the round-robin the kernel's probabilities cover the widest counts.
    # With three replicates an unbounded memory leaves more codes than cells,
    # so each round computes them from each cell's own code, for codes up to
    # 40 * 41 + 39; a window of 5 keeps a table of every code, built for the
    # last time at round 6.
    @pytest.mark.parametrize("point,rounds", [
        (ParameterPoint(coordination_bias=0.7, content_sensitivity=0.6), 40),
        (ParameterPoint(coordination_bias=1.0, content_sensitivity=0.0), 40),
        (ParameterPoint(coordination_bias=0.7, content_sensitivity=0.6,
                        memory_window=5.0), 20),
    ], ids=["unbounded", "unbounded_drift", "window_5"])
    def test_past_the_round_robin(self, point, rounds):
        batch_equals_scalar(point, horizon=FixedHorizon(rounds))


class TestPinnedBytes:
    """Every array of a BatchResult, byte for byte, against fixed digests.

    The digests pin the dtype, shape and bytes of all nine arrays, so a change
    that moves one output bit fails here, in the fill past n_rounds too.
    """

    ARRAYS = ("run_seeds", "quality_owners", "n_rounds", "entropy", "entropy_norm",
              "adaptiveness", "delta_adaptiveness", "convergence_rounds", "productions")
    POINTS = {
        "default": ParameterPoint(content_sensitivity=0.4),
        # Drift with a short memory: a quarter retires by round 50, so the
        # active set compacts while the rest runs to the cap.
        "compacting": ParameterPoint(coordination_bias=1.0, memory_window=3.0),
        "fixed_owner": ParameterPoint(n_agents=16, connectivity="late",
                                      content_sensitivity=0.8, memory_window=5.0,
                                      quality_owner=3),
        "mid_window_1": ParameterPoint(connectivity="mid", coordination_bias=0.3,
                                       content_sensitivity=1.0, mutation_rate=0.1,
                                       memory_window=1.0),
    }
    # "long" under the default's unbounded memory is past the dense table
    # from round 1 (301**2 > 4 * 3200 cells), compacts, and converges by
    # round 85.
    HORIZONS = {"fixed": FixedHorizon(), "until": UntilConvergence(60),
                "long": UntilConvergence(300)}
    DIGESTS = {
        ("default", "fixed"): "a2dddeab0d56843bb3ed2e59069149219469d8dc658c7c3e5df72924d7c4191b",
        ("default", "until"): "cee8337d91aa8c23e511e80e4e30497880300e3add7dce194844befa64cfb01d",
        ("compacting", "fixed"): "8daf682115dc83848e10704e81854b16020673e75bf7eb14c96b7f89fbf01db1",
        ("compacting", "until"): "ea16bbe90fb585c3ec1d9a8397397863e61a439395c83763fc91eb10e2922757",
        ("fixed_owner", "fixed"): "67dc3465b2197ae94de8c4e8e75abfcfc4bfa8eae3266bba033b6e972d0cabff",
        ("fixed_owner", "until"): "e7a543e80588faf1f0405cf503b6c58d7197d9a68d1d8d4b3640338988f656a7",
        ("mid_window_1", "fixed"): "d2d4f19e305f1df5f174a72ee297db78634cb3d2faaed34df821db25c26ff5a8",
        ("mid_window_1", "until"): "3d8f56083e1a1eac0f93283a3bc8ac98dcdc4a096cdf9ae9cc8abb2d9acfc760",
        ("default", "long"): "8815d1e89c426bf24fc964b4e52dce9b8a411d3eb4fcf45797377a06268b6df6",
    }

    # sha256 of summary_block(summarize_batch(batch)) for the same batches.
    SUMMARY_DIGESTS = {
        ("default", "fixed"): "188acf7812e10a0e0b303f804e322cbdb2c3d01309dd63d8659da43479405f2b",
        ("default", "until"): "0021ea5783bdcc6590d8195ad5271381360bd265504c0a786958a8050e05455b",
        ("compacting", "fixed"): "509296553ed7fb101f83453e9edb68575b94e1a41b0d594ee58545add93e8907",
        ("compacting", "until"): "4f7d25ddabf3ca48601154e3f2d34fce2a819f53cfee3159c196a17991290b13",
        ("fixed_owner", "fixed"): "6652563f3612049da4367d5f16b67c674c38cf5104e2df438f854ad98cce5e8c",
        ("fixed_owner", "until"): "2a4977c63b9b7334319f423ab7abebf8fc705e476138ddd0b959b105a45a2de0",
        ("mid_window_1", "fixed"): "007a78e65829fa9064fca0d7223de9e7689d3af77dbad46ee01f8a000022206c",
        ("mid_window_1", "until"): "59986aac98974f95da5c536026868c7b706a500a37db7dd1c5a67a832553d972",
        ("default", "long"): "f0e8b9ef95e62e32b2b0ad66b86d4a317206d5e5320c4931ce48ea2b520baed6",
    }

    def batch(self, point_id, horizon_id):
        return run_replicates(self.POINTS[point_id], 50, MASTER,
                              horizon=self.HORIZONS[horizon_id], point_index=5)

    @pytest.mark.parametrize("point_id,horizon_id", DIGESTS, ids=map("/".join, DIGESTS))
    def test_batch_bytes_are_pinned(self, point_id, horizon_id):
        batch = self.batch(point_id, horizon_id)
        h = hashlib.sha256()
        for name in self.ARRAYS:
            a = getattr(batch, name)
            h.update(f"{name} {a.dtype.str} {a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == self.DIGESTS[point_id, horizon_id]

    @pytest.mark.parametrize("point_id,horizon_id", SUMMARY_DIGESTS,
                             ids=map("/".join, SUMMARY_DIGESTS))
    def test_summary_bytes_are_pinned(self, point_id, horizon_id):
        text = summary_block(summarize_batch(self.batch(point_id, horizon_id)))
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        assert digest == self.SUMMARY_DIGESTS[point_id, horizon_id]

    def test_compacting_point_compacts(self):
        conv = self.batch("compacting", "until").convergence_rounds
        assert 4 * np.count_nonzero((conv > 0) & (conv <= 50)) >= 50
        assert (conv == 0).any()


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
        point_a = ParameterPoint(connectivity=base, content_sensitivity=0.5)
        point_b = ParameterPoint(connectivity=shuffled, content_sensitivity=0.5)
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

    def test_a_far_cap_changes_nothing_before_convergence(self):
        # Under unbounded memory the kernel's work is sized by its cells, not
        # by the cap, so a cap of 100000 costs what a cap of 200 does.
        point = ParameterPoint(content_sensitivity=1.0, mutation_rate=0.0, quality_owner=0)
        near = run_replicates(point, 4, MASTER, horizon=UntilConvergence(200))
        far = run_replicates(point, 4, MASTER, horizon=UntilConvergence(100_000))
        assert (near.convergence_rounds > 0).all()
        executed = near.entropy.shape[1]
        assert np.array_equal(far.productions[:, : executed + 1], near.productions)
        assert np.array_equal(far.convergence_rounds, near.convergence_rounds)

    def test_retiring_replicates_change_no_bits_of_the_rest(self):
        # With 8 replicates and a cap of 40 the draw table covers every code;
        # once a quarter of them retire, after round 10, each round computes
        # the probabilities from each cell's own code. Each run's rows match
        # those of the run kept to the cap, whose table covers every code
        # throughout.
        point = ParameterPoint(coordination_bias=0.5, content_sensitivity=0.5)
        fixed = run_replicates(point, 8, MASTER, horizon=FixedHorizon(40))
        open_ended = run_replicates(point, 8, MASTER, horizon=UntilConvergence(40))
        assert sorted(open_ended.convergence_rounds) == [7, 10, 12, 12, 13, 15, 24, 26]
        for r, rounds in enumerate(open_ended.n_rounds):
            assert np.array_equal(open_ended.productions[r, : rounds + 1],
                                  fixed.productions[r, : rounds + 1])
            assert np.array_equal(open_ended.entropy[r, :rounds], fixed.entropy[r, :rounds])

    def test_a_long_unbounded_run_stays_linear(self):
        # One replicate for 2000 rounds under unbounded memory: the window
        # grows every round, and the kernel's time and memory must grow with
        # the rounds, not with their square or cube (0.2-0.4 s, and no
        # measurable growth of the peak RSS, on a shared 2-vCPU VM).
        code = (
            "import resource, time\n"
            "from microsoc.engine import FixedHorizon, ParameterPoint, run_replicates\n"
            "run_replicates(ParameterPoint(), 1, 1, horizon=FixedHorizon(50))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "start = time.perf_counter()\n"
            "run_replicates(ParameterPoint(), 1, 1, horizon=FixedHorizon(2000))\n"
            "print(time.perf_counter() - start,\n"
            "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        seconds, grown_kb = map(float, run_python(code).split())
        assert seconds < 5.0
        assert grown_kb < 16 * 1024

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
        entropy = batch.entropy
        for r in range(30):
            conv = batch.convergence_rounds[r]
            if conv > 0:
                assert entropy[r, conv - 1] == 0.0
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
        conv = batch_equals_scalar(point, 30, self.HORIZON).convergence_rounds
        assert (conv == 0).any()
        assert len(set(conv[conv > 0])) > 1

    def test_a_set_compacted_six_times_matches_scalar(self):
        # The compacted codes move to the front of the point's buffers. From
        # 12 replicates the set compacts six times, first under the table
        # of every code and, once it is small, from each cell's own code.
        point = ParameterPoint(coordination_bias=0.5, content_sensitivity=0.5)
        batch = batch_equals_scalar(point, 12, UntilConvergence(40))
        assert compactions(batch) == 6

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

    @pytest.mark.parametrize("replicates", [300, 1000])
    def test_the_set_is_compacted_only_for_a_later_round(self, monkeypatch, replicates):
        # Drift under memory 3 to the 200-round cap: a quarter of the set has
        # newly converged after round 200, where no round reads a compaction.
        # The kernel compacts with np.repeat of its boolean keep mask.
        masks = []
        repeat = np.repeat

        def counting(a, *args, **kwargs):
            if np.asarray(a).dtype == bool:
                masks.append(a)
            return repeat(a, *args, **kwargs)

        monkeypatch.setattr(np, "repeat", counting)
        batch = run_replicates(self.POINT, replicates, MASTER,
                               horizon=UntilConvergence(200))
        monkeypatch.undo()
        assert batch.entropy.shape[1] == 200
        assert compactions(batch) == len(masks)

    @pytest.mark.parametrize("point,replicates,horizon", [
        # The two compacted sets of TestHistoryFree, whose retirees are
        # stepped for some rounds before a compaction drops them, and a
        # fixed horizon, where every replicate runs every round, also after
        # it converges.
        pytest.param(ParameterPoint(coordination_bias=0.5, content_sensitivity=0.5), 12,
                     UntilConvergence(40), id="compacted-unbounded"),
        pytest.param(POINT, 30, HORIZON, id="compacted-memory-3"),
        pytest.param(ParameterPoint(content_sensitivity=0.5), 3, FixedHorizon(40),
                     id="fixed"),
    ])
    def test_a_batch_records_only_the_rounds_its_runs_reached(self, point, replicates,
                                                              horizon):
        batch = run_replicates(point, replicates, MASTER, horizon=horizon)
        if horizon.open_ended:
            assert compactions(batch) >= 2
        entropy, counts = batch.entropy, batch.quality_counts
        assert len(batch.rounds) == entropy.shape[1]
        for t, (e, q) in enumerate(batch.rounds, 1):
            ran = batch.n_rounds >= t
            assert len(e) == len(q) == np.count_nonzero(ran)
            assert (e.dtype, e.tobytes()) == (entropy.dtype, entropy[ran, t - 1].tobytes())
            assert (q.dtype, q.tobytes()) == (counts.dtype, counts[ran, t - 1].tobytes())
        assert sum(len(e) for e, _ in batch.rounds) == batch.n_rounds.sum()

    # Any integer runs, numpy's and those outside [0, 2**64) too.
    @pytest.mark.parametrize("master,point_index", [
        *((master, 9) for master in (0, MASTER, 2**64 - 1, 2**70 + 5, -3)),
        (np.int64(5), 9), (np.int64(-1), 9), (MASTER, -1), (MASTER, 2**64 + 3),
    ], ids=repr)
    def test_vectorized_seeds_equal_scalar_derivation(self, master, point_index):
        batch = run_replicates(ParameterPoint(), 5, master, point_index=point_index)
        assert [int(s) for s in batch.run_seeds] == [
            seed_derive(int(master), point_index, r) for r in range(5)
        ]


class TestHistoryFree:
    # A batch run with history=False keeps only the rounds its window reads,
    # round w in column w % L. Each case runs past L rounds, so columns are
    # reused; the default horizon is 7 rounds at 8 agents.
    @pytest.mark.parametrize("point,replicates,horizon", [
        *(pytest.param(ParameterPoint(memory_window=m, content_sensitivity=0.6,
                                      coordination_bias=0.7), 3, FixedHorizon(),
                       id=f"memory-{m}")
          for m in (1.0, 3.0, 5.0, math.inf)),
        # Finite windows that no round leaves: L is 1, as unbounded.
        pytest.param(ParameterPoint(memory_window=7, content_sensitivity=0.6), 3,
                     FixedHorizon(), id="memory-at-horizon"),
        pytest.param(ParameterPoint(memory_window=10, content_sensitivity=0.6), 3,
                     FixedHorizon(), id="memory-past-horizon"),
        # Past 27 rounds at 3 replicates, the wide domain: S**2 > 4 * 192 cells.
        pytest.param(ParameterPoint(memory_window=30, content_sensitivity=0.5), 3,
                     FixedHorizon(40), id="wide-memory-30"),
        pytest.param(ParameterPoint(content_sensitivity=0.5), 3, FixedHorizon(40),
                     id="wide-unbounded"),
        pytest.param(ParameterPoint(n_agents=128, connectivity=two_matchings(128),
                                    content_sensitivity=0.5, memory_window=1.0),
                     2, FixedHorizon(6), id="int16"),
        # Compacted sets: the six-times case, and drift with memory 3.
        pytest.param(ParameterPoint(coordination_bias=0.5, content_sensitivity=0.5), 12,
                     UntilConvergence(40), id="compacted-unbounded"),
        pytest.param(TestActiveSet.POINT, 30, TestActiveSet.HORIZON,
                     id="compacted-memory-3"),
    ])
    def test_a_history_free_batch_is_the_same_batch(self, point, replicates, horizon):
        full = run_replicates(point, replicates, MASTER, horizon=horizon)
        free = run_replicates(point, replicates, MASTER, horizon=horizon, history=False)
        if horizon.open_ended:
            assert compactions(full) >= 2
        assert free.entropy.tobytes() == full.entropy.tobytes()
        for name in ("quality_counts", "n_rounds", "convergence_rounds", "run_seeds",
                     "quality_owners"):
            a, b = getattr(free, name), getattr(full, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert free.history is None
        with pytest.raises(MicrosocError, match="history=False"):
            free.productions


class TestValidationAndShapes:
    def test_zero_replicates_rejected(self):
        with pytest.raises(InvalidParamsError, match="an integer >= 1"):
            run_replicates(ParameterPoint(), 0, MASTER)

    @pytest.mark.parametrize("replicates", [np.int64(0), 5.0, "5", True], ids=repr)
    def test_replicates_must_be_a_positive_integer(self, replicates):
        with pytest.raises(InvalidParamsError, match="an integer >= 1, got"):
            run_replicates(ParameterPoint(), replicates, MASTER)

    @pytest.mark.parametrize("point,horizon,field", [
        (ParameterPoint(n_agents=True), FixedHorizon(), "n_agents"),
        (ParameterPoint(memory_window=True), FixedHorizon(), "memory_window"),
        (ParameterPoint(quality_owner=True), FixedHorizon(), "quality_owner"),
        (ParameterPoint(quality_owner=False), FixedHorizon(), "quality_owner"),
        (ParameterPoint(), FixedHorizon(True), "rounds"),
        (ParameterPoint(), UntilConvergence(True), "max_rounds"),
    ], ids=["n_agents", "memory_window", "owner_true", "owner_false", "rounds",
            "max_rounds"])
    def test_a_bool_is_not_an_integer(self, point, horizon, field):
        # bool is Integral: True would otherwise run as 1.
        with pytest.raises(InvalidParamsError, match=rf"^{field} must not be a bool"):
            run_replicates(point, 2, MASTER, horizon=horizon)

    @pytest.mark.parametrize("seed", [True, 2.5, "3", None], ids=repr)
    def test_a_master_seed_must_be_an_integer(self, tmp_path, seed):
        # True would run as seed 1; the others failed inside the seed mixing.
        with pytest.raises(InvalidParamsError, match="^master_seed must "):
            run_replicates(ParameterPoint(), 2, seed)
        grid = SweepGrid(coordination_bias_levels=(0.5,), content_bias_levels=(0.0,),
                         memory_levels=(3,), connectivity=(ConnectivityKind.EARLY,),
                         replicates=2)
        out = tmp_path / "out"
        sweep(grid, MASTER, CsvSweepSink(out, "digest"))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(before) == 3
        with pytest.raises(InvalidParamsError, match="^master_seed must "):
            sweep(grid, seed, CsvSweepSink(out, "digest"))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("point_index", [True, 2.5, "3", None], ids=repr)
    def test_a_point_index_must_be_an_integer(self, point_index):
        with pytest.raises(InvalidParamsError, match="^point_index must "):
            run_replicates(ParameterPoint(), 2, MASTER, point_index=point_index)

    @pytest.mark.parametrize("workers", [2.5, "2", True, 0, -1, None], ids=repr)
    def test_workers_must_be_an_integer_of_at_least_1(self, tmp_path, workers):
        # Checked before the sink's first effect, which cuts a finished
        # directory back to its headers.
        grid = SweepGrid(coordination_bias_levels=(0.5,), content_bias_levels=(0.0,),
                         memory_levels=(3,), connectivity=(ConnectivityKind.EARLY,),
                         replicates=2)
        out = tmp_path / "out"
        sweep(grid, MASTER, CsvSweepSink(out, "digest"))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(before) == 3
        with pytest.raises(InvalidParamsError, match="^workers must "):
            sweep(grid, MASTER, CsvSweepSink(out, "digest"), workers=workers)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_numpy_integer_memory_window_accepted(self):
        point = ParameterPoint(memory_window=3)
        batch = run_replicates(ParameterPoint(memory_window=np.int64(3)), 5, MASTER)
        expected = run_replicates(point, 5, MASTER)
        for name in ("history", "entropy", "quality_counts", "convergence_rounds"):
            assert getattr(batch, name).tobytes() == getattr(expected, name).tobytes()
        assert SweepGrid(memory_levels=(np.int64(3),), replicates=2).validate()
        with pytest.raises(InvalidParamsError, match="memory_window"):
            ParameterPoint(memory_window=np.int64(0)).validate()

    @pytest.mark.parametrize("m", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_a_memory_window_past_2_53_is_refused(self, m):
        # Output labels a window through float, exact up to 2**53; 10**400
        # has no float at all.
        assert ParameterPoint(memory_window=2**53).validate()
        with pytest.raises(InvalidParamsError, match=r"memory_window .* at most 2\*\*53"):
            ParameterPoint(memory_window=m).validate()
        with pytest.raises(InvalidParamsError, match=r"memory_window .* at most 2\*\*53"):
            SweepGrid(memory_levels=(m,), replicates=2).validate()

    def test_a_population_past_int16_is_refused(self):
        # A unanimous count of 32768 would store -32768, and ids past 32767
        # would wrap in the history.
        n = 2**15
        matching = [(a, a + 1) for a in range(0, n, 2)]
        point = ParameterPoint(n_agents=n, connectivity=Schedule.from_pairs(n, (matching,)))
        with pytest.raises(InvalidParamsError, match="n_agents must be at most 32767"):
            point.validate()

    def test_numpy_integer_replicates_accepted(self):
        batch = run_replicates(ParameterPoint(), np.int64(5), MASTER)
        assert batch.productions.tobytes() == run_replicates(
            ParameterPoint(), 5, MASTER).productions.tobytes()
        assert SweepGrid(replicates=np.int64(10)).validate()

    @pytest.mark.parametrize("name,value", [
        *(
            (name, value)
            for name in ("coordination_bias", "content_sensitivity", "mutation_rate")
            for value in (-0.1, 1.5, math.nan, True, "0.5", None)
        ),
        *(("memory_window", value) for value in (0, 2.5, -math.inf, math.nan)),
    ])
    def test_bad_bias_rejected(self, name, value):
        with pytest.raises(InvalidParamsError, match=name):
            run_replicates(ParameterPoint(**{name: value}), 1, MASTER)

    def test_schedule_population_mismatch_rejected(self):
        sched = builtin_schedule(ConnectivityKind.EARLY, 8)
        with pytest.raises(InvalidParamsError):
            run_replicates(ParameterPoint(n_agents=16, connectivity=sched), 1, MASTER)

    def test_owner_outside_population_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_replicates(ParameterPoint(quality_owner=8), 1, MASTER)

    def test_unsupported_size_without_schedule_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_replicates(ParameterPoint(n_agents=10), 1, MASTER)

    def test_validate_resolves_the_schedule(self):
        # Every field is in range, but mid exists only for 8 agents.
        with pytest.raises(InvalidParamsError, match="mid"):
            ParameterPoint(n_agents=16, connectivity="mid").validate()

    def test_validate_returns_the_schedule_it_resolved(self):
        assert ParameterPoint(connectivity="late").validate() == builtin_schedule(
            ConnectivityKind.LATE, 8
        )
        sched = builtin_schedule(ConnectivityKind.EARLY, 16)
        assert ParameterPoint(n_agents=16, connectivity=sched).validate() is sched

    @pytest.mark.parametrize("point,error,message", [
        # A ring is no matching: each agent would hear a non-partner.
        (ParameterPoint(connectivity=Schedule(
            8, (tuple((i, (i + 1) % 8) for i in range(8)),) * 7
        )), ScheduleValidationError, "appears in two pairs"),
        (ParameterPoint(connectivity=Schedule(8, (((0, 1),),) * 7)),
         ScheduleValidationError, "unpaired agents"),
        (ParameterPoint(connectivity=Schedule(8, ())), ScheduleValidationError, "0 rounds"),
        (ParameterPoint(n_agents=0, connectivity=Schedule(0, ((),))),
         ScheduleValidationError, "0 agents"),
        (ParameterPoint(n_agents=8.0), InvalidParamsError, "n_agents must be an integer"),
        (ParameterPoint(quality_owner=1.5), InvalidParamsError, "quality owner 1.5"),
    ], ids=["ring", "partial_matching", "zero_rounds", "no_agents", "float_agents",
            "float_owner"])
    def test_point_that_cannot_run_fails_validate(self, point, error, message):
        with pytest.raises(error, match=message):
            point.validate()
        with pytest.raises(error, match=message):
            run_replicates(point, 2, MASTER)

    @pytest.mark.parametrize("horizon", [
        FixedHorizon(0), FixedHorizon(2.5), UntilConvergence(6), UntilConvergence(7.0),
    ], ids=str)
    def test_horizon_that_does_not_fit_the_schedule_rejected(self, horizon):
        with pytest.raises(InvalidParamsError, match="rounds >="):
            run_replicates(ParameterPoint(), 2, MASTER, horizon=horizon)

    @pytest.mark.parametrize("make", [FixedHorizon, UntilConvergence], ids=str)
    def test_horizon_stops_where_the_cell_codes_fit_int64(self, make):
        # Only the check: a run of 2**31 - 1 rounds with history would
        # allocate about 17 GB per replicate at 8 agents.
        assert engine.horizon_rounds(make(2**31 - 1), 7) == 2**31 - 1
        with pytest.raises(InvalidParamsError, match="at most 2147483647"):
            engine.horizon_rounds(make(2**31), 7)

    @pytest.mark.parametrize("point,horizon,replicates", [
        (ParameterPoint(content_sensitivity=0.2), FixedHorizon(), 4),
        (TestActiveSet.POINT, TestActiveSet.HORIZON, 30),
    ], ids=["fixed", "until-convergence"])
    def test_smaller_batch_is_prefix_of_larger(self, point, horizon, replicates):
        # Replicate r's seed depends on r alone, so a 2-replicate batch is
        # the first 2 rows of a larger one; under an open-ended horizon it
        # may stop sooner, so it is their first columns too.
        large = run_replicates(point, replicates, MASTER, horizon=horizon)
        small = run_replicates(point, 2, MASTER, horizon=horizon)
        cols = small.entropy.shape[1]
        assert (cols < large.entropy.shape[1]) == horizon.open_ended
        for name in TestActiveSet.METRICS:
            assert np.array_equal(
                getattr(small, name), getattr(large, name)[:2, :cols], equal_nan=True
            )
        assert np.array_equal(small.productions, large.productions[:2, : cols + 1])
        for name in ("run_seeds", "quality_owners", "n_rounds", "convergence_rounds"):
            assert np.array_equal(getattr(small, name), getattr(large, name)[:2])
        assert np.array_equal(small.run_seeds, rng.seed_derive(MASTER, 0, np.arange(2)))

    def test_metrics_recompute_from_productions(self):
        point = ParameterPoint(content_sensitivity=0.5, quality_owner=2)
        batch = run_replicates(point, 5, MASTER)
        # The metrics are properties: read each array once.
        ent, entropy_norm = batch.entropy, batch.entropy_norm
        adapt, delta = batch.adaptiveness, batch.delta_adaptiveness
        for r in range(batch.n_replicates):
            for t in range(1, int(batch.n_rounds[r]) + 1):
                prods = list(batch.productions[r, t])
                assert ent[r, t - 1] == entropy(prods, 8)
                assert entropy_norm[r, t - 1] == entropy_normalized(prods, 8)
                assert adapt[r, t - 1] == adaptiveness(prods, [2])
            converged = time_to_convergence(ent[r].tolist()) or 0
            assert batch.convergence_rounds[r] == converged
            a_series = [1 / 8] + list(adapt[r])
            assert np.allclose(
                delta[r],
                delta_adaptiveness(a_series),
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


class TestWorkingMemory:
    # The until-convergence point of the benchmark: its batch steps to the cap.
    POINT = ParameterPoint(coordination_bias=1.0, content_sensitivity=0.0, memory_window=3.0)

    @staticmethod
    def traced(run):
        """run()'s result, with the traced bytes it holds and its traced peak,
        after a warm-up call."""
        run()
        tracemalloc.start()
        try:
            result = run()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    def test_an_until_convergence_point_stays_small(self):
        # The batch stores entropy (8 bytes) and the quality count (1) per
        # run-round reached, 76k of the 200k run-rounds here, and the one-byte
        # history (8) per run-round: 2.4 MB. The kernel's working state comes
        # on top: its codes (0.5 MB), keys and draw buffers, and the
        # temporaries of one round step. Any one float64 (replicates, rounds)
        # array would cost 1.6 MB more, and an int16 history 1.6 MB more.
        batch, held, peak = self.traced(
            lambda: run_replicates(self.POINT, 1000, MASTER, horizon=UntilConvergence(200)))
        assert batch.entropy.shape == (1000, 200)
        assert held <= 2.6e6
        assert peak <= 3.8e6
        assert self.traced(lambda: summarize_batch(batch))[2] <= 0.5e6

    def test_a_history_free_point_stays_smaller(self):
        # Without history the batch holds 8 + 1 bytes per run-round reached,
        # 0.7 MB, and the kernel keeps 4 rounds of productions (32 kB) in
        # place of 201 (1.6 MB).
        batch, held, peak = self.traced(
            lambda: run_replicates(self.POINT, 1000, MASTER, horizon=UntilConvergence(200),
                                   history=False))
        assert held <= 1.0e6
        assert peak <= 1.9e6
        # One access builds the 1.6 MB entropy array and scatters each round
        # into it by replicate id, never building a second full array.
        entropy, _, peak = self.traced(lambda: batch.entropy)
        assert entropy.shape == (1000, 200)
        assert peak <= 2.1e6

    def test_a_wide_round_stays_small(self):
        # Unbounded memory at 400 rounds is past the dense table from round 1
        # (401**2 > 4 * 19200 cells): each round computes the probabilities
        # of its cells' codes, about 1.0 MB of working memory on top of the
        # batch.
        batch, held, peak = self.traced(
            lambda: run_replicates(ParameterPoint(), 300, MASTER, horizon=FixedHorizon(400)))
        assert batch.entropy.shape == (300, 400)
        assert peak - held <= 1.1e6


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

    @pytest.mark.parametrize("field,value", [
        pytest.param(field, value, id=f"{field}-{kind}")
        for field, repeated in (
            ("population_sizes", (8, 16, 8)),
            ("connectivity", ("early", ConnectivityKind.EARLY)),
            ("coordination_bias_levels", (0.5, 0.5)),
            ("content_bias_levels", (0, 0.0)),
            ("memory_levels", (3, math.inf, 3.0)),
        )
        for kind, value in (("empty", ()), ("repeated", repeated))
    ] + [
        pytest.param(field, value, id=f"{field}-{value!r}")
        for field, value in (("population_sizes", 8), ("connectivity", "early"),
                             ("memory_levels", {3}))
    ] + [
        pytest.param("replicates", 0, id="replicates-0"),
        pytest.param("replicates", 1, id="replicates-1"),
        pytest.param("replicates", np.int64(1), id="replicates-int64-1"),
        pytest.param("replicates", 10.0, id="replicates-10.0"),
    ])
    def test_each_grid_rule_names_its_field(self, field, value):
        with pytest.raises(MicrosocError, match=field) as info:
            SweepGrid(**{field: value}).validate()
        if field == "replicates":
            assert "an integer of at least 2" in str(info.value)
        elif not isinstance(value, (tuple, list)):
            assert "tuple or list" in str(info.value)

    @pytest.mark.parametrize("field", SweepGrid.LEVELS)
    @pytest.mark.parametrize("level", [[0.5], {}, None, True, "8"], ids=repr)
    def test_a_level_of_another_type_is_refused_naming_its_field(self, field, level):
        # Each level meets its point field's rule before the levels are
        # compared: a list level used to fail the repeat check's set().
        with pytest.raises(InvalidParamsError, match=rf"^{field}: "):
            SweepGrid(**{field: (level,)}).validate()

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

    def test_sweep_looks_the_kernel_up_on_the_module(self, monkeypatch):
        # A wrapper set on engine.run_replicates (as a per-layer tracer sets
        # one) sees every point of a sweep.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return run_replicates(*args, **kwargs)

        monkeypatch.setattr(engine, "run_replicates", counting)
        grid = SweepGrid(
            coordination_bias_levels=(0.5,),
            content_bias_levels=(0.0, 1.0),
            memory_levels=(3.0,),
            connectivity=(ConnectivityKind.EARLY,),
            replicates=4,
        )
        sink = MemorySink()
        sweep(grid, MASTER, sink, workers=1)
        assert calls == grid.points()
        assert len(sink.summaries) == 2 * 4 * 7

    def test_a_sweep_starts_no_more_workers_than_points_left(self, monkeypatch):
        # A recording stand-in for the pool: it starts no process.
        started = []

        class RecordingPool:
            def __init__(self, max_workers, *args, **kwargs):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        grid = SweepGrid(
            coordination_bias_levels=(0.5,),
            content_bias_levels=(0.0, 0.5, 1.0),
            memory_levels=(3.0,),
            connectivity=(ConnectivityKind.EARLY,),
            replicates=2,
        )
        sweep(grid, MASTER, MemorySink(), workers=8)
        assert started == [3]
        for left in (1, 0):
            sink = MemorySink()
            sink.start_index = lambda n_points: n_points - left
            sweep(grid, MASTER, sink, workers=8)
            assert started == [3], left
            assert len(sink.summaries) == left * 4 * 7
            assert sink.finalized

    def test_importing_the_package_loads_no_process_pool(self):
        # Only a sweep with workers > 1 imports the pool.
        out = run_python("import sys, microsoc, microsoc.cli; "
                         "print(sorted(m for m in ('concurrent.futures.process', "
                         "'multiprocessing') if m in sys.modules))")
        assert out.strip() == "[]"

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
            sink.start_index = lambda n_points: 3
            calls = []
            sweep(grid, MASTER, sink, workers=workers,
                  progress=lambda done, total: calls.append((done, total)))
            assert calls == [(3, 6), (4, 6), (5, 6), (6, 6)], workers
            assert len(sink.summaries) == 3 * 4 * 7
            assert sink.finalized


class TestBenchmarkCallSurface:
    @pytest.mark.parametrize("workload", ["fixed_csv", "converge_summary"])
    def test_a_traced_benchmark_repeat_still_runs(self, tmp_path, workload):
        # benchmarks/repeat.py with --trace 1 calls engine.sweep(grid, seed,
        # sink, horizon=..., workers=...) on MemorySink(want_runs=False) or
        # CsvSweepSink(out_dir, digest), and benchmarks/layertrace.py wraps
        # rng.seed_derive, engine.run_replicates, output.runs_block (counting
        # the lines of the str it returns), output.summarize_batch,
        # metrics.aggregate, output.summary_block and the sink's write_point
        # (taking len() of its runs argument). A rename or a new shape of any
        # of them shows here as an error, not first in a benchmark run.
        root = Path(engine.__file__).parents[2]
        done = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "repeat.py"), "--src",
             str(root / "src"), "--workload", workload, "--grid", "tiny",
             "--master-seed", str(MASTER), "--out", str(tmp_path), "--trace", "1"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["error"] is None
        figures = result["trace"]["figures"]
        # The tiny grid has 2 points of 20 replicates on the early schedule.
        assert figures["engine.run_replicates.calls"] == 2
        assert figures["rng.seed_derive.calls"] == 2
        assert figures["sink.write_point.calls"] == 2
        assert figures["output.summarize_batch.records"] > 0
        rows = figures["output.runs_block.rows"]
        assert rows == (2 * 20 * 7 if workload == "fixed_csv" else 0)
