"""Pairing-schedule construction, validation, IO, and reachability."""

import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microsoc.errors import InvalidParamsError, ScheduleParseError, ScheduleValidationError
from microsoc.schedule import (
    ConnectivityKind,
    Schedule,
    builtin_schedule,
    dumps_schedule,
    export_schedule,
    load_schedule,
    loads_schedule,
    reachability_profile,
    validate_schedule,
)

from oracles import reference_reach

PROFILES_8 = {
    ConnectivityKind.EARLY: [2, 4, 8, 8, 8, 8, 8],
    ConnectivityKind.MID: [2, 4, 6, 8, 8, 8, 8],
    ConnectivityKind.LATE: [2, 4, 4, 8, 8, 8, 8],
}


def as_pair_sets(schedule):
    return [set(frozenset(p) for p in matching) for matching in schedule.rounds]


class TestBuiltinTables:
    def test_shared_opening_round(self):
        # All three 8-agent layouts open with neighbours paired: (1,2)(3,4)(5,6)(7,8).
        opening = {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})}
        for kind in (ConnectivityKind.EARLY, ConnectivityKind.MID, ConnectivityKind.LATE):
            sched = builtin_schedule(kind, 8)
            assert as_pair_sets(sched)[0] == opening

    def test_fast_layout_round_three(self):
        sched = builtin_schedule(ConnectivityKind.EARLY, 8)
        assert as_pair_sets(sched)[2] == {
            frozenset({0, 5}),
            frozenset({2, 7}),
            frozenset({4, 1}),
            frozenset({6, 3}),
        }

    def test_slow_layout_round_three(self):
        sched = builtin_schedule(ConnectivityKind.LATE, 8)
        assert as_pair_sets(sched)[2] == {
            frozenset({0, 2}),
            frozenset({1, 3}),
            frozenset({4, 6}),
            frozenset({5, 7}),
        }

    @pytest.mark.parametrize("kind,profile", list(PROFILES_8.items()))
    def test_reach_profiles_from_every_source(self, kind, profile):
        sched = builtin_schedule(kind, 8)
        for source in range(8):
            assert reachability_profile(sched, source) == profile
            # Cross-check with the independent set-growth oracle.
            assert reference_reach(sched.rounds, source) == profile

    @pytest.mark.parametrize(
        "kind,n",
        [
            (ConnectivityKind.EARLY, 8),
            (ConnectivityKind.MID, 8),
            (ConnectivityKind.LATE, 8),
            (ConnectivityKind.EARLY, 16),
            (ConnectivityKind.LATE, 16),
            (ConnectivityKind.EARLY, 32),
            (ConnectivityKind.LATE, 32),
        ],
    )
    def test_builtins_are_complete_round_robins(self, kind, n):
        sched = builtin_schedule(kind, n)
        assert sched.n_rounds == n - 1
        assert validate_schedule(sched, require_complete=True) == []
        met = set()
        for matching in sched.rounds:
            for a, b in matching:
                met.add(frozenset({a, b}))
        assert len(met) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [16, 32])
    def test_fast_layout_doubles_reach(self, n):
        sched = builtin_schedule(ConnectivityKind.EARLY, n)
        for source in range(n):
            profile = reachability_profile(sched, source)
            assert profile == [min(2 ** (t + 1), n) for t in range(n - 1)]

    @pytest.mark.parametrize(
        "n,caps",
        [(16, {3: 4, 7: 8}), (32, {3: 4, 7: 8, 15: 16})],
    )
    def test_slow_layout_keeps_blocks_isolated(self, n, caps):
        sched = builtin_schedule(ConnectivityKind.LATE, n)
        for source in (0, n // 2, n - 1):
            profile = reachability_profile(sched, source)
            for last_round, cap in caps.items():
                assert all(x <= cap for x in profile[:last_round])
            assert profile[-1] == n

    def test_profile_source_invariance(self):
        for kind, n in [(ConnectivityKind.EARLY, 16), (ConnectivityKind.LATE, 32)]:
            sched = builtin_schedule(kind, n)
            profiles = {tuple(reachability_profile(sched, s)) for s in range(n)}
            assert len(profiles) == 1

    def test_unsupported_combinations(self):
        with pytest.raises(InvalidParamsError, match="only defined for 8 agents"):
            builtin_schedule(ConnectivityKind.MID, 16)
        with pytest.raises(InvalidParamsError, match="built-in schedules exist for"):
            builtin_schedule(ConnectivityKind.EARLY, 10)

    def test_unknown_kind_is_an_invalid_argument(self):
        with pytest.raises(InvalidParamsError, match="one of early, mid, late, got 'foo'"):
            builtin_schedule("foo", 8)

    def test_kind_accepts_strings(self):
        assert builtin_schedule("early", 8).rounds == builtin_schedule(
            ConnectivityKind.EARLY, 8
        ).rounds


class TestValidation:
    def test_repeated_pair_reported(self):
        sched = Schedule.from_pairs(
            4, [[(0, 1), (2, 3)], [(0, 1), (2, 3)]]
        )
        violations = validate_schedule(sched)
        assert violations and all("already met" in v for v in violations)

    def test_incomplete_matching_reported(self):
        sched = Schedule.from_pairs(4, [[(0, 1)]])
        assert "round 1: unpaired agents: 3, 4" in validate_schedule(sched)

    def test_missing_pairs_only_with_flag(self):
        sched = Schedule.from_pairs(4, [[(0, 1), (2, 3)]])
        assert validate_schedule(sched) == []
        violations = validate_schedule(sched, require_complete=True)
        assert violations == ["pairs never meeting: 1-3, 1-4, 2-3, 2-4"]

    def test_violations_carry_round_numbers(self):
        sched = Schedule.from_pairs(4, [[(0, 1), (2, 3)], [(0, 1), (2, 3)]])
        violations = validate_schedule(sched)
        assert len(violations) == 2  # both pairs of round 2 are repeats
        assert all(v.startswith("round 2: ") for v in violations)

    def test_short_lists_are_given_in_full(self):
        sched = Schedule.from_pairs(8, [[(0, 1)]])
        assert [str(v) for v in validate_schedule(sched)] == [
            "round 1: unpaired agents: 3, 4, 5, 6, 7, 8"
        ]
        sched = Schedule.from_pairs(4, [[(0, 1), (2, 3)]])
        assert [str(v) for v in validate_schedule(sched, require_complete=True)] == [
            "pairs never meeting: 1-3, 1-4, 2-3, 2-4"
        ]

    def test_long_lists_show_eight_and_count_the_rest(self):
        sched = Schedule.from_pairs(12, [[(0, 1)]])
        assert [str(v) for v in validate_schedule(sched)] == [
            "round 1: unpaired agents: 3, 4, 5, 6, 7, 8, 9, 10 (+2 more)"
        ]
        sched = Schedule.from_pairs(6, [[(0, 1), (2, 3), (4, 5)]])
        assert [str(v) for v in validate_schedule(sched, require_complete=True)] == [
            "pairs never meeting: 1-3, 1-4, 1-5, 1-6, 2-3, 2-4, 2-5, 2-6 (+4 more)"
        ]

    @pytest.mark.parametrize("n_agents,require_complete", [(1000, True), (10**6, False)])
    def test_work_follows_the_file_not_the_population(self, n_agents, require_complete):
        # One pair among many agents: neither every id nor every pair is built.
        sched = Schedule.from_pairs(n_agents, [[(0, 1)]])
        tracemalloc.start()
        try:
            violations = validate_schedule(sched, require_complete=require_complete)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert len(violations) == 1 + require_complete
        assert all(str(v).endswith(" more)") for v in violations)

    def test_reach_source_out_of_range(self):
        sched = builtin_schedule(ConnectivityKind.EARLY, 8)
        with pytest.raises(InvalidParamsError, match="outside population"):
            reachability_profile(sched, 8)
        with pytest.raises(InvalidParamsError, match="outside population"):
            reachability_profile(sched, -1)


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "kind,n",
        [(ConnectivityKind.EARLY, 8), (ConnectivityKind.MID, 8), (ConnectivityKind.LATE, 16)],
    )
    def test_round_trip_identity(self, fmt, kind, n):
        sched = builtin_schedule(kind, n)
        text = dumps_schedule(sched, fmt)
        again = loads_schedule(text)
        assert again == sched
        assert dumps_schedule(again, fmt) == text

    def test_file_round_trip(self, tmp_path):
        sched = builtin_schedule(ConnectivityKind.LATE, 8)
        for name in ("sched.txt", "sched.json"):
            path = tmp_path / name
            export_schedule(sched, path)
            assert load_schedule(path) == sched

    def test_unknown_format_is_an_invalid_argument(self, tmp_path):
        sched = builtin_schedule(ConnectivityKind.EARLY, 8)
        with pytest.raises(InvalidParamsError, match="'text' or 'json', got 'yaml'"):
            dumps_schedule(sched, "yaml")
        path = tmp_path / "early.yaml"
        with pytest.raises(InvalidParamsError, match="'text' or 'json', got 'yaml'"):
            export_schedule(sched, path, "yaml")
        assert not path.exists()

    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"agents=4\n1-2 3-4\n1-3 \xff-4\n")
        with pytest.raises(ScheduleParseError, match="is not UTF-8 text") as info:
            load_schedule(path)
        assert (info.value.line, info.value.column) == (3, 5)
        assert str(path) in str(info.value)

    def test_text_format_shape(self):
        text = dumps_schedule(builtin_schedule(ConnectivityKind.EARLY, 8), "text")
        lines = text.splitlines()
        assert lines[0] == "agents=8"
        assert lines[1] == "1-2 3-4 5-6 7-8"
        assert len(lines) == 8

    def test_json_format_shape(self):
        doc = json.loads(dumps_schedule(builtin_schedule(ConnectivityKind.EARLY, 8), "json"))
        assert doc["agents"] == 8
        assert doc["rounds"][0][0] == [1, 2]

    def test_comments_and_blank_lines_ignored(self):
        text = "# staged pairing\nagents=4\n\n1-2 3-4  # opening\n1-3 2-4\n1-4 2-3\n"
        sched = loads_schedule(text)
        assert sched.n_agents == 4
        assert sched.n_rounds == 3

    def test_parse_error_has_line_and_column(self):
        with pytest.raises(ScheduleParseError) as info:
            loads_schedule("agents=4\n1-2 3&4\n")
        assert info.value.line == 2
        assert info.value.column == 5

    @pytest.mark.parametrize("doc", [
        {"agents": 8, "rounds": 5},
        {"agents": 8, "rounds": [5]},
        {"agents": 4, "rounds": [[[1, 2], [3, 4]], "1-3 2-4"]},
        {"agents": 4, "rounds": [[[True, 2], [3, 4]]]},
        {"agents": True, "rounds": [[[1, 2]]]},
    ], ids=json.dumps)
    def test_malformed_json_is_a_parse_error(self, doc):
        with pytest.raises(ScheduleParseError):
            loads_schedule(json.dumps(doc))

    def test_missing_header_rejected(self):
        with pytest.raises(ScheduleParseError):
            loads_schedule("1-2 3-4\n")

    def test_duplicate_pair_rejected_on_load(self):
        text = "agents=4\n1-2 3-4\n1-2 3-4\n"
        with pytest.raises(ScheduleValidationError) as info:
            loads_schedule(text)
        assert any("already met" in v for v in info.value.violations)

    def test_incomplete_round_rejected_on_load(self):
        with pytest.raises(ScheduleValidationError):
            loads_schedule("agents=4\n1-2\n")

    def test_unknown_agent_rejected_on_load(self):
        with pytest.raises((ScheduleValidationError, ScheduleParseError)):
            loads_schedule("agents=4\n1-2 3-9\n")

    def test_partial_schedules_load_without_complete_flag(self):
        sched = loads_schedule("agents=4\n1-2 3-4\n")
        assert sched.n_rounds == 1
        with pytest.raises(ScheduleValidationError):
            loads_schedule("agents=4\n1-2 3-4\n", require_complete=True)

    @given(st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_round_robin_round_trips(self, half):
        # Circle-method round robin for 2*half agents, built independently.
        n = 2 * half
        ids = list(range(n))
        rounds = []
        for _ in range(n - 1):
            rounds.append([(ids[i], ids[n - 1 - i]) for i in range(half)])
            ids = [ids[0]] + [ids[-1]] + ids[1:-1]
        sched = Schedule.from_pairs(n, rounds)
        assert validate_schedule(sched, require_complete=True) == []
        for fmt in ("text", "json"):
            assert loads_schedule(dumps_schedule(sched, fmt)) == sched


class TestPartnerMatrix:
    def test_matches_pairs(self):
        sched = builtin_schedule(ConnectivityKind.MID, 8)
        matrix = sched.partner_matrix()
        assert matrix.shape == (7, 8)
        for t, matching in enumerate(sched.rounds):
            for a, b in matching:
                assert matrix[t, a] == b
                assert matrix[t, b] == a

    def test_every_row_is_an_involution(self):
        for kind in (ConnectivityKind.EARLY, ConnectivityKind.LATE):
            matrix = builtin_schedule(kind, 16).partner_matrix()
            for row in matrix:
                assert all(row[row[i]] == i and row[i] != i for i in range(16))
