"""Pairing schedules: who meets whom in each round.

A schedule is a sequence of perfect matchings on the population. The three
built-in kinds for 8 agents differ in how fast a variant can spread: early
connectivity doubles the reachable set every round until everyone is covered
(sizes 2, 4, 8 after rounds 1-3), mid passes through 6 (2, 4, 6), and late
keeps two isolated halves alive for an extra round (2, 4, 4, 8). All three
are complete round-robins: every pair meets exactly once in 7 rounds.

For 16 and 32 agents, early and late schedules are built by recursive
halving: level j pairs the two halves of every 2^j-aligned block, and a level
contributes 2^(j-1) rotation matchings. Playing one matching from each level
first (then the rest) doubles reach each round; playing whole levels in
ascending order keeps blocks isolated as long as possible. There is no mid
schedule for those sizes.

Agent ids are 0-based in code; schedule files and printed output use 1-based
ids.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, ScheduleParseError, ScheduleValidationError

Pair = tuple[int, int]
Matching = tuple[Pair, ...]

BUILTIN_SIZES = (8, 16, 32)


class ConnectivityKind(str, enum.Enum):
    """The built-in schedule families; any other order is a Schedule."""

    EARLY = "early"
    MID = "mid"
    LATE = "late"

    def __str__(self) -> str:  # "early", not "ConnectivityKind.EARLY"
        return self.value


def _canonical_matching(pairs) -> Matching:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of canonical perfect matchings."""

    n_agents: int
    rounds: tuple[Matching, ...]

    @classmethod
    def from_pairs(cls, n_agents: int, rounds) -> "Schedule":
        return cls(n_agents, tuple(_canonical_matching(r) for r in rounds))

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def partner_matrix(self) -> np.ndarray:
        """(n_rounds, n_agents) array mapping each agent to its round partner."""
        out = np.empty((len(self.rounds), self.n_agents), dtype=np.int64)
        for t, matching in enumerate(self.rounds):
            for a, b in matching:
                out[t, a] = b
                out[t, b] = a
        return out


# The three 8-agent tables, written with 1-based ids as usually displayed.
_EARLY_8 = (
    ((1, 2), (3, 4), (5, 6), (7, 8)),
    ((1, 4), (3, 2), (5, 8), (7, 6)),
    ((1, 6), (3, 8), (5, 2), (7, 4)),
    ((1, 8), (3, 6), (5, 4), (7, 2)),
    ((1, 3), (2, 4), (5, 7), (6, 8)),
    ((1, 5), (2, 6), (3, 7), (4, 8)),
    ((1, 7), (2, 8), (3, 5), (4, 6)),
)
_MID_8 = (
    ((1, 2), (3, 4), (5, 6), (7, 8)),
    ((1, 4), (2, 7), (3, 6), (5, 8)),
    ((1, 6), (4, 7), (2, 5), (3, 8)),
    ((1, 5), (3, 7), (2, 6), (4, 8)),
    ((1, 7), (5, 3), (2, 8), (6, 4)),
    ((1, 8), (3, 2), (7, 6), (5, 4)),
    ((1, 3), (5, 7), (2, 4), (6, 8)),
)
_LATE_8 = (
    ((1, 2), (3, 4), (5, 6), (7, 8)),
    ((1, 4), (3, 2), (5, 8), (6, 7)),
    ((1, 3), (2, 4), (5, 7), (6, 8)),
    ((1, 5), (2, 6), (3, 7), (4, 8)),
    ((1, 6), (3, 8), (5, 2), (7, 4)),
    ((1, 7), (2, 8), (3, 5), (4, 6)),
    ((1, 8), (3, 6), (5, 4), (7, 2)),
)


def _from_one_based(n_agents: int, table) -> Schedule:
    return Schedule.from_pairs(
        n_agents, [[(a - 1, b - 1) for a, b in matching] for matching in table]
    )


def _halving_levels(n_agents: int) -> list[list[Matching]]:
    """Rotation matchings grouped by halving level for a power-of-two size."""
    levels = []
    block = 2
    while block <= n_agents:
        half = block // 2
        level = []
        for turn in range(half):
            pairs = []
            for base in range(0, n_agents, block):
                for i in range(half):
                    pairs.append((base + i, base + half + (i + turn) % half))
            level.append(_canonical_matching(pairs))
        levels.append(level)
        block *= 2
    return levels


def _early_generalized(n_agents: int) -> Schedule:
    levels = _halving_levels(n_agents)
    rounds = [level[0] for level in levels]
    for level in levels:
        rounds.extend(level[1:])
    return Schedule(n_agents, tuple(rounds))


def _late_generalized(n_agents: int) -> Schedule:
    levels = _halving_levels(n_agents)
    return Schedule(n_agents, tuple(m for level in levels for m in level))


@functools.cache  # a Schedule is frozen, so callers may share one
def builtin_schedule(kind: ConnectivityKind | str, n_agents: int) -> Schedule:
    """One of the built-in schedules; raises for unsupported combinations."""
    try:
        kind = ConnectivityKind(kind)
    except ValueError:
        raise InvalidParamsError(f"connectivity kind must be one of "
                                 f"{', '.join(k.value for k in ConnectivityKind)}, "
                                 f"got {kind!r}") from None
    if n_agents not in BUILTIN_SIZES:
        raise InvalidParamsError(
            f"built-in schedules exist for {BUILTIN_SIZES}, not {n_agents} agents"
        )
    if n_agents == 8:
        table = {
            ConnectivityKind.EARLY: _EARLY_8,
            ConnectivityKind.MID: _MID_8,
            ConnectivityKind.LATE: _LATE_8,
        }[kind]
        return _from_one_based(8, table)
    if kind is ConnectivityKind.MID:
        raise InvalidParamsError(
            f"mid connectivity is only defined for 8 agents, not {n_agents}"
        )
    if kind is ConnectivityKind.EARLY:
        return _early_generalized(n_agents)
    return _late_generalized(n_agents)


def validate_schedule(schedule: Schedule, require_complete: bool = False) -> list[str]:
    """The messages of the rules a schedule breaks, empty when it is valid:
    the package's one check of a schedule.

    A schedule needs at least 2 agents and 1 round; without them that is the
    only message. Otherwise always checked: every round is a perfect matching
    (ids in range, no agent twice, everyone paired) and no pair of agents
    meets twice. With require_complete, every pair must meet exactly once (a
    full round-robin). A message about one round starts "round t: ".
    """
    n = schedule.n_agents
    if n < 2 or not schedule.rounds:
        return [f"a schedule needs at least 2 agents and 1 round, got {n} "
                f"agents and {schedule.n_rounds} rounds"]
    violations = []
    seen_pairs: dict[Pair, int] = {}
    for t, matching in enumerate(schedule.rounds, start=1):
        used: set[int] = set()
        for a, b in matching:
            if not (0 <= a < n and 0 <= b < n):
                violations.append(f"round {t}: agent id out of range in pair {a + 1}-{b + 1}")
                continue
            if a == b:
                violations.append(f"round {t}: agent {a + 1} paired with itself")
                continue
            for x in (a, b):
                if x in used:
                    violations.append(f"round {t}: agent {x + 1} appears in two pairs")
            used.update((a, b))
            key = (min(a, b), max(a, b))
            if key in seen_pairs:
                violations.append(f"round {t}: pair {key[0] + 1}-{key[1] + 1} already met "
                                  f"in round {seen_pairs[key]}")
            else:
                seen_pairs[key] = t
        if len(used) < n:
            unpaired = (str(x + 1) for x in range(n) if x not in used)
            violations.append(
                f"round {t}: unpaired agents: " + _first_eight(unpaired, n - len(used)))
    if require_complete:
        # seen_pairs holds only distinct in-range pairs, so the count is exact.
        n_missing = n * (n - 1) // 2 - len(seen_pairs)
        if n_missing:
            missing = (f"{a + 1}-{b + 1}" for a in range(n) for b in range(a + 1, n)
                       if (a, b) not in seen_pairs)
            violations.append("pairs never meeting: " + _first_eight(missing, n_missing))
    return violations


def _first_eight(items, total: int) -> str:
    """The first 8 of total items, and how many more there are. Taking them
    lazily costs the skipped entries, not the population."""
    shown = ", ".join(itertools.islice(items, 8))
    return shown if total <= 8 else f"{shown} (+{total - 8} more)"


def reachability_profile(schedule: Schedule, source: int) -> list[int]:
    """Size, after each round, of the set a variant seeded at source could reach.

    The source's variant can move only along played pairings: after round t
    the set contains everyone whose chain of partners touches the source.
    """
    if not 0 <= source < schedule.n_agents:
        raise InvalidParamsError(
            f"agent {source} outside population of {schedule.n_agents}"
        )
    reached = {source}
    profile = []
    for matching in schedule.rounds:
        grown = set(reached)
        for a, b in matching:
            if a in reached or b in reached:
                grown.update((a, b))
        reached = grown
        profile.append(len(reached))
    return profile


# ---------------------------------------------------------------------------
# File formats. Text:
#
#     # comment
#     agents=8
#     1-2 3-4 5-6 7-8
#     ...
#
# JSON: {"agents": 8, "rounds": [[[1, 2], [3, 4], ...], ...]}
#
# Both use 1-based agent ids.
# ---------------------------------------------------------------------------


def dumps_schedule(schedule: Schedule, fmt: str = "text") -> str:
    """Canonical serialization; loading it back reproduces the schedule."""
    if fmt == "text":
        lines = [f"agents={schedule.n_agents}"]
        for matching in schedule.rounds:
            lines.append(" ".join(f"{a + 1}-{b + 1}" for a, b in matching))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "agents": schedule.n_agents,
            "rounds": [[[a + 1, b + 1] for a, b in m] for m in schedule.rounds],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise InvalidParamsError(f"schedule format must be 'text' or 'json', got {fmt!r}")


def export_schedule(schedule: Schedule, path, fmt: str | None = None) -> None:
    path = str(path)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "text"
    text = dumps_schedule(schedule, fmt)  # before open, so a bad format leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_text(text: str) -> Schedule:
    n_agents = None
    rounds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if n_agents is None:
            stripped = line.strip()
            if not stripped.startswith("agents="):
                raise ScheduleParseError(
                    "expected header 'agents=N' before pairings", lineno
                )
            value = stripped[len("agents="):]
            try:
                n_agents = int(value)
            except ValueError:
                raise ScheduleParseError(
                    f"agent count is not an integer: {value!r}",
                    lineno,
                    line.index("=") + 2,
                ) from None
            continue
        pairs = []
        col = 1
        for token in line.split():
            col = raw.index(token, col - 1) + 1
            a_str, sep, b_str = token.partition("-")
            try:
                if not sep:
                    raise ValueError
                a, b = int(a_str), int(b_str)
            except ValueError:
                raise ScheduleParseError(
                    f"malformed pair {token!r}, expected A-B", lineno, col
                ) from None
            pairs.append((a - 1, b - 1))
            col += len(token)
        rounds.append(pairs)
    if n_agents is None:
        raise ScheduleParseError("missing 'agents=N' header", 1)
    return Schedule.from_pairs(n_agents, rounds)


def _parse_json(text: str) -> Schedule:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or set(doc) != {"agents", "rounds"}:
        raise ScheduleParseError("document must have exactly 'agents' and 'rounds'", 1)
    # type() rather than isinstance(): a JSON true or false is a bool, which
    # subclasses int, and is neither an agent count nor an agent id.
    n_agents = doc["agents"]
    if type(n_agents) is not int:
        raise ScheduleParseError(f"bad agent count {n_agents!r}", 1)
    if not isinstance(doc["rounds"], list):
        raise ScheduleParseError(f"'rounds' must be a list, got {doc['rounds']!r}", 1)
    rounds = []
    for matching in doc["rounds"]:
        if not isinstance(matching, list):
            raise ScheduleParseError(f"a matching must be a list, got {matching!r}", 1)
        pairs = []
        for pair in matching:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(a) is int for a in pair)):
                raise ScheduleParseError(f"bad pair {pair!r}", 1)
            pairs.append((pair[0] - 1, pair[1] - 1))
        rounds.append(pairs)
    return Schedule.from_pairs(n_agents, rounds)


def loads_schedule(text: str, require_complete: bool = False) -> Schedule:
    """Parse a schedule from text (auto-detects JSON) and validate it.

    Every violation validate_schedule reports raises ScheduleValidationError;
    incompleteness is one only with require_complete.
    """
    stripped = text.lstrip()
    schedule = _parse_json(text) if stripped.startswith("{") else _parse_text(text)
    violations = validate_schedule(schedule, require_complete=require_complete)
    if violations:
        raise ScheduleValidationError(violations)
    return schedule


def load_schedule(path, require_complete: bool = False) -> Schedule:
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # A whole-file read decodes the file's bytes in one call.
        line_start = exc.object.rfind(b"\n", 0, exc.start) + 1
        raise ScheduleParseError(f"{path} is not UTF-8 text",
                                 exc.object.count(b"\n", 0, exc.start) + 1,
                                 exc.start - line_start + 1) from None
    return loads_schedule(text, require_complete=require_complete)
