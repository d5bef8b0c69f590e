"""Access-log parsing, traffic filtering, and session construction.

Two line-oriented input formats are supported:

* format ``a`` (delimited): ``<ISO-8601 timestamp>,<user_hash>,<item_id>[,<source_tag>]``
* format ``b`` (record per line): JSON objects with keys ``ts`` (ISO-8601
  text or integer epoch milliseconds), ``user``, ``item``, optional ``agent``.

Malformed lines never abort a parse; each one yields a diagnostic instead.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import ConfigError
from .timeutil import parse_timestamp_ms

LOG_FORMATS = ("a", "b")
COUNT_POLICIES = ("distinct", "raw")
DEFAULT_GAP_SECONDS = 1800.0


class LogEvent(NamedTuple):
    """One content request: who fetched which item, when (epoch ms).

    A named tuple, so it is immutable and hashable and compares equal to the
    plain tuple ``(ts_ms, user_hash, item_id, source_tag)``.
    """

    ts_ms: int
    user_hash: str
    item_id: str
    source_tag: str | None = None


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    line_no: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.reason}"


@dataclass(frozen=True)
class FilterRules:
    """Traffic filters: deny patterns against source_tag, allow pattern against item_id.

    Patterns are regular expressions applied with ``search``. Empty rules
    pass every event; events without a source_tag never match a deny
    pattern.
    """

    agent_deny_patterns: tuple[str, ...] = ()
    item_allow_pattern: str | None = None

    def __post_init__(self) -> None:
        for pat in list(self.agent_deny_patterns) + (
            [self.item_allow_pattern] if self.item_allow_pattern is not None else []
        ):
            try:
                re.compile(pat)
            except re.error as exc:
                raise ConfigError(f"bad filter pattern {pat!r}: {exc}") from None


@dataclass(frozen=True)
class Session:
    """A time-bounded run of one user's events; k_items per the counting policy."""

    session_id: int
    user_hash: str
    events: tuple[LogEvent, ...]
    start_ms: int
    end_ms: int
    k_items: int


def parse_events(
    lines: Iterable[str], log_format: str = "a"
) -> tuple[list[LogEvent], list[ParseDiagnostic]]:
    """Parse raw log lines into events plus per-line diagnostics.

    Input order is preserved; a malformed line produces one diagnostic and
    no event.
    """
    if log_format == "a":
        return _parse_delimited(lines)
    if log_format == "b":
        return _parse_records(lines)
    raise ConfigError(f"unknown log format {log_format!r} (expected one of {LOG_FORMATS})")


def _is_utf8(line: str) -> bool:
    """False for text holding lone surrogates, which is how a file opened with
    ``errors="surrogateescape"`` carries bytes that are not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_delimited(lines: Iterable[str]) -> tuple[list[LogEvent], list[ParseDiagnostic]]:
    events: list[LogEvent] = []
    diags: list[ParseDiagnostic] = []
    intern = sys.intern
    append = events.append
    for line_no, raw in enumerate(lines, 1):
        if not raw.isascii() and not _is_utf8(raw):
            diags.append(ParseDiagnostic(line_no, "invalid UTF-8"))
            continue
        line = raw.rstrip("\r\n")
        if not line:
            diags.append(ParseDiagnostic(line_no, "empty line"))
            continue
        parts = line.split(",")
        n = len(parts)
        if n == 3:
            ts_text, user, item = parts
            tag = None
        elif n == 4:
            ts_text, user, item, tag = parts
            tag = tag or None
        else:
            diags.append(ParseDiagnostic(line_no, f"expected 3 or 4 fields, got {n}"))
            continue
        if not user or not item:
            diags.append(ParseDiagnostic(line_no, "empty user_hash or item_id"))
            continue
        try:
            ts = parse_timestamp_ms(ts_text)
        except ValueError:
            diags.append(ParseDiagnostic(line_no, f"bad timestamp {ts_text!r}"))
            continue
        append(LogEvent(ts, intern(user), intern(item), tag))
    return events, diags


def _parse_records(lines: Iterable[str]) -> tuple[list[LogEvent], list[ParseDiagnostic]]:
    # json.loads yields exact int, str and dict, so `type(x) is` checks suffice;
    # a bool ts is not an int here and gets the same diagnostic as a float.
    events: list[LogEvent] = []
    diags: list[ParseDiagnostic] = []
    intern = sys.intern
    loads = json.loads
    append = events.append
    for line_no, raw in enumerate(lines, 1):
        if not raw.isascii() and not _is_utf8(raw):
            diags.append(ParseDiagnostic(line_no, "invalid UTF-8"))
            continue
        line = raw.strip()
        if not line:
            diags.append(ParseDiagnostic(line_no, "empty line"))
            continue
        try:
            rec = loads(line)
        except json.JSONDecodeError as exc:
            diags.append(ParseDiagnostic(line_no, f"invalid record: {exc.msg}"))
            continue
        if type(rec) is not dict:
            diags.append(ParseDiagnostic(line_no, "record is not an object"))
            continue
        try:
            ts_val = rec["ts"]
            user = rec["user"]
            item = rec["item"]
        except KeyError:
            missing = [k for k in ("ts", "user", "item") if k not in rec]
            diags.append(ParseDiagnostic(line_no, f"missing key {missing[0]!r}"))
            continue
        ts_type = type(ts_val)
        if ts_type is int:
            ts = ts_val
        elif ts_type is str:
            try:
                ts = parse_timestamp_ms(ts_val)
            except ValueError:
                diags.append(ParseDiagnostic(line_no, f"bad timestamp {ts_val!r}"))
                continue
        else:
            diags.append(ParseDiagnostic(line_no, "ts must be ISO-8601 text or epoch milliseconds"))
            continue
        if type(user) is not str or type(item) is not str or not user or not item:
            diags.append(ParseDiagnostic(line_no, "user and item must be non-empty text"))
            continue
        # A valid line can still escape a lone surrogate (\ud800), which no
        # UTF-8 artifact can hold.
        if (not user.isascii() and not _is_utf8(user)) or (
            not item.isascii() and not _is_utf8(item)
        ):
            diags.append(ParseDiagnostic(line_no, "user and item must be valid Unicode text"))
            continue
        tag = rec.get("agent")
        if tag is not None and type(tag) is not str:
            diags.append(ParseDiagnostic(line_no, "agent must be text"))
            continue
        append(LogEvent(ts, intern(user), intern(item), tag or None))
    return events, diags


def filter_events(events: Iterable[LogEvent], rules: FilterRules) -> list[LogEvent]:
    """Keep the order-preserving subsequence of events passing the rules.

    A pattern's verdict depends only on the string it searches, so each
    distinct item_id and source_tag is searched once and its verdict reused.
    """
    if not rules.agent_deny_patterns and rules.item_allow_pattern is None:
        return list(events)
    deny = [re.compile(p).search for p in rules.agent_deny_patterns]
    allow = (
        re.compile(rules.item_allow_pattern).search
        if rules.item_allow_pattern is not None
        else None
    )
    item_ok: dict[str, bool] = {}
    tag_ok: dict[str | None, bool] = {None: True}
    out: list[LogEvent] = []
    append = out.append
    for ev in events:
        item = ev[2]
        ok = item_ok.get(item)
        if ok is None:
            ok = item_ok[item] = allow is None or allow(item) is not None
        if not ok:
            continue
        tag = ev[3]
        ok = tag_ok.get(tag)
        if ok is None:
            ok = tag_ok[tag] = not any(d(tag) for d in deny)
        if ok:
            append(ev)
    return out


def session_groups(
    events: Iterable[LogEvent], gap_ms: int
) -> Iterator[tuple[str, list[LogEvent]]]:
    """Yield (user_hash, events) runs split wherever an inter-event gap exceeds gap_ms.

    Events are grouped per user and stably sorted by timestamp, so equal
    timestamps keep input order. Yield order is user-major, not global.
    """
    by_user: dict[str, list[LogEvent]] = {}
    for ev in events:
        user = ev[1]
        lst = by_user.get(user)
        if lst is None:
            by_user[user] = [ev]
        else:
            lst.append(ev)
    by_ts = itemgetter(0)
    for user, evs in by_user.items():
        evs.sort(key=by_ts)
        start = 0
        prev = evs[0][0]
        for i in range(1, len(evs)):
            t = evs[i][0]
            if t - prev > gap_ms:
                yield user, evs[start:i]
                start = i
            prev = t
        yield user, evs[start:]


def count_items(events: list[LogEvent], count_policy: str) -> int:
    if count_policy == "distinct":
        return len({ev.item_id for ev in events})
    if count_policy == "raw":
        return len(events)
    raise ConfigError(f"unknown count policy {count_policy!r} (expected one of {COUNT_POLICIES})")


def sessionize(
    events: Iterable[LogEvent],
    gap_seconds: float = DEFAULT_GAP_SECONDS,
    *,
    count_policy: str = "distinct",
) -> list[Session]:
    """Partition events into per-user sessions split on gaps exceeding gap_seconds.

    Sessions are numbered by ascending start time globally (ties broken by
    user_hash, which is total: one user's sessions never share a start).
    """
    if not gap_seconds > 0:
        raise ValueError("gap_seconds must be positive")
    count_items([], count_policy)  # validate policy up front
    gap_ms = round(gap_seconds * 1000)
    drafts = [
        (evs[0].ts_ms, user, evs)
        for user, evs in session_groups(events, gap_ms)
    ]
    drafts.sort(key=lambda d: (d[0], d[1]))
    return [
        Session(
            session_id=i,
            user_hash=user,
            events=tuple(evs),
            start_ms=start,
            end_ms=evs[-1].ts_ms,
            k_items=count_items(evs, count_policy),
        )
        for i, (start, user, evs) in enumerate(drafts)
    ]
