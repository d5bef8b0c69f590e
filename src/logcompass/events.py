"""Access-log parsing and traffic filtering into a columnar event table.

Two line-oriented input formats are supported:

* format ``a`` (delimited): ``<ISO-8601 timestamp>,<user_hash>,<item_id>[,<source_tag>]``
* format ``b`` (record per line): JSON objects with keys ``ts`` (ISO-8601
  text or integer epoch milliseconds), ``user``, ``item``, optional ``agent``.

Malformed lines never abort a parse; each one yields a diagnostic instead.
Sessions are built from the table by ``pipeline.sessionize_summaries``.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

from .errors import ConfigError
from .timeutil import parse_timestamp_ms

LOG_FORMATS = ("a", "b")
# The range of array('q'), which holds every timestamp column.
TS_MIN_MS = -(2**63)
TS_MAX_MS = 2**63 - 1
COUNT_POLICIES = ("distinct", "raw")
DEFAULT_GAP_SECONDS = 1800.0


class LogEvent(NamedTuple):
    """One content request: who fetched which item, when (epoch ms).

    A named tuple, so it is immutable and hashable and compares equal to the
    plain tuple ``(ts_ms, user_hash, item_id, source_tag)``. The synthetic
    generator yields these; parsing yields an :class:`EventTable` instead.
    """

    ts_ms: int
    user_hash: str
    item_id: str
    source_tag: str | None = None


@dataclass(frozen=True, slots=True)
class EventTable:
    """Parsed events, one column each, in input order.

    Row i is the event ``(ts_ms[i], user_hash[i], item_id[i], source_tag[i])``.
    Timestamps are a signed 64-bit ``array('q')``; the text columns are
    lists, in which parsing makes equal values one interned object. len() is
    the number of events, so an empty table is falsy.
    """

    ts_ms: array
    user_hash: list[str]
    item_id: list[str]
    source_tag: list[str | None]

    def __len__(self) -> int:
        return len(self.ts_ms)

    def extend(self, other: EventTable) -> None:
        """Append other's rows after this table's."""
        self.ts_ms.extend(other.ts_ms)
        self.user_hash.extend(other.user_hash)
        self.item_id.extend(other.item_id)
        self.source_tag.extend(other.source_tag)


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


def parse_events(
    lines: Iterable[str], log_format: str = "a"
) -> tuple[EventTable, list[ParseDiagnostic]]:
    """Parse raw log lines into an event table plus per-line diagnostics.

    Input order is preserved; a malformed line produces one diagnostic and
    no row.
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


def _parse_delimited(lines: Iterable[str]) -> tuple[EventTable, list[ParseDiagnostic]]:
    # fromisoformat covers years 1-9999, which always fit in array('q').
    table = EventTable(array("q"), [], [], [])
    diags: list[ParseDiagnostic] = []
    intern = sys.intern
    add_ts = table.ts_ms.append
    add_user = table.user_hash.append
    add_item = table.item_id.append
    add_tag = table.source_tag.append
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
        add_ts(ts)
        add_user(intern(user))
        add_item(intern(item))
        add_tag(intern(tag) if tag else None)
    return table, diags


def _parse_records(lines: Iterable[str]) -> tuple[EventTable, list[ParseDiagnostic]]:
    # json yields exact int, str and dict, so `type(x) is` checks suffice; a
    # bool ts is not an int here and gets the same diagnostic as a float.
    table = EventTable(array("q"), [], [], [])
    diags: list[ParseDiagnostic] = []
    intern = sys.intern
    # A stripped line has no JSON whitespace around it, so a raw_decode that
    # takes the whole line yields what json.loads would, without loads's
    # wrapper; any other line goes to loads, which words the diagnostic.
    raw_decode = json.JSONDecoder().raw_decode
    loads = json.loads
    add_ts = table.ts_ms.append
    add_user = table.user_hash.append
    add_item = table.item_id.append
    add_tag = table.source_tag.append
    for line_no, raw in enumerate(lines, 1):
        if not raw.isascii() and not _is_utf8(raw):
            diags.append(ParseDiagnostic(line_no, "invalid UTF-8"))
            continue
        line = raw.strip()
        if not line:
            diags.append(ParseDiagnostic(line_no, "empty line"))
            continue
        try:
            rec, end = raw_decode(line)
        except (ValueError, RecursionError):
            end = -1
        if end != len(line):
            try:
                rec = loads(line)
            except json.JSONDecodeError as exc:
                diags.append(ParseDiagnostic(line_no, f"invalid record: {exc.msg}"))
                continue
            except ValueError:
                # A number past int()'s limit of 4,300 digits.
                diags.append(ParseDiagnostic(line_no, "invalid record: integer too long"))
                continue
            except RecursionError:
                diags.append(ParseDiagnostic(line_no, "invalid record: nested too deeply"))
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
            if not TS_MIN_MS <= ts_val <= TS_MAX_MS:
                diags.append(ParseDiagnostic(line_no, "ts outside the signed 64-bit range"))
                continue
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
        add_ts(ts)
        add_user(intern(user))
        add_item(intern(item))
        add_tag(intern(tag) if tag else None)
    return table, diags


def filter_events(table: EventTable, rules: FilterRules) -> EventTable:
    """Keep the rows passing the rules, in order.

    A pattern's verdict depends only on the string it searches, so each
    distinct item_id and source_tag is searched once; one mask then selects
    the kept rows of every column. Empty rules return the table itself.
    """
    if not rules.agent_deny_patterns and rules.item_allow_pattern is None:
        return table
    deny = [re.compile(p).search for p in rules.agent_deny_patterns]
    allow = (
        re.compile(rules.item_allow_pattern).search
        if rules.item_allow_pattern is not None
        else None
    )
    item_ok = {item: allow is None or allow(item) is not None for item in set(table.item_id)}
    tag_ok = {
        tag: tag is None or not any(d(tag) for d in deny) for tag in set(table.source_tag)
    }
    mask = [item_ok[item] and tag_ok[tag] for item, tag in zip(table.item_id, table.source_tag)]
    return EventTable(
        array("q", compress(table.ts_ms, mask)),
        list(compress(table.user_hash, mask)),
        list(compress(table.item_id, mask)),
        list(compress(table.source_tag, mask)),
    )
