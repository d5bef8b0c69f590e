"""Access-log parsing and traffic filtering into events grouped by user.

Two line-oriented input formats are supported:

* format ``a`` (delimited): ``<ISO-8601 timestamp>,<user_hash>,<item_id>[,<source_tag>]``
* format ``b`` (record per line): JSON objects with keys ``ts`` (ISO-8601
  text or integer epoch milliseconds), ``user``, ``item``, optional ``agent``.

Malformed lines never abort a parse; each one yields a diagnostic instead.
Events are grouped by user, each user's in input order, which is all that
``pipeline.sessionize_summaries`` needs to build sessions.

``parse_log_text`` reads a file a segment of whole lines at a time. A
format-a segment of valid three-field lines is split by ``comma_columns``,
which pipeline.read_sessions_csv also splits sessions.csv with, and its
timestamps are converted by a ``map()`` of ``fromisoformat``, with no Python
function called per line. Every other segment, and every line given to
``parse_events``, goes line by line through ``_line_events`` and the
format's one definition of its rules, so events, diagnostics and line
numbers do not depend on the path taken. Both paths feed ``_add_events``,
the one function that groups events by user.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat, zip_longest
from typing import IO, Iterable, NamedTuple

from .errors import ConfigError
from .timeutil import parse_timestamp_ms, parse_timestamps_ms

LOG_FORMATS = ("a", "b")
# The range of array('q'), which holds every timestamp column.
TS_MIN_MS = -(2**63)
TS_MAX_MS = 2**63 - 1
COUNT_POLICIES = ("distinct", "raw")
# The deepest nesting of a format-b record. json counts each level against
# the recursion limit, which the caller's stack shares; a cap well below it
# makes whether a line is refused depend on the line alone.
MAX_NESTING = 200
DEFAULT_GAP_SECONDS = 1800.0
# Characters per segment of a log file, read on to the end of a line. In
# format a, one tagged or malformed line sends its whole segment, after a
# failed bulk attempt, to the per-line loop; small segments keep a log with a
# few such lines from parsing slower than line by line, and keep the lines
# or columns of one segment well below the memory of the groups they fill.
_SEGMENT_CHARS = 2048


class LogEvent(NamedTuple):
    """One content request: who fetched which item, when (epoch ms).

    A named tuple, so it is immutable and hashable and compares equal to the
    plain tuple ``(ts_ms, user_hash, item_id, source_tag)``. The synthetic
    generator yields these; parsing yields :class:`EventGroups` instead.
    """

    ts_ms: int
    user_hash: str
    item_id: str
    source_tag: str | None = None


# One user's events as columns, in input order: (ts_ms, item_id, source_tag).
# The tag column holds the tags of the first len(tags) events; each later
# event has none, so a log without tags holds no tag column.
Group = tuple[array, list[str], list[str | None]]


@dataclass(frozen=True, slots=True)
class EventGroups:
    """Parsed events grouped by user.

    groups maps each user_hash to the columns of that user's events, in
    input order. Timestamps are a signed 64-bit ``array('q')``; parsing
    makes equal items and equal tags one interned object, and each user's
    text is held once, as its key. len() is the number of events parsed
    into the groups, so empty groups are falsy. It stays so after a
    consumer, such as sessionize_summaries, has popped the groups.
    """

    groups: dict[str, Group]
    count: int

    @classmethod
    def of(cls, groups: dict[str, Group]) -> EventGroups:
        """The EventGroups of groups, counting their events."""
        return cls(groups, sum(len(g[0]) for g in groups.values()))

    def __len__(self) -> int:
        return self.count


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
) -> tuple[EventGroups, list[ParseDiagnostic]]:
    """Parse raw log lines into events grouped by user, plus per-line
    diagnostics.

    Each user's events keep their input order; a malformed line produces one
    diagnostic and no event.
    """
    groups: dict[str, Group] = {}
    diags: list[ParseDiagnostic] = []
    _add_events(groups, _line_events(lines, _line_parser(log_format), 1, diags))
    return EventGroups.of(groups), diags


def _line_parser(log_format: str):
    """The function that parses one line of log_format."""
    if log_format not in LOG_FORMATS:
        raise ConfigError(f"unknown log format {log_format!r} (expected one of {LOG_FORMATS})")
    return _delimited_event if log_format == "a" else _record_event


def parse_log_text(fh: IO[str], log_format: str, groups: dict[str, Group]) -> list[ParseDiagnostic]:
    """Add the events of a text file opened with universal newlines, as
    open() does by default, to groups, as parse_events parses its lines;
    returns the file's diagnostics, numbered from its first line.

    The file is read _SEGMENT_CHARS characters at a time, carried on to the
    end of a line, so a segment is whole lines, split at LF alone as the file
    iterates; a format-a segment that the bulk split takes makes no str per line.
    """
    event_of = _line_parser(log_format)
    diags: list[ParseDiagnostic] = []
    line_no = 1
    while text := fh.read(_SEGMENT_CHARS) + fh.readline():
        cols = _delimited_columns(text) if event_of is _delimited_event else None
        if cols is not None:
            _add_events(groups, zip(*cols, repeat(None)))
            line_no += len(cols[0])
            continue
        # The file's lines, split at LF as the file splits them after it
        # translates line ends; each format reads a line alike with or without its LF.
        lines = text.split("\n")
        if not lines[-1]:
            del lines[-1]
        _add_events(groups, _line_events(lines, event_of, line_no, diags))
        line_no += len(lines)
    return diags


def _line_events(lines: Iterable[str], event_of, first_line_no: int, diags: list[ParseDiagnostic]):
    """The (ts_ms, user_hash, item_id, source_tag) event of each well-formed
    line, in order; a diagnostic for each malformed line goes to diags, the
    lines numbered from first_line_no."""
    for line_no, raw in enumerate(lines, first_line_no):
        if not raw.isascii() and not _is_utf8(raw):
            diags.append(ParseDiagnostic(line_no, "invalid UTF-8"))
            continue
        event = event_of(raw)
        if type(event) is str:
            diags.append(ParseDiagnostic(line_no, event))
        else:
            yield event


def _add_events(groups: dict[str, Group], events: Iterable[tuple[int, str, str, str | None]]) -> None:
    """Add (ts_ms, user_hash, item_id, source_tag) events to groups, each
    after its user's earlier ones; equal items and equal tags become one
    interned object."""
    intern = sys.intern
    group_of = groups.get
    for ts, user, item, tag in events:
        group = group_of(user)
        if group is None:
            group = groups[user] = (array("q"), [], [])
        ts_col, items, tags = group
        # A user's tag column starts at its first tagged event.
        if tags:
            tags.append(intern(tag) if tag else None)
        elif tag:
            tags += repeat(None, len(items))
            tags.append(intern(tag))
        ts_col.append(ts)
        items.append(intern(item))


def comma_columns(text: str, width: int) -> list[list[str]] | None:
    """The width columns (width >= 2) of text's lines, split at every comma
    and without their LFs, if every line has width fields; else None.

    text is whole lines; the last may lack its LF. With no CR, a line ends
    only at LF and a field only at a comma. Given width - 1 commas per LF, a
    comma put after each LF makes width fields per line, the last ending
    with its LF, exactly when every line has width fields.
    """
    if not text.endswith("\n"):
        text += "\n"
    spread = text.replace("\n", "\n,")
    n = len(spread) - len(text)  # the LFs
    fields = spread.split(",")
    last = "".join(fields[width - 1 :: width]).split("\n")
    if "\r" in text or len(fields) != width * n + 1 or len(last) != n + 1:
        return None
    del last[n]  # the empty text after the last LF
    return [fields[0:-1:width], *(fields[i::width] for i in range(1, width - 1)), last]


def _delimited_columns(text: str) -> tuple[list[int], list[str], list[str]] | None:
    """The (ts_ms, user_hash, item_id) columns of text, whole lines as
    comma_columns takes them, if every line is a valid three-field format-a
    line, which _delimited_event reads to the same event; else None."""
    # The commas of the first line: the cheapest test that turns away a
    # tagged segment, before anything is split.
    if text.partition("\n")[0].count(",") != 2 or not (text.isascii() or _is_utf8(text)):
        return None
    cols = comma_columns(text, 3)
    if cols is None or "" in cols[1] or "" in cols[2]:
        return None
    try:
        return parse_timestamps_ms(cols[0]), cols[1], cols[2]
    except (ValueError, TypeError):
        # The per-line parser words the diagnostic.
        return None


def _is_utf8(line: str) -> bool:
    """False for text holding lone surrogates, which is how a file opened with
    ``errors="surrogateescape"`` carries bytes that are not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _delimited_event(raw: str) -> tuple[int, str, str, str | None] | str:
    """A format-a line's (ts_ms, user_hash, item_id, source_tag), or the
    reason it is malformed."""
    line = raw.rstrip("\r\n")
    if not line:
        return "empty line"
    parts = line.split(",")
    n = len(parts)
    if n == 3:
        ts_text, user, item = parts
        tag = None
    elif n == 4:
        ts_text, user, item, tag = parts
    else:
        return f"expected 3 or 4 fields, got {n}"
    if not user or not item:
        return "empty user_hash or item_id"
    try:
        # fromisoformat covers years 1-9999, which always fit in array('q').
        return parse_timestamp_ms(ts_text), user, item, tag
    except ValueError:
        return f"bad timestamp {ts_text!r}"


def _nesting(line: str) -> int:
    """The deepest nesting of arrays and objects in JSON text. A bracket in
    a string, or in a string left open to the end, does not count."""
    brackets = re.findall(r"[][{}]", re.sub(r'"(?:[^"\\]|\\.)*"?', "", line, flags=re.DOTALL))
    return max(accumulate(1 if b in "[{" else -1 for b in brackets), default=0)


# A stripped line has no JSON whitespace around it, so a scan that takes the
# whole line yields what json.loads would, without the Python wrappers of
# loads and raw_decode; any other line goes to loads, which words the
# diagnostic.
_scan_once = json.JSONDecoder().scan_once


def _record_event(raw: str) -> tuple[int, str, str, str | None] | str:
    """A format-b line's (ts_ms, user_hash, item_id, source_tag), or the
    reason it is malformed."""
    # json yields exact int, str and dict, so `type(x) is` checks suffice; a
    # bool ts is not an int here and gets the same diagnostic as a float.
    line = raw.strip()
    if not line:
        return "empty line"
    # Only a line with more brackets than the cap, and so only a line longer
    # than the cap, can nest past it.
    if len(line) > MAX_NESTING and line.count("[") + line.count("{") > MAX_NESTING:
        if _nesting(line) > MAX_NESTING:
            return "invalid record: nested too deeply"
    try:
        rec, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"invalid record: {exc.msg}"
        except ValueError:
            # A number past int()'s limit of 4,300 digits.
            return "invalid record: integer too long"
        except RecursionError:
            return "invalid record: nested too deeply"
    if type(rec) is not dict:
        return "record is not an object"
    try:
        ts, user, item = rec["ts"], rec["user"], rec["item"]
    except KeyError:
        missing = [k for k in ("ts", "user", "item") if k not in rec]
        return f"missing key {missing[0]!r}"
    ts_type = type(ts)
    if ts_type is int:
        if not TS_MIN_MS <= ts <= TS_MAX_MS:
            return "ts outside the signed 64-bit range"
    elif ts_type is str:
        try:
            ts = parse_timestamp_ms(ts)
        except ValueError:
            return f"bad timestamp {ts!r}"
    else:
        return "ts must be ISO-8601 text or epoch milliseconds"
    if type(user) is not str or type(item) is not str or not user or not item:
        return "user and item must be non-empty text"
    # A valid line can still escape a lone surrogate (\ud800), which no
    # UTF-8 artifact can hold.
    if (not user.isascii() and not _is_utf8(user)) or (not item.isascii() and not _is_utf8(item)):
        return "user and item must be valid Unicode text"
    tag = rec.get("agent")
    if tag is not None and type(tag) is not str:
        return "agent must be text"
    return ts, user, item, tag


def filter_events(events: EventGroups, rules: FilterRules) -> EventGroups:
    """Keep the events passing the rules, each user's in order; a user left
    with no events is dropped.

    A pattern's verdict depends only on the string it searches, so each
    distinct item_id and source_tag is searched once; one mask per user then
    selects the kept events of its columns. Empty rules return events itself.
    """
    if not rules.agent_deny_patterns and rules.item_allow_pattern is None:
        return events
    deny = [re.compile(p).search for p in rules.agent_deny_patterns]
    # Without an allow pattern, the empty pattern passes every item.
    allow = re.compile(rules.item_allow_pattern or "").search
    groups = events.groups.values()
    all_items = set(chain.from_iterable(g[1] for g in groups))
    all_tags = {None}.union(*(g[2] for g in groups))
    item_ok = {item: allow(item) is not None for item in all_items}
    tag_ok = {tag: tag is None or not any(d(tag) for d in deny) for tag in all_tags}
    kept: dict[str, Group] = {}
    for user, (ts, items, tags) in events.groups.items():
        mask = [item_ok[item] and tag_ok[tag] for item, tag in zip_longest(items, tags)]
        if any(mask):
            kept[user] = (
                array("q", compress(ts, mask)), list(compress(items, mask)), list(compress(tags, mask))
            )
    return EventGroups.of(kept)
