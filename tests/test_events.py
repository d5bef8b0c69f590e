import csv
import io
import json
import math
import re
import sys
import tracemalloc
import types
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import logcompass.events as events_module
from helpers import (
    by_user,
    event_groups,
    group_events,
    make_events,
    oracle_parse_events,
    sessionize,
    table_rows,
)
from logcompass.errors import ConfigError
from logcompass.events import (
    COUNT_POLICIES,
    EventGroups,
    FilterRules,
    LogEvent,
    MAX_NESTING,
    ParseDiagnostic,
    TS_MAX_MS,
    TS_MIN_MS,
    comma_columns,
    filter_events,
    parse_events,
)
from logcompass.pipeline import SessionTable, _gap_ms, parse_log_files, sessionize_summaries
from logcompass.synth import SynthProfile, write_log
from logcompass.timeutil import parse_timestamp_ms


def test_parse_delimited_line():
    events, diags = parse_events(["2021-03-01T10:00:00Z,u1,art42\n"], "a")
    assert diags == []
    assert group_events(events) == {
        "u1": [LogEvent(parse_timestamp_ms("2021-03-01T10:00:00Z"), "u1", "art42")]
    }


def test_parse_empty_input():
    assert parse_events([], "a") == (EventGroups({}, 0), [])


def test_parse_two_fields_is_diagnostic():
    events, diags = parse_events(["2021-03-01T10:00:00Z,u1\n"], "a")
    assert group_events(events) == {}
    assert len(diags) == 1
    assert str(diags[0]).startswith("line 1: ")


def test_parse_keeps_order_and_skips_malformed():
    lines = [
        "2021-03-01T10:00:00Z,u1,a1\n",
        "garbage\n",
        "2021-03-01T10:00:05Z,u2,a2\n",
        "2021-03-01T10:00:09Z,,a3\n",
        "2021-03-01T10:00:10Z,u1,a3,scraper\n",
        "2021-03-01T10:00:11Z,u1,a4\n",
    ]
    events, diags = parse_events(lines, "a")
    # A user's tag column starts at its first tagged event; u2 has none.
    assert {user: (items, tags) for user, (_, items, tags) in events.groups.items()} == {
        "u1": (["a1", "a3", "a4"], [None, "scraper", None]), "u2": (["a2"], [])
    }
    assert [d.line_no for d in diags] == [2, 4]


def test_parse_bad_timestamp_diagnostic():
    events, diags = parse_events(["not-a-time,u1,a1\n"], "a")
    assert group_events(events) == {}
    assert "bad timestamp" in diags[0].reason


def test_parse_millisecond_precision():
    events, _ = parse_events(["2021-03-01T10:00:00.123Z,u1,a1\n"], "a")
    assert events.groups["u1"][0][0] % 1000 == 123


def test_parse_format_b():
    lines = [
        json.dumps({"ts": "2021-03-01T10:00:00Z", "user": "u1", "item": "a1"}) + "\n",
        json.dumps({"ts": 1614592800000, "user": "u2", "item": "a2", "agent": "app"}) + "\n",
    ]
    events, diags = parse_events(lines, "b")
    assert diags == []
    assert events.groups["u1"][0][0] == events.groups["u2"][0][0] == 1614592800000
    assert events.groups["u2"][2] == ["app"]


@pytest.mark.parametrize(
    "line",
    [
        "{not json}",
        "[1, 2]",
        json.dumps({"user": "u1", "item": "a1"}),
        json.dumps({"ts": True, "user": "u1", "item": "a1"}),
        json.dumps({"ts": 1.5, "user": "u1", "item": "a1"}),
        json.dumps({"ts": 0, "user": "", "item": "a1"}),
        json.dumps({"ts": 0, "user": "u1", "item": "a1", "agent": 3}),
    ],
)
def test_parse_format_b_malformed(line):
    events, diags = parse_events([line + "\n"], "b")
    assert group_events(events) == {}
    assert len(diags) == 1


def test_parse_unknown_format():
    with pytest.raises(ConfigError):
        parse_events([], "c")


def test_filter_deny_pattern_drops_tagged_event():
    events = make_events([(0, "u1", "a1", "bot-crawler"), (1, "u2", "a2")])
    kept = filter_events(event_groups(events), FilterRules(agent_deny_patterns=("bot",)))
    assert group_events(kept) == {"u2": [events[1]]}


def test_filter_drops_a_user_left_without_events():
    # u1's every event is denied; sessionize would fail on an empty group.
    events = make_events([(0, "u1", "a1", "bot"), (1, "u2", "a2"), (2, "u1", "a3", "bot-2"),
                          (3, "u2", "a1", "human")])
    kept = filter_events(event_groups(events), FilterRules(agent_deny_patterns=("bot",)))
    assert (len(kept), list(kept.groups)) == (2, ["u2"])
    assert group_events(kept) == {"u2": [events[1], events[3]]}
    assert table_rows(sessionize_summaries(kept, 1800)) == [(0, "u2", 1000, 3000, 2)]


def test_filter_empty_rules_identity():
    table = event_groups(make_events([(0, "u1", "a1"), (1, "u2", "a2", "bot")]))
    assert filter_events(table, FilterRules()) is table


def test_filter_preserves_subsequence_order():
    events = make_events(
        [(t, f"u{t}", f"a{t}", "spider" if t in (2, 5, 8) else None) for t in range(10)]
    )
    kept = filter_events(event_groups(events), FilterRules(agent_deny_patterns=("spider",)))
    assert len(kept) == 7
    # each user's order-preserving subsequence of the input
    assert group_events(kept) == by_user(e for e in events if e.source_tag != "spider")


def test_filter_item_allow_pattern():
    events = event_groups(make_events([(0, "u1", "paper-9"), (1, "u1", "style.css")]))
    kept = filter_events(events, FilterRules(item_allow_pattern=r"^paper-"))
    assert kept.groups["u1"][1] == ["paper-9"]


def test_filter_rules_validate_patterns():
    with pytest.raises(ConfigError):
        FilterRules(agent_deny_patterns=("[unclosed",))


def test_sessionize_splits_on_gap():
    events = make_events([(0, "u1", "a"), (60, "u1", "b"), (4000, "u1", "c")])
    sessions = sessionize(events, 1800)
    assert [[e.ts_ms for e in s.events] for s in sessions] == [[0, 60_000], [4_000_000]]
    assert [s.session_id for s in sessions] == [0, 1]


def test_sessionize_single_event():
    sessions = sessionize(make_events([(5, "u1", "a")]), 1800)
    assert len(sessions) == 1
    assert sessions[0].k_items == 1
    assert sessions[0].start_ms == sessions[0].end_ms == 5000


def test_sessionize_never_merges_users():
    events = make_events([(0, "u1", "a"), (1, "u2", "b"), (2, "u1", "c"), (3, "u2", "d")])
    sessions = sessionize(events, 1800)
    assert sorted(s.user_hash for s in sessions) == ["u1", "u2"]
    assert all(len({e.user_hash for e in s.events}) == 1 for s in sessions)


def test_sessionize_gap_equal_to_threshold_stays_together():
    events = make_events([(0, "u1", "a"), (1800, "u1", "b"), (3601, "u1", "c")])
    sessions = sessionize(events, 1800)
    assert [len(s.events) for s in sessions] == [2, 1]
    assert list(sessionize_summaries(event_groups(events), 1800).end_ms) == [1_800_000, 3_601_000]


def test_sessionize_counting_policy():
    events = make_events([(0, "u1", "a"), (10, "u1", "a"), (20, "u1", "b")])
    assert sessionize(events, 1800)[0].k_items == 2
    assert sessionize(events, 1800, count_policy="raw")[0].k_items == 3
    assert sessionize_summaries(event_groups(events), 1800).k_items == [2]
    assert sessionize_summaries(event_groups(events), 1800, "raw").k_items == [3]


def test_sessionize_numbers_by_global_start():
    events = make_events([(100, "u2", "x"), (0, "u1", "y"), (5000, "u1", "z")])
    sessions = sessionize(events, 1800)
    assert [(s.session_id, s.user_hash, s.start_ms) for s in sessions] == [
        (0, "u1", 0),
        (1, "u2", 100_000),
        (2, "u1", 5_000_000),
    ]
    table = sessionize_summaries(event_groups(events), 1800)
    assert (table.user_hash, list(table.start_ms)) == (["u1", "u2", "u1"], [0, 100_000, 5_000_000])


def test_sessionize_rejects_bad_gap():
    with pytest.raises(ValueError):
        sessionize([], 0)
    with pytest.raises(ConfigError, match="gap_seconds must be positive"):
        sessionize_summaries(EventGroups({}, 0), 0)
    with pytest.raises(ConfigError, match="gap_seconds must be finite in milliseconds, got inf"):
        sessionize_summaries(EventGroups({}, 0), math.inf)


@pytest.mark.parametrize("gap_s, times, starts", [
    # 2 ms exceeds 1.5 ms, and 1 ms exceeds 0.6 ms; 2 ms does not exceed 2 ms,
    # nor 1001 ms 1.001 s, though 1.001 * 1000 is 1000.9999999999999.
    (0.0015, [0, 2], [0, 2]),
    (0.0006, [0, 1, 2], [0, 1, 2]),
    (0.002, [0, 2], [0]),
    (1.001, [0, 1001, 2003], [0, 2003]),
])
def test_fractional_gap_splits_at_the_next_whole_millisecond(gap_s, times, starts):
    events = [LogEvent(t, "u1", "i1") for t in times]
    assert list(sessionize_summaries(event_groups(events), gap_s).start_ms) == starts
    assert [s.start_ms for s in sessionize(events, gap_s)] == starts


@given(st.floats(min_value=5e-324, max_value=1e300))
def test_gap_ms_rounds_the_decimal_text_down(gap_s):
    # Drawn gaps span the texts that repr writes with an exponent, below 1e-4
    # and from 1e16, and those with 17 digits, such as 0.13999999999999999.
    assert _gap_ms(gap_s) == math.floor(Fraction(repr(gap_s)) * 1000)


def test_sessionize_unknown_policy():
    with pytest.raises(ConfigError):
        sessionize([], 1800, count_policy="weird")
    with pytest.raises(ConfigError, match="unknown count policy 'weird'"):
        sessionize_summaries(EventGroups({}, 0), 1800, "weird")


_event_lists = st.lists(
    st.tuples(
        # Small times put events a few milliseconds apart, around fractional gaps.
        st.one_of(st.integers(min_value=0, max_value=500_000), st.integers(min_value=0, max_value=8)),
        st.sampled_from(["u1", "u2", "u3"]),
        st.sampled_from(["i1", "i2", "i3", "i4"]),
    ),
    max_size=60,
)


# Whole seconds, whole milliseconds, and gaps between whole milliseconds.
_GAPS = st.one_of(
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=120_000).map(lambda ms: ms / 1000),
    st.sampled_from([0.0015, 0.0006]),
)


@given(_event_lists, _GAPS)
def test_sessionize_partition_and_gap_properties(raw, gap_s):
    events = [LogEvent(t, u, i) for t, u, i in raw]
    sessions = sessionize(events, gap_s)
    flat = sorted(
        (e.ts_ms, e.user_hash, e.item_id) for s in sessions for e in s.events
    )
    assert flat == sorted((e.ts_ms, e.user_hash, e.item_id) for e in events)
    gap_ms = Fraction(repr(gap_s)) * 1000
    for s in sessions:
        ts = [e.ts_ms for e in s.events]
        assert ts == sorted(ts)
        assert all(b - a <= gap_ms for a, b in zip(ts, ts[1:]))
        assert s.k_items == len({e.item_id for e in s.events})
    per_user = {}
    for s in sessions:
        per_user.setdefault(s.user_hash, []).append(s)
    for runs in per_user.values():
        runs.sort(key=lambda s: s.start_ms)
        assert all(b.start_ms - a.end_ms > gap_ms for a, b in zip(runs, runs[1:]))


@given(_event_lists)
def test_sessionize_is_deterministic(raw):
    events = [LogEvent(t, u, i) for t, u, i in raw]
    assert sessionize(events, 30) == sessionize(list(events), 30)


# --- LogEvent contract ---------------------------------------------------------


def test_log_event_public_contract():
    ev = LogEvent(5, "u1", "a1")
    assert ev == LogEvent(ts_ms=5, user_hash="u1", item_id="a1", source_tag=None)
    assert (ev.ts_ms, ev.user_hash, ev.item_id, ev.source_tag) == (5, "u1", "a1", None)
    # the ingest stages read fields by position
    assert tuple(ev) == (5, "u1", "a1", None)
    assert LogEvent(5, "u1", "a1", "bot").source_tag == "bot"
    with pytest.raises(AttributeError):
        ev.ts_ms = 6
    with pytest.raises(AttributeError):
        ev.extra = 1
    assert hash(ev) == hash(LogEvent(5, "u1", "a1", None))
    assert len({ev, LogEvent(5, "u1", "a1"), LogEvent(5, "u1", "a2")}) == 2


# --- invalid UTF-8 -------------------------------------------------------------


@pytest.mark.parametrize("fmt, good", [
    ("a", "2021-03-01T10:00:00Z,u1,a1\n"),
    ("b", '{"ts": 0, "user": "u1", "item": "a1"}\n'),
])
def test_lone_surrogate_line_is_invalid_utf8(fmt, good):
    bad = good.replace("u1", "u\udcff")
    events, diags = parse_events([good, bad, good.replace("a1", "é")], fmt)
    assert len(events) == 2
    assert [str(d) for d in diags] == ["line 2: invalid UTF-8"]


@pytest.mark.parametrize("field", ["user", "item"])
@pytest.mark.parametrize("text", ["\\ud800", "x\\udfff", "\\udc80\\ud800", "é\\ud800"])
def test_escaped_lone_surrogate_is_a_diagnostic(field, text):
    good = '{"ts": 0, "user": "u1", "item": "a1"}\n'
    bad = good.replace({"user": "u1", "item": "a1"}[field], text)
    pair = good.replace("u1", "\\ud83d\\ude00")  # an escaped pair is one valid character
    events, diags = parse_events([good, bad, pair], "b")
    assert list(events.groups) == ["u1", "\U0001f600"]
    assert [str(d) for d in diags] == ["line 2: user and item must be valid Unicode text"]


# --- filter_events against the uncached per-event oracle -----------------------


def oracle_filter_events(events, rules):
    """The filter before verdict caching: every pattern searched per event."""
    if not rules.agent_deny_patterns and rules.item_allow_pattern is None:
        return list(events)
    deny = [re.compile(p) for p in rules.agent_deny_patterns]
    allow = re.compile(rules.item_allow_pattern) if rules.item_allow_pattern is not None else None
    out = []
    for ev in events:
        if allow is not None and allow.search(ev.item_id) is None:
            continue
        if ev.source_tag is not None and any(d.search(ev.source_tag) for d in deny):
            continue
        out.append(ev)
    return out


_TAGS = st.one_of(
    st.none(),
    st.just(""),
    st.sampled_from(["Googlebot/2.1", "bingbot/2.0", "Baiduspider/2.0", "CCBot/2.0 crawler"]),
    st.sampled_from(["Mozilla/5.0 (X11) Firefox/115.0", "Safari/605.1.15", "app"]),
    st.text(max_size=6),
)
_ITEMS = st.one_of(
    st.sampled_from(["/articles/i000001", "/articles/i123456", "/static/app.js", "/favicon.ico"]),
    st.text(min_size=1, max_size=6),
)
_PATTERNS = st.sampled_from(
    ["bot", "[Ss]pider", "[Cc]rawl", "^$", ".*", "^Moz", "x?", "^/articles/i[0-9]{6}$", r"\.js$", "i"]
)


@given(
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["u1", "u2"]), _ITEMS, _TAGS),
             max_size=60),
    st.lists(_PATTERNS, max_size=3),
    st.one_of(st.none(), _PATTERNS),
)
def test_filter_matches_uncached_oracle(raw, deny, allow):
    events = [LogEvent(*row) for row in raw]
    rules = FilterRules(tuple(deny), allow)
    kept = filter_events(event_groups(events), rules)
    expected = by_user(oracle_filter_events(events, rules))
    assert group_events(kept) == expected
    # the same events in the same order, not merely equal values: every kept
    # item and tag is the very object of the oracle's event
    for user, (_, items, tags) in kept.groups.items():
        assert [id(x) for x in items] == [id(e.item_id) for e in expected[user]]
        assert [id(x) for x in tags] == [id(e.source_tag) for e in expected[user][: len(tags)]]


def test_filter_searches_each_distinct_string_once(monkeypatch):
    calls = []

    class SpyPattern:
        def __init__(self, pattern):
            self.pattern = pattern
            self._compiled = re.compile(pattern)

        def search(self, text):
            calls.append((self.pattern, text))
            return self._compiled.search(text)

    monkeypatch.setattr(
        events_module, "re", types.SimpleNamespace(compile=SpyPattern, error=re.error)
    )
    rules = FilterRules(("bot", "spider"), "^/a/")
    events = [
        LogEvent(t, "u1", item, tag)
        for t in range(50)
        for item, tag in [("/a/1", "human"), ("/a/2", "Googlebot"), ("/x", "human"),
                          ("/a/1", None), ("/a/2", "spider"), ("/a/1", "")]
    ]
    kept = filter_events(event_groups(events), rules)
    assert group_events(kept) == by_user(
        oracle_filter_events(events, FilterRules(("bot", "spider"), "^/a/"))
    )
    assert len(calls) == len(set(calls))
    items = {text for pat, text in calls if pat == "^/a/"}
    assert items == {"/a/1", "/a/2", "/x"}
    tags = [(pat, text) for pat, text in calls if pat != "^/a/"]
    # "human" passes both patterns; "Googlebot" stops at "bot"; None is never searched
    assert sorted(tags) == sorted([
        ("bot", "human"), ("spider", "human"), ("bot", "Googlebot"),
        ("bot", "spider"), ("spider", "spider"), ("bot", ""), ("spider", ""),
    ])


# --- _parse_records against the isinstance-based oracle ------------------------


def oracle_parse_records(lines):
    """Format-b parsing before the exact-type rewrite, with both UTF-8 checks."""

    def utf8(text):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True

    events, diags = [], []
    for line_no, raw in enumerate(lines, 1):
        if not utf8(raw):
            diags.append(ParseDiagnostic(line_no, "invalid UTF-8"))
            continue
        line = raw.strip()
        if not line:
            diags.append(ParseDiagnostic(line_no, "empty line"))
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            diags.append(ParseDiagnostic(line_no, f"invalid record: {exc.msg}"))
            continue
        except ValueError:
            diags.append(ParseDiagnostic(line_no, "invalid record: integer too long"))
            continue
        except RecursionError:
            diags.append(ParseDiagnostic(line_no, "invalid record: nested too deeply"))
            continue
        if not isinstance(rec, dict):
            diags.append(ParseDiagnostic(line_no, "record is not an object"))
            continue
        missing = [k for k in ("ts", "user", "item") if k not in rec]
        if missing:
            diags.append(ParseDiagnostic(line_no, f"missing key {missing[0]!r}"))
            continue
        ts_val = rec["ts"]
        if isinstance(ts_val, bool):
            diags.append(ParseDiagnostic(line_no, "ts must be ISO-8601 text or epoch milliseconds"))
            continue
        if isinstance(ts_val, int):
            if not TS_MIN_MS <= ts_val <= TS_MAX_MS:
                diags.append(ParseDiagnostic(line_no, "ts outside the signed 64-bit range"))
                continue
            ts = ts_val
        elif isinstance(ts_val, str):
            try:
                ts = parse_timestamp_ms(ts_val)
            except ValueError:
                diags.append(ParseDiagnostic(line_no, f"bad timestamp {ts_val!r}"))
                continue
        else:
            diags.append(ParseDiagnostic(line_no, "ts must be ISO-8601 text or epoch milliseconds"))
            continue
        user, item = rec["user"], rec["item"]
        if not isinstance(user, str) or not isinstance(item, str) or not user or not item:
            diags.append(ParseDiagnostic(line_no, "user and item must be non-empty text"))
            continue
        if not utf8(user) or not utf8(item):
            diags.append(ParseDiagnostic(line_no, "user and item must be valid Unicode text"))
            continue
        tag = rec.get("agent")
        if tag is not None and not isinstance(tag, str):
            diags.append(ParseDiagnostic(line_no, "agent must be text"))
            continue
        events.append(LogEvent(ts, sys.intern(user), sys.intern(item), sys.intern(tag) if tag else None))
    return events, diags


_TS_VALUES = st.one_of(
    st.integers(-(10**15), 10**15),
    # the edges of array('q'), which holds the parsed timestamps
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["2021-03-01T10:00:00Z", "2021-03-01 10:00:00.5", "2021-03-01T10:00:00+02:00",
                     "2021-13-01T00:00:00Z", "yesterday", ""]),
    st.none(),
    st.just([1]),
)
_TEXT_VALUES = st.one_of(
    st.sampled_from(["u1", "/articles/i000001", "é", "bot", "\ud800", "é\udfff"]), st.text(max_size=4)
)
_FIELD_VALUES = st.one_of(
    _TEXT_VALUES, _TEXT_VALUES, st.integers(), st.none(), st.booleans(), st.just({})
)
_RECORDS = st.one_of(
    # any subset of the keys
    st.fixed_dictionaries(
        {},
        optional={"ts": _TS_VALUES, "user": _FIELD_VALUES, "item": _FIELD_VALUES,
                  "agent": _FIELD_VALUES, "extra": st.integers()},
    ),
    # every required key, so that the later checks are reached
    st.fixed_dictionaries(
        {"ts": _TS_VALUES, "user": _FIELD_VALUES, "item": _FIELD_VALUES},
        optional={"agent": _FIELD_VALUES},
    ),
    # valid up to the agent check
    st.fixed_dictionaries(
        {"ts": st.one_of(st.integers(0, 2 * 10**12), st.just("2021-03-01T10:00:00Z")),
         "user": _TEXT_VALUES.filter(bool), "item": _TEXT_VALUES.filter(bool)},
        optional={"agent": st.one_of(st.sampled_from(["", "Googlebot"]), _FIELD_VALUES)},
    ),
)
_RECORD_LINES = st.one_of(
    _RECORDS.map(json.dumps),
    _RECORDS.map(lambda r: json.dumps(r, ensure_ascii=False)),
    st.tuples(_RECORDS.map(json.dumps), st.integers(0, 60)).map(lambda p: p[0][: p[1]]),
    st.sampled_from(["", "   ", "[1, 2]", "3", '"x"', "null", "true", "{not json}",
                     '{"ts": 0} {}', "\ufeff{}", '{"ts": 0, "ts": 1}',
                     # far past the recursion limit
                     "[" * 100_000,
                     # JSON whitespace, then more data
                     "{} \t x", '{"ts": 0, "user": "u", "item": "i"}\t\r 1',
                     # a BOM that str.strip does not remove
                     " \ufeff{}",
                     # ts values that json takes but the parser must refuse
                     '{"ts": NaN, "user": "u", "item": "i"}',
                     '{"ts": Infinity, "user": "u", "item": "i"}',
                     '{"ts": -Infinity, "user": "u", "item": "i"}',
                     # an integer too long for int(), then more data
                     "[" + "1" * 5000 + "] x", "1" * 5000 + " {}"]),
    # whitespace that str.strip removes but JSON does not allow
    st.tuples(
        st.sampled_from(["\x0c", "\x1f", "\xa0", "\u2028", "\u3000"]),
        st.sampled_from(['{"ts": 0, "user": "u", "item": "i"}', "{}", "[1]"]),
        st.sampled_from(["\x0c", "\x1f", "\xa0", "\u2028", "\u3000", ""]),
    ).map("".join),
    st.text(max_size=8),
).map(lambda s: s + "\n")


@given(st.lists(_RECORD_LINES, max_size=25))
def test_parse_records_matches_oracle(lines):
    table, diags = parse_events(lines, "b")
    want_events, want_diags = oracle_parse_records(lines)
    want = by_user(want_events)
    assert group_events(table) == want
    assert [str(d) for d in diags] == [str(d) for d in want_diags]
    # equal agents are one object, as items are
    for user, (_, items, tags) in table.groups.items():
        assert [id(i) for i in items] == [id(e.item_id) for e in want[user]]
        assert [id(t) for t in tags] == [id(e.source_tag) for e in want[user][: len(tags)]]


def test_deeply_nested_record_is_a_diagnostic():
    lines = ["[" * 100_000 + "\n", "[" * 1000 + "]" * 1000 + "\n", '{"a": ' * 1000 + "\n",
             '{"ts": 0, "user": "u1", "item": "a1"}\n']
    table, diags = parse_events(lines, "b")
    assert group_events(table) == {"u1": [LogEvent(0, "u1", "a1")]}
    assert [str(d) for d in diags] == [
        f"line {n}: invalid record: nested too deeply" for n in (1, 2, 3)
    ]


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def _deeper(n, call):
    return call() if n == 0 else _deeper(n - 1, call)


def _nested_lines(depth):
    """A valid record and an array, each nested depth levels deep; brackets
    inside a string do not count."""
    inner = "[" * (depth - 1) + "]" * (depth - 1)
    return [f'{{"ts": 0, "user": "u1", "item": "a1", "x": {inner}, "s": "{{[[["}}\n',
            "[" * depth + "]" * depth + "\n"]


@pytest.mark.parametrize("depth", [
    MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 2 * MAX_NESTING, 985, 990,
])
def test_nesting_cap_depends_on_the_line_alone(depth):
    lines = _nested_lines(depth)
    shallow = parse_events(lines, "b")
    # Leave the stack just enough room for the cap.
    room = sys.getrecursionlimit() - _frames() - MAX_NESTING - 25
    assert room > 500
    deep = _deeper(room, lambda: parse_events(lines, "b"))
    assert deep == shallow
    events, diags = shallow
    if depth <= MAX_NESTING:
        assert group_events(events) == {"u1": [LogEvent(0, "u1", "a1")]}
        assert [str(d) for d in diags] == ["line 2: record is not an object"]
    else:
        assert group_events(events) == {}
        assert [str(d) for d in diags] == [
            f"line {n}: invalid record: nested too deeply" for n in (1, 2)
        ]


@pytest.mark.parametrize("text, depth", [
    ("[]", 1), ("[[1], {}]", 2), ('{"a": "[[["}', 1), ('["\\"[", []]', 2),
    ('["[[[', 1), ("[[[[", 4), ("x", 0), ("[[]][]", 2),
])
def test_nesting_skips_strings(text, depth):
    assert events_module._nesting(text) == depth


def test_int_ts_outside_int64_is_a_diagnostic():
    lines = [f'{{"ts": {ts}, "user": "u1", "item": "a1"}}\n'
             for ts in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**40)]
    # json.loads refuses integers of more than 4,300 digits with a ValueError
    # that is not a JSONDecodeError.
    lines += ['{"ts": 1' + "0" * 5000 + ', "user": "u1", "item": "a1"}\n',
              '{"ts": 0, "user": "u1", "item": "a1", "n": ' + "9" * 4301 + "}\n"]
    table, diags = parse_events(lines, "b")
    assert list(table.groups["u1"][0]) == [2**63 - 1, -(2**63)]
    assert [str(d) for d in diags] == [
        f"line {n}: ts outside the signed 64-bit range" for n in (2, 4, 5)
    ] + ["line 6: invalid record: integer too long", "line 7: invalid record: integer too long"]


@pytest.mark.parametrize("fmt, line", [
    ("a", "2021-03-01T10:00:0{i}Z,u{i},a{i},Mozilla/5.0 (X11) Firefox/115.0\n"),
    ("b", '{{"ts": {i}, "user": "u{i}", "item": "a{i}", "agent": "Mozilla/5.0 (X11) Firefox/115.0"}}\n'),
])
def test_equal_agents_are_one_object(fmt, line):
    table, diags = parse_events([line.format(i=i) for i in range(3)], fmt)
    assert diags == []
    tags = [tag for _, _, user_tags in table.groups.values() for tag in user_tags]
    assert len(tags) == 3 and tags[0] == "Mozilla/5.0 (X11) Firefox/115.0"
    assert all(tag is tags[0] for tag in tags)


def test_parse_records_keeps_few_bytes_per_event():
    n = 20_000
    agents = ["Mozilla/5.0 (X11; Linux x86_64) Firefox/115.0", "Safari/605.1.15 (Macintosh)", "app/2.1"]
    lines = [
        f'{{"ts": {1_600_000_000_000 + 1000 * i}, "user": "user{i % 50:04d}", '
        f'"item": "/articles/i{i % 500:06d}", "agent": "{agents[i % 3]}"}}\n'
        for i in range(n)
    ]
    tracemalloc.start()
    try:
        table, diags = parse_events(lines, "b")
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(table), diags) == (n, [])
    # One agent string per line and a list of int timestamps kept about 144
    # bytes per event here.
    assert kept / n < 60


# --- sessionize_summaries against the LogEvent sessionizer ----------------------


@given(_event_lists, _GAPS, st.sampled_from(COUNT_POLICIES))
def test_sessionize_summaries_match_sessionize(raw, gap_s, policy):
    events = [LogEvent(t, u, i) for t, u, i in raw]
    sessions = sessionize(events, gap_s, count_policy=policy)
    assert [s.session_id for s in sessions] == list(range(len(sessions)))
    expected = SessionTable(
        [s.user_hash for s in sessions],
        array("q", [s.start_ms for s in sessions]),
        array("q", [s.end_ms for s in sessions]),
        [s.k_items for s in sessions],
    )
    assert sessionize_summaries(event_groups(events), gap_s, policy) == expected


def _check_against_oracle(events, gap_s=1800):
    for policy in COUNT_POLICIES:
        want = [(s.session_id, s.user_hash, s.start_ms, s.end_ms, s.k_items)
                for s in sessionize(events, gap_s, count_policy=policy)]
        assert table_rows(sessionize_summaries(event_groups(events), gap_s, policy)) == want


def test_sessionize_summaries_time_ordered_log():
    # Interleaved users, already ascending: no user needs a sort.
    times = [*range(0, 6_000, 300), *range(10_000, 12_000, 300)]
    events = make_events([(t, f"u{t // 300 % 3}", f"i{t % 7}") for t in times])
    _check_against_oracle(events)
    # Each user has a request every 900 s within a burst, and two bursts.
    assert len(sessionize_summaries(event_groups(events), 1800)) == 6


def test_sessionize_summaries_one_user_out_of_order():
    events = make_events([
        (0, "u1", "a"), (10, "u2", "b"), (5000, "u1", "c"), (20, "u2", "d"),
        (9000, "u1", "e"), (15, "u2", "b"), (4990, "u2", "f"), (4000, "u3", "a"),
    ])
    _check_against_oracle(events)
    # Only u2 is out of order (20 s before 15 s); its first session is
    # items b, d, b.
    assert table_rows(sessionize_summaries(event_groups(events), 1800)) == [
        (0, "u1", 0, 0, 1), (1, "u2", 10_000, 20_000, 2), (2, "u3", 4_000_000, 4_000_000, 1),
        (3, "u2", 4_990_000, 4_990_000, 1), (4, "u1", 5_000_000, 5_000_000, 1),
        (5, "u1", 9_000_000, 9_000_000, 1),
    ]


def test_sessionize_summaries_equal_timestamps():
    events = make_events([
        (0, "u1", "b"), (0, "u1", "a"), (0, "u1", "b"), (0, "u2", "a"),
        (100, "u2", "c"), (100, "u2", "c"), (0, "u3", "z"),
    ])
    _check_against_oracle(events)
    table = sessionize_summaries(event_groups(events), 1800)
    # Equal starts are ordered by user.
    assert table_rows(table) == [
        (0, "u1", 0, 0, 2), (1, "u2", 0, 100_000, 2), (2, "u3", 0, 0, 1)
    ]


def test_sessionize_summaries_int64_extremes():
    lo, hi = -(2**63), 2**63 - 1
    events = [LogEvent(t, u, i) for t, u, i in [
        (hi, "u1", "a"), (lo, "u2", "b"), (0, "u1", "c"), (lo + 5, "u2", "c"),
        (hi - 10, "u1", "d"), (lo, "u3", "a"), (-1, "u3", "b"),
    ]]
    _check_against_oracle(events)
    assert list(sessionize_summaries(event_groups(events), 1800).start_ms) == [lo, lo, -1, 0, hi - 10]


# --- any bytes in, diagnostics out -----------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["ts", "user", "item", "agent"]) | st.text(max_size=3), inner, max_size=5),
    max_leaves=10,
)
_FIELD_BYTES = st.sampled_from([
    b"2021-03-01T10:00:00Z", b"1614556800000", b"-9223372036854775809", b"u1", b"/i1",
    b"", b" ", b"\xff", b"\xe2\x80", b"\xed\xa0\x80", b"\x00", b'"', b"{", b"[",
]) | st.binary(max_size=6)
_LINE_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(lambda v, ascii_only: json.dumps(v, ensure_ascii=ascii_only).encode("utf-8", "surrogatepass"),
              _JSON_VALUES, st.booleans()),
    st.lists(_FIELD_BYTES, max_size=5).map(b",".join),
)
_LOG_BYTES = st.lists(
    st.tuples(_LINE_BYTES, st.sampled_from([b"\n", b"\r\n", b"\r", b""])), max_size=8
).map(lambda lines: b"".join(line + end for line, end in lines))


@pytest.mark.parametrize("fmt", ["a", "b"])
def test_any_bytes_parse_to_events_and_diagnostics(tmp_path_factory, fmt):
    @given(_LOG_BYTES)
    def check(data):
        path = tmp_path_factory.mktemp("log") / "log"
        path.write_bytes(data)
        sink = io.StringIO()
        events, parsed, malformed = parse_log_files([path], fmt, sink)
        # The file's lines as parse_log_files reads them.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lines = sum(1 for _ in fh)
        assert parsed == lines == len(events) + malformed
        diagnostics = sink.getvalue().splitlines()
        assert len(diagnostics) == malformed
        assert all(re.fullmatch(r"line [1-9][0-9]*: .+", d) for d in diagnostics)
        for user, (ts, items, _) in events.groups.items():
            assert user and all(items)
            assert all(TS_MIN_MS <= t <= TS_MAX_MS for t in ts)

    check()


# --- log files in segments -------------------------------------------------------

_A_TIMESTAMPS = st.sampled_from([
    "2021-03-01T10:00:00", "2021-03-01T10:00:00Z", "2021-03-01T10:00:00+05:30",
    "2021-03-01T10:00:00-08:00", "2021-03-01T10:00:00.5Z", "2021-03-01T10:00:00.1234567",
    "2021-03-01 10:00:00", "20210301T100000Z", "2021-W09-1T10:00:00", "2021-W091",
    "2021-13-01T00:00:00", "10:00", "",
])
# \x0c and \u2028 end a line for str.splitlines, but not for a file.
_A_FIELDS = st.sampled_from(["u1", "u2", "/i1", "/i2", "é", "x\udcff", "\ud800", "a\x0cb", "\u2028", ""])
_A_LINES = st.one_of(
    st.builds("{},{},{}".format, _A_TIMESTAMPS, _A_FIELDS, _A_FIELDS),
    st.builds("{},{},{}".format, _A_TIMESTAMPS, st.sampled_from(["u1", "u2"]), st.sampled_from(["/i1", "/i2"])),
    st.builds("{},{},{},{}".format, _A_TIMESTAMPS, _A_FIELDS, _A_FIELDS, st.sampled_from(["bot", "Mozilla", ""])),
    st.lists(_A_FIELDS, min_size=0, max_size=5).map(",".join),
)
# A format-b line longer than the default segment, and one that nests one
# level past the cap.
_LONG_RECORD = json.dumps({"ts": 0, "user": "u1", "item": "/" + "x" * 3000, "agent": "bot"})
_NESTED_RECORD = '{"ts": 0, "user": "u1", "item": "i", "x": ' + "[" * MAX_NESTING + "]" * MAX_NESTING + "}"
_B_LINES = st.one_of(
    _RECORD_LINES.map(lambda line: line.removesuffix("\n")),
    # valid records of two users, tagged or not
    st.builds(
        lambda user, item, agent: json.dumps({"ts": 0, "user": user, "item": item, "agent": agent}),
        st.sampled_from(["u1", "u2"]), st.sampled_from(["/i1", "/i2"]),
        st.sampled_from([None, "", "bot", "Mozilla"]),
    ),
    st.sampled_from([_LONG_RECORD, _NESTED_RECORD]),
)


def _log_lines(lines):
    """Lines as an iterable yields them: each but the last ends in LF, CRLF
    or a lone CR, and the last may be unterminated."""
    return st.tuples(
        st.lists(st.tuples(lines, st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])), max_size=12),
        st.sampled_from(["", "\n"]),
        lines,
    ).map(lambda t: [line + end for line, end in t[0]] + ([t[2] + t[1]] if t[1] or t[2] else []))


_A_LOG_LINES = _log_lines(_A_LINES)
_LOG_LINES = {"a": _A_LOG_LINES, "b": _log_lines(_B_LINES)}


@pytest.fixture(params=[1, 2, 3, None], ids=["seg1", "seg2", "seg3", "default"])
def segment(request):
    """parse_log_text's segment size, in characters, patched to the
    parameter; None keeps the default."""
    if request.param is None:
        yield
        return
    with mock.patch.object(events_module, "_SEGMENT_CHARS", request.param):
        yield


def test_parse_events_matches_per_line_parser():
    @given(_A_LOG_LINES, st.data())
    def check(lines, data):
        assert parse_events(lines) == oracle_parse_events(lines)
        # The same text cut into pieces that are not its lines.
        text = "".join(lines)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=6)))
        pieces = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        assert parse_events(pieces) == oracle_parse_events(pieces)

    check()


def _comma_texts(width):
    """Texts of a, comma, LF and CR: any such text, or lines of width - 1 to
    2 * width fields, most of width - 1, width or width + 1 fields, so that
    both answers of comma_columns are drawn often."""
    fields = st.sampled_from(["", "a", "aa"])
    rows = st.one_of(
        st.lists(fields, min_size=width, max_size=width),
        st.lists(fields, min_size=width - 1, max_size=width + 1),
        st.lists(fields, min_size=width - 1, max_size=2 * width),
    )
    lines = st.lists(st.tuples(rows.map(",".join), st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])),
                     min_size=1, max_size=6).map(lambda ls: "".join(map("".join, ls)))
    return st.one_of(
        st.text(st.sampled_from("a,\n\r"), max_size=40),
        lines,
        lines.map(lambda text: text.removesuffix("\n")),  # the last line unterminated
    )


@pytest.mark.parametrize("width", [3, 5])
def test_comma_columns_are_csv_rows_transposed(width):
    @settings(max_examples=400)
    @given(_comma_texts(width))
    def check(text):
        # Without a quote, csv splits only at commas and line ends. An empty
        # text holds no line, and comma_columns refuses it.
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if rows and "\r" not in text and all(len(row) == width for row in rows):
            assert comma_columns(text, width) == [list(col) for col in zip(*rows)]
        else:
            assert comma_columns(text, width) is None

    check()


def _check_parse_log_files(path, text, fmt):
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        want, diags = oracle_parse_events(fh, fmt)
    sink = io.StringIO()
    got = parse_log_files([path], fmt, sink)
    assert got == (want, len(want) + len(diags), len(diags))
    assert sink.getvalue() == "".join(f"{d}\n" for d in diags)
    # Each item and tag is the interned copy of the oracle's text.
    for (_, items, tags), (_, want_items, want_tags) in zip(got[0].groups.values(), want.groups.values()):
        assert [id(x) for x in items] == [id(sys.intern(x)) for x in want_items]
        assert [id(x) for x in tags] == [id(x and sys.intern(x)) for x in want_tags]


@pytest.mark.parametrize("fmt", ["a", "b"])
def test_parse_log_files_segments_match_per_line_parser(tmp_path_factory, segment, fmt):
    @given(_LOG_LINES[fmt])
    def check(lines):
        _check_parse_log_files(tmp_path_factory.mktemp("log") / "log", "".join(lines), fmt)

    check()


# The format-b records of the uneven-lines cases.
_B1, _B2, _B3 = ('{"ts": %d, "user": "u%d", "item": "%s"}' % r for r in [(0, 1, "a"), (1, 2, "b"), (2, 1, "c")])


@pytest.mark.parametrize("fmt, text", [("a", text) for text in [
    # Two commas per line on average, but not on every line.
    "2021-03-01T10:00:00,u1,a,bot\n2021-03-01T10:00:01,u1\n",
    "2021-03-01T10:00:00,u1\n2021-03-01T10:00:01,u1,b,bot\n2021-03-01T10:00:02,u2,c\n",
    "2021-03-01T10:00:00,u1,a,b,c\n\n2021-03-01T10:00:02,u2,c\n",
    "2021-03-01T10:00:00,u1,a\n2021-03-01T10:00:01,u1,b,bot\n2021-03-01T10:00:02,u2\n",
    # Two lines' fields on one line, whose LF falls in an item field.
    "2021-03-01T10:00:00,u1,a,2021-03-01T10:00:01,u2,b\n",
    "2021-03-01T10:00:00,u1,a\n2021-03-01T10:00:01,u1,b,2021-03-01T10:00:02,u2,c\n",
    # Valid three-field lines, then a tagged one.
    "2021-03-01T10:00:00,u1,a\n2021-03-01T10:00:01,u1,b\n2021-03-01T10:00:02,u1,c,bot",
]] + [
    # Lines ended by LF, CRLF and a lone CR, one of them empty, the last unterminated.
    pytest.param("b", f"{_B1}\n{_LONG_RECORD}\r\n\r{_B2}\r{_B3}", id="b-ends"),
    # A line longer than a segment, and one nested past the cap.
    pytest.param("b", f"{_B1}\n{_LONG_RECORD}\n{_B2}\n", id="b-long"),
    pytest.param("b", f"{_NESTED_RECORD}\r\n{_B1}\r\n{_NESTED_RECORD}", id="b-nested"),
])
def test_parse_log_files_reads_uneven_lines(tmp_path, segment, fmt, text):
    _check_parse_log_files(tmp_path / "log", text, fmt)


@pytest.mark.parametrize("lines", [
    # Joined, these are two valid lines; as given, neither is.
    ["a,b", ",c\nd,e,f\n"],
    ["2021-03-01T10:00:00,u1,a", ",b\n2021-03-01T10:00:00,u2,c\n"],
    # One element holding two valid lines is one line of five fields.
    ["2021-03-01T10:00:00,u1,a\n2021-03-01T10:00:01,u1,b\n"],
    # An element without its LF runs into the next.
    ["2021-03-01T10:00:00,u1,a", "2021-03-01T10:00:01,u1,b\n"],
    ["2021-03-01T10:00:00,u1,a\n", "", "2021-03-01T10:00:01,u1,b"],
    ["2021-03-01T10:00:00,u1,a\n\n", "2021-03-01T10:00:01,u1,b\n"],
])
def test_parse_events_reads_the_lines_it_is_given(lines):
    assert parse_events(lines) == oracle_parse_events(lines)


@pytest.mark.parametrize("terminated", [True, False])
def test_clean_corpus_never_reaches_line_parser(tmp_path, segment, terminated):
    path = tmp_path / "log.csv"
    write_log(SynthProfile(n_users=7, sessions_per_block=40, n_blocks=3, seed=4), path)
    if not terminated:
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
    with open(path, encoding="utf-8") as fh:
        want, diags = oracle_parse_events(fh)
    assert not diags
    with mock.patch.object(events_module, "_delimited_event", side_effect=AssertionError("_delimited_event")):
        assert parse_log_files([path], "a", io.StringIO()) == (want, len(want), 0)
