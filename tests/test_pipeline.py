import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    by_user,
    event_groups,
    group_events,
    make_events,
    oracle_read_sessions_csv,
    oracle_write_classifications_csv,
    oracle_write_communities_csv,
    oracle_write_metrics_csv,
    oracle_write_routes_csv,
    oracle_write_sessions_csv,
    oracle_write_transitions_csv,
    sessionize,
    table_rows,
)
from logcompass import pipeline
from logcompass.blocks import BlockMetrics
from logcompass.errors import ConfigError, InputError
from logcompass.events import COUNT_POLICIES, EventGroups, FilterRules, LogEvent
from logcompass.pipeline import (
    ARTIFACT_FILES,
    GRAPH_FILES,
    PipelineConfig,
    SessionTable,
    classify_series,
    metrics_from_summaries,
    parse_log_files,
    read_classifications_csv,
    read_communities_count,
    read_metrics_csv,
    read_routes_csv,
    read_sessions_csv,
    read_transitions_csv,
    report_stats,
    routes_from_classifications,
    run_pipeline,
    sessionize_summaries,
    write_classifications_csv,
    write_communities_csv,
    write_metrics_csv,
    write_routes_csv,
    write_sessions_csv,
    write_transitions_csv,
)
from logcompass.routes import CognitiveCommunity, SearchRoute, TransitionGraph
from logcompass.synth import EVENT_SPACING_S, SynthProfile, generate_sessions, write_log
from logcompass.taxonomy import (
    ADMISSIBLE_NODES,
    BlockClassification,
    Stability,
    Tendency,
    Triplet,
)
from logcompass.timeutil import format_timestamp_s


_TRIPLET = Triplet(Tendency.MID, Tendency.MID, Stability.STABLE)
# The sessions.csv columns that read_sessions_csv keeps.
_COLUMNS = ("k_items", "user_hash")


def _read_table(path: Path) -> SessionTable:
    """A sessions.csv file as a SessionTable: user_hash and k_items read by
    read_sessions_csv, start_ms and end_ms by the row-object oracle."""
    rows = oracle_read_sessions_csv(path)
    return SessionTable(
        read_sessions_csv(path, "user_hash"),
        array("q", [s.start_ms for s in rows]),
        array("q", [s.end_ms for s in rows]),
        read_sessions_csv(path, "k_items"),
    )


@pytest.fixture()
def corpus(tmp_path):
    log = tmp_path / "log.csv"
    write_log(SynthProfile(n_users=8, sessions_per_block=40, n_blocks=5, seed=12), log)
    return log


def run(tmp_path, corpus, **overrides):
    params = {"block_size": 40, **overrides}
    cfg = PipelineConfig(inputs=(corpus,), out_dir=tmp_path / "out", **params)
    report = run_pipeline(cfg, diagnostics=io.StringIO())
    return cfg, report


def test_run_writes_all_artifacts(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus)
    for name in ARTIFACT_FILES.values():
        assert (cfg.out_dir / name).exists(), name
    for name in GRAPH_FILES.values():
        assert (cfg.out_dir / name).exists(), name
    assert report["sessions"]["total"] == 200
    assert report["blocks"] == {"total": 5, "classified": 4, "block_size": 40}
    assert report["sessions"]["classified"] == 160  # first block stays untyped
    assert report["route_count"] == 1
    assert report["community_count"] == 1


def test_report_shares_sum_to_hundred(tmp_path, corpus):
    _, report = run(tmp_path, corpus)
    total = sum(t["share_pct"] for t in report["types"].values())
    assert total == pytest.approx(100.0, abs=0.1)


def test_report_matches_independent_recount(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus)
    k_items = read_sessions_csv(cfg.out_dir / ARTIFACT_FILES["sessions"], "k_items")
    classifications = read_classifications_csv(
        cfg.out_dir / ARTIFACT_FILES["classifications"]
    )
    label_of_block = {c.block_index: c.node.label for c in classifications}
    counts = dict.fromkeys("abcdef", 0)
    for session_id in range(len(k_items)):
        label = label_of_block.get(session_id // cfg.block_size)
        if label is not None:
            counts[label] += 1
    for label in "abcdef":
        assert report["types"][label]["sessions"] == counts[label]


@pytest.mark.parametrize("setting, message", [
    # The CLI's choices keep these values from its flags.
    ({"log_format": "c"}, "unknown log format 'c'"),
    ({"count_policy": "weird"}, "unknown count policy 'weird'"),
    ({"grouping": "query"}, "unknown grouping 'query'"),
    ({"export_formats": ("dot", "svg")}, "unknown graph format 'svg'"),
])
def test_config_refuses_unknown_names(setting, message):
    with pytest.raises(ConfigError) as got:
        PipelineConfig(**setting)
    assert str(got.value) == message


def test_config_is_frozen():
    # Validated once when built, a config cannot be changed into one that a
    # stage refuses mid-run.
    cfg = PipelineConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.grouping = "query"


def test_empty_input_leaves_no_artifacts(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    cfg = PipelineConfig(inputs=(empty,), out_dir=out, block_size=10)
    with pytest.raises(InputError, match="no sessions"):
        run_pipeline(cfg, diagnostics=io.StringIO())
    assert not any(out.iterdir())


def test_malformed_lines_reported_and_counted(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(
        "2021-03-01T00:00:00Z,u1,a1\nbroken\n2021-03-01T00:00:30Z,u1,a2\n",
        encoding="utf-8",
    )
    sink = io.StringIO()
    cfg = PipelineConfig(inputs=(log,), out_dir=tmp_path / "out", block_size=10)
    report = run_pipeline(cfg, sink)
    assert report["events"] == {"parsed": 3, "kept": 2, "malformed": 1}
    assert sink.getvalue() == "line 2: expected 3 or 4 fields, got 1\n"


def test_filter_rules_flow_through(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(
        "2021-03-01T00:00:00Z,u1,a1,bot-x\n2021-03-01T00:00:30Z,u2,a2\n",
        encoding="utf-8",
    )
    cfg = PipelineConfig(
        inputs=(log,),
        out_dir=tmp_path / "out",
        block_size=10,
        filter_rules=FilterRules(agent_deny_patterns=("bot",)),
    )
    report = run_pipeline(cfg, io.StringIO())
    assert report["events"]["kept"] == 1
    assert report["sessions"]["total"] == 1


def test_stage_isolation_reproduces_run_artifacts(tmp_path, corpus):
    cfg, _ = run(tmp_path, corpus)
    stage_dir = tmp_path / "stages"
    stage_dir.mkdir()

    sessions = _read_table(cfg.out_dir / ARTIFACT_FILES["sessions"])
    write_sessions_csv(sessions, stage_dir / ARTIFACT_FILES["sessions"])

    metrics = metrics_from_summaries(sessions.k_items, cfg.block_size)
    write_metrics_csv(metrics, stage_dir / ARTIFACT_FILES["metrics"])

    classifications = classify_series(read_metrics_csv(stage_dir / ARTIFACT_FILES["metrics"]), cfg.classifier)
    write_classifications_csv(classifications, stage_dir / ARTIFACT_FILES["classifications"])

    routes, _ = routes_from_classifications(
        read_classifications_csv(stage_dir / ARTIFACT_FILES["classifications"]),
        sessions.user_hash,
        cfg.block_size,
        cfg.grouping,
    )
    write_routes_csv(routes, stage_dir / ARTIFACT_FILES["routes"])

    for name in ("sessions", "metrics", "classifications", "routes"):
        a = (cfg.out_dir / ARTIFACT_FILES[name]).read_bytes()
        b = (stage_dir / ARTIFACT_FILES[name]).read_bytes()
        assert a == b, name


def test_run_is_byte_deterministic(tmp_path, corpus):
    cfg1 = PipelineConfig(inputs=(corpus,), out_dir=tmp_path / "out1", block_size=40)
    cfg2 = PipelineConfig(inputs=(corpus,), out_dir=tmp_path / "out2", block_size=40)
    run_pipeline(cfg1, io.StringIO())
    run_pipeline(cfg2, io.StringIO())
    names = list(ARTIFACT_FILES.values()) + list(GRAPH_FILES.values())
    for name in names:
        assert (cfg1.out_dir / name).read_bytes() == (cfg2.out_dir / name).read_bytes(), name


def test_per_user_grouping_produces_user_routes(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus, grouping="user")
    routes = read_routes_csv(cfg.out_dir / ARTIFACT_FILES["routes"])
    assert report["route_count"] == len(routes) > 1
    users = read_sessions_csv(cfg.out_dir / ARTIFACT_FILES["sessions"], "user_hash")
    assert {r.owner for r in routes} <= set(users)


def test_infinite_linkage_puts_every_user_in_one_community(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus, grouping="user", linkage_threshold=math.inf)
    assert report["route_count"] > 1
    assert read_communities_count(cfg.out_dir / ARTIFACT_FILES["communities"]) == 1


def test_weighted_graph_export(tmp_path, corpus):
    cfg, _ = run(tmp_path, corpus, weight_edges_from_transitions=True)
    text = (cfg.out_dir / GRAPH_FILES["canonical"]).read_text(encoding="utf-8")
    weights = [float(l.split()[3]) for l in text.splitlines() if l.startswith("edge")]
    assert all(w >= 1.0 for w in weights)


def test_report_stats_missing_artifact(tmp_path):
    with pytest.raises(InputError, match="missing: metrics"):
        report_stats(tmp_path)


def test_report_stats_names_first_missing(tmp_path, corpus):
    cfg, _ = run(tmp_path, corpus)
    (cfg.out_dir / ARTIFACT_FILES["classifications"]).unlink()
    with pytest.raises(InputError, match="missing: classifications"):
        report_stats(cfg.out_dir)


def test_report_stats_table(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus)
    text = report_stats(cfg.out_dir)
    assert "blocks: 5 total, 4 classified" in text
    assert "sessions: 200 total, 160 classified" in text
    assert "routes: 1" in text
    assert "communities: 1" in text
    shown = [l for l in text.splitlines() if l and l[0] in "abcdef" and "%" in l]
    pct_sum = sum(float(l.split()[-1].rstrip("%")) for l in shown)
    assert pct_sum == pytest.approx(100.0, abs=0.1)


def test_report_stats_tie_goes_to_the_smaller_label(tmp_path):
    metrics = [BlockMetrics(0, 5, 1.0, 1.0, 1, 1, 1, 1)] + [
        BlockMetrics(b, 4, 1.0, 1.0, 1, 1, 1, 1, 1.0, 1.0, 1.0) for b in (1, 2)
    ]
    write_metrics_csv(metrics, tmp_path / ARTIFACT_FILES["metrics"])
    # d comes first in the blocks; b and d tie on 4 sessions each.
    nodes = {n.label: n for n in ADMISSIBLE_NODES}
    write_classifications_csv(
        [BlockClassification(1, _TRIPLET, nodes["d"], 0.0), BlockClassification(2, _TRIPLET, nodes["b"], 0.0)],
        tmp_path / ARTIFACT_FILES["classifications"],
    )
    write_routes_csv([], tmp_path / ARTIFACT_FILES["routes"])
    write_communities_csv([], tmp_path / ARTIFACT_FILES["communities"])
    assert report_stats(tmp_path) == (
        "blocks: 3 total, 2 classified\n"
        "sessions: 13 total, 8 classified\n"
        "type  sessions  share\n"
        "a             0   0.00%\n"
        "b             4  50.00%\n"
        "c             0   0.00%\n"
        "d             4  50.00%\n"
        "e             0   0.00%\n"
        "f             0   0.00%\n"
        "dominant type: b\n"
        "routes: 0\n"
        "communities: 0"
    )


def test_sessions_csv_round_trip(tmp_path):
    table = SessionTable(["u1", "u2"], array("q", [0, 5000]), array("q", [1000, 5000]), [2, 1])
    path = tmp_path / "sessions.csv"
    write_sessions_csv(table, path)
    assert path.read_text(encoding="utf-8") == (
        "session_id,user_hash,start_ms,end_ms,k_items\n0,u1,0,1000,2\n1,u2,5000,5000,1\n"
    )
    assert read_sessions_csv(path, "user_hash") == ["u1", "u2"]
    assert read_sessions_csv(path, "k_items") == [2, 1]
    assert _read_table(path) == table


def test_read_sessions_names_its_column(tmp_path):
    path = tmp_path / "sessions.csv"
    write_sessions_csv(SessionTable(["u1"], array("q", [0]), array("q", [0]), [1]), path)
    with pytest.raises(KeyError, match="start_ms"):
        read_sessions_csv(path, "start_ms")


@pytest.mark.parametrize("column", _COLUMNS)
@pytest.mark.parametrize("ids", [[0, 2], [1, 0], [1, 2], [0, 0]])
def test_sessions_csv_rejects_gapped_or_reordered_ids(tmp_path, ids, column):
    path = tmp_path / "sessions.csv"
    path.write_text(
        "session_id,user_hash,start_ms,end_ms,k_items\n" + "".join(f"{i},u1,0,0,1\n" for i in ids),
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="ids must run 0..n-1"):
        read_sessions_csv(path, column)


def test_parse_log_files_appends_inputs_in_order(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("1970-01-01T00:00:01Z,u1,a1\nbad\n", encoding="utf-8")
    second.write_text("x\n1970-01-01T00:00:02Z,u2,a2\n1970-01-01T00:00:03Z,u1,a3,bot\n",
                      encoding="utf-8")
    sink = io.StringIO()
    events, parsed, malformed = parse_log_files([first, second], "a", sink)
    assert group_events(events) == {
        "u1": [LogEvent(1000, "u1", "a1"), LogEvent(3000, "u1", "a3", "bot")],
        "u2": [LogEvent(2000, "u2", "a2")],
    }
    assert (parsed, malformed) == (5, 2)
    # diagnostics are numbered per file
    assert sink.getvalue() == "line 2: expected 3 or 4 fields, got 1\nline 1: expected 3 or 4 fields, got 1\n"
    assert parse_log_files([], "a", sink) == (EventGroups({}, 0), 0, 0)


def _log_line(event: LogEvent, fmt: str) -> str:
    ts, user, item, tag = event
    if fmt == "a":
        return ",".join([format_timestamp_s(ts), user, item] + ([tag] if tag else [])) + "\n"
    return json.dumps({"ts": ts, "user": user, "item": item, **({"agent": tag} if tag else {})}) + "\n"


@given(
    st.lists(st.builds(LogEvent, st.integers(0, 20_000).map(lambda s: s * 1000),
                       st.sampled_from(["u1", "u2", "u3"]), st.sampled_from(["i1", "i2", "i3"]),
                       st.sampled_from([None, "bot", "app"])), max_size=40),
    st.lists(st.integers(0, 40), max_size=2),
    st.sampled_from(["a", "b"]),
    st.integers(1, 3_000),
    st.sampled_from(COUNT_POLICIES),
)
# u1's first file holds no tag, so its tag column starts in the second.
@example([LogEvent(0, "u1", "i1"), LogEvent(1000, "u2", "i2", "bot"), LogEvent(2000, "u1", "i3", "bot")],
         [2], "a", 1800, "raw")
def test_parse_log_files_groups_events_across_files(raw, cuts, fmt, gap_s, policy):
    # 1-3 files, cut anywhere in the event sequence; each user's events
    # keep their order across files, so sessions match the LogEvent oracle.
    bounds = [0, *sorted(min(c, len(raw)) for c in cuts), len(raw)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"part{i}.log" for i in range(len(bounds) - 1)]
        for path, lo, hi in zip(paths, bounds, bounds[1:]):
            path.write_text("".join(_log_line(e, fmt) for e in raw[lo:hi]), encoding="utf-8")
        events, parsed, malformed = parse_log_files(paths, fmt, io.StringIO())
    assert (len(events), parsed, malformed) == (len(raw), len(raw), 0)
    assert group_events(events) == by_user(raw)
    want = [(s.session_id, s.user_hash, s.start_ms, s.end_ms, s.k_items)
            for s in sessionize(raw, gap_s, count_policy=policy)]
    assert table_rows(sessionize_summaries(events, gap_s, policy)) == want
    # sessionize consumed the groups; len() is still the event count
    assert (events.groups, len(events)) == ({}, len(raw))


def test_sessionize_summaries_matches_full_sessionize():
    events = make_events(
        [(0, "u1", "a"), (60, "u1", "a"), (4000, "u1", "b"), (30, "u2", "c")]
    )
    sessions = sessionize(events, 1800)
    summaries = sessionize_summaries(event_groups(events), 1800)
    assert [
        (s.session_id, s.user_hash, s.start_ms, s.end_ms, s.k_items) for s in sessions
    ] == table_rows(summaries)


def test_metrics_read_the_k_column():
    metrics = metrics_from_summaries([1, 3, 3, 2, 5], 2)
    assert [(m.block_index, m.q, m.mean_n, m.mean_k, m.k_min, m.k_max) for m in metrics] == [
        (0, 2, 1.0, 2.0, 1, 3), (1, 2, 1.0, 2.5, 2, 3), (2, 1, 1.0, 5.0, 5, 5)
    ]
    assert [m.beta for m in metrics] == [None, 1.25, 2.0]


# --- routes_from_classifications against a brute-force oracle -------------------


@st.composite
def _route_glue_inputs(draw):
    """Users from six names over 1-60 sessions, a block size of 1-7 (so the
    last block may be short), and an ordered subset of the blocks, block 0
    included, classified with random labels."""
    users = draw(st.lists(st.sampled_from([f"u{i}" for i in range(6)]), min_size=1, max_size=60))
    block_size = draw(st.integers(1, 7))
    n_blocks = math.ceil(len(users) / block_size)
    blocks = sorted(draw(st.sets(st.integers(0, n_blocks - 1))))
    classifications = [
        BlockClassification(b, _TRIPLET, draw(st.sampled_from(ADMISSIBLE_NODES)), 0.0) for b in blocks
    ]
    return users, block_size, classifications


def _oracle_routes(users, block_size, classifications, grouping):
    label_of = {c.block_index: c.node.label for c in classifications}
    if grouping == "stream":
        owners = {"stream": sorted(label_of)} if label_of else {}
    else:
        owners = {}
        for i, user in enumerate(users):
            b = i // block_size
            if b in label_of and b not in owners.setdefault(user, []):
                owners[user].append(b)
        owners = {user: bs for user, bs in owners.items() if bs}
    return [
        SearchRoute(owner, tuple(label_of[b] for b in bs), (bs[0], bs[-1]))
        for owner, bs in sorted(owners.items())
    ]


@given(_route_glue_inputs(), st.sampled_from(["stream", "user"]))
@example(  # u5 is only in block 0, which is not classified
    (["u5", "u1", "u1", "u2"], 2, [BlockClassification(1, _TRIPLET, ADMISSIBLE_NODES[2], 0.0)]),
    "user",
)
def test_routes_from_classifications_matches_oracle(inputs, grouping):
    users, block_size, classifications = inputs
    routes, transitions = routes_from_classifications(classifications, users, block_size, grouping)
    want = _oracle_routes(users, block_size, classifications, grouping)
    assert routes == want
    pairs = Counter(pair for r in want for pair in zip(r.steps, r.steps[1:]))
    assert transitions.counts == dict(pairs)


# --- the SessionTable contract ---------------------------------------------------


def test_session_table_len_and_truth():
    empty = sessionize_summaries(EventGroups({}, 0), 1800)
    assert len(empty) == 0 and not empty
    assert empty == SessionTable([], array("q"), array("q"), [])
    table = sessionize_summaries(event_groups(make_events([(0, "u1", "a"), (5, "u2", "b")])), 1800)
    assert len(table) == 2 and table


def test_read_sessions_interns_users(tmp_path):
    path = tmp_path / "sessions.csv"
    write_sessions_csv(
        SessionTable(["user-a", "user-b", "user-a"], array("q", [0, 1, 2]), array("q", [0, 1, 2]), [1, 1, 1]),
        path,
    )
    users = read_sessions_csv(path, "user_hash")
    assert users == ["user-a", "user-b", "user-a"]
    assert users[0] is users[2]


@pytest.mark.parametrize("column", _COLUMNS)
def test_read_sessions_keeps_few_bytes_per_row(tmp_path, column):
    n = 20_000
    path = tmp_path / "sessions.csv"
    write_sessions_csv(
        SessionTable(
            [f"user{i % 50:04d}" for i in range(n)],
            array("q", [10**12 + 1000 * i for i in range(n)]),
            array("q", [10**12 + 1000 * i + 59_000 for i in range(n)]),
            [1 + i % 7 for i in range(n)],
        ),
        path,
    )
    tracemalloc.start()
    try:
        got = read_sessions_csv(path, column)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == n
    # The row-object reader kept about 229 bytes per row here, and the
    # four-column table 32: one column holds one 8-byte slot per row.
    assert kept / n < 12


# --- read_sessions_csv against the row-object oracle -------------------------------

_USER_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\r", "\n", " ", "\t", "é", "日", "\u2028"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=6,
)
_INT64 = st.integers(-(2**63), 2**63 - 1)


def _session_table(rows) -> SessionTable:
    users, starts, ends, ks = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
    return SessionTable(users, array("q", starts), array("q", ends), ks)


_TABLES = st.lists(
    st.tuples(_USER_TEXT, _INT64, _INT64, st.integers(1, 10**6)), max_size=12
).map(_session_table)


# Segment sizes for read_sessions_csv: the small ones cut segments mid-row.
_SEGMENTS = st.sampled_from([16, 64, pipeline._SEGMENT_CHARS])


@given(_TABLES, _SEGMENTS)
def test_sessions_csv_round_trips_any_table(tmp_path_factory, table, segment):
    path = tmp_path_factory.mktemp("rt") / "sessions.csv"
    write_sessions_csv(table, path)
    if not table:  # no run writes a file without sessions, and no stage reads one
        for column in _COLUMNS:
            with pytest.raises(InputError, match=re.escape(f"bad sessions file {path}: no sessions")):
                read_sessions_csv(path, column)
        return
    with mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
        got = _read_table(path)
    assert got == table
    assert table_rows(got) == _oracle_rows(path)


def _same_bytes_as_oracle(table, directory):
    write_sessions_csv(table, directory / "got.csv")
    oracle_write_sessions_csv(table, directory / "want.csv")
    return (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


@given(_TABLES, st.sampled_from([1, 2, 3, pipeline._CHUNK_ROWS]))
def test_write_sessions_matches_oracle_bytes(tmp_path_factory, table, chunk):
    with mock.patch.object(pipeline, "_CHUNK_ROWS", chunk):
        assert _same_bytes_as_oracle(table, tmp_path_factory.mktemp("wb"))


# Rendered alone, csv writes an empty field as "", but as nothing inside a
# row; CR switches the file to QUOTE_NONNUMERIC, where "" is written.
@pytest.mark.parametrize("user", ["", " ", "\r", '"', ",", "\n", "\u2028", 'a"b,c', "1", "-2"])
@pytest.mark.parametrize("others", [[], ["u1"], ["u1", "x\ry"]])
def test_write_sessions_bytes_for_special_users(tmp_path, user, others):
    users = [user, *others, user]
    n = len(users)
    table = SessionTable(users, array("q", range(n)), array("q", range(1, n + 1)), [1] * n)
    assert _same_bytes_as_oracle(table, tmp_path)
    assert _read_table(tmp_path / "got.csv") == table


# --- every csv writer against the csv.writer body it replaced ----------------------

_LABELS = st.sampled_from("abcdef")
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_METRICS = st.lists(st.builds(
    BlockMetrics, st.integers(), st.integers(), _FLOATS, _FLOATS, st.integers(), st.integers(),
    st.integers(), st.integers(), st.none() | _FLOATS, st.none() | _FLOATS, st.none() | _FLOATS,
), max_size=6)
_CLASSIFICATIONS = st.lists(st.builds(
    BlockClassification,
    st.integers(),
    st.builds(Triplet, st.sampled_from(Tendency), st.sampled_from(Tendency), st.sampled_from(Stability)),
    st.sampled_from(ADMISSIBLE_NODES),
    _FLOATS,
), max_size=6)
_OWNERS = st.one_of(st.sampled_from(["", "\r", '"', ",", "a\rb", 'x"y,z', "u1"]), _USER_TEXT)
_ROUTES = st.lists(st.builds(
    SearchRoute, _OWNERS, st.lists(_LABELS, min_size=1, max_size=5).map(tuple),
    st.tuples(st.integers(-5, 10**12), st.integers(-5, 10**12)),
), max_size=6)
_TRANSITIONS = st.dictionaries(st.tuples(_LABELS, _LABELS), st.integers(0, 10**9)).map(TransitionGraph)
_COMMUNITIES = st.lists(st.builds(
    lambda cid, members, counts, dominant: CognitiveCommunity(
        cid, tuple(members), dict(zip("abcdef", counts)), dominant, len(members)),
    st.integers(0, 10**6), st.lists(_USER_TEXT, min_size=1, max_size=3),
    st.lists(st.integers(0, 10**6), min_size=6, max_size=6), _LABELS,
), max_size=4)


@pytest.mark.parametrize("write, oracle, items", [
    (write_metrics_csv, oracle_write_metrics_csv, _METRICS),
    (write_classifications_csv, oracle_write_classifications_csv, _CLASSIFICATIONS),
    (write_routes_csv, oracle_write_routes_csv, _ROUTES),
    (write_transitions_csv, oracle_write_transitions_csv, _TRANSITIONS),
    (write_communities_csv, oracle_write_communities_csv, _COMMUNITIES),
], ids=["metrics", "classifications", "routes", "transitions", "communities"])
def test_writer_matches_oracle_bytes(tmp_path_factory, write, oracle, items):
    @given(items)
    def check(value):
        directory = tmp_path_factory.mktemp("w")
        write(value, directory / "got.csv")
        oracle(value, directory / "want.csv")
        assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()

    check()


@pytest.mark.parametrize("owners", [["a\rb", "u2", ""], ['"', ",", ""], ["\r"]])
def test_routes_with_special_owners_round_trip(tmp_path, owners):
    routes = [SearchRoute(o, ("a", "b"), (i, i + 1)) for i, o in enumerate(owners)]
    write_routes_csv(routes, tmp_path / "got.csv")
    oracle_write_routes_csv(routes, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert read_routes_csv(tmp_path / "got.csv") == routes


def test_header_only_communities_file(tmp_path):
    write_communities_csv([], tmp_path / "got.csv")
    oracle_write_communities_csv([], tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert read_communities_count(tmp_path / "got.csv") == 0


def test_communities_header_must_be_whole(tmp_path):
    # The count once needed only a first header field of community_id.
    path = tmp_path / "communities.csv"
    path.write_text("community_id,size\n0,1\n", encoding="utf-8")
    with pytest.raises(InputError, match="bad communities file .*: unexpected header"):
        read_communities_count(path)


@pytest.mark.parametrize("kind, read, text, row", [
    ("metrics", read_metrics_csv,
     "block_index,q,mean_n,mean_k,n_min,n_max,k_min,k_max,alpha,beta,variety\n0,1,x\n", ["0", "1", "x"]),
    ("classifications", read_classifications_csv,
     "block_index,n_tendency,k_tendency,stability,label,mismatch_cost\n1,min,min,stable,z,0.0\n",
     ["1", "min", "min", "stable", "z", "0.0"]),
    ("routes", read_routes_csv, "owner,steps,span_start,span_end\nu1,a\n", ["u1", "a"]),
    ("transitions", read_transitions_csv, "from,to,count\na,b,many\n", ["a", "b", "many"]),
    ("transitions", read_transitions_csv, "from,to,count\na,b,2\nb,a,1\na,b,2\n", ["a", "b", "2"]),
    ("communities", read_communities_count,
     "community_id,size,count_a,count_b,count_c,count_d,count_e,count_f,position\n0,1,x\n", ["0", "1", "x"]),
    ("communities", read_communities_count,
     "community_id,size,count_a,count_b,count_c,count_d,count_e,count_f,position\n\n", []),
])
def test_unconvertible_row_names_the_row(tmp_path, kind, read, text, row):
    path = tmp_path / f"{kind}.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as got:
        read(path)
    assert str(got.value) == f"bad {kind} file {path}: row {row!r}"


@pytest.mark.parametrize("column", _COLUMNS)
@pytest.mark.parametrize("start, end", [
    (2**63, 2**63), (0, 2**63), (-(2**63) - 1, 0), (-(10**30), 10**30),
])
def test_read_sessions_rejects_times_outside_int64(tmp_path, start, end, column):
    path = tmp_path / "sessions.csv"
    path.write_text(
        f"session_id,user_hash,start_ms,end_ms,k_items\n0,u1,0,0,1\n1,u1,{start},{end},1\n",
        encoding="utf-8",
    )
    # The row-object reader accepted any int here.
    assert len(oracle_read_sessions_csv(path)) == 2
    row = ["1", "u1", str(start), str(end), "1"]
    with pytest.raises(InputError, match=re.escape(
        f"bad sessions file {path}: start_ms or end_ms outside the signed 64-bit range in row {row!r}"
    )):
        read_sessions_csv(path, column)


def test_read_sessions_accepts_the_int64_bounds(tmp_path):
    path = tmp_path / "sessions.csv"
    path.write_text(
        f"session_id,user_hash,start_ms,end_ms,k_items\n0,u1,{-(2**63)},{2**63 - 1},1\n",
        encoding="utf-8",
    )
    assert read_sessions_csv(path, "user_hash") == ["u1"]
    assert read_sessions_csv(path, "k_items") == [1]


_FAULTS = st.one_of(
    st.tuples(st.just("short"), st.integers(0, 4)),
    st.tuples(st.just("extra"), st.lists(st.sampled_from(["", "x", "7"]), min_size=1, max_size=3)),
    st.tuples(st.just("text"), st.sampled_from([0, 2, 3, 4]), st.sampled_from(["", "x", "1.5", " 2", "0x1"])),
    st.tuples(st.just("k"), st.integers(-3, 0)),
    st.tuples(st.just("id"), st.integers(-2, 20)),
)


def _corrupt(row: list[str], fault) -> list[str]:
    kind = fault[0]
    if kind == "short":
        return row[: fault[1]]
    if kind == "extra":
        return row + fault[1]
    at, text = {"text": fault[1:], "k": (4, str(fault[1])), "id": (0, str(fault[1]))}[kind]
    # A field an earlier fault cut off stays cut off.
    return row[:at] + [text] + row[at + 1 :] if at < len(row) else row


@given(
    st.lists(st.tuples(st.sampled_from(["u1", "u,2", 'u"3']), st.integers(0, 9), st.integers(1, 4)),
             min_size=1, max_size=10),
    st.lists(st.tuples(st.integers(0, 9), _FAULTS), min_size=1, max_size=3),
    _SEGMENTS,
)
@pytest.mark.parametrize("column", _COLUMNS)
def test_read_sessions_matches_oracle_on_corrupt_files(tmp_path_factory, column, rows, faults, segment):
    lines = [["session_id", "user_hash", "start_ms", "end_ms", "k_items"]]
    lines += [[str(i), u, str(t), str(t + 1), str(k)] for i, (u, t, k) in enumerate(rows)]
    for at, fault in faults:
        at = 1 + at % len(rows)
        lines[at] = _corrupt(lines[at], fault)
    path = tmp_path_factory.mktemp("bad") / "sessions.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    _agrees_with_oracle(path, column, segment)


@pytest.mark.parametrize("column", _COLUMNS)
def test_first_faulty_row_wins(tmp_path, column):
    path = tmp_path / "sessions.csv"
    path.write_text(
        "session_id,user_hash,start_ms,end_ms,k_items\n0,u1,0,0,1\n1,u1,0,0,0\n5,u1,0,0,1\n2,u1,x,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=r"k_items < 1 in row \['1', 'u1', '0', '0', '0'\]"):
        read_sessions_csv(path, column)


@pytest.mark.parametrize("column", _COLUMNS)
def test_out_of_range_row_wins_over_later_faults(tmp_path, column):
    path = tmp_path / "sessions.csv"
    path.write_text(
        "session_id,user_hash,start_ms,end_ms,k_items\n"
        f"0,u1,0,0,1\n1,u1,{2**63},0,1\n2,u1,0,0,0\n3,u1\n",
        encoding="utf-8",
    )
    row = ["1", "u1", str(2**63), "0", "1"]
    with pytest.raises(InputError, match=re.escape(f"64-bit range in row {row!r}")):
        read_sessions_csv(path, column)


# --- read_sessions_csv's split segments and its csv fallback -----------------------


def _plain_table(n: int, first_user: int = 0) -> SessionTable:
    return SessionTable(
        [f"u{(first_user + i) % 7}" for i in range(n)],
        array("q", [10**12 + 1000 * i for i in range(n)]),
        array("q", [10**12 + 1000 * i + 5 for i in range(n)]),
        [1 + i % 3 for i in range(n)],
    )


def _oracle_rows(path):
    return [(s.session_id, s.user_hash, s.start_ms, s.end_ms, s.k_items)
            for s in oracle_read_sessions_csv(path)]


def _agrees_with_oracle(path, column, segment=pipeline._SEGMENT_CHARS):
    """read_sessions_csv yields the column of the oracle's rows or raises
    its message."""
    with mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
        try:
            want = [getattr(s, column) for s in oracle_read_sessions_csv(path)]
        except InputError as exc:
            with pytest.raises(InputError) as got:
                read_sessions_csv(path, column)
            assert str(got.value) == str(exc)
        else:
            assert read_sessions_csv(path, column) == want


@pytest.mark.parametrize("column", _COLUMNS)
@pytest.mark.parametrize("segment", [16, 64, pipeline._SEGMENT_CHARS])
@pytest.mark.parametrize("user", ["a,b", 'q"t', "c\rr", "n\nl"])
def test_quoted_user_after_clean_segments(tmp_path, segment, user, column):
    # Several segments split without csv, then a user that csv must unquote.
    head, tail = _plain_table(600), _plain_table(50, first_user=3)
    table = SessionTable(
        head.user_hash + [user] + tail.user_hash,
        head.start_ms + array("q", [7]) + tail.start_ms,
        head.end_ms + array("q", [8]) + tail.end_ms,
        head.k_items + [4] + tail.k_items,
    )
    path = tmp_path / "sessions.csv"
    write_sessions_csv(table, path)
    with mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
        assert read_sessions_csv(path, column) == getattr(table, column)
    _agrees_with_oracle(path, column, segment)
    # A faulty row after the user, which csv reads a row at a time.
    table.k_items[620] = 0
    write_sessions_csv(table, path)
    _agrees_with_oracle(path, column, segment)
    with mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
        with pytest.raises(InputError, match=r"k_items < 1 in row \['620', "):
            read_sessions_csv(path, column)


_HEADER = "session_id,user_hash,start_ms,end_ms,k_items"


@pytest.mark.parametrize("column", _COLUMNS)
@pytest.mark.parametrize("segment", [16, 64, pipeline._SEGMENT_CHARS])
@pytest.mark.parametrize("text", [
    # an unterminated last line
    f"{_HEADER}\n0,u1,5,6,1\n1,u2,7,8,2",
    f"{_HEADER}\n0,u1,5,6,1",
    # CRLF line endings, from the header on or after it
    f"{_HEADER}\r\n0,u1,5,6,1\r\n1,u2,7,8,2\r\n",
    f"{_HEADER}\n0,u1,5,6,1\r\n1,u2,7,8,2\r\n",
    f"{_HEADER}\n0,u1,5,6,1\n1,u2,7,8,2\r\n2,u1,9,9,1\n",
    # bare CR line endings: more rows than LFs
    f"{_HEADER}\r0,u1,5,6,1\r1,u2,7,8,2\r2,u1,9,9,1\r",
    f"{_HEADER}\n0,u1,5,6,1\r1,u2,7,8,2\r2,u1,9,9,1\r",
    # blank lines, inside and at the end
    f"{_HEADER}\n0,u1,5,6,1\n\n1,u2,7,8,2\n",
    f"{_HEADER}\n0,u1,5,6,1\n1,u2,7,8,2\n\n",
    f"{_HEADER}\n\n",
    # the header alone, with or without its LF: no sessions
    f"{_HEADER}\n",
    _HEADER,
    "",
    # four commas per line on average, but not on every line: split at
    # every comma and LF, the first makes two good rows
    f"{_HEADER}\n0,u,5,5,1,1,u,5\n5,1\n",
    f"{_HEADER}\n0,u,5,5,1,7\n1,u,5,5\n",
    # surplus fields, which the reader ignores
    f"{_HEADER}\n0,u,5,5,1,x\n1,u,5,5,1,,\n",
    # text that int() reads around whitespace, and a NUL, which csv keeps
    f"{_HEADER}\n 0,u,5,5,1 \n1,u\x00v,5,5,2\n",
])
def test_read_sessions_line_endings_and_shapes_match_oracle(tmp_path, segment, text, column):
    path = tmp_path / "sessions.csv"
    path.write_bytes(text.encode("utf-8"))
    _agrees_with_oracle(path, column, segment)


@pytest.mark.parametrize("column", _COLUMNS)
@pytest.mark.parametrize("segment", [16, 64, pipeline._SEGMENT_CHARS])
def test_field_over_a_lowered_csv_limit(tmp_path, segment, column):
    table = _plain_table(400)
    users = list(table.user_hash)
    users[300] = "w" * 60
    path = tmp_path / "sessions.csv"
    write_sessions_csv(SessionTable(users, table.start_ms, table.end_ms, table.k_items), path)
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(50)
        with mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
            with pytest.raises(InputError) as got:
                read_sessions_csv(path, column)
        assert str(got.value) == f"bad sessions file {path}: field larger than field limit (50)"
        # Fields under the limit read back, though the segments are longer.
        write_sessions_csv(table, path)
        with mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
            assert read_sessions_csv(path, column) == getattr(table, column)
    finally:
        csv.field_size_limit(limit)
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("column", _COLUMNS)
def test_faulty_row_before_an_over_limit_field_is_named(tmp_path, column):
    # Row 100 fails the k_items check, and row 200 holds a field over csv's
    # default limit of 131,072 characters; both fall in one csv chunk.
    lines = [_HEADER]
    for i in range(1200):
        user = '"' + "x" * 140_000 + '"' if i == 200 else f"u{i % 7}"
        lines.append(f"{i},{user},{i},{i},{0 if i == 100 else 1}")
    path = tmp_path / "sessions.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _agrees_with_oracle(path, column)
    with pytest.raises(InputError, match=r"k_items < 1 in row \['100', "):
        read_sessions_csv(path, column)


@pytest.mark.parametrize("n, segment, terminated", [
    (0, 64, True), (1, 64, True), (1, 64, False), (3000, 64, True), (3000, 64, False),
    (3000, pipeline._SEGMENT_CHARS, True), (3000, pipeline._SEGMENT_CHARS, False),
])
def test_plain_file_never_reaches_csv_reader(tmp_path, n, segment, terminated):
    table = _plain_table(n)
    path = tmp_path / "sessions.csv"
    write_sessions_csv(table, path)
    if not terminated:
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
    with mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader")), \
            mock.patch.object(pipeline, "_SEGMENT_CHARS", segment):
        for column in _COLUMNS:
            if n:
                assert read_sessions_csv(path, column) == getattr(table, column)
            else:
                with pytest.raises(InputError, match=": no sessions$"):
                    read_sessions_csv(path, column)


# --- artifacts that are not UTF-8 ------------------------------------------------

_SESSIONS_NOT_UTF8 = "session_id,user_hash,start_ms,end_ms,k_items\n0,u\xff,0,0,1\n"
_ARTIFACT_READERS = {
    "sessions[k_items]": (partial(read_sessions_csv, column="k_items"), _SESSIONS_NOT_UTF8),
    "sessions[user_hash]": (partial(read_sessions_csv, column="user_hash"), _SESSIONS_NOT_UTF8),
    "metrics": (read_metrics_csv, "block_index,q,mean_n,mean_k,n_min,n_max,k_min,k_max,alpha,beta,variety\n\xff\n"),
    "classifications": (read_classifications_csv, "block_index,n_tendency,k_tendency,stability,label,mismatch_cost\n\xff\n"),
    "routes": (read_routes_csv, "owner,steps,span_start,span_end\nu\xff,a,1,1\n"),
    "transitions": (read_transitions_csv, "from,to,count\na,\xff,1\n"),
    "communities": (read_communities_count,
                    "community_id,size,count_a,count_b,count_c,count_d,count_e,count_f,position\n0,\xff\n"),
}


@pytest.mark.parametrize("reader", sorted(_ARTIFACT_READERS))
def test_non_utf8_artifact_is_input_error(tmp_path, reader):
    read, text = _ARTIFACT_READERS[reader]
    kind = reader.split("[")[0]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(InputError, match=f"bad {kind} file .*{kind}.csv: not UTF-8 text"):
        read(path)


# --- opt-in scale check -------------------------------------------------------------

_TIMED_READ = """
import hashlib, json, resource, sys, time
from helpers import oracle_read_sessions_csv
from logcompass.pipeline import read_sessions_csv
which, path = sys.argv[1:]
t0 = time.perf_counter()
if which == "columns":
    # the two reads of a replay: metrics' and routes'
    ks, users = read_sessions_csv(path, "k_items"), read_sessions_csv(path, "user_hash")
else:
    got = oracle_read_sessions_csv(path)
    ks, users = [s.k_items for s in got], [s.user_hash for s in got]
seconds = time.perf_counter() - t0
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
digest = hashlib.sha256()
for row in zip(users, ks):
    digest.update(repr(row).encode())
print(json.dumps({"s": seconds, "peak_mb": peak_mb, "rows": len(ks), "sha256": digest.hexdigest()}))
"""


@pytest.mark.scale
@pytest.mark.skipif(
    not os.environ.get("LOGCOMPASS_SCALE"),
    reason="1M-row sessions.csv read twice; set LOGCOMPASS_SCALE=1 to enable",
)
# Plain users are split without csv; a user holding a comma is quoted, so csv
# reads that file row by row from its first segment.
@pytest.mark.parametrize("suffix", ["", ",x"], ids=["plain", "quoted"])
def test_scale_reader_matches_oracle(tmp_path, suffix):
    # The sessions.csv that criterion 6's corpus sessionizes into.
    profile = SynthProfile(
        n_users=500, n_items=5000, sessions_per_block=10_000, n_blocks=100, seed=42
    )
    path = tmp_path / "sessions.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["session_id", "user_hash", "start_ms", "end_ms", "k_items"])
        for i, s in enumerate(generate_sessions(profile)):
            k = len(s.item_ids)
            w.writerow([i, s.user_hash + suffix, s.start_ms, s.start_ms + (k - 1) * EVENT_SPACING_S * 1000, k])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent), str(Path(__file__).parents[1] / "src")]
    )
    out = {}
    for which in ("columns", "oracle"):
        proc = subprocess.run(
            [sys.executable, "-c", _TIMED_READ, which, str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        out[which] = json.loads(proc.stdout)
    assert out["columns"]["rows"] == out["oracle"]["rows"] == 1_000_000
    assert out["columns"]["sha256"] == out["oracle"]["sha256"]
    print(
        f"SCALE READ PASS: 1,000,000 {'quoted' if suffix else 'plain'} rows; "
        + "; ".join(f"{k} {v['s']:.2f}s peak {v['peak_mb']:.0f} MB" for k, v in out.items())
    )


def test_report_json_is_sorted_and_parsable(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus)
    on_disk = json.loads((cfg.out_dir / ARTIFACT_FILES["report"]).read_text())
    assert on_disk == report


def test_single_block_run_has_no_classifications(tmp_path, corpus):
    cfg, report = run(tmp_path, corpus, block_size=10_000)
    assert report["blocks"]["total"] == 1
    assert report["blocks"]["classified"] == 0
    assert report["dominant_type"] is None
    assert report["route_count"] == 0


def test_unreadable_input(tmp_path):
    cfg = PipelineConfig(inputs=(tmp_path / "nope.csv",), out_dir=tmp_path / "out")
    with pytest.raises(InputError, match="cannot read"):
        run_pipeline(cfg, io.StringIO())


def test_errors_name_the_failing_stage(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    cfg = PipelineConfig(inputs=(empty,), out_dir=tmp_path / "out", block_size=10)
    with pytest.raises(InputError, match="ingest: no sessions"):
        run_pipeline(cfg, io.StringIO())


def test_mid_run_failure_removes_partial_artifacts(tmp_path, corpus, monkeypatch):
    import logcompass.pipeline as pl

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(pl, "write_transitions_csv", boom)
    out = tmp_path / "out"
    cfg = PipelineConfig(inputs=(corpus,), out_dir=out, block_size=40)
    with pytest.raises(OSError):
        pl.run_pipeline(cfg, io.StringIO())
    assert not any(out.iterdir())
