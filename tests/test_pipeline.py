import io
import json
import math
from pathlib import Path

import pytest

from logcompass.errors import InputError
from logcompass.events import FilterRules
from logcompass.pipeline import (
    ARTIFACT_FILES,
    GRAPH_FILES,
    PipelineConfig,
    SessionSummary,
    block_user_map,
    classify_series,
    metrics_from_summaries,
    read_classifications_csv,
    read_communities_count,
    read_metrics_csv,
    read_routes_csv,
    read_sessions_csv,
    report_stats,
    routes_from_classifications,
    run_pipeline,
    sessionize_summaries,
    write_classifications_csv,
    write_metrics_csv,
    write_routes_csv,
    write_sessions_csv,
)
from logcompass.synth import SynthProfile, write_log


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
    summaries = read_sessions_csv(cfg.out_dir / ARTIFACT_FILES["sessions"])
    classifications = read_classifications_csv(
        cfg.out_dir / ARTIFACT_FILES["classifications"]
    )
    label_of_block = {c.block_index: c.node.label for c in classifications}
    counts = dict.fromkeys("abcdef", 0)
    for s in summaries:
        label = label_of_block.get(s.session_id // cfg.block_size)
        if label is not None:
            counts[label] += 1
    for label in "abcdef":
        assert report["types"][label]["sessions"] == counts[label]


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

    summaries = read_sessions_csv(cfg.out_dir / ARTIFACT_FILES["sessions"])
    write_sessions_csv(summaries, stage_dir / ARTIFACT_FILES["sessions"])

    metrics = metrics_from_summaries(summaries, cfg.block_size)
    write_metrics_csv(metrics, stage_dir / ARTIFACT_FILES["metrics"])

    classifications = classify_series(read_metrics_csv(stage_dir / ARTIFACT_FILES["metrics"]), cfg.classifier)
    write_classifications_csv(classifications, stage_dir / ARTIFACT_FILES["classifications"])

    routes, _ = routes_from_classifications(
        read_classifications_csv(stage_dir / ARTIFACT_FILES["classifications"]),
        summaries,
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
    summaries = read_sessions_csv(cfg.out_dir / ARTIFACT_FILES["sessions"])
    assert {r.owner for r in routes} <= {s.user_hash for s in summaries}


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


def test_sessions_csv_round_trip(tmp_path):
    summaries = [
        SessionSummary(0, "u1", 0, 1000, 2),
        SessionSummary(1, "u2", 5000, 5000, 1),
    ]
    path = tmp_path / "sessions.csv"
    write_sessions_csv(summaries, path)
    assert read_sessions_csv(path) == summaries


@pytest.mark.parametrize("ids", [[0, 2], [1, 0], [1, 2], [0, 0]])
def test_sessions_csv_rejects_gapped_or_reordered_ids(tmp_path, ids):
    path = tmp_path / "sessions.csv"
    write_sessions_csv([SessionSummary(i, "u1", 0, 0, 1) for i in ids], path)
    with pytest.raises(InputError, match="ids must run 0..n-1"):
        read_sessions_csv(path)


def test_sessionize_summaries_matches_full_sessionize():
    from helpers import make_events
    from logcompass.events import sessionize

    events = make_events(
        [(0, "u1", "a"), (60, "u1", "a"), (4000, "u1", "b"), (30, "u2", "c")]
    )
    sessions = sessionize(events, 1800)
    summaries = sessionize_summaries(events, 1800)
    assert [
        (s.session_id, s.user_hash, s.start_ms, s.end_ms, s.k_items) for s in sessions
    ] == [
        (s.session_id, s.user_hash, s.start_ms, s.end_ms, s.k_items) for s in summaries
    ]


def test_block_user_map(tmp_path):
    summaries = [
        SessionSummary(0, "u1", 0, 0, 1),
        SessionSummary(1, "u2", 1, 1, 1),
        SessionSummary(2, "u1", 2, 2, 1),
    ]
    assert block_user_map(summaries, 2) == {0: {"u1", "u2"}, 1: {"u1"}}


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
