"""perfbench/job.py traces the stage functions by the names under which
logcompass.pipeline and logcompass.cli look them up at call time. These
checks keep those names, and the layers their spans feed, in step with the
code."""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from logcompass import cli, pipeline
from logcompass.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Spans per layer of ingest and the replay chain: sessions.csv is read by
# metrics and routes, and each later artifact by its next stage and report.
LAYER_CALLS = Counter({
    "events.parse": 1, "events.filter": 1, "pipeline.sessionize": 1, "pipeline.write_sessions": 1,
    "blocks.metrics": 1, "taxonomy.classify": 1, "routes.extract": 1, "routes.communities": 1,
    "pipeline.read_sessions": 2, "pipeline.read_metrics": 2, "pipeline.read_classifications": 2,
    "pipeline.read_routes": 2, "pipeline.write_artifacts": 6,
    # build_base_graph, then export_graph once per format
    "graphio.export": 4, "pipeline.report": 1,
})


@pytest.fixture(scope="module")
def job():
    # The benchmark's modules import one another from its directory, which
    # its own tests put on sys.path the same way.
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("job")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_names_are_module_globals(job):
    for name in job.TRACED_CALLS:
        assert hasattr(pipeline, name) or hasattr(cli, name), name


def test_stage_commands_record_every_traced_layer(job, tmp_path, capsys):
    tracing = importlib.import_module("tracing")
    log, sessions = tmp_path / "log.csv", tmp_path / "sessions.csv"
    assert main(["synth", "--out", str(log), "--seed", "4",
                 "--sessions-per-block", "20", "--blocks", "4"]) == 0
    w = SimpleNamespace(block_size=20, grouping="user", linkage=2.0)
    spec = {"out_dir": str(tmp_path / "out"), "sessions": str(sessions)}
    tr = tracing.Tracer()
    with job.traced_calls(tr):
        # ingest, then the replay chain that perfbench times on its output
        for argv in [["ingest", "--input", str(log), "--out", str(sessions)],
                     *job.replay_commands(w, spec)]:
            assert main(argv) == 0, argv
    assert not hasattr(pipeline.read_sessions_csv, "__wrapped__")
    assert {layer for layer, _ in job.TRACED_CALLS.values()} == set(LAYER_CALLS)
    assert Counter(span["name"] for span in tr.spans) == LAYER_CALLS
    # metrics and routes each read one column of sessions.csv, as long as
    # the file has sessions.
    sessions_out = [s["counts"]["sessions_out"] for s in tr.spans if s["name"] == "pipeline.sessionize"]
    rows = [s["counts"]["rows"] for s in tr.spans if s["name"] == "pipeline.read_sessions"]
    assert rows == sessions_out * 2 == [80, 80]


def test_run_reads_no_artifact_back(job, tmp_path, capsys):
    # run prints its summary from the report in memory, not from the files
    # it has just written.
    tracing = importlib.import_module("tracing")
    log = tmp_path / "log.csv"
    assert main(["synth", "--out", str(log), "--seed", "4",
                 "--sessions-per-block", "20", "--blocks", "4"]) == 0
    tr = tracing.Tracer()
    with job.traced_calls(tr):
        assert main(["run", "--input", str(log), "--block-size", "20",
                     "--out", str(tmp_path / "out")]) == 0
    names = [span["name"] for span in tr.spans]
    assert "pipeline.write_sessions" in names
    # build_report's one span: the summary it shares with report_stats is
    # not a traced global.
    assert names.count("pipeline.report") == 1
    assert not {name for name in names if name.startswith("pipeline.read_")}
    assert "blocks: 4 total, 3 classified" in capsys.readouterr().out


@pytest.mark.parametrize("filters", [None, {"item_allow_pattern": "[0-4]$"}])
def test_ingest_counts_survive_consumption(job, tmp_path, capsys, filters):
    # sessionize pops the groups it is given, and the count lambdas read
    # len() of a stage's arguments after the call: len() must stay the
    # number of events, so each stage's rows in are the last one's rows out.
    tracing = importlib.import_module("tracing")
    log, out = tmp_path / "log.csv", tmp_path / "out"
    assert main(["synth", "--out", str(log), "--seed", "4",
                 "--sessions-per-block", "20", "--blocks", "4"]) == 0
    argv = ["run", "--input", str(log), "--block-size", "20", "--out", str(out)]
    if filters:
        (tmp_path / "filters.json").write_text(json.dumps(filters), encoding="utf-8")
        argv += ["--filters", str(tmp_path / "filters.json")]
    tr = tracing.Tracer()
    with job.traced_calls(tr):
        assert main(argv) == 0
    counts = {span["name"]: span["counts"] for span in tr.spans}
    parsed, kept = counts["events.filter"]["rows_in"], counts["events.filter"]["rows_out"]
    assert counts["events.parse"]["events_out"] == parsed > 0
    assert counts["pipeline.sessionize"]["rows_in"] == kept > 0
    assert (kept < parsed) == bool(filters)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert (report["events"]["parsed"], report["events"]["kept"]) == (parsed, kept)
