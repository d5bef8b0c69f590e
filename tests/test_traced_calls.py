"""perfbench/job.py traces the stage functions by the names under which
logcompass.pipeline and logcompass.cli look them up at call time. These
checks keep those names, and the layers their spans feed, in step with the
code."""

import importlib
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
    names = {span["name"] for span in tr.spans}
    assert "pipeline.write_sessions" in names
    assert not {name for name in names if name.startswith("pipeline.read_")}
    assert "blocks: 4 total, 3 classified" in capsys.readouterr().out
