"""Tests of the benchmark's own code: generator, checker, tracing, end to end.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import job
import run
import tracing
from logcompass import pipeline
from logcompass.events import FilterRules
from logcompass.pipeline import PipelineConfig, run_pipeline
from workloads import FILTER_RULES, WORKLOADS, Workload, planned_k, write_corpus

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = {"n_users": 20, "n_items": 200, "sessions_per_block": 40, "n_blocks": 5,
        "k_distribution": "heavy-tail"}
TINY_A = Workload("tiny-a", TINY, grouping="user", linkage=4.0, block_size=40)
TINY_B = Workload("tiny-b", TINY, log_format="b", filtered=True, block_size=40)


def _config(w: Workload, corpus: Path, out: Path) -> PipelineConfig:
    rules = FilterRules(tuple(FILTER_RULES["agent_deny_patterns"]), FILTER_RULES["item_allow_pattern"])
    return PipelineConfig(
        inputs=(corpus,), out_dir=out, log_format=w.log_format,
        filter_rules=rules if w.filtered else FilterRules(),
        block_size=w.block_size, grouping=w.grouping, linkage_threshold=w.linkage,
    )


def _run(w: Workload, seed: int, tmp: Path):
    corpus = tmp / "corpus.log"
    info = write_corpus(w, seed, corpus)
    out, diag = tmp / "out", tmp / "diag.txt"
    with open(diag, "w", encoding="utf-8") as sink:
        run_pipeline(_config(w, corpus, out), sink)
    return out, diag, info, planned_k(w.synth_profile(seed))


@pytest.mark.parametrize("w", [TINY_A, TINY_B], ids=lambda w: w.name)
def test_generator_is_a_function_of_the_seed(tmp_path, w):
    paths = [tmp_path / f"{i}.log" for i in range(3)]
    infos = [write_corpus(w, seed, p) for seed, p in zip((5, 5, 6), paths)]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert infos[0] == infos[1]
    assert infos[0].lines == len(paths[0].read_text().splitlines())


def test_format_b_counts_its_noise(tmp_path):
    info = write_corpus(TINY_B, 3, tmp_path / "b.log")
    assert info.bot > 0 and info.asset > 0 and info.malformed > 0
    assert info.kept == sum(planned_k(TINY_B.synth_profile(3)))


@pytest.mark.parametrize("w", [TINY_A, TINY_B], ids=lambda w: w.name)
def test_checker_accepts_a_correct_run(tmp_path, w):
    out, diag, info, plan = _run(w, 7, tmp_path)
    assert checks.check_run(out, diag, info, plan) == []


def _corrupt(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_checker_flags_corrupted_artifacts(tmp_path):
    out, diag, info, plan = _run(TINY_B, 7, tmp_path)
    bad = tmp_path / "bad"

    def copy():
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        return bad

    sessions = (copy() / "sessions.csv").read_text().splitlines()
    last = sessions[-1].rsplit(",", 1)
    _corrupt(bad / "sessions.csv", sessions[-1], f"{last[0]},{int(last[1]) + 1}")
    assert any("k_items" in e for e in checks.check_run(bad, diag, info, plan))

    _corrupt(copy() / "report.json", f'"kept": {info.kept}', f'"kept": {info.kept - 1}')
    assert any("report" in e for e in checks.check_run(bad, diag, info, plan))

    _corrupt(copy() / "communities.csv", "\n0,1,", "\n0,2,")
    assert any("communities" in e for e in checks.check_run(bad, diag, info, plan))

    short = tmp_path / "short.txt"
    short.write_text("".join(diag.read_text().splitlines(True)[1:]))
    assert any("diagnostics" in e for e in checks.check_run(out, short, info, plan))

    assert checks.tree_digest(copy()) == checks.tree_digest(out)
    _corrupt(bad / "compass.dot", "}", "} ")
    assert checks.tree_digest(bad) != checks.tree_digest(out)
    (bad / "sessions.csv").unlink()
    (bad / "report.json").unlink()
    assert checks.check_replay(bad, out, "r", "r") == ["replay: compass.dot differs from run's"]


def test_traced_pipeline_writes_the_same_bytes(tmp_path):
    out, diag, info, plan = _run(TINY_B, 9, tmp_path)
    tr = tracing.Tracer()
    traced = tmp_path / "traced"
    with open(tmp_path / "diag2.txt", "w", encoding="utf-8") as sink, job.traced_calls(tr):
        with tr.span(tracing.ROOT):
            run_pipeline(_config(TINY_B, tmp_path / "corpus.log", traced), sink)
    assert checks.tree_digest(traced) == checks.tree_digest(out)
    assert not hasattr(pipeline.parse_log_files, "__wrapped__")
    table = tracing.layer_table(tr.spans, 0.0)
    assert table["events.parse.lines_in"] == info.lines
    assert table["events.parse.malformed"] == info.malformed
    assert table["events.filter.rows_out"] == info.kept
    assert table["pipeline.sessionize.sessions_out"] == len(plan)
    assert table["pipeline.write_artifacts.calls"] == 6
    assert table["pipeline.read_sessions.calls"] == 0


def _span(i, name, parent, start, end, **counts):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
            "peak_rss_delta_mb": 0.5, "counts": counts}


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, "job", None, 0.0, 10.0),
        _span(1, "cli.routes", 0, 1.0, 6.0),
        _span(2, "pipeline.read_sessions", 1, 1.5, 2.5, rows=4),
        _span(3, "routes.extract", 1, 3.0, 5.0, rows_in=4, routes=2, steps=5),
        _span(4, "pipeline.read_sessions", 0, 7.0, 8.5, rows=4),
    ]
    st = tracing.self_times(spans)
    assert st == {0: 10.0 - 5.0 - 1.5, 1: 5.0 - 3.0, 2: 1.0, 3: 2.0, 4: 1.5}
    table = tracing.layer_table(spans, 9.0)
    assert table["pipeline.read_sessions.s"] == 2.5
    assert table["pipeline.read_sessions.calls"] == 2
    assert table["pipeline.read_sessions.rows"] == 8
    assert table["pipeline.read_sessions.peak_rss_delta_mb"] == 1.0
    assert table["routes.extract.steps"] == 5
    assert table["events.parse.calls"] == 0
    assert table["trace.total_s"] == 10.0
    assert table["trace.uncovered_s"] == 10.0 - 2.5 - 2.0
    assert table["trace.overhead_s"] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.per_layer_specs() + run.WALL_SPECS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_ref", "rows_per_ref", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_second_seed_passes_every_check(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert set(result["metrics"]) == {s["name"] for s in tracing.per_layer_specs() + run.WALL_SPECS}


def test_failed_runs_are_counted_and_reported(monkeypatch, capsys):
    # The warm-up and one timed run succeed; every later job fails.
    real, calls = run.run_job, []

    def flaky(spec, spec_path):
        calls.append(spec["mode"])
        return real(spec, spec_path) if len(calls) <= 2 else (None, "job exited 1: injected")

    monkeypatch.setattr(run, "run_job", flaky)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    rc = run.main(["--workload", "user-linkage", "--seed", "2", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)
    assert "failed_ratio" in out and "CHECK FAILED: job exited 1: injected" in out
