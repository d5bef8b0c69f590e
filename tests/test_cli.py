import csv
import io
import json
import shlex
import shutil
from contextlib import redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logcompass import cli, pipeline
from logcompass.cli import main
from logcompass.pipeline import _METRIC_COLS, ARTIFACT_FILES, GRAPH_FILES
from logcompass.synth import SynthProfile


def test_synth_then_run_then_report(tmp_path, capsys):
    log = tmp_path / "log.csv"
    out = tmp_path / "out"
    assert main(["synth", "--out", str(log), "--seed", "5",
                 "--sessions-per-block", "30", "--blocks", "4"]) == 0
    assert log.exists()
    assert main(["run", "--input", str(log), "--block-size", "30",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "blocks: 4 total, 3 classified" in captured.out
    for name in ARTIFACT_FILES.values():
        assert (out / name).exists()
    assert main(["report", "--artifacts", str(out)]) == 0
    assert "dominant type:" in capsys.readouterr().out


def test_stagewise_commands_chain(tmp_path, capsys):
    log = tmp_path / "log.csv"
    stage = tmp_path / "stage"
    stage.mkdir()
    assert main(["synth", "--out", str(log), "--seed", "8",
                 "--sessions-per-block", "25", "--blocks", "4"]) == 0
    assert main(["ingest", "--input", str(log), "--out", str(stage / "sessions.csv")]) == 0
    assert main(["metrics", "--sessions", str(stage / "sessions.csv"),
                 "--block-size", "25", "--out-dir", str(stage)]) == 0
    assert main(["classify", "--metrics", str(stage / "block_metrics.csv"),
                 "--out", str(stage / "classifications.csv")]) == 0
    assert main(["routes", "--classifications", str(stage / "classifications.csv"),
                 "--sessions", str(stage / "sessions.csv"), "--block-size", "25",
                 "--grouping", "user", "--out-dir", str(stage)]) == 0
    assert main(["communities", "--routes", str(stage / "routes.csv"),
                 "--linkage", "2.0", "--out", str(stage / "communities.csv")]) == 0
    assert main(["graph", "--out-dir", str(stage),
                 "--transitions", str(stage / "transitions.csv")]) == 0
    assert main(["report", "--artifacts", str(stage)]) == 0
    out = capsys.readouterr().out
    assert "communities:" in out
    for name in GRAPH_FILES.values():
        assert (stage / name).exists()


_REPORT_TEXT = (
    "blocks: 4 total, 3 classified\n"
    "sessions: 48 total, 36 classified\n"
    "type  sessions  share\n"
    "a            24  66.67%\n"
    "b            12  33.33%\n"
    "c             0   0.00%\n"
    "d             0   0.00%\n"
    "e             0   0.00%\n"
    "f             0   0.00%\n"
    "dominant type: a\n"
    "routes: 6\n"
    "communities: 1\n"
)


def test_every_command_prints_its_recorded_stdout(tmp_path, monkeypatch, capsys):
    # Relative paths, so that the lines that name a file are fixed texts.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    commands = [
        (["synth", "--out", "log.csv", "--seed", "9", "--users", "6",
          "--sessions-per-block", "12", "--blocks", "4"], "wrote 84 events to log.csv\n"),
        (["ingest", "--input", "log.csv", "--out", "d/sessions.csv"], "sessions: 48\n"),
        (["metrics", "--sessions", "d/sessions.csv", "--block-size", "12", "--out-dir", "d"],
         "blocks: 4\n"),
        (["classify", "--metrics", "d/block_metrics.csv", "--out", "d/classifications.csv"],
         "classified blocks: 3\n"),
        (["routes", "--classifications", "d/classifications.csv", "--sessions", "d/sessions.csv",
          "--block-size", "12", "--grouping", "user", "--out-dir", "d"], "routes: 6\n"),
        (["communities", "--routes", "d/routes.csv", "--linkage", "2", "--out", "d/communities.csv"],
         "communities: 1\n"),
        (["graph", "--out-dir", "d", "--export", "dot", "--export", "canonical"],
         "wrote d/compass.dot\nwrote d/compass.canonical\n"),
        (["report", "--artifacts", "d"], _REPORT_TEXT),
        (["run", "--input", "log.csv", "--block-size", "12", "--grouping", "user",
          "--linkage", "2", "--out", "r"], _REPORT_TEXT),
    ]
    for argv, want in commands:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want, ""), argv[0]


def test_readme_stage_commands_run_in_an_empty_directory(tmp_path, monkeypatch, capsys):
    # The README's synth line and its stage-by-stage block, scaled down to 4
    # blocks of 20 sessions. ingest once exited 2 here, after parsing the
    # whole log, because nothing had made out/ yet.
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synth = next(line for line in readme.splitlines() if line.startswith("logcompass synth "))
    block = readme.split("# stage by stage\n", 1)[1].split("```", 1)[0]
    small = {"10000": "20", "100": "4"}
    for line in [synth, *block.replace("\\\n", " ").splitlines()]:
        program, *argv = (small.get(word, word) for word in shlex.split(line))
        assert program == "logcompass"
        assert main(argv) == 0, line
    assert "blocks: 4 total, 3 classified" in capsys.readouterr().out


@pytest.mark.parametrize("argv, stage", [
    (["ingest", "--input", "log.csv", "--out"], "parse_log_files"),
    (["classify", "--metrics", f"out/{ARTIFACT_FILES['metrics']}", "--out"], "classify_series"),
    (["communities", "--routes", f"out/{ARTIFACT_FILES['routes']}", "--out"], "detect_communities"),
    (["metrics", "--sessions", f"out/{ARTIFACT_FILES['sessions']}", "--out-dir"],
     "metrics_from_summaries"),
    (["routes", "--classifications", f"out/{ARTIFACT_FILES['classifications']}",
      "--sessions", f"out/{ARTIFACT_FILES['sessions']}", "--block-size", "50", "--out-dir"],
     "routes_from_classifications"),
    (["graph", "--out-dir"], "build_base_graph"),
])
@pytest.mark.parametrize("under", ["F", "F/sub"])
def test_out_under_a_file_exits_2_before_the_stage_runs(
    tmp_path, monkeypatch, capsys, run_200, argv, stage, under
):
    # ingest once parsed and sessionized the whole log, and metrics, routes
    # and graph computed their stage, before each found that it could not
    # write there. ingest, classify and communities then printed
    # "[Errno 17] File exists" for the directory of their --out file.
    monkeypatch.chdir(run_200.parent)
    (tmp_path / "F").write_text("", encoding="utf-8")
    out = tmp_path / under / "out"
    with mock.patch.object(pipeline, stage, side_effect=AssertionError(stage)):
        assert main([*argv, str(out)]) == 2
    directory = out.parent if argv[-1] == "--out" else out
    err = capsys.readouterr().err
    assert err == f"input error: cannot make directory {directory}: a file is in the way\n"
    assert (tmp_path / "F").read_text(encoding="utf-8") == ""


def test_graph_takes_counts_up_to_int64(tmp_path):
    path = tmp_path / "transitions.csv"
    path.write_text(f"from,to,count\na,e,{2**63 - 1}\ne,a,{2**63 - 1}\n", encoding="utf-8")
    assert main(["graph", "--out-dir", str(tmp_path / "g"), "--transitions", str(path)]) == 0
    assert "edge a e inf" not in (tmp_path / "g" / "compass.canonical").read_text(encoding="utf-8")


def test_graph_single_format(tmp_path):
    out = tmp_path / "g"
    assert main(["graph", "--out-dir", str(out), "--export", "dot"]) == 0
    assert (out / "compass.dot").exists()
    assert not (out / "compass.graphml").exists()


@pytest.mark.parametrize("line, row", [
    ("a,f,-9", ["a", "f", "-9"]),  # once exit 3: edge weight must be positive
    ("a,b,7", ["a", "b", "7"]),  # once exit 0, the count of a,b set to 7
    ("a,b,0", ["a", "b", "0"]),
    ("x,y,5", ["x", "y", "5"]),  # once ignored, with exit 0
    ("a,g,1", ["a", "g", "1"]),
    (",a,1", ["", "a", "1"]),
    # once exit 3: "int too large to convert to float"
    pytest.param("a,f," + "9" * 400, ["a", "f", "9" * 400], id="400-nines"),
    # once exit 0, with "edge a e inf" in every graph file
    pytest.param(f"a,e,{10**308}\ne,a,{10**308}", ["a", "e", str(10**308)], id="1e308-both-ways"),
    (f"a,e,{2**63}", ["a", "e", str(2**63)]),
])
def test_graph_refuses_bad_transitions(tmp_path, capsys, line, row):
    path = tmp_path / "transitions.csv"
    path.write_text(f"from,to,count\na,b,3\n{line}\n", encoding="utf-8")
    assert main(["graph", "--out-dir", str(tmp_path / "g"), "--transitions", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: bad transitions file {path}: row {row!r}\n"
    path.write_text("from,to,count\na,b,3\n", encoding="utf-8")
    assert main(["graph", "--out-dir", str(tmp_path / "g"), "--transitions", str(path)]) == 0


@pytest.mark.parametrize("profile", [
    ["--seed", "5", "--sessions-per-block", "30", "--blocks", "4"],
    ["--seed", "9", "--users", "6", "--sessions-per-block", "12", "--blocks", "6",
     "--k-dist", "heavy-tail", "--block-size", "5", "--grouping", "user", "--linkage", "2"],
    ["--seed", "2", "--sessions-per-block", "20", "--blocks", "3",
     "--k-dist", "uniform-range(1,6)", "--block-size", "7", "--z", "0.5"],
    # one block: nothing classified, no dominant type
    ["--seed", "3", "--sessions-per-block", "10", "--blocks", "1", "--block-size", "50"],
])
def test_run_prints_what_report_prints(tmp_path, capsys, profile):
    synth = {"--seed", "--users", "--sessions-per-block", "--blocks", "--k-dist"}
    pairs = list(zip(profile[::2], profile[1::2]))
    log, out = tmp_path / "log.csv", tmp_path / "out"
    assert main(["synth", "--out", str(log), *(x for p in pairs if p[0] in synth for x in p)]) == 0
    capsys.readouterr()
    assert main(["run", "--input", str(log), "--out", str(out),
                 *(x for p in pairs if p[0] not in synth for x in p)]) == 0
    ran = capsys.readouterr().out
    assert main(["report", "--artifacts", str(out)]) == 0
    assert ran == capsys.readouterr().out
    assert ran.startswith("blocks: ")


def test_empty_input_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    code = main(["run", "--input", str(empty), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "no sessions" in capsys.readouterr().err


def test_missing_input_file_is_input_error(tmp_path, capsys):
    code = main(["run", "--input", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_unknown_flag_is_config_error(capsys):
    assert main(["run", "--nonsense"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_choice_is_config_error(tmp_path, capsys):
    code = main(["run", "--input", "x", "--format", "z", "--out", str(tmp_path)])
    assert code == 1


def test_bad_z_is_config_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("2021-03-01T00:00:00Z,u1,a1\n", encoding="utf-8")
    code = main(["run", "--input", str(log), "--z", "2.0", "--out", str(tmp_path / "o")])
    assert code == 1


def test_report_on_missing_artifacts(tmp_path, capsys):
    assert main(["report", "--artifacts", str(tmp_path)]) == 2
    assert "missing: metrics" in capsys.readouterr().err


def test_synth_profile_file_with_override(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"sessions_per_block": 10, "n_blocks": 2, "seed": 1}))
    log = tmp_path / "log.csv"
    assert main(["synth", "--profile", str(profile), "--seed", "2", "--out", str(log)]) == 0
    base = log.read_bytes()
    # same profile, same override => identical bytes
    assert main(["synth", "--profile", str(profile), "--seed", "2", "--out", str(log)]) == 0
    assert log.read_bytes() == base


def test_synth_bad_profile_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}", encoding="utf-8")
    assert main(["synth", "--profile", str(bad), "--out", str(tmp_path / "l.csv")]) == 1


def test_ingest_diagnostics_file(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("garbage\n2021-03-01T00:00:00Z,u1,a1\n", encoding="utf-8")
    diag = tmp_path / "diag.txt"
    assert main(["ingest", "--input", str(log), "--out", str(tmp_path / "s.csv"),
                 "--diagnostics", str(diag)]) == 0
    assert diag.read_text(encoding="utf-8").startswith("line 1: ")


def test_filters_file(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(
        "2021-03-01T00:00:00Z,u1,a1,botnet\n2021-03-01T00:00:10Z,u2,a2\n",
        encoding="utf-8",
    )
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"agent_deny_patterns": ["bot"]}), encoding="utf-8")
    assert main(["ingest", "--input", str(log), "--filters", str(rules),
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert "sessions: 1" in capsys.readouterr().out


def test_bad_filters_file_is_config_error(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"deny": ["bot"]}), encoding="utf-8")
    assert main(["ingest", "--input", "x", "--filters", str(rules), "--out", "y"]) == 1


# Patterns that re.compile refuses with OverflowError and RecursionError,
# not re.error; each once ended run with exit 3.
@pytest.mark.parametrize("pattern", ["a{99999999999}", "(" * 1200 + "a" + ")" * 1200],
                         ids=["repeat-overflow", "nested-groups"])
def test_uncompilable_filter_pattern_is_config_error(tmp_path, capsys, pattern):
    log, rules = tmp_path / "log.csv", tmp_path / "rules.json"
    log.write_text("2021-03-01T00:00:00Z,u1,a1\n", encoding="utf-8")
    rules.write_text(json.dumps({"item_allow_pattern": pattern}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--input", str(log), "--filters", str(rules), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: bad filter pattern {pattern!r}: ")
    assert not out.exists()


# JSON config files that each once ended a command with exit 3.
_UNREADABLE_CONFIG = pytest.mark.parametrize("data, reason", [
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    (b'{"seed": "\xff"}', "not UTF-8 text"),
    (b'{"seed": ' + b"1" * 5000 + b"}", "integer too long"),
], ids=["nested", "not-utf8", "long-int"])


@_UNREADABLE_CONFIG
def test_unreadable_filters_file_is_config_error(tmp_path, capsys, data, reason):
    rules = tmp_path / "rules.json"
    rules.write_bytes(data)
    out = tmp_path / "s.csv"
    assert main(["ingest", "--input", "x", "--filters", str(rules), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: bad filter file {rules}: {reason}\n"
    assert not out.exists()


@_UNREADABLE_CONFIG
def test_unreadable_profile_is_config_error(tmp_path, capsys, data, reason):
    profile = tmp_path / "profile.json"
    profile.write_bytes(data)
    out = tmp_path / "log.csv"
    assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: bad profile {profile}: {reason}\n"
    assert not out.exists()


def _routes_file(tmp_path):
    path = tmp_path / "routes.csv"
    path.write_text(
        "owner,steps,span_start,span_end\nu1,a,1,1\nu2,d,1,1\nu3,\"b,b,b,b\",1,4\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("value", ["-0.5", "nan"])
def test_bad_linkage_on_communities_is_config_error(tmp_path, capsys, value):
    out = tmp_path / "communities.csv"
    code = main(["communities", "--routes", str(_routes_file(tmp_path)),
                 "--linkage", value, "--out", str(out)])
    assert code == 1
    assert "configuration error: linkage threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-0.5", "nan"])
def test_bad_linkage_on_run_is_config_error(tmp_path, capsys, value):
    log = tmp_path / "log.csv"
    log.write_text("2021-03-01T00:00:00Z,u1,a1\n", encoding="utf-8")
    code = main(["run", "--input", str(log), "--linkage", value, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error: linkage threshold" in capsys.readouterr().err


def test_infinite_linkage_merges_all_routes(tmp_path, capsys):
    out = tmp_path / "communities.csv"
    assert main(["communities", "--routes", str(_routes_file(tmp_path)),
                 "--linkage", "inf", "--out", str(out)]) == 0
    assert "communities: 1" in capsys.readouterr().out


def test_gapped_sessions_file_is_input_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    assert main(["synth", "--out", str(log), "--seed", "3",
                 "--sessions-per-block", "10", "--blocks", "2"]) == 0
    full = tmp_path / "sessions.csv"
    assert main(["ingest", "--input", str(log), "--out", str(full)]) == 0
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("".join(lines[:1] + lines[1::2]), encoding="utf-8")
    code = main(["metrics", "--sessions", str(gapped), "--block-size", "5",
                 "--out-dir", str(tmp_path / "m")])
    assert code == 2
    assert "session_id 2 at row 1" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, lines", [
    ("a", [b"2021-03-01T00:00:00Z,u1,a1", b"2021-03-01T00:00:05Z,u\xff2,a2",
           b"2021-03-01T00:00:10Z,u3,a3"]),
    ("b", [b'{"ts": 0, "user": "u1", "item": "a1"}', b'{"ts": 5, "user": "u\xc3", "item": "a2"}',
           b'{"ts": 10, "user": "u3", "item": "a3"}']),
])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_invalid_utf8_line_is_a_diagnostic(tmp_path, capsys, fmt, lines, newline):
    log = tmp_path / "log"
    log.write_bytes(newline.join(lines) + newline)
    sessions = tmp_path / "sessions.csv"
    assert main(["ingest", "--input", str(log), "--format", fmt, "--out", str(sessions)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "line 2: invalid UTF-8\n"
    assert "sessions: 2" in captured.out
    rows = sessions.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["u1", "u3"]


def test_invalid_utf8_line_does_not_stop_run(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_bytes(b"2021-03-01T00:00:00Z,u1,a1\n\xff\xfe\n2021-03-01T00:00:10Z,u2,a2\n")
    assert main(["run", "--input", str(log), "--block-size", "1",
                 "--out", str(tmp_path / "out")]) == 0
    assert "line 2: invalid UTF-8" in capsys.readouterr().err


def test_escaped_lone_surrogate_is_a_diagnostic(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text('{"ts": 0, "user": "\\ud800", "item": "a1"}\n{"ts": 5, "user": "u2", "item": "a2"}\n',
                   encoding="utf-8")
    assert main(["run", "--input", str(log), "--format", "b", "--block-size", "1",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "line 1: user and item must be valid Unicode text\n"
    rows = (tmp_path / "out" / "sessions.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1:] == ["0,u2,5,5,1"]


@pytest.mark.parametrize("cmd, artifact, text", [
    (["metrics", "--block-size", "1"], "sessions", "session_id,user_hash,start_ms,end_ms,k_items\n0,u\xff,0,0,1\n"),
    (["communities"], "routes", "owner,steps,span_start,span_end\nu\xff,a,1,1\n"),
])
def test_non_utf8_artifact_exits_2(tmp_path, capsys, cmd, artifact, text):
    path = tmp_path / f"{artifact}.csv"
    path.write_bytes(text.encode("latin-1"))
    out = ["--out-dir", str(tmp_path)] if cmd[0] == "metrics" else ["--out", str(tmp_path / "c.csv")]
    assert main(cmd + [f"--{artifact}", str(path)] + out) == 2
    assert capsys.readouterr().err == f"input error: bad {artifact} file {path}: not UTF-8 text\n"


def test_deeply_nested_record_does_not_stop_run(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("[" * 1000 + "]" * 1000 + '\n{"ts": 5, "user": "u2", "item": "a2"}\n',
                   encoding="utf-8")
    assert main(["run", "--input", str(log), "--format", "b", "--block-size", "1",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "line 1: invalid record: nested too deeply\n"
    rows = (tmp_path / "out" / "sessions.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1:] == ["0,u2,5,5,1"]


def test_user_with_cr_round_trips_through_stage_commands(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(
        f'{{"ts": {t}, "user": "{u}", "item": "a{t}"}}\n'
        for t, u in [(0, "a\\rb"), (1, "u2"), (4_000_000, "a\\rb"), (4_000_001, "u2")]
    ), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--input", str(log), "--format", "b", "--block-size", "1",
                 "--grouping", "user", "--out", str(out)]) == 0
    stages = tmp_path / "stages"
    sessions = str(out / "sessions.csv")
    assert main(["metrics", "--sessions", sessions, "--block-size", "1", "--out-dir", str(stages)]) == 0
    assert main(["classify", "--metrics", str(stages / "block_metrics.csv"),
                 "--out", str(stages / "classifications.csv")]) == 0
    assert main(["routes", "--classifications", str(stages / "classifications.csv"),
                 "--sessions", sessions, "--block-size", "1", "--grouping", "user",
                 "--out-dir", str(stages)]) == 0
    for name in ("block_metrics.csv", "classifications.csv", "routes.csv"):
        assert (stages / name).read_bytes() == (out / name).read_bytes(), name
    assert b'"a\rb"' in (out / "routes.csv").read_bytes()


def test_duplicate_route_owner_is_input_error(tmp_path, capsys):
    routes = tmp_path / "routes.csv"
    routes.write_text("owner,steps,span_start,span_end\nu1,a,1,1\nu1,b,1,1\n", encoding="utf-8")
    out = tmp_path / "communities.csv"
    assert main(["communities", "--routes", str(routes), "--out", str(out)]) == 2
    assert "duplicate owner 'u1'" in capsys.readouterr().err
    assert not out.exists()


def test_field_over_csv_limit_exits_2(tmp_path, capsys):
    # csv.reader refuses fields over 131,072 characters by default.
    log = tmp_path / "log.csv"
    log.write_text(f"2021-03-01T10:00:00Z,{'u' * 140_000},a1\n", encoding="utf-8")
    sessions = tmp_path / "sessions.csv"
    assert main(["ingest", "--input", str(log), "--out", str(sessions)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--sessions", str(sessions), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: bad sessions file {sessions}: field larger than field limit")


def test_report_on_block_missing_from_metrics_exits_2(tmp_path, capsys):
    log = tmp_path / "log.csv"
    out = tmp_path / "out"
    assert main(["synth", "--out", str(log), "--seed", "5",
                 "--sessions-per-block", "30", "--blocks", "4"]) == 0
    assert main(["run", "--input", str(log), "--block-size", "30", "--out", str(out)]) == 0
    classifications = out / ARTIFACT_FILES["classifications"]
    lines = classifications.read_text(encoding="utf-8").splitlines(keepends=True)
    # The last block, so that the rows stay ordered by block_index.
    assert lines[-1].startswith("3,")
    classifications.write_text("".join(lines[:-1]) + "9," + lines[-1][2:], encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--artifacts", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: classifications name block 9, which the metrics lack\n"
    )


@pytest.fixture(scope="module")
def run_200(tmp_path_factory):
    """The artifacts of `run --block-size 50` on a 200-session corpus."""
    base = tmp_path_factory.mktemp("run_200")
    log = base / "log.csv"
    quiet = io.StringIO()
    with redirect_stdout(quiet):
        assert main(["synth", "--out", str(log), "--seed", "5",
                     "--sessions-per-block", "50", "--blocks", "4"]) == 0
        assert main(["run", "--input", str(log), "--block-size", "50", "--out", str(base / "out")]) == 0
    return base / "out"


def _set(row, col, value):
    def edit(rows):
        rows[row][col] = value
        return rows, rows[row]

    return edit


def _repeat(row):
    def edit(rows):
        rows.insert(row + 1, list(rows[row]))
        return rows, rows[row + 1]

    return edit


def _reverse(rows):
    rows.reverse()
    return rows, rows[1]


def _swap(row, a, b):
    def edit(rows):
        rows[row][a], rows[row][b] = rows[row][b], rows[row][a]
        return rows, rows[row]

    return edit


_METRIC = {name: i for i, name in enumerate(_METRIC_COLS)}


@pytest.mark.parametrize("cmd, key, edit", [
    # Each once exited 3: "first block has no variety" or "variety must be finite".
    ("classify", "metrics", _set(1, _METRIC["variety"], "")),
    ("classify", "metrics", _set(1, _METRIC["variety"], "nan")),
    ("classify", "metrics", _set(1, _METRIC["variety"], "inf")),
    # Each once exited 0 and wrote classifications.
    ("classify", "metrics", _set(2, _METRIC["alpha"], "")),
    ("classify", "metrics", _set(3, _METRIC["beta"], "-inf")),
    ("classify", "metrics", _set(2, _METRIC["mean_n"], "nan")),
    ("classify", "metrics", _set(0, _METRIC["mean_n"], "inf")),
    ("classify", "metrics", _set(1, _METRIC["mean_k"], "0.0")),
    ("classify", "metrics", _set(3, _METRIC["mean_k"], "-2.5")),
    ("classify", "metrics", _set(1, _METRIC["block_index"], "0")),
    ("classify", "metrics", _set(3, _METRIC["block_index"], "2")),
    # Each once exited 0: report printed "sessions: 100 total, 50 classified",
    # and classify wrote classifications.
    ("report", "metrics", _set(1, _METRIC["q"], "-50")),
    ("classify", "metrics", _set(2, _METRIC["q"], "0")),
    ("classify", "metrics", _swap(1, _METRIC["n_min"], _METRIC["n_max"])),
    ("classify", "metrics", _swap(3, _METRIC["k_min"], _METRIC["k_max"])),
    ("classify", "metrics", _set(0, _METRIC["n_min"], "0")),
    ("classify", "metrics", _set(2, _METRIC["k_min"], "-1")),
    # Once exited 3: "int too large to convert to float".
    ("report", "metrics", _set(1, _METRIC["q"], str(10**400))),
    # Each once exited 0 and wrote classifications.
    ("classify", "metrics", _set(2, _METRIC["n_max"], str(2**63))),
    ("classify", "metrics", _set(3, _METRIC["block_index"], str(2**63))),
    # Each once exited 0: classify wrote a block no run has.
    ("classify", "metrics", _set(0, _METRIC["block_index"], "-1")),
    ("report", "metrics", _set(0, _METRIC["block_index"], str(-(10**400)))),
    # Each once exited 3: "classifications must be ordered by block_index".
    ("routes", "classifications", _reverse),
    ("routes", "classifications", _repeat(0)),
    # Once exited 0 with a report of 4 blocks, and 200 of 200 sessions, classified.
    ("report", "classifications", _repeat(1)),
])
def test_corrupt_metrics_or_classifications_exit_2(tmp_path, capsys, run_200, cmd, key, edit):
    out = tmp_path / "out"
    shutil.copytree(run_200, out)
    path = out / ARTIFACT_FILES[key]
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    rows, bad = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    argv = {
        "classify": ["classify", "--metrics", str(path), "--out", str(tmp_path / "c.csv")],
        "routes": ["routes", "--classifications", str(path), "--sessions",
                   str(out / ARTIFACT_FILES["sessions"]), "--block-size", "50",
                   "--out-dir", str(tmp_path / "r")],
        "report": ["report", "--artifacts", str(out)],
    }[cmd]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: bad {key} file {path}: row {bad!r}\n"
    assert not (tmp_path / "c.csv").exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("tail, bad", [
    # Once printed "communities: 4" with exit 0.
    ("\n\nnot,a,row\n", []),
    ("not,a,row\n", ["not", "a", "row"]),
    ("1,1,0,0,0,0,0,1,f,extra\n2,1,0,0,0,0,0,1,f\n", None),
    ("2,1,0,0,0,0,0,1,f\n", ["2", "1", "0", "0", "0", "0", "0", "1", "f"]),
    ("0,1,0,0,0,0,0,1,f\n", ["0", "1", "0", "0", "0", "0", "0", "1", "f"]),
    ("1,0,0,0,0,0,0,1,f\n", ["1", "0", "0", "0", "0", "0", "0", "1", "f"]),
    ("1,1,0,0,0,0,-1,2,f\n", ["1", "1", "0", "0", "0", "0", "-1", "2", "f"]),
    ("1,1,0,0,0,0,0,1.5,f\n", ["1", "1", "0", "0", "0", "0", "0", "1.5", "f"]),
    ("1,1,0,0,0,0,0,1,g\n", ["1", "1", "0", "0", "0", "0", "0", "1", "g"]),
    # Both once counted: a position that is not the dominant label of the
    # counts, and counts adding up to less than the size.
    ("1,1,5,0,0,0,0,0,f\n", ["1", "1", "5", "0", "0", "0", "0", "0", "f"]),
    ("1,3,0,0,0,0,0,0,a\n", ["1", "3", "0", "0", "0", "0", "0", "0", "a"]),
    ("1,1,0,0,0,0,0,1\n", ["1", "1", "0", "0", "0", "0", "0", "1"]),
])
def test_report_checks_each_community_row(tmp_path, capsys, run_200, tail, bad):
    out = tmp_path / "out"
    shutil.copytree(run_200, out)
    path = out / ARTIFACT_FILES["communities"]
    assert path.read_text(encoding="utf-8").count("\n") == 2  # the header and community 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(tail)
    capsys.readouterr()
    if bad is None:  # surplus fields are ignored, as every artifact reader does
        assert main(["report", "--artifacts", str(out)]) == 0
        assert capsys.readouterr().out.endswith("communities: 3\n")
        return
    assert main(["report", "--artifacts", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: bad communities file {path}: row {bad!r}\n"


def _sessions_edit(row, col, value):
    def edit(lines):
        fields = lines[row].split(",")
        fields[col] = value
        lines[row] = ",".join(fields)

    return edit


@pytest.mark.parametrize("edit", [
    lambda lines: lines.__setitem__(0, "session_id,user,start_ms,end_ms,k_items"),
    lambda lines: lines.pop(3),  # ids no longer run 0..n-1
    lambda lines: lines.__setitem__(5, "4,u1"),
    _sessions_edit(7, 4, "0"),
    _sessions_edit(9, 2, str(2**63)),
    _sessions_edit(11, 3, "x"),
    _sessions_edit(13, 1, "u\udcff"),  # not UTF-8
    _sessions_edit(15, 1, "u" * 140_000),  # over csv's field limit
], ids=["header", "gap", "short", "k", "int64", "end", "utf8", "limit"])
def test_faulty_sessions_file_is_refused_alike_by_metrics_and_routes(tmp_path, capsys, run_200, edit):
    # metrics and routes keep different columns of sessions.csv, but check
    # every field of every row as one reader.
    lines = (run_200 / ARTIFACT_FILES["sessions"]).read_text(encoding="utf-8").split("\n")
    edit(lines)
    path = tmp_path / "sessions.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    classifications = str(run_200 / ARTIFACT_FILES["classifications"])
    errors = []
    for argv in (
        ["metrics", "--block-size", "50"],
        ["routes", "--classifications", classifications, "--block-size", "50", "--grouping", "stream"],
        ["routes", "--classifications", classifications, "--block-size", "50", "--grouping", "user"],
    ):
        capsys.readouterr()
        assert main([*argv, "--sessions", str(path), "--out-dir", str(out)]) == 2, argv
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"input error: bad sessions file {path}: ")
    assert errors == errors[:1] * 3
    assert not out.exists()


@pytest.mark.parametrize("grouping", ["stream", "user"])
@pytest.mark.parametrize("row, block", [(-1, "9"), (1, "-1")])
def test_routes_on_block_missing_from_sessions_exits_2(tmp_path, capsys, run_200, grouping, row, block):
    # Each once exited 0: stream grouping wrote the block's route, user grouping dropped it.
    classifications = tmp_path / "classifications.csv"
    lines = (run_200 / ARTIFACT_FILES["classifications"]).read_text(encoding="utf-8").splitlines(keepends=True)
    # The first or the last block, so that the rows stay ordered by block_index.
    lines[row] = block + lines[row][lines[row].index(","):]
    classifications.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["routes", "--classifications", str(classifications),
                 "--sessions", str(run_200 / ARTIFACT_FILES["sessions"]), "--block-size", "50",
                 "--grouping", grouping, "--out-dir", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"input error: classifications name block {block}, which the sessions lack\n"
    assert not (tmp_path / "r").exists()


def test_each_synth_flag_sets_its_profile_field(tmp_path):
    flags = {
        "--seed": ("seed", 7), "--users": ("n_users", 3), "--items": ("n_items", 4000),
        "--sessions-per-block": ("sessions_per_block", 5), "--blocks": ("n_blocks", 6),
        "--k-dist": ("k_distribution", "heavy-tail"), "--drift-k": ("drift_k", 1.5),
        "--drift-q": ("drift_q", 0.5),
    }
    assert {name for name, _ in flags.values()} == {f.name for f in fields(SynthProfile)}
    out = str(tmp_path / "log.csv")
    for flag, (name, value) in flags.items():
        with mock.patch.object(cli, "write_log", return_value=0) as write_log:
            assert main(["synth", "--out", out, flag, str(value)]) == 0
        write_log.assert_called_once_with(replace(SynthProfile(), **{name: value}), out)
    with mock.patch.object(cli, "write_log", return_value=0) as write_log:
        assert main(["synth", "--out", out]) == 0
    write_log.assert_called_once_with(SynthProfile(), out)


def test_sessions_time_outside_int64_exits_2(tmp_path, capsys):
    sessions = tmp_path / "sessions.csv"
    sessions.write_text(
        f"session_id,user_hash,start_ms,end_ms,k_items\n0,u1,{2**63},{2**63},1\n", encoding="utf-8"
    )
    assert main(["metrics", "--sessions", str(sessions), "--out-dir", str(tmp_path / "m")]) == 2
    assert "start_ms or end_ms outside the signed 64-bit range" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, key, refusal", [
    # Each once exited 0, with "blocks: 0", "routes: 0" or "classified blocks: 0".
    (["metrics"], "sessions", "no sessions"),
    (["routes", "--grouping", "stream"], "sessions", "no sessions"),
    (["routes", "--grouping", "user"], "sessions", "no sessions"),
    (["classify"], "metrics", "no blocks"),
])
def test_header_only_file_exits_2(tmp_path, capsys, cmd, key, refusal):
    # run and ingest exit 2 on an input without sessions, so they never
    # write these files; a classifications.csv of the header alone is what
    # a one-block run writes.
    headers = {"sessions": pipeline._SESSION_COLS, "metrics": _METRIC_COLS,
               "classifications": pipeline._CLASSIFICATION_COLS}
    for name, header in headers.items():
        (tmp_path / ARTIFACT_FILES[name]).write_text(",".join(header) + "\n", encoding="utf-8")
    path = tmp_path / ARTIFACT_FILES[key]
    inputs = {
        "metrics": ["--sessions", str(path), "--out-dir", str(tmp_path / "out")],
        "routes": ["--classifications", str(tmp_path / ARTIFACT_FILES["classifications"]),
                   "--sessions", str(path), "--out-dir", str(tmp_path / "out")],
        "classify": ["--metrics", str(path), "--out", str(tmp_path / "out" / "c.csv")],
    }[cmd[0]]
    assert main([*cmd, *inputs]) == 2
    assert capsys.readouterr().err == f"input error: bad {key} file {path}: {refusal}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd", [
    # each once exited 3, or 0 with an empty routes.csv, where run exits 1
    ["metrics", "--block-size", "0"],
    ["routes", "--block-size", "0", "--grouping", "user"],
    ["routes", "--block-size", "-3", "--grouping", "user"],
])
def test_stage_commands_refuse_what_run_refuses(tmp_path, capsys, cmd):
    log = tmp_path / "log.csv"
    assert main(["synth", "--out", str(log), "--seed", "3",
                 "--sessions-per-block", "10", "--blocks", "3"]) == 0
    out = tmp_path / "out"
    assert main(["run", "--input", str(log), "--block-size", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    inputs = {
        "metrics": ["--sessions", str(out / "sessions.csv")],
        "routes": ["--classifications", str(out / "classifications.csv"),
                   "--sessions", str(out / "sessions.csv")],
    }[cmd[0]]
    stage = tmp_path / "stage"
    assert main(cmd + inputs + ["--out-dir", str(stage)]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: block_size must be >= 1\n"
    assert not stage.exists()
    assert main(["run", "--input", str(log), "--block-size", cmd[2], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("value", ["inf", "1e308"])
@pytest.mark.parametrize("cmd", [["run", "--out"], ["ingest", "--out"]])
def test_infinite_gap_is_config_error(tmp_path, capsys, cmd, value):
    # Both once exited 3: "cannot convert float infinity to integer".
    log = tmp_path / "log.csv"
    log.write_text("2021-03-01T00:00:00Z,u1,a1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([cmd[0], "--input", str(log), "--gap-seconds", value, cmd[1], str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: gap_seconds must be finite in milliseconds, got {float(value)!r}\n"
    )
    assert not out.exists()


def test_flag_defaults_are_the_config_defaults():
    from logcompass.cli import _config, build_parser
    from logcompass.pipeline import PipelineConfig

    parser = build_parser()
    for argv in (["run", "--input", "x", "--out", "."], ["ingest", "--input", "x", "--out", "s"],
                 ["metrics", "--sessions", "s", "--out-dir", "."],
                 ["classify", "--metrics", "m", "--out", "c"],
                 ["routes", "--classifications", "c", "--sessions", "s", "--out-dir", "."],
                 ["communities", "--routes", "r", "--out", "c"], ["graph", "--out-dir", "."]):
        cfg = _config(parser.parse_args(argv))
        assert cfg == PipelineConfig(inputs=cfg.inputs, out_dir=cfg.out_dir), argv


def test_each_flag_sets_its_config_field(tmp_path):
    from logcompass.cli import _config, build_parser
    from logcompass.events import FilterRules
    from logcompass.pipeline import PipelineConfig
    from logcompass.taxonomy import ClassifierConfig

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"agent_deny_patterns": ["bot"]}), encoding="utf-8")
    argv = ["run", "--input", "a.log", "--input", "b.log", "--format", "b", "--gap-seconds", "60",
            "--count-policy", "raw", "--filters", str(rules), "--block-size", "7", "--z", "0.3",
            "--epsilon", "0.4", "--grouping", "user", "--linkage", "2.5", "--out", "o",
            "--export", "dot", "--weight-from-transitions"]
    assert _config(build_parser().parse_args(argv)) == PipelineConfig(
        inputs=(Path("a.log"), Path("b.log")), out_dir=Path("o"), log_format="b",
        filter_rules=FilterRules(("bot",)), gap_seconds=60.0, count_policy="raw", block_size=7,
        classifier=ClassifierConfig(z=0.3, epsilon=0.4), grouping="user",
        linkage_threshold=2.5, export_formats=("dot",), weight_edges_from_transitions=True,
    )


_SETTINGS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "per_block": st.integers(3, 12),
    "blocks": st.integers(1, 5),
    "k_dist": st.sampled_from(["mostly-one", "heavy-tail", "uniform-range(1,6)"]),
    "block_size": st.integers(1, 15),
    "grouping": st.sampled_from(["stream", "user"]),
    "linkage": st.sampled_from(["0", "1.5", "3", "inf"]),
    "z": st.sampled_from(["0.1", "0.25", "0.5", "0.75"]),
    "epsilon": st.sampled_from(["0.05", "0.25", "1.0"]),
    "count_policy": st.sampled_from(["distinct", "raw"]),
    "weighted": st.booleans(),
})


@settings(max_examples=25, deadline=None)
@given(_SETTINGS)
def test_stage_by_stage_equals_run(tmp_path_factory, s):
    base = tmp_path_factory.mktemp("chain")
    log, run_out, stage = base / "log.csv", base / "run", base / "stage"
    stage.mkdir()
    quiet = io.StringIO()
    with redirect_stdout(quiet):
        assert main(["synth", "--out", str(log), "--seed", str(s["seed"]), "--users", "6",
                     "--sessions-per-block", str(s["per_block"]), "--blocks", str(s["blocks"]),
                     "--k-dist", s["k_dist"]]) == 0
        bs = ["--block-size", str(s["block_size"])]
        assert main(["run", "--input", str(log), "--count-policy", s["count_policy"], *bs,
                     "--z", s["z"], "--epsilon", s["epsilon"], "--grouping", s["grouping"],
                     "--linkage", s["linkage"], "--out", str(run_out)]
                    + (["--weight-from-transitions"] if s["weighted"] else [])) == 0
        art = {k: str(stage / v) for k, v in ARTIFACT_FILES.items()}
        assert main(["ingest", "--input", str(log), "--count-policy", s["count_policy"],
                     "--out", art["sessions"]]) == 0
        assert main(["metrics", "--sessions", art["sessions"], *bs, "--out-dir", str(stage)]) == 0
        assert main(["classify", "--metrics", art["metrics"], "--z", s["z"],
                     "--epsilon", s["epsilon"], "--out", art["classifications"]]) == 0
        assert main(["routes", "--classifications", art["classifications"], "--sessions",
                     art["sessions"], *bs, "--grouping", s["grouping"], "--out-dir", str(stage)]) == 0
        assert main(["communities", "--routes", art["routes"], "--linkage", s["linkage"],
                     "--out", art["communities"]]) == 0
        assert main(["graph", "--out-dir", str(stage)]
                    + (["--transitions", art["transitions"]] if s["weighted"] else [])) == 0
    run_files = sorted(p.name for p in run_out.iterdir() if p.name != ARTIFACT_FILES["report"])
    assert sorted(p.name for p in stage.iterdir()) == run_files
    for name in run_files:
        assert (stage / name).read_bytes() == (run_out / name).read_bytes(), name
