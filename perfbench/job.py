"""One job invocation in a fresh process: the unit the benchmark times.

Usage: python3 perfbench/job.py SPEC.json

SPEC keys: mode ("run", "replay" or "setup-run"), workload, corpus,
filters (path or null), sessions (replay input), out_dir, diagnostics and
trace (path for the span file, or null). Prints one JSON line with run_s,
the process's peak RSS in MB and the captured stdout of the CLI commands;
exits non-zero if the job fails.

The job is always logcompass's own entry point: run_pipeline, or cli.main
once per stage command. Traced, the stage functions that those entry points
look up as module globals of logcompass.pipeline and logcompass.cli are
first replaced by wrappers that open a span around the original call and
record counts from its arguments and result, so the traced run makes the
program's own calls in the program's own order.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logcompass import cli, pipeline  # noqa: E402
from logcompass.events import FilterRules  # noqa: E402
from logcompass.pipeline import ARTIFACT_FILES, PipelineConfig  # noqa: E402

from tracing import ROOT, Tracer, peak_rss_mb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _written(args, result) -> dict:
    # Every artifact writer is writer(rows, path).
    return {"rows_in": len(args[0]), "bytes": Path(args[1]).stat().st_size}


def _read(args, result) -> dict:
    return {"rows": len(result)}


def _communities(args, result) -> dict:
    routes = args[0]
    n = len(routes)
    return {"rows_in": n, "pairs": n * (n - 1) // 2,
            "distinct": len({r.steps for r in routes}), "merges": n - len(result)}


# Stage function name -> (layer, counts(args, result)). Layers are named
# after the module that holds the call; tracing.LAYERS lists their counts.
TRACED_CALLS = {
    "parse_log_files": ("events.parse", lambda a, r: {
        "lines_in": r[1], "events_out": len(r[0]), "malformed": r[2]}),
    "filter_events": ("events.filter", lambda a, r: {"rows_in": len(a[0]), "rows_out": len(r)}),
    "sessionize_summaries": ("pipeline.sessionize", lambda a, r: {
        "rows_in": len(a[0]), "sessions_out": len(r)}),
    "write_sessions_csv": ("pipeline.write_sessions", _written),
    "metrics_from_summaries": ("blocks.metrics", lambda a, r: {"rows_in": len(a[0]), "blocks": len(r)}),
    "classify_series": ("taxonomy.classify", lambda a, r: {
        "rows_in": len(a[0]), "fallback": sum(1 for c in r if c.cost > 0)}),
    "routes_from_classifications": ("routes.extract", lambda a, r: {
        "rows_in": len(a[0]), "routes": len(r[0]), "steps": sum(len(x.steps) for x in r[0])}),
    "detect_communities": ("routes.communities", _communities),
    "read_sessions_csv": ("pipeline.read_sessions", _read),
    "read_metrics_csv": ("pipeline.read_metrics", _read),
    "read_classifications_csv": ("pipeline.read_classifications", _read),
    "read_routes_csv": ("pipeline.read_routes", _read),
    "write_metrics_csv": ("pipeline.write_artifacts", _written),
    "write_metrics_jsonl": ("pipeline.write_artifacts", _written),
    "write_classifications_csv": ("pipeline.write_artifacts", _written),
    "write_routes_csv": ("pipeline.write_artifacts", _written),
    "write_transitions_csv": ("pipeline.write_artifacts", lambda a, r: {
        "rows_in": len(a[0].counts), "bytes": Path(a[1]).stat().st_size}),
    "write_communities_csv": ("pipeline.write_artifacts", _written),
    "build_base_graph": ("graphio.export", lambda a, r: {}),
    "export_graph": ("graphio.export", lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    # run_pipeline writes the report as indented JSON plus a newline;
    # the report command prints report_stats's text plus a newline.
    "build_report": ("pipeline.report", lambda a, r: {
        "bytes": len(json.dumps(r, sort_keys=True, indent=2).encode("utf-8")) + 1}),
    "report_stats": ("pipeline.report", lambda a, r: {"bytes": len(r.encode("utf-8")) + 1}),
}


def _traced(tr: Tracer, layer: str, fn, count):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tr.span(layer) as counts:
            result = fn(*args, **kwargs)
        counts.update(count(args, result))
        return result
    return call


@contextmanager
def traced_calls(tr: Tracer):
    """Wrap every TRACED_CALLS name on logcompass.pipeline and logcompass.cli in a span."""
    originals = [(m, name, getattr(m, name)) for m in (pipeline, cli)
                 for name in TRACED_CALLS if hasattr(m, name)]
    for module, name, fn in originals:
        layer, count = TRACED_CALLS[name]
        setattr(module, name, _traced(tr, layer, fn, count))
    try:
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def run_command(w, spec) -> list[str]:
    """The `logcompass run` argument list of a workload."""
    argv = ["run", "--input", spec["corpus"], "--format", w.log_format,
            "--block-size", str(w.block_size), "--grouping", w.grouping,
            "--linkage", repr(w.linkage), "--out", spec["out_dir"],
            "--diagnostics", spec["diagnostics"]]
    if spec["filters"]:
        argv += ["--filters", spec["filters"]]
    return argv


def replay_commands(w, spec) -> list[list[str]]:
    """The README's stage commands after ingest, on a saved sessions.csv."""
    out = spec["out_dir"]
    art = {k: str(Path(out) / v) for k, v in ARTIFACT_FILES.items()}
    bs = str(w.block_size)
    return [
        ["metrics", "--sessions", spec["sessions"], "--block-size", bs, "--out-dir", out],
        ["classify", "--metrics", art["metrics"], "--out", art["classifications"]],
        ["routes", "--classifications", art["classifications"], "--sessions", spec["sessions"],
         "--block-size", bs, "--grouping", w.grouping, "--out-dir", out],
        ["communities", "--routes", art["routes"], "--linkage", repr(w.linkage),
         "--out", art["communities"]],
        ["graph", "--out-dir", out],
        ["report", "--artifacts", out],
    ]


def _cli(argv: list[str], outputs: list[str]) -> None:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"logcompass {argv[0]} exited {rc}")
    outputs.append(buf.getvalue())


def _config(w, spec) -> PipelineConfig:
    rules = cli.load_filter_rules(spec["filters"]) if spec["filters"] else FilterRules()
    return PipelineConfig(
        inputs=(Path(spec["corpus"]),), out_dir=Path(spec["out_dir"]),
        log_format=w.log_format, filter_rules=rules, block_size=w.block_size,
        grouping=w.grouping, linkage_threshold=w.linkage,
    )


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    w = WORKLOADS[spec["workload"]]
    outputs: list[str] = []
    tr = Tracer() if spec["trace"] else None
    with ExitStack() as stack:
        if spec["mode"] == "run":
            cfg = _config(w, spec)
            sink = stack.enter_context(open(spec["diagnostics"], "w", encoding="utf-8", newline=""))
            steps = [functools.partial(pipeline.run_pipeline, cfg, sink)]
        else:
            argvs = [run_command(w, spec)] if spec["mode"] == "setup-run" else replay_commands(w, spec)
            steps = [functools.partial(_cli, argv, outputs) for argv in argvs]
        if tr is not None:
            stack.enter_context(traced_calls(tr))
        t0 = time.perf_counter()
        with tr.span(ROOT) if tr is not None else nullcontext():
            for step in steps:
                step()
        run_s = time.perf_counter() - t0
    if tr is not None:
        with open(spec["trace"], "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
    print(json.dumps({
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "stdout": outputs[-1] if outputs else "",
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
