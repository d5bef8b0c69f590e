"""Command-line entry point.

Subcommands mirror the pipeline stages (ingest, metrics, classify, routes,
communities, graph, report), plus synth for corpus generation and run for
the whole pipeline. Exit codes: 0 success, 1 configuration error, 2 input
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .compass import build_base_graph
from .errors import ConfigError, InputError
from .events import FilterRules, filter_events
from .graphio import GRAPH_FORMATS, export_graph
from .pipeline import ARTIFACT_FILES, GRAPH_FILES, PipelineConfig
from .routes import detect_communities, transition_edge_weights
from .synth import SynthProfile, load_profile, write_log
from .taxonomy import ClassifierConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors (exit 1), not argparse's default 2.
    def error(self, message):
        raise ConfigError(message)


def load_filter_rules(path: str | Path) -> FilterRules:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad filter file {path}: {exc.msg}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"bad filter file {path}: not UTF-8 text") from None
        except ValueError:
            # A number past int()'s limit of 4,300 digits.
            raise ConfigError(f"bad filter file {path}: integer too long") from None
        except RecursionError:
            raise ConfigError(f"bad filter file {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"bad filter file {path}: expected a JSON object")
    unknown = sorted(set(data) - {"agent_deny_patterns", "item_allow_pattern"})
    if unknown:
        raise ConfigError(f"bad filter file {path}: unknown field {unknown[0]!r}")
    deny = data.get("agent_deny_patterns", [])
    if not isinstance(deny, list) or any(not isinstance(p, str) for p in deny):
        raise ConfigError(f"bad filter file {path}: agent_deny_patterns must be a list of patterns")
    allow = data.get("item_allow_pattern")
    if allow is not None and not isinstance(allow, str):
        raise ConfigError(f"bad filter file {path}: item_allow_pattern must be a pattern")
    return FilterRules(tuple(deny), allow)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="logcompass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ingest_flags(p):
        p.add_argument("--input", action="append", required=True, help="log file (repeatable)")
        p.add_argument("--format", choices=["a", "b"], default="a", help="log format")
        p.add_argument("--gap-seconds", type=float, default=1800.0)
        p.add_argument("--count-policy", choices=["distinct", "raw"], default="distinct")
        p.add_argument("--filters", help="JSON filter rules file")
        p.add_argument("--diagnostics", help="write malformed-line diagnostics here instead of stderr")

    p = sub.add_parser("synth", help="generate a deterministic synthetic log")
    p.add_argument("--profile", help="JSON profile file")
    p.add_argument("--out", required=True, help="output log file (format a)")
    p.add_argument("--seed", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--items", type=int)
    p.add_argument("--sessions-per-block", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--k-dist", help="mostly-one | heavy-tail | uniform-range(lo,hi)")
    p.add_argument("--drift-k", type=float)
    p.add_argument("--drift-q", type=float)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse, filter, and sessionize logs")
    add_ingest_flags(p)
    p.add_argument("--out", required=True, help="sessions.csv path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("metrics", help="block metrics from a sessions file")
    p.add_argument("--sessions", required=True)
    p.add_argument("--block-size", type=int, default=10_000)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("classify", help="classify blocks from a metrics file")
    p.add_argument("--metrics", required=True)
    p.add_argument("--z", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("routes", help="routes and transitions from classifications")
    p.add_argument("--classifications", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--block-size", type=int, default=10_000)
    p.add_argument("--grouping", choices=["stream", "user"], default="stream")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_routes)

    p = sub.add_parser("communities", help="single-linkage communities from routes")
    p.add_argument("--routes", required=True)
    p.add_argument("--linkage", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("graph", help="export the compass graph")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--export", action="append", choices=list(GRAPH_FORMATS),
                   help="format (repeatable; default all)")
    p.add_argument("--transitions", help="weight edges from a transitions.csv")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("run", help="full pipeline: logs in, artifacts out")
    add_ingest_flags(p)
    p.add_argument("--block-size", type=int, default=10_000)
    p.add_argument("--z", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--grouping", choices=["stream", "user"], default="stream")
    p.add_argument("--linkage", type=float, default=0.0)
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--export", action="append", choices=list(GRAPH_FORMATS),
                   help="graph format (repeatable; default all)")
    p.add_argument("--weight-from-transitions", action="store_true",
                   help="weight compass edges by observed route transitions")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="print a summary from saved artifacts")
    p.add_argument("--artifacts", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _diag_sink(args):
    if args.diagnostics:
        return open(args.diagnostics, "w", encoding="utf-8", newline="")
    return None


def _cmd_synth(args) -> int:
    profile = load_profile(args.profile) if args.profile else SynthProfile()
    overrides = {
        "seed": args.seed,
        "n_users": args.users,
        "n_items": args.items,
        "sessions_per_block": args.sessions_per_block,
        "n_blocks": args.blocks,
        "k_distribution": args.k_dist,
        "drift_k": args.drift_k,
        "drift_q": args.drift_q,
    }
    profile = replace(profile, **{k: v for k, v in overrides.items() if v is not None})
    n = write_log(profile, args.out)
    print(f"wrote {n} events to {args.out}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    rules = load_filter_rules(args.filters) if args.filters else FilterRules()
    sink = _diag_sink(args)
    try:
        events, _, _ = pipeline.parse_log_files(args.input, args.format, sink)
    finally:
        if sink is not None:
            sink.close()
    kept = filter_events(events, rules)
    summaries = pipeline.sessionize_summaries(kept, args.gap_seconds, args.count_policy)
    if not summaries:
        raise InputError("no sessions")
    pipeline.write_sessions_csv(summaries, Path(args.out))
    print(f"sessions: {len(summaries)}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    summaries = pipeline.read_sessions_csv(Path(args.sessions))
    metrics = pipeline.metrics_from_summaries(summaries, args.block_size)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_metrics_csv(metrics, out / ARTIFACT_FILES["metrics"])
    pipeline.write_metrics_jsonl(metrics, out / ARTIFACT_FILES["metrics_records"])
    print(f"blocks: {len(metrics)}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    metrics = pipeline.read_metrics_csv(Path(args.metrics))
    cfg = ClassifierConfig(z=args.z, epsilon=args.epsilon)
    classifications = pipeline.classify_series(metrics, cfg)
    pipeline.write_classifications_csv(classifications, Path(args.out))
    print(f"classified blocks: {len(classifications)}")
    return EXIT_OK


def _cmd_routes(args) -> int:
    classifications = pipeline.read_classifications_csv(Path(args.classifications))
    summaries = pipeline.read_sessions_csv(Path(args.sessions))
    routes, transitions = pipeline.routes_from_classifications(
        classifications, summaries, args.block_size, args.grouping
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_routes_csv(routes, out / ARTIFACT_FILES["routes"])
    pipeline.write_transitions_csv(transitions, out / ARTIFACT_FILES["transitions"])
    print(f"routes: {len(routes)}")
    return EXIT_OK


def _cmd_communities(args) -> int:
    routes = pipeline.read_routes_csv(Path(args.routes))
    communities = detect_communities(routes, args.linkage)
    pipeline.write_communities_csv(communities, Path(args.out))
    print(f"communities: {len(communities)}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    weights = None
    if args.transitions:
        tg = pipeline.read_transitions_csv(Path(args.transitions))
        weights = transition_edge_weights(tg)
    graph = build_base_graph(weights)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fmt in args.export or list(GRAPH_FORMATS):
        path = out / GRAPH_FILES[fmt]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(export_graph(graph, fmt))
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    rules = load_filter_rules(args.filters) if args.filters else FilterRules()
    cfg = PipelineConfig(
        inputs=tuple(Path(p) for p in args.input),
        out_dir=Path(args.out),
        log_format=args.format,
        filter_rules=rules,
        gap_seconds=args.gap_seconds,
        count_policy=args.count_policy,
        block_size=args.block_size,
        classifier=ClassifierConfig(z=args.z, epsilon=args.epsilon),
        grouping=args.grouping,
        linkage_threshold=args.linkage,
        export_formats=tuple(args.export) if args.export else ("canonical", "dot", "graphml"),
        weight_edges_from_transitions=args.weight_from_transitions,
    )
    sink = _diag_sink(args)
    try:
        pipeline.run_pipeline(cfg, sink)
    finally:
        if sink is not None:
            sink.close()
    print(pipeline.report_stats(cfg.out_dir))
    return EXIT_OK


def _cmd_report(args) -> int:
    print(pipeline.report_stats(args.artifacts))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
