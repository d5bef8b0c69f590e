"""Command-line entry point.

Subcommands mirror the pipeline stages (ingest, metrics, classify, routes,
communities, graph, report), plus synth for corpus generation and run for
the whole pipeline. Exit codes: 0 success, 1 configuration error, 2 input
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path

from . import pipeline
from .errors import ConfigError, InputError, load_config_object
from .events import COUNT_POLICIES, LOG_FORMATS, FilterRules
from .graphio import GRAPH_FORMATS
from .pipeline import PipelineConfig
from .routes import GROUPINGS
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
    data = load_config_object(path, "filter file")
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

    # The flags of run and the stage commands, each spelled once. A flag's
    # dest names a PipelineConfig or ClassifierConfig field, and a flag left
    # out is not set at all, so that its field keeps its default (see _config).
    flags = {
        "--input": dict(dest="inputs", metavar="INPUT", type=Path, action="append", required=True,
                        help="log file (repeatable)"),
        "--format": dict(dest="log_format", choices=LOG_FORMATS, help="log format"),
        "--gap-seconds": dict(type=float),
        "--count-policy": dict(choices=COUNT_POLICIES),
        "--filters": dict(default=None, help="JSON filter rules file"),
        "--diagnostics": dict(default=None,
                              help="write malformed-line diagnostics here instead of stderr"),
        "--block-size": dict(type=int),
        "--z": dict(type=float),
        "--epsilon": dict(type=float),
        "--grouping": dict(choices=GROUPINGS),
        "--linkage": dict(dest="linkage_threshold", metavar="LINKAGE", type=float),
        "--export": dict(dest="export_formats", action="append", choices=GRAPH_FORMATS,
                         help="graph format (repeatable; default all)"),
    }
    ingest = ["--input", "--format", "--gap-seconds", "--count-policy", "--filters", "--diagnostics"]

    def stage(name, func, help, names):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    # Each profile flag's dest names a SynthProfile field, set only if given.
    p = sub.add_parser("synth", help="generate a deterministic synthetic log",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--profile", default=None, help="JSON profile file")
    p.add_argument("--out", required=True, help="output log file (format a)")
    p.add_argument("--seed", type=int)
    p.add_argument("--users", dest="n_users", metavar="USERS", type=int)
    p.add_argument("--items", dest="n_items", metavar="ITEMS", type=int)
    p.add_argument("--sessions-per-block", type=int)
    p.add_argument("--blocks", dest="n_blocks", metavar="BLOCKS", type=int)
    p.add_argument("--k-dist", dest="k_distribution", metavar="K_DIST",
                   help="mostly-one | heavy-tail | uniform-range(lo,hi)")
    p.add_argument("--drift-k", type=float)
    p.add_argument("--drift-q", type=float)
    p.set_defaults(func=_cmd_synth)

    p = stage("ingest", _cmd_ingest, "parse, filter, and sessionize logs", ingest)
    p.add_argument("--out", required=True, help="sessions.csv path")

    p = stage("metrics", _cmd_metrics, "block metrics from a sessions file", ["--block-size"])
    p.add_argument("--sessions", required=True)
    p.add_argument("--out-dir", type=Path, required=True)

    p = stage("classify", _cmd_classify, "classify blocks from a metrics file", ["--z", "--epsilon"])
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)

    p = stage("routes", _cmd_routes, "routes and transitions from classifications",
              ["--block-size", "--grouping"])
    p.add_argument("--classifications", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--out-dir", type=Path, required=True)

    p = stage("communities", _cmd_communities, "single-linkage communities from routes", ["--linkage"])
    p.add_argument("--routes", required=True)
    p.add_argument("--out", required=True)

    p = stage("graph", _cmd_graph, "export the compass graph", ["--export"])
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--transitions", default=None, help="weight edges from a transitions.csv")

    p = stage("run", _cmd_run, "full pipeline: logs in, artifacts out",
              ingest + ["--block-size", "--z", "--epsilon", "--grouping", "--linkage", "--export"])
    p.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, required=True,
                   help="artifact directory")
    p.add_argument("--weight-from-transitions", dest="weight_edges_from_transitions",
                   action="store_true", help="weight compass edges by observed route transitions")

    p = sub.add_parser("report", help="print a summary from saved artifacts")
    p.add_argument("--artifacts", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _config(args) -> PipelineConfig:
    """The one PipelineConfig of a command's flags, validated as `run`
    validates it; a field whose flag was left out keeps its default. synth
    and report have no such flags, so theirs is all defaults."""
    flags = vars(args)
    settings, classifier = (
        {f.name: flags[f.name] for f in fields(cls) if f.name in flags}
        for cls in (PipelineConfig, ClassifierConfig)
    )
    for name in ("inputs", "export_formats"):  # repeatable flags arrive as lists
        if name in settings:
            settings[name] = tuple(settings[name])
    rules = load_filter_rules(args.filters) if flags.get("filters") else FilterRules()
    return PipelineConfig(**settings, filter_rules=rules, classifier=ClassifierConfig(**classifier))


def _in_dir(out_dir: Path) -> pipeline.PathOf:
    """path(key) for a stage function: the key's file under out_dir, which
    is made on first use; an out_dir under a file fails now, before the stage."""
    if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
        raise InputError(f"cannot make directory {out_dir}: a file is in the way")

    def path(key: str) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        return pipeline.artifact_path(out_dir, key)

    return path


def _to_file(out: str) -> pipeline.PathOf:
    """path(key) for a stage function that writes the one file out; its
    directory is checked as _in_dir checks it and made now, before the stage."""
    _in_dir(Path(out).parent)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    return lambda key: Path(out)


def _diagnostics(args):
    if args.diagnostics:
        return open(args.diagnostics, "w", encoding="utf-8", newline="")
    return nullcontext()


def _cmd_synth(args, cfg) -> str:
    profile = load_profile(args.profile) if args.profile else SynthProfile()
    flags = vars(args)
    profile = replace(profile, **{f.name: flags[f.name] for f in fields(SynthProfile) if f.name in flags})
    n = write_log(profile, args.out)
    return f"wrote {n} events to {args.out}"


def _cmd_ingest(args, cfg) -> str:
    with _diagnostics(args) as sink:
        sessions, *_ = pipeline.run_ingest(cfg, _to_file(args.out), sink)
    return f"sessions: {len(sessions)}"


def _cmd_metrics(args, cfg) -> str:
    k_items = pipeline.read_sessions_csv(Path(args.sessions), "k_items")
    metrics = pipeline.run_metrics(k_items, cfg, _in_dir(cfg.out_dir))
    return f"blocks: {len(metrics)}"


def _cmd_classify(args, cfg) -> str:
    metrics = pipeline.read_metrics_csv(Path(args.metrics))
    classifications = pipeline.run_classify(metrics, cfg, _to_file(args.out))
    return f"classified blocks: {len(classifications)}"


def _cmd_routes(args, cfg) -> str:
    classifications = pipeline.read_classifications_csv(Path(args.classifications))
    users = pipeline.read_sessions_csv(Path(args.sessions), "user_hash")
    routes, _ = pipeline.run_routes(classifications, users, cfg, _in_dir(cfg.out_dir))
    return f"routes: {len(routes)}"


def _cmd_communities(args, cfg) -> str:
    routes = pipeline.read_routes_csv(Path(args.routes))
    communities = pipeline.run_communities(routes, cfg, _to_file(args.out))
    return f"communities: {len(communities)}"


def _cmd_graph(args, cfg) -> str:
    transitions = pipeline.read_transitions_csv(Path(args.transitions)) if args.transitions else None
    paths = pipeline.run_graph(transitions, cfg, _in_dir(cfg.out_dir))
    return "\n".join(f"wrote {path}" for path in paths)


def _cmd_run(args, cfg) -> str:
    with _diagnostics(args) as sink:
        report = pipeline.run_pipeline(cfg, sink)
    return pipeline.stats_text(report)


def _cmd_report(args, cfg) -> str:
    return pipeline.report_stats(args.artifacts)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        print(args.func(args, _config(args)))
        return EXIT_OK
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
