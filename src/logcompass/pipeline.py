"""End-to-end pipeline and artifact file I/O.

Stage order: ingest (parse, filter, sessionize) -> block metrics ->
classification -> routes -> communities -> graph exports -> report. Each
stage reads only the artifacts of earlier stages, so the CLI can run them
separately on saved intermediates. All outputs are deterministic: fixed
row orders, repr-rendered floats, sorted JSON keys, LF line endings.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from operator import gt
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, Sequence

from .blocks import (
    BlockMetrics,
    compute_block_means,
    compute_histogram,
    compute_variety_series,
    metric_bounds,
    partition_blocks,
)
from .compass import build_base_graph
from .errors import ConfigError, InputError
from .events import (
    COUNT_POLICIES,
    DEFAULT_GAP_SECONDS,
    EventTable,
    FilterRules,
    LOG_FORMATS,
    TS_MAX_MS,
    TS_MIN_MS,
    filter_events,
    parse_events,
)
from .graphio import GRAPH_FORMATS, export_graph
from .routes import (
    GROUPINGS,
    CognitiveCommunity,
    SearchRoute,
    TransitionGraph,
    build_transition_graph,
    detect_communities,
    extract_routes,
    position_community,
    transition_edge_weights,
)
from .taxonomy import (
    BlockClassification,
    ClassifierConfig,
    NODE_BY_LABEL,
    Stability,
    Tendency,
    Triplet,
    classify_block,
)

ARTIFACT_FILES = {
    "sessions": "sessions.csv",
    "metrics": "block_metrics.csv",
    "metrics_records": "block_metrics.jsonl",
    "classifications": "classifications.csv",
    "routes": "routes.csv",
    "transitions": "transitions.csv",
    "communities": "communities.csv",
    "report": "report.json",
}
GRAPH_FILES = {"canonical": "compass.canonical", "dot": "compass.dot", "graphml": "compass.graphml"}

_NODE_LABELS = tuple(sorted(NODE_BY_LABEL))


@dataclass(frozen=True, slots=True)
class SessionTable:
    """The sessions persisted in sessions.csv, one column each.

    Row i is session i: ids are row positions and are not stored. Start and
    end are signed 64-bit ``array('q')`` columns; users are interned text.
    len() is the number of sessions, so an empty table is falsy.
    """

    user_hash: list[str]
    start_ms: array
    end_ms: array
    k_items: list[int]

    def __len__(self) -> int:
        return len(self.k_items)


def sessionize_summaries(
    events: EventTable, gap_seconds: float, count_policy: str = "distinct"
) -> SessionTable:
    """Split each user's events into sessions wherever the gap between
    consecutive events exceeds gap_seconds.

    k_items counts a session's distinct items ("distinct") or its events
    ("raw"). Sessions are numbered by ascending start time globally, ties
    broken by user_hash, which is total: one user's sessions never share a
    start.
    """
    if not gap_seconds > 0:
        raise ConfigError("gap_seconds must be positive")
    if count_policy not in COUNT_POLICIES:
        raise ConfigError(
            f"unknown count policy {count_policy!r} (expected one of {COUNT_POLICIES})"
        )
    gap_ms = round(gap_seconds * 1000)
    distinct = count_policy == "distinct"
    # Each user's timestamps and items, in input order.
    groups: dict[str, tuple[array, list[str]]] = {}
    get = groups.get
    for user, t, item in zip(events.user_hash, events.ts_ms, events.item_id):
        group = get(user)
        if group is None:
            groups[user] = (array("q", (t,)), [item])
        else:
            group[0].append(t)
            group[1].append(item)
    users: list[str] = []
    starts = array("q")
    ends = array("q")
    ks: list[int] = []
    # Users in sorted order, so that the stable sort by start below breaks
    # ties by user.
    for user in sorted(groups):
        ts, items = groups.pop(user)
        rows: Iterable[tuple[int, str]] = zip(ts, items)
        start = ts[0]
        # Only a user whose events are out of time order pays for a sorted
        # list of (ts, item) pairs. Equal timestamps then order by item,
        # which changes no session's start, end or item count.
        if any(map(gt, ts, islice(ts, 1, None))):
            rows = sorted(rows)
            start = rows[0][0]
        prev = start
        seen: set[str] = set()
        n = 0
        for t, item in rows:
            if t - prev > gap_ms:
                users.append(user)
                starts.append(start)
                ends.append(prev)
                ks.append(len(seen) if distinct else n)
                start = t
                seen = set()
                n = 0
            seen.add(item)
            n += 1
            prev = t
        users.append(user)
        starts.append(start)
        ends.append(prev)
        ks.append(len(seen) if distinct else n)
    # A stable sort by start. Each key packs (start, row) into one int, which
    # holds half the objects of sorted(range(n), key=starts.__getitem__).
    # Counting from the earliest start keeps a key within two 30-bit digits
    # (32 bytes) while the starts span under 2**60 >> shift ms: about two
    # years at 10M sessions.
    lo = min(starts, default=0)
    shift = len(ks).bit_length()
    order = [(s - lo) << shift | i for i, s in enumerate(starts)]
    order.sort()
    mask = (1 << shift) - 1
    for j, key in enumerate(order):
        order[j] = key & mask
    # Rebinding each column frees the unsorted one before the next is built.
    users = list(map(users.__getitem__, order))
    starts = array("q", map(starts.__getitem__, order))
    ends = array("q", map(ends.__getitem__, order))
    ks = list(map(ks.__getitem__, order))
    return SessionTable(users, starts, ends, ks)


@dataclass
class PipelineConfig:
    inputs: tuple[Path, ...]
    out_dir: Path
    log_format: str = "a"
    filter_rules: FilterRules = field(default_factory=FilterRules)
    gap_seconds: float = DEFAULT_GAP_SECONDS
    count_policy: str = "distinct"
    block_size: int = 10_000
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    grouping: str = "stream"
    linkage_threshold: float = 0.0
    export_formats: tuple[str, ...] = ("canonical", "dot", "graphml")
    weight_edges_from_transitions: bool = False

    def __post_init__(self) -> None:
        if self.log_format not in LOG_FORMATS:
            raise ConfigError(f"unknown log format {self.log_format!r}")
        if self.count_policy not in COUNT_POLICIES:
            raise ConfigError(f"unknown count policy {self.count_policy!r}")
        if self.grouping not in GROUPINGS:
            raise ConfigError(f"unknown grouping {self.grouping!r}")
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if not self.gap_seconds > 0:
            raise ConfigError("gap_seconds must be positive")
        if not self.linkage_threshold >= 0:
            raise ConfigError(f"linkage threshold must be >= 0, got {self.linkage_threshold!r}")
        unknown = [f for f in self.export_formats if f not in GRAPH_FORMATS]
        if unknown:
            raise ConfigError(f"unknown graph format {unknown[0]!r}")


def parse_log_files(
    paths: Sequence[Path | str], log_format: str, diagnostics: IO[str] | None = None
) -> tuple[EventTable, int, int]:
    """Parse input files in order; returns (events, parsed_count, malformed_count).

    Diagnostics go to the given sink (default stderr), one line per
    malformed record, numbered per file.
    """
    sink = diagnostics if diagnostics is not None else sys.stderr
    events: EventTable | None = None
    malformed = 0
    for path in paths:
        try:
            # Bytes that are not UTF-8 decode to lone surrogates, which the
            # parser reports per line as "invalid UTF-8".
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                got, diags = parse_events(fh, log_format)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        if events is None:
            events = got
        else:
            events.extend(got)
        malformed += len(diags)
        for d in diags:
            print(d, file=sink)
    if events is None:
        events = EventTable(array("q"), [], [], [])
    return events, len(events) + malformed, malformed


# --- artifact writers / readers -------------------------------------------


def _open_w(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


def _text_writer(fh: IO[str], texts: Iterable[str]):
    """A csv writer for rows holding free text such as user hashes.

    csv quotes a field only for the characters of its line terminator, so
    with LF endings a bare CR would end the row when read back; a file with
    any text holding CR quotes every text field instead.
    """
    quoting = csv.QUOTE_NONNUMERIC if any("\r" in t for t in texts) else csv.QUOTE_MINIMAL
    return csv.writer(fh, lineterminator="\n", quoting=quoting)


@contextmanager
def _reading(path: Path, kind: str) -> Iterator[Iterator[list[str]]]:
    """csv rows of an artifact file; text that is not UTF-8 or that csv cannot
    split into rows (such as a field over csv's size limit) is an InputError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except UnicodeDecodeError:
        raise InputError(f"bad {kind} file {path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise InputError(f"bad {kind} file {path}: {exc}") from None


_SESSION_COLS = ["session_id", "user_hash", "start_ms", "end_ms", "k_items"]
# Rows per chunk that read_sessions_csv converts a column at a time and that
# write_sessions_csv joins into one write.
_SESSION_CHUNK = 256


def _rendered_fields(dialect: csv.Dialect, texts: Iterable[str]) -> dict[str, str]:
    """Each text as csv renders it in a row field under dialect.

    A text is rendered beside a second field, because csv writes a row of
    one empty field as "" but an empty field beside others as nothing.
    """
    buf = io.StringIO()
    render = csv.writer(buf, dialect)
    shown: dict[str, str] = {}
    for text in texts:
        render.writerow((text, 0))
        shown[text] = buf.getvalue()[: -len(",0" + dialect.lineterminator)]
        buf.seek(0)
        buf.truncate()
    return shown


def write_sessions_csv(table: SessionTable, path: Path) -> None:
    # csv renders each distinct user once; the int columns, which csv never
    # quotes under either quoting, go into each row's f-string as they are.
    distinct = set(table.user_hash)
    users, starts, ends, ks = table.user_hash, table.start_ms, table.end_ms, table.k_items
    with _open_w(path) as fh:
        w = _text_writer(fh, distinct)
        w.writerow(_SESSION_COLS)
        shown = _rendered_fields(w.dialect, distinct)
        for lo in range(0, len(users), _SESSION_CHUNK):
            hi = lo + _SESSION_CHUNK
            rows = zip(range(lo, hi), users[lo:hi], starts[lo:hi], ends[lo:hi], ks[lo:hi])
            fh.write("".join([f"{i},{shown[u]},{s},{e},{k}\n" for i, u, s, e, k in rows]))


def read_sessions_csv(path: Path) -> SessionTable:
    users: list[str] = []
    starts = array("q")
    ends = array("q")
    ks: list[int] = []
    # One str object per distinct user, however many sessions name it.
    seen: dict[str, str] = {}
    intern = seen.setdefault
    with _reading(path, "sessions") as reader:
        if next(reader, None) != _SESSION_COLS:
            raise InputError(f"bad sessions file {path}: unexpected header")
        # map() over a column converts without a bytecode loop per row, which
        # pays for filling the array('q') columns. A chunk failing any check
        # is scanned again row by row, so that the error names its first
        # faulty row, as a row-at-a-time reader would.
        for chunk in iter(lambda: list(islice(reader, _SESSION_CHUNK)), []):
            first = len(ks)
            # One tuple per column, as long as the chunk; a short row leaves
            # fewer columns.
            cols = list(zip(*chunk))
            try:
                ids, chunk_ks = list(map(int, cols[0])), list(map(int, cols[4]))
                # array() fills faster from a list than from an iterator.
                chunk_starts = array("q", list(map(int, cols[2])))
                chunk_ends = array("q", list(map(int, cols[3])))
                ok = min(chunk_ks) >= 1 and ids == list(range(first, first + len(chunk)))
            except (IndexError, ValueError, OverflowError):
                ok = False
            if not ok:
                _raise_first_bad_session_row(path, chunk, first)
            users += map(intern, cols[1], cols[1])
            starts += chunk_starts
            ends += chunk_ends
            ks += chunk_ks
    return SessionTable(users, starts, ends, ks)


def _raise_first_bad_session_row(path: Path, rows: list[list[str]], first: int) -> NoReturn:
    """Raise the InputError of the first faulty row among rows, which hold
    sessions first, first + 1, ... of the file."""
    for i, row in enumerate(rows, first):
        try:
            session_id = int(row[0])
            start, end, k = int(row[2]), int(row[3]), int(row[4])
        except (IndexError, ValueError):
            raise InputError(f"bad sessions file {path}: row {row!r}") from None
        if k < 1:
            raise InputError(f"bad sessions file {path}: k_items < 1 in row {row!r}")
        if session_id != i:
            raise InputError(
                f"bad sessions file {path}: session_id {session_id} at row {i}"
                " (ids must run 0..n-1 in order)"
            )
        if not (TS_MIN_MS <= start <= TS_MAX_MS and TS_MIN_MS <= end <= TS_MAX_MS):
            raise InputError(
                f"bad sessions file {path}: start_ms or end_ms outside the signed"
                f" 64-bit range in row {row!r}"
            )
    raise AssertionError("a chunk of sessions failed a check that none of its rows fails")


_METRIC_COLS = [
    "block_index", "q", "mean_n", "mean_k",
    "n_min", "n_max", "k_min", "k_max", "alpha", "beta", "variety",
]


def _opt(x: float | None) -> str:
    return "" if x is None else repr(x)


def write_metrics_csv(metrics: Sequence[BlockMetrics], path: Path) -> None:
    with _open_w(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_METRIC_COLS)
        for m in metrics:
            w.writerow(
                [
                    m.block_index, m.q, repr(m.mean_n), repr(m.mean_k),
                    m.n_min, m.n_max, m.k_min, m.k_max,
                    _opt(m.alpha), _opt(m.beta), _opt(m.variety),
                ]
            )


def write_metrics_jsonl(metrics: Sequence[BlockMetrics], path: Path) -> None:
    with _open_w(path) as fh:
        for m in metrics:
            fh.write(
                json.dumps(
                    {
                        "block_index": m.block_index, "q": m.q,
                        "mean_n": m.mean_n, "mean_k": m.mean_k,
                        "n_min": m.n_min, "n_max": m.n_max,
                        "k_min": m.k_min, "k_max": m.k_max,
                        "alpha": m.alpha, "beta": m.beta, "variety": m.variety,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def read_metrics_csv(path: Path) -> list[BlockMetrics]:
    out: list[BlockMetrics] = []
    with _reading(path, "metrics") as reader:
        header = next(reader, None)
        if header != _METRIC_COLS:
            raise InputError(f"bad metrics file {path}: unexpected header")
        for row in reader:
            try:
                out.append(
                    BlockMetrics(
                        block_index=int(row[0]), q=int(row[1]),
                        mean_n=float(row[2]), mean_k=float(row[3]),
                        n_min=int(row[4]), n_max=int(row[5]),
                        k_min=int(row[6]), k_max=int(row[7]),
                        alpha=float(row[8]) if row[8] else None,
                        beta=float(row[9]) if row[9] else None,
                        variety=float(row[10]) if row[10] else None,
                    )
                )
            except (IndexError, ValueError):
                raise InputError(f"bad metrics file {path}: row {row!r}") from None
    return out


_CLASSIFICATION_COLS = ["block_index", "n_tendency", "k_tendency", "stability", "label", "mismatch_cost"]


def write_classifications_csv(cls: Sequence[BlockClassification], path: Path) -> None:
    with _open_w(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_CLASSIFICATION_COLS)
        for c in cls:
            w.writerow(
                [
                    c.block_index,
                    c.raw.n_tend.value, c.raw.k_tend.value, c.raw.stab.value,
                    c.node.label, repr(c.cost),
                ]
            )


def read_classifications_csv(path: Path) -> list[BlockClassification]:
    out: list[BlockClassification] = []
    with _reading(path, "classifications") as reader:
        header = next(reader, None)
        if header != _CLASSIFICATION_COLS:
            raise InputError(f"bad classifications file {path}: unexpected header")
        for row in reader:
            try:
                raw = Triplet(Tendency(row[1]), Tendency(row[2]), Stability(row[3]))
                out.append(
                    BlockClassification(int(row[0]), raw, NODE_BY_LABEL[row[4]], float(row[5]))
                )
            except (IndexError, ValueError, KeyError):
                raise InputError(f"bad classifications file {path}: row {row!r}") from None
    return out


def write_routes_csv(routes: Sequence[SearchRoute], path: Path) -> None:
    with _open_w(path) as fh:
        w = _text_writer(fh, [r.owner for r in routes])
        w.writerow(["owner", "steps", "span_start", "span_end"])
        for r in routes:
            w.writerow([r.owner, ",".join(r.steps), r.span[0], r.span[1]])


def read_routes_csv(path: Path) -> list[SearchRoute]:
    out: list[SearchRoute] = []
    owners: set[str] = set()
    with _reading(path, "routes") as reader:
        header = next(reader, None)
        if header != ["owner", "steps", "span_start", "span_end"]:
            raise InputError(f"bad routes file {path}: unexpected header")
        for row in reader:
            try:
                steps = tuple(row[1].split(","))
                out.append(SearchRoute(row[0], steps, (int(row[2]), int(row[3]))))
            except (IndexError, ValueError):
                raise InputError(f"bad routes file {path}: row {row!r}") from None
            if not steps or any(s not in NODE_BY_LABEL for s in steps):
                raise InputError(f"bad routes file {path}: steps {row[1]!r}")
            if row[0] in owners:
                raise InputError(f"bad routes file {path}: duplicate owner {row[0]!r}")
            owners.add(row[0])
    return out


def write_transitions_csv(tg: TransitionGraph, path: Path) -> None:
    with _open_w(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["from", "to", "count"])
        for (x, y), n in sorted(tg.counts.items()):
            w.writerow([x, y, n])


def read_transitions_csv(path: Path) -> TransitionGraph:
    counts: dict[tuple[str, str], int] = {}
    with _reading(path, "transitions") as reader:
        header = next(reader, None)
        if header != ["from", "to", "count"]:
            raise InputError(f"bad transitions file {path}: unexpected header")
        for row in reader:
            try:
                counts[(row[0], row[1])] = int(row[2])
            except (IndexError, ValueError):
                raise InputError(f"bad transitions file {path}: row {row!r}") from None
    return TransitionGraph(counts)


def write_communities_csv(
    communities: Sequence[CognitiveCommunity], path: Path
) -> None:
    with _open_w(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["community_id", "size"]
            + [f"count_{label}" for label in _NODE_LABELS]
            + ["position"]
        )
        for c in communities:
            pos = position_community(c)
            w.writerow(
                [c.community_id, c.size]
                + [c.label_counts[label] for label in _NODE_LABELS]
                + [pos.label]
            )


def read_communities_count(path: Path) -> int:
    with _reading(path, "communities") as reader:
        header = next(reader, None)
        if not header or header[0] != "community_id":
            raise InputError(f"bad communities file {path}: unexpected header")
        return sum(1 for _ in reader)


# --- stages -----------------------------------------------------------------


def metrics_from_summaries(sessions: SessionTable, block_size: int) -> list[BlockMetrics]:
    blocks = partition_blocks(sessions.k_items, block_size)
    means = [compute_block_means(compute_histogram(b), b) for b in blocks]
    return compute_variety_series(means)


def classify_series(
    metrics: Sequence[BlockMetrics], cfg: ClassifierConfig
) -> list[BlockClassification]:
    """Classify every block after the first against the series-wide bounds."""
    if len(metrics) < 2:
        return []
    bounds = metric_bounds(metrics)
    return [classify_block(m, bounds, cfg) for m in metrics[1:]]


def block_user_map(sessions: SessionTable, block_size: int) -> dict[int, set[str]]:
    users = sessions.user_hash
    return {
        b: set(users[i : i + block_size])
        for b, i in enumerate(range(0, len(users), block_size))
    }


def routes_from_classifications(
    classifications: Sequence[BlockClassification],
    sessions: SessionTable,
    block_size: int,
    grouping: str,
) -> tuple[list[SearchRoute], TransitionGraph]:
    classified = [(c.block_index, c.node.label) for c in classifications]
    if grouping == "user":
        routes = extract_routes(classified, "user", block_user_map(sessions, block_size))
    else:
        routes = extract_routes(classified, "stream")
    return routes, build_transition_graph(routes)


def _type_tally(
    metrics: Sequence[BlockMetrics], classifications: Sequence[BlockClassification]
) -> tuple[dict[str, dict], int, str | None]:
    """Sessions per compass type: ({label: {"sessions", "share_pct"}}, the
    number of classified sessions, the dominant label or None)."""
    q_of = {m.block_index: m.q for m in metrics}
    per_label = dict.fromkeys(_NODE_LABELS, 0)
    for c in classifications:
        q = q_of.get(c.block_index)
        if q is None:
            raise InputError(f"classifications name block {c.block_index}, which the metrics lack")
        per_label[c.node.label] += q
    classified = sum(per_label.values())
    types = {
        label: {"sessions": n, "share_pct": (100.0 * n / classified) if classified else 0.0}
        for label, n in per_label.items()
    }
    dominant = min(_NODE_LABELS, key=lambda l: (-per_label[l], l)) if classified else None
    return types, classified, dominant


def build_report(
    *,
    parsed: int,
    kept: int,
    malformed: int,
    summaries_total: int,
    metrics: Sequence[BlockMetrics],
    classifications: Sequence[BlockClassification],
    block_size: int,
    route_count: int,
    community_count: int,
) -> dict:
    types, classified_sessions, dominant = _type_tally(metrics, classifications)
    return {
        "events": {"parsed": parsed, "kept": kept, "malformed": malformed},
        "sessions": {
            "total": summaries_total,
            "classified": classified_sessions,
            "unclassified": summaries_total - classified_sessions,
        },
        "blocks": {
            "total": len(metrics),
            "classified": len(classifications),
            "block_size": block_size,
        },
        "types": types,
        "dominant_type": dominant,
        "route_count": route_count,
        "community_count": community_count,
    }


def run_pipeline(cfg: PipelineConfig, diagnostics: IO[str] | None = None) -> dict:
    """Run every stage, writing artifacts under cfg.out_dir; returns the report.

    On failure all files written by this run are removed. An input that
    yields no sessions aborts before any artifact exists.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stage = "ingest"

    def target(name: str) -> Path:
        p = out / name
        written.append(p)
        return p

    try:
        events, parsed, malformed = parse_log_files(cfg.inputs, cfg.log_format, diagnostics)
        kept_events = filter_events(events, cfg.filter_rules)
        kept = len(kept_events)
        del events
        summaries = sessionize_summaries(kept_events, cfg.gap_seconds, cfg.count_policy)
        del kept_events
        if not summaries:
            raise InputError("no sessions")
        write_sessions_csv(summaries, target(ARTIFACT_FILES["sessions"]))

        stage = "metrics"
        metrics = metrics_from_summaries(summaries, cfg.block_size)
        write_metrics_csv(metrics, target(ARTIFACT_FILES["metrics"]))
        write_metrics_jsonl(metrics, target(ARTIFACT_FILES["metrics_records"]))

        stage = "classify"
        classifications = classify_series(metrics, cfg.classifier)
        write_classifications_csv(classifications, target(ARTIFACT_FILES["classifications"]))

        stage = "routes"
        routes, transitions = routes_from_classifications(
            classifications, summaries, cfg.block_size, cfg.grouping
        )
        write_routes_csv(routes, target(ARTIFACT_FILES["routes"]))
        write_transitions_csv(transitions, target(ARTIFACT_FILES["transitions"]))

        stage = "communities"
        communities = detect_communities(routes, cfg.linkage_threshold)
        write_communities_csv(communities, target(ARTIFACT_FILES["communities"]))

        stage = "graph"
        graph = build_base_graph(
            transition_edge_weights(transitions) if cfg.weight_edges_from_transitions else None
        )
        for fmt in cfg.export_formats:
            with _open_w(target(GRAPH_FILES[fmt])) as fh:
                fh.write(export_graph(graph, fmt))

        stage = "report"
        report = build_report(
            parsed=parsed,
            kept=kept,
            malformed=malformed,
            summaries_total=len(summaries),
            metrics=metrics,
            classifications=classifications,
            block_size=cfg.block_size,
            route_count=len(routes),
            community_count=len(communities),
        )
        with _open_w(target(ARTIFACT_FILES["report"])) as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return report
    except BaseException as exc:
        for p in written:
            p.unlink(missing_ok=True)
        if isinstance(exc, ConfigError):
            raise ConfigError(f"{stage}: {exc}") from exc
        if isinstance(exc, InputError):
            raise InputError(f"{stage}: {exc}") from exc
        raise


def report_stats(artifacts_dir: Path | str) -> str:
    """Human-readable summary recomputed from saved artifacts."""
    art = Path(artifacts_dir)
    needed = {
        "metrics": ARTIFACT_FILES["metrics"],
        "classifications": ARTIFACT_FILES["classifications"],
        "routes": ARTIFACT_FILES["routes"],
        "communities": ARTIFACT_FILES["communities"],
    }
    for name, filename in needed.items():
        if not (art / filename).exists():
            raise InputError(f"missing: {name}")
    metrics = read_metrics_csv(art / needed["metrics"])
    classifications = read_classifications_csv(art / needed["classifications"])
    route_count = len(read_routes_csv(art / needed["routes"]))
    community_count = read_communities_count(art / needed["communities"])

    types, classified, dominant = _type_tally(metrics, classifications)
    # One q per block index, as the tally counts it.
    total_sessions = sum({m.block_index: m.q for m in metrics}.values())
    lines = [
        f"blocks: {len(metrics)} total, {len(classifications)} classified",
        f"sessions: {total_sessions} total, {classified} classified",
        "type  sessions  share",
    ]
    for label, t in types.items():
        lines.append(f"{label:<5} {t['sessions']:>9} {t['share_pct']:6.2f}%")
    if dominant is not None:
        lines.append(f"dominant type: {dominant}")
    lines.append(f"routes: {route_count}")
    lines.append(f"communities: {community_count}")
    return "\n".join(lines)
