"""End-to-end pipeline and artifact file I/O.

Stage order: ingest (parse, filter, sessionize) -> block metrics ->
classification -> routes -> communities -> graph exports -> report. Each
stage is one run_* function that computes it from the results of earlier
stages and writes its artifacts; run_pipeline calls them in order, and each
CLI stage command calls one on artifacts read back from disk. Of
sessions.csv, metrics reads back only k_items and routes only user_hash,
though every field is checked. All outputs are deterministic: fixed row
orders, repr-rendered floats, sorted JSON keys, LF line endings, and every
csv artifact is written by one writer and read through one reader front end.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import chain, islice
from operator import gt
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .blocks import BlockMetrics, block_means, compute_variety_series, metric_bounds
from .compass import NODES, build_base_graph
from .errors import ConfigError, InputError
from .events import (
    COUNT_POLICIES,
    DEFAULT_GAP_SECONDS,
    EventGroups,
    FilterRules,
    Group,
    LOG_FORMATS,
    TS_MAX_MS,
    TS_MIN_MS,
    comma_columns,
    filter_events,
    parse_log_text,
)
from .graphio import GRAPH_FORMATS, export_graph
from .routes import (
    GROUPINGS,
    CognitiveCommunity,
    SearchRoute,
    TransitionGraph,
    build_transition_graph,
    detect_communities,
    dominant_label,
    extract_routes,
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


def artifact_path(out_dir: Path | str, key: str) -> Path:
    """The file of an ARTIFACT_FILES or GRAPH_FILES key under out_dir."""
    return Path(out_dir) / (ARTIFACT_FILES.get(key) or GRAPH_FILES[key])


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


def _gap_ms(gap_seconds: float) -> int:
    """gap_seconds' shortest decimal text in milliseconds, rounded down (1.001
    is 1001, 0.0015 is 1), which whole milliseconds exceed exactly when they
    exceed the text. In integers: importing decimal costs a run about 0.45 MB."""
    if not gap_seconds > 0:
        raise ConfigError("gap_seconds must be positive")
    if not math.isfinite(gap_seconds * 1000):
        raise ConfigError(f"gap_seconds must be finite in milliseconds, got {gap_seconds!r}")
    mantissa, _, exp = repr(float(gap_seconds)).partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) + 3 - len(frac)
    return int(whole + frac) * 10 ** max(shift, 0) // 10 ** max(-shift, 0)


def sessionize_summaries(
    events: EventGroups, gap_seconds: float, count_policy: str = "distinct"
) -> SessionTable:
    """Split each user's events into sessions wherever the gap between
    consecutive events exceeds gap_seconds.

    k_items counts a session's distinct items ("distinct") or its events
    ("raw"). Sessions are numbered by ascending start time globally, ties
    broken by user_hash, which is total: one user's sessions never share a
    start.

    Consumes events: each user's group is popped from events.groups as its
    sessions are built, so the events are freed while the session columns
    grow. len(events) stays the number of events.
    """
    gap_ms = _gap_ms(gap_seconds)
    if count_policy not in COUNT_POLICIES:
        raise ConfigError(
            f"unknown count policy {count_policy!r} (expected one of {COUNT_POLICIES})"
        )
    distinct = count_policy == "distinct"
    groups = events.groups
    users: list[str] = []
    starts = array("q")
    ends = array("q")
    ks: list[int] = []
    # Users in sorted order, so that the stable sort by start below breaks
    # ties by user.
    for user in sorted(groups):
        ts, items, _ = groups.pop(user)
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


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of every stage, validated once when built.

    inputs and out_dir are read by run_pipeline and by the stage commands
    whose flags name them; a stage that reads saved artifacts needs neither.
    """

    inputs: tuple[Path, ...] = ()
    out_dir: Path = Path()
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
        _gap_ms(self.gap_seconds)
        if not self.linkage_threshold >= 0:
            raise ConfigError(f"linkage threshold must be >= 0, got {self.linkage_threshold!r}")
        unknown = [f for f in self.export_formats if f not in GRAPH_FORMATS]
        if unknown:
            raise ConfigError(f"unknown graph format {unknown[0]!r}")


def parse_log_files(
    paths: Sequence[Path | str], log_format: str, diagnostics: IO[str] | None = None
) -> tuple[EventGroups, int, int]:
    """Parse input files in order; returns (events, parsed_count, malformed_count).

    Each user's events keep their input order across files. Diagnostics go
    to the given sink (default stderr), one line per malformed record,
    numbered per file.
    """
    sink = diagnostics if diagnostics is not None else sys.stderr
    groups: dict[str, Group] = {}
    malformed = 0
    for path in paths:
        try:
            # Bytes that are not UTF-8 decode to lone surrogates, which the
            # parser reports per line as "invalid UTF-8".
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                diags = parse_log_text(fh, log_format, groups)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        malformed += len(diags)
        sink.writelines(f"{d}\n" for d in diags)
    events = EventGroups.of(groups)
    return events, len(events) + malformed, malformed


# --- artifact writers / readers -------------------------------------------

_SESSION_COLS = ["session_id", "user_hash", "start_ms", "end_ms", "k_items"]
_METRIC_COLS = [
    "block_index", "q", "mean_n", "mean_k",
    "n_min", "n_max", "k_min", "k_max", "alpha", "beta", "variety",
]
_CLASSIFICATION_COLS = ["block_index", "n_tendency", "k_tendency", "stability", "label", "mismatch_cost"]
_ROUTE_COLS = ["owner", "steps", "span_start", "span_end"]
_TRANSITION_COLS = ["from", "to", "count"]
_COMMUNITY_COLS = ["community_id", "size", *(f"count_{label}" for label in NODES), "position"]
# Rows per chunk that _write_csv joins into one write.
_CHUNK_ROWS = 256
# Characters that read_sessions_csv reads per segment, before carrying the
# segment on to the end of its last line.
_SEGMENT_CHARS = 8192
_SESSIONS_HEADER_LINE = ",".join(_SESSION_COLS) + "\n"


def _open_w(path: Path) -> IO[str]:
    return open(path, "w", encoding="utf-8", newline="")


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


def _write_csv(
    path: Path, header: Sequence[str], columns: Sequence[Sequence], text_cols: Sequence[int] = ()
) -> None:
    """Write an artifact: the header, then one row per position of the columns.

    The columns at text_cols hold free text, such as user hashes; csv
    renders each distinct text once, through the file's dialect. Every other
    value goes into its row as str() renders it, so it must be a number or
    text that csv never quotes (a float renders as its repr).

    csv quotes a field only for the characters of its line terminator, so
    with LF endings a bare CR would end the row when read back; a file with
    any text holding CR is written under QUOTE_NONNUMERIC, which quotes the
    header and every text field but no number.
    """
    texts = set().union(*(columns[i] for i in text_cols))
    quoting = csv.QUOTE_NONNUMERIC if any("\r" in t for t in texts) else csv.QUOTE_MINIMAL
    # One %-template per row, filled by map() without a bytecode loop per
    # row; a per-row ",".join is a third slower.
    row = ",".join(["%s"] * len(header)) + "\n"
    with _open_w(path) as fh:
        w = csv.writer(fh, lineterminator="\n", quoting=quoting)
        w.writerow(header)
        shown = _rendered_fields(w.dialect, texts).__getitem__
        rows = zip(*(map(shown, c) if i in text_cols else c for i, c in enumerate(columns)))
        while chunk := "".join(map(row.__mod__, islice(rows, _CHUNK_ROWS))):
            fh.write(chunk)


def _row_error(path: Path, kind: str, row: list[str]) -> InputError:
    return InputError(f"bad {kind} file {path}: row {row!r}")


@contextmanager
def _opened(path: Path, kind: str) -> Iterator[IO[str]]:
    """An artifact file opened as text. Text that is not UTF-8, or that csv
    cannot split into rows (such as a field over csv's size limit), is an
    InputError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise InputError(f"bad {kind} file {path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise InputError(f"bad {kind} file {path}: {exc}") from None


def _csv_rows(lines: Iterable[str], path: Path, kind: str, header: list[str]) -> Iterator[list[str]]:
    """The csv rows of an artifact's lines after its header, which must be header."""
    reader = csv.reader(lines)
    if next(reader, None) != header:
        raise InputError(f"bad {kind} file {path}: unexpected header")
    return reader


@contextmanager
def _reading(path: Path, kind: str, header: list[str]) -> Iterator[Iterator[list[str]]]:
    """The csv rows of an artifact file after its header, which must be header.

    Besides the errors of _opened, a row that the caller fails to convert
    (an IndexError, ValueError or KeyError) is an InputError.
    """
    row: list[str] | None = None

    def rows(reader: Iterator[list[str]]) -> Iterator[list[str]]:
        nonlocal row
        for row in reader:
            yield row

    try:
        with _opened(path, kind) as fh:
            yield rows(_csv_rows(fh, path, kind, header))
    except (IndexError, ValueError, KeyError):
        if row is None:
            raise
        raise _row_error(path, kind, row) from None


def write_sessions_csv(table: SessionTable, path: Path) -> None:
    columns = [range(len(table)), table.user_hash, table.start_ms, table.end_ms, table.k_items]
    _write_csv(path, _SESSION_COLS, columns, text_cols=(1,))


def read_sessions_csv(path: Path, column: str) -> list[int] | list[str]:
    """The "k_items" or "user_hash" column of a sessions.csv file; every
    field of every row is checked as it is read, and len() is the row count.
    A file with no sessions is an InputError, since no run writes one.

    Under the exact header, the file is read in segments of whole lines that
    events.comma_columns, the format-a reader's splitter, splits without
    csv; from the first segment it cannot split, or that fails a check, csv
    reads the rest and _session_field checks it a row at a time, so the
    rows, checks and errors are csv's either way.
    """
    user_column = {"k_items": False, "user_hash": True}[column]
    kept: list = []

    def take(cols: Sequence[Sequence[str]]) -> bool:
        """Append the kept column of a run of rows; False, and nothing
        appended, if any of those rows fails a check."""
        # map() over a column converts without a bytecode loop per row.
        try:
            ids = list(map(int, cols[0]))
            # k_items holds few distinct texts, each converted once.
            k_of = {text: int(text) for text in set(cols[4])}
            # array('q') refuses a time outside the signed 64-bit range; it
            # fills faster from a list than from an iterator.
            array("q", list(map(int, chain(cols[2], cols[3]))))
        except (ValueError, OverflowError):
            return False
        n = len(kept)
        if min(k_of.values()) < 1 or ids != list(range(n, n + len(ids))):
            return False
        # One str object per distinct user, however many sessions name it.
        kept.extend(map(sys.intern, cols[1]) if user_column else map(k_of.__getitem__, cols[4]))
        return True

    with _opened(path, "sessions") as fh:
        head = fh.readline()
        rows: Iterable[list[str]] = ()
        if head == _SESSIONS_HEADER_LINE:
            # readline() ends each segment where the file's own lines end.
            while seg := fh.read(_SEGMENT_CHARS) + fh.readline():
                # Without a quote, csv splits where comma_columns does; a segment
                # within csv's field size limit holds no field over it.
                cols = None if '"' in seg or len(seg) > csv.field_size_limit() else comma_columns(seg, 5)
                if cols is None or not take(cols):
                    rows = csv.reader(chain(io.StringIO(seg, newline=""), fh))
                    break
        else:
            rows = _csv_rows(chain((head,), fh), path, "sessions", _SESSION_COLS)
        for i, row in enumerate(rows, len(kept)):
            kept.append(_session_field(path, row, i, user_column))
    if not kept:
        raise InputError(f"bad sessions file {path}: no sessions")
    return kept


def _session_field(path: Path, row: list[str], i: int, user_column: bool) -> str | int:
    """Row i of a sessions file's interned user_hash, or its k_items. The
    row-object reader's checks come first, in its order, then the signed
    64-bit range of the times; the first check that fails is an InputError."""
    try:
        session_id, start, end, k = int(row[0]), int(row[2]), int(row[3]), int(row[4])
    except (IndexError, ValueError):
        raise _row_error(path, "sessions", row) from None
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
    return sys.intern(row[1]) if user_column else k


def _opt(x: float | None) -> float | str:
    return "" if x is None else x


def write_metrics_csv(metrics: Sequence[BlockMetrics], path: Path) -> None:
    # The header names the BlockMetrics fields; alpha, beta and variety are
    # None for the first block.
    columns = [[getattr(m, name) for m in metrics] for name in _METRIC_COLS]
    columns[8:] = [list(map(_opt, c)) for c in columns[8:]]
    _write_csv(path, _METRIC_COLS, columns)


def write_metrics_jsonl(metrics: Sequence[BlockMetrics], path: Path) -> None:
    with _open_w(path) as fh:
        fh.writelines(json.dumps(asdict(m), sort_keys=True) + "\n" for m in metrics)


def read_metrics_csv(path: Path) -> list[BlockMetrics]:
    """The block metrics of a metrics file. A row is an InputError unless its
    block_index exceeds the row before's, its q is at least 1, its n_min,
    n_max, k_min and k_max satisfy 1 <= min <= max, its mean_n and mean_k
    are finite and positive and, after the first row, its alpha, beta and
    variety are finite; so is a file with no blocks, which no run writes."""
    out: list[BlockMetrics] = []
    with _reading(path, "metrics", _METRIC_COLS) as rows:
        for row in rows:
            m = BlockMetrics(
                block_index=int(row[0]), q=int(row[1]),
                mean_n=float(row[2]), mean_k=float(row[3]),
                n_min=int(row[4]), n_max=int(row[5]),
                k_min=int(row[6]), k_max=int(row[7]),
                alpha=float(row[8]) if row[8] else None,
                beta=float(row[9]) if row[9] else None,
                variety=float(row[10]) if row[10] else None,
            )
            ratios = (m.alpha, m.beta, m.variety)
            if not (
                m.q >= 1 and 1 <= m.n_min <= m.n_max and 1 <= m.k_min <= m.k_max
                and 0 < m.mean_n < math.inf and 0 < m.mean_k < math.inf
            ) or out and (
                m.block_index <= out[-1].block_index
                or None in ratios
                or not all(map(math.isfinite, ratios))
            ):
                raise _row_error(path, "metrics", row)
            out.append(m)
    if not out:
        raise InputError(f"bad metrics file {path}: no blocks")
    return out


def write_classifications_csv(cls: Sequence[BlockClassification], path: Path) -> None:
    columns = [
        [c.block_index for c in cls],
        [c.raw.n_tend.value for c in cls],
        [c.raw.k_tend.value for c in cls],
        [c.raw.stab.value for c in cls],
        [c.node.label for c in cls],
        [c.cost for c in cls],
    ]
    _write_csv(path, _CLASSIFICATION_COLS, columns)


def read_classifications_csv(path: Path) -> list[BlockClassification]:
    """The classifications of a classifications file. A row whose
    block_index does not exceed the row before's is an InputError."""
    out: list[BlockClassification] = []
    with _reading(path, "classifications", _CLASSIFICATION_COLS) as rows:
        for row in rows:
            out.append(BlockClassification(
                int(row[0]),
                Triplet(Tendency(row[1]), Tendency(row[2]), Stability(row[3])),
                NODE_BY_LABEL[row[4]],
                float(row[5]),
            ))
            if len(out) > 1 and out[-1].block_index <= out[-2].block_index:
                raise _row_error(path, "classifications", row)
    return out


def write_routes_csv(routes: Sequence[SearchRoute], path: Path) -> None:
    columns = [
        [r.owner for r in routes],
        [",".join(r.steps) for r in routes],
        [r.span[0] for r in routes],
        [r.span[1] for r in routes],
    ]
    _write_csv(path, _ROUTE_COLS, columns, text_cols=(0, 1))


def read_routes_csv(path: Path) -> list[SearchRoute]:
    out: list[SearchRoute] = []
    owners: set[str] = set()
    with _reading(path, "routes", _ROUTE_COLS) as rows:
        for row in rows:
            steps = tuple(row[1].split(","))
            out.append(SearchRoute(row[0], steps, (int(row[2]), int(row[3]))))
            if any(s not in NODE_BY_LABEL for s in steps):
                raise InputError(f"bad routes file {path}: steps {row[1]!r}")
            if row[0] in owners:
                raise InputError(f"bad routes file {path}: duplicate owner {row[0]!r}")
            owners.add(row[0])
    return out


def write_transitions_csv(tg: TransitionGraph, path: Path) -> None:
    edges = [(x, y, n) for (x, y), n in sorted(tg.counts.items())]
    _write_csv(path, _TRANSITION_COLS, [[e[i] for e in edges] for i in range(3)])


def read_transitions_csv(path: Path) -> TransitionGraph:
    """A row is an InputError unless it names two labels, a pair no row before names, and a count >= 1."""
    counts: dict[tuple[str, str], int] = {}
    with _reading(path, "transitions", _TRANSITION_COLS) as rows:
        for row in rows:
            count = int(row[2])
            if count < 1 or (row[0], row[1]) in counts or not NODE_BY_LABEL.keys() >= {row[0], row[1]}:
                raise _row_error(path, "transitions", row)
            counts[row[0], row[1]] = count
    return TransitionGraph(counts)


def write_communities_csv(
    communities: Sequence[CognitiveCommunity], path: Path
) -> None:
    columns = [
        [c.community_id for c in communities],
        [c.size for c in communities],
        *([c.label_counts[label] for c in communities] for label in NODES),
        # A community's compass position is its dominant label.
        [c.dominant for c in communities],
    ]
    _write_csv(path, _COMMUNITY_COLS, columns)


def read_communities_count(path: Path) -> int:
    """The number of rows of a communities file. A row is an InputError
    unless its id is its row number from 0, its size and label counts are
    integers of at least 1 and 0, its counts add up to at least its size
    (a route has a step) and its position is dominant_label of its counts."""
    m = 0
    with _reading(path, "communities", _COMMUNITY_COLS) as rows:
        for m, row in enumerate(rows, 1):
            size, *counts = map(int, row[1:8])
            position = dominant_label(dict(zip(NODES, counts)))
            if int(row[0]) != m - 1 or min(counts) < 0 or not 1 <= size <= sum(counts) or row[8] != position:
                raise _row_error(path, "communities", row)
    return m


# --- stages -----------------------------------------------------------------


def metrics_from_summaries(k_items: Sequence[int], block_size: int) -> list[BlockMetrics]:
    return compute_variety_series(block_means(k_items, block_size))


def classify_series(
    metrics: Sequence[BlockMetrics], cfg: ClassifierConfig
) -> list[BlockClassification]:
    """Classify every block after the first against the series-wide bounds."""
    if len(metrics) < 2:
        return []
    bounds = metric_bounds(metrics)
    return [classify_block(m, bounds, cfg) for m in metrics[1:]]


def routes_from_classifications(
    classifications: Sequence[BlockClassification],
    users: Sequence[str],
    block_size: int,
    grouping: str,
) -> tuple[list[SearchRoute], TransitionGraph]:
    # The classifications are ordered by block_index, so the first and the
    # last name the lowest and the highest block.
    for c in classifications[:1] + classifications[-1:]:
        if not 0 <= c.block_index < math.ceil(len(users) / block_size):
            raise InputError(f"classifications name block {c.block_index}, which the sessions lack")
    classified = [(c.block_index, c.node.label) for c in classifications]
    block_users = None if grouping == "stream" else (
        users[b * block_size : (b + 1) * block_size] for b, _ in classified
    )
    routes = extract_routes(classified, grouping, block_users)
    return routes, build_transition_graph(routes)


def _summary(
    metrics: Sequence[BlockMetrics],
    classifications: Sequence[BlockClassification],
    route_count: int,
    community_count: int,
) -> dict:
    """The counts of run's report that report recomputes; sessions are the blocks' q summed."""
    q_of = {m.block_index: m.q for m in metrics}
    per_label = dict.fromkeys(NODES, 0)
    for c in classifications:
        q = q_of.get(c.block_index)
        if q is None:
            raise InputError(f"classifications name block {c.block_index}, which the metrics lack")
        per_label[c.node.label] += q
    classified = sum(per_label.values())
    total = sum(q_of.values())
    return {
        "sessions": {"total": total, "classified": classified, "unclassified": total - classified},
        "blocks": {"total": len(metrics), "classified": len(classifications)},
        "types": {
            label: {"sessions": n, "share_pct": (100.0 * n / classified) if classified else 0.0}
            for label, n in per_label.items()
        },
        "dominant_type": dominant_label(per_label) if classified else None,
        "route_count": route_count,
        "community_count": community_count,
    }


def build_report(
    *,
    parsed: int,
    kept: int,
    malformed: int,
    metrics: Sequence[BlockMetrics],
    classifications: Sequence[BlockClassification],
    block_size: int,
    route_count: int,
    community_count: int,
) -> dict:
    report = _summary(metrics, classifications, route_count, community_count)
    report["events"] = {"parsed": parsed, "kept": kept, "malformed": malformed}
    report["blocks"]["block_size"] = block_size
    return report


# One function per stage, shared by run_pipeline and the stage commands: each
# computes its stage from the results of earlier ones and writes its
# artifacts to path(key), for key in ARTIFACT_FILES or GRAPH_FILES.
PathOf = Callable[[str], Path]


def run_ingest(
    cfg: PipelineConfig, path: PathOf, diagnostics: IO[str] | None = None
) -> tuple[SessionTable, int, int, int]:
    """Parse, filter and sessionize cfg.inputs; returns (sessions, parsed,
    kept, malformed). An input that yields no sessions is an InputError."""
    events, parsed, malformed = parse_log_files(cfg.inputs, cfg.log_format, diagnostics)
    events = filter_events(events, cfg.filter_rules)
    kept = len(events)
    sessions = sessionize_summaries(events, cfg.gap_seconds, cfg.count_policy)
    if not sessions:
        raise InputError("no sessions")
    write_sessions_csv(sessions, path("sessions"))
    return sessions, parsed, kept, malformed


def run_metrics(k_items: Sequence[int], cfg: PipelineConfig, path: PathOf) -> list[BlockMetrics]:
    metrics = metrics_from_summaries(k_items, cfg.block_size)
    write_metrics_csv(metrics, path("metrics"))
    write_metrics_jsonl(metrics, path("metrics_records"))
    return metrics


def run_classify(
    metrics: Sequence[BlockMetrics], cfg: PipelineConfig, path: PathOf
) -> list[BlockClassification]:
    classifications = classify_series(metrics, cfg.classifier)
    write_classifications_csv(classifications, path("classifications"))
    return classifications


def run_routes(
    classifications: Sequence[BlockClassification],
    users: Sequence[str],
    cfg: PipelineConfig,
    path: PathOf,
) -> tuple[list[SearchRoute], TransitionGraph]:
    routes, transitions = routes_from_classifications(classifications, users, cfg.block_size, cfg.grouping)
    write_routes_csv(routes, path("routes"))
    write_transitions_csv(transitions, path("transitions"))
    return routes, transitions


def run_communities(
    routes: Sequence[SearchRoute], cfg: PipelineConfig, path: PathOf
) -> list[CognitiveCommunity]:
    communities = detect_communities(routes, cfg.linkage_threshold)
    write_communities_csv(communities, path("communities"))
    return communities


def run_graph(transitions: TransitionGraph | None, cfg: PipelineConfig, path: PathOf) -> list[Path]:
    """Export the compass graph in each of cfg.export_formats, its edges
    weighted by transitions unless that is None; returns the files written."""
    graph = build_base_graph(None if transitions is None else transition_edge_weights(transitions))
    written = []
    for fmt in cfg.export_formats:
        written.append(path(fmt))
        with _open_w(written[-1]) as fh:
            fh.write(export_graph(graph, fmt))
    return written


def run_pipeline(cfg: PipelineConfig, diagnostics: IO[str] | None = None) -> dict:
    """Run every stage, writing artifacts under cfg.out_dir; returns the report.

    On failure all files written by this run are removed. An input that
    yields no sessions aborts before any artifact exists.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stage = "ingest"

    def target(key: str) -> Path:
        p = artifact_path(out, key)
        written.append(p)
        return p

    try:
        sessions, parsed, kept, malformed = run_ingest(cfg, target, diagnostics)
        stage = "metrics"
        metrics = run_metrics(sessions.k_items, cfg, target)
        stage = "classify"
        classifications = run_classify(metrics, cfg, target)
        stage = "routes"
        routes, transitions = run_routes(classifications, sessions.user_hash, cfg, target)
        stage = "communities"
        communities = run_communities(routes, cfg, target)
        stage = "graph"
        run_graph(transitions if cfg.weight_edges_from_transitions else None, cfg, target)
        stage = "report"
        report = build_report(
            parsed=parsed,
            kept=kept,
            malformed=malformed,
            metrics=metrics,
            classifications=classifications,
            block_size=cfg.block_size,
            route_count=len(routes),
            community_count=len(communities),
        )
        with _open_w(target("report")) as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return report
    except BaseException as exc:
        for p in written:
            p.unlink(missing_ok=True)
        if isinstance(exc, InputError):
            raise InputError(f"{stage}: {exc}") from exc
        raise


def report_stats(artifacts_dir: Path | str) -> str:
    """Human-readable summary recomputed from saved artifacts."""
    path = {key: artifact_path(artifacts_dir, key) for key in ARTIFACT_FILES}
    for key in ("metrics", "classifications", "routes", "communities"):
        if not path[key].exists():
            raise InputError(f"missing: {key}")
    # Not through a traced global: a traced report records one span.
    return stats_text(_summary(
        read_metrics_csv(path["metrics"]),
        read_classifications_csv(path["classifications"]),
        len(read_routes_csv(path["routes"])),
        read_communities_count(path["communities"]),
    ))


def stats_text(report: dict) -> str:
    """The human-readable summary of a report as _summary or build_report returns it."""
    blocks, sessions = report["blocks"], report["sessions"]
    lines = [
        f"blocks: {blocks['total']} total, {blocks['classified']} classified",
        f"sessions: {sessions['total']} total, {sessions['classified']} classified",
        "type  sessions  share",
    ]
    for label, t in report["types"].items():
        lines.append(f"{label:<5} {t['sessions']:>9} {t['share_pct']:6.2f}%")
    if report["dominant_type"] is not None:
        lines.append(f"dominant type: {report['dominant_type']}")
    lines.append(f"routes: {report['route_count']}")
    lines.append(f"communities: {report['community_count']}")
    return "\n".join(lines)
