"""Shared factories and reference implementations for tests."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from logcompass.blocks import BlockMetrics
from logcompass.errors import ConfigError, InputError
from logcompass import events as events_module
from logcompass.events import COUNT_POLICIES, DEFAULT_GAP_SECONDS, EventGroups, LogEvent, ParseDiagnostic
from logcompass.synth import generate_sessions
from logcompass.taxonomy import NODE_BY_LABEL
from logcompass.timeutil import format_timestamp_s


def make_events(spec):
    """spec: iterable of (ts_seconds, user, item[, tag]) tuples."""
    out = []
    for row in spec:
        t, u, i = row[:3]
        tag = row[3] if len(row) > 3 else None
        out.append(LogEvent(int(t * 1000), u, i, tag))
    return out


def event_groups(events: Iterable[LogEvent]) -> EventGroups:
    """The EventGroups holding the given events, each user's in order."""
    groups: dict = {}
    for ts, user, item, tag in events:
        group = groups.setdefault(user, (array("q"), [], []))
        group[0].append(ts)
        group[1].append(item)
        group[2].append(tag)
    return EventGroups(groups, sum(len(g[0]) for g in groups.values()))


def oracle_parse_events(lines: Iterable[str], log_format: str = "a"):
    """The per-line parser: each line through the format's event function,
    one at a time, into the same groups and diagnostics as parse_events."""
    event_of = events_module._delimited_event if log_format == "a" else events_module._record_event
    groups: dict = {}
    diags = []
    for line_no, raw in enumerate(lines, 1):
        if not raw.isascii() and not events_module._is_utf8(raw):
            diags.append(ParseDiagnostic(line_no, "invalid UTF-8"))
            continue
        event = event_of(raw)
        if type(event) is str:
            diags.append(ParseDiagnostic(line_no, event))
            continue
        ts, user, item, tag = event
        ts_col, items, tags = groups.setdefault(user, (array("q"), [], []))
        if tags or tag:
            tags.extend(repeat(None, len(items) - len(tags)))
            tags.append(tag or None)
        ts_col.append(ts)
        items.append(item)
    return EventGroups(groups, sum(len(g[0]) for g in groups.values())), diags


def by_user(events: Iterable[LogEvent]) -> dict[str, list[LogEvent]]:
    """The oracle grouping: each user's events, in input order. No artifact
    can observe the order of events of different users."""
    out: dict[str, list[LogEvent]] = {}
    for ev in events:
        out.setdefault(ev.user_hash, []).append(ev)
    return out


def group_events(events: EventGroups) -> dict[str, list[LogEvent]]:
    """Each user's events in an EventGroups as LogEvents, for comparison with
    by_user; also checks the groups' shape and event count."""
    out = {}
    for user, (ts, items, tags) in events.groups.items():
        assert type(ts) is array and ts.typecode == "q"
        assert len(ts) == len(items) > 0 and len(tags) <= len(items)
        # Events past the end of the tag column have no tag.
        out[user] = [LogEvent(*row) for row in zip(ts, repeat(user), items, chain(tags, repeat(None)))]
    assert len(events) == sum(map(len, out.values()))
    return out


def table_rows(table):
    """A SessionTable as (session_id, user_hash, start_ms, end_ms, k_items) tuples."""
    return list(zip(range(len(table)), table.user_hash, table.start_ms, table.end_ms, table.k_items))


@dataclass(frozen=True, slots=True)
class SessionSummary:
    """One sessions.csv row as an object, as the row-object reader held it."""

    session_id: int
    user_hash: str
    start_ms: int
    end_ms: int
    k_items: int


def oracle_read_sessions_csv(path: Path) -> list[SessionSummary]:
    """The row-object sessions.csv reader that read_sessions_csv replaced,
    kept as the reference for its rows and its error messages."""
    out: list[SessionSummary] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["session_id", "user_hash", "start_ms", "end_ms", "k_items"]:
            raise InputError(f"bad sessions file {path}: unexpected header")
        for i, row in enumerate(reader):
            try:
                s = SessionSummary(int(row[0]), row[1], int(row[2]), int(row[3]), int(row[4]))
            except (IndexError, ValueError):
                raise InputError(f"bad sessions file {path}: row {row!r}") from None
            if s.k_items < 1:
                raise InputError(f"bad sessions file {path}: k_items < 1 in row {row!r}")
            if s.session_id != i:
                raise InputError(
                    f"bad sessions file {path}: session_id {s.session_id} at row {i}"
                    " (ids must run 0..n-1 in order)"
                )
            out.append(s)
    return out


def oracle_write_sessions_csv(table, path: Path) -> None:
    """The csv.writer sessions.csv writer that write_sessions_csv replaced,
    kept as the reference for its bytes: a user holding CR switches the whole
    file, header included, to QUOTE_NONNUMERIC."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        quoting = (
            csv.QUOTE_NONNUMERIC if any("\r" in u for u in table.user_hash) else csv.QUOTE_MINIMAL
        )
        w = csv.writer(fh, lineterminator="\n", quoting=quoting)
        w.writerow(["session_id", "user_hash", "start_ms", "end_ms", "k_items"])
        w.writerows(
            zip(range(len(table)), table.user_hash, table.start_ms, table.end_ms, table.k_items)
        )


# --- the block chain that blocks.block_means replaced -----------------------------


@dataclass(frozen=True)
class Block:
    """k_items[j] is the item count K of the block's j-th session."""

    block_index: int
    k_items: tuple[int, ...]
    search_volume: int


@dataclass(frozen=True)
class UsageHistogram:
    """entries[k] = number of sessions in the block that read exactly k items."""

    entries: dict[int, int]


def partition_blocks(k_items: Sequence[int], block_size: int) -> list[Block]:
    """Cut the K values of sessions (already in global order) into consecutive
    runs of block_size.

    The final block may be smaller; its search_volume says so. An empty
    sequence yields an empty block list.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    blocks: list[Block] = []
    for i in range(0, len(k_items), block_size):
        chunk = tuple(k_items[i : i + block_size])
        blocks.append(Block(len(blocks), chunk, len(chunk)))
    return blocks


def compute_histogram(block: Block) -> UsageHistogram:
    """Count sessions per intensity value; entry counts sum to the block volume."""
    if not block.k_items:
        raise ValueError("empty block")
    entries: dict[int, int] = {}
    for k in block.k_items:
        if k < 1:
            raise ValueError(f"k_items must be >= 1, got {k}")
        entries[k] = entries.get(k, 0) + 1
    return UsageHistogram(dict(sorted(entries.items())))


def compute_block_means(histogram: UsageHistogram, block: Block) -> BlockMetrics:
    """Reduce a block histogram to means and extremes (variety left unset).

    mean_k is the per-session mean item count; mean_n averages the reader
    counts over the distinct observed K values.
    """
    entries = histogram.entries
    if not entries:
        raise ValueError("empty histogram")
    q = sum(entries.values())
    if q != block.search_volume:
        raise ValueError(
            f"histogram mass {q} does not match block volume {block.search_volume}"
        )
    return BlockMetrics(
        block_index=block.block_index,
        q=q,
        mean_n=q / len(entries),
        mean_k=sum(k * n for k, n in entries.items()) / q,
        n_min=min(entries.values()),
        n_max=max(entries.values()),
        k_min=min(entries),
        k_max=max(entries),
    )


# --- the csv.writer artifact writers that pipeline._write_csv replaced ------------


def _oracle_opt(x):
    return "" if x is None else repr(x)


def oracle_write_metrics_csv(metrics, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([
            "block_index", "q", "mean_n", "mean_k",
            "n_min", "n_max", "k_min", "k_max", "alpha", "beta", "variety",
        ])
        for m in metrics:
            w.writerow(
                [
                    m.block_index, m.q, repr(m.mean_n), repr(m.mean_k),
                    m.n_min, m.n_max, m.k_min, m.k_max,
                    _oracle_opt(m.alpha), _oracle_opt(m.beta), _oracle_opt(m.variety),
                ]
            )


def oracle_write_classifications_csv(cls, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["block_index", "n_tendency", "k_tendency", "stability", "label", "mismatch_cost"])
        for c in cls:
            w.writerow(
                [
                    c.block_index,
                    c.raw.n_tend.value, c.raw.k_tend.value, c.raw.stab.value,
                    c.node.label, repr(c.cost),
                ]
            )


def oracle_write_routes_csv(routes, path: Path) -> None:
    """A file with any owner holding CR quotes every text field
    (QUOTE_NONNUMERIC), header included."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        quoting = csv.QUOTE_NONNUMERIC if any("\r" in r.owner for r in routes) else csv.QUOTE_MINIMAL
        w = csv.writer(fh, lineterminator="\n", quoting=quoting)
        w.writerow(["owner", "steps", "span_start", "span_end"])
        for r in routes:
            w.writerow([r.owner, ",".join(r.steps), r.span[0], r.span[1]])


def oracle_write_transitions_csv(tg, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["from", "to", "count"])
        for (x, y), n in sorted(tg.counts.items()):
            w.writerow([x, y, n])


def oracle_write_communities_csv(communities, path: Path) -> None:
    labels = sorted(NODE_BY_LABEL)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["community_id", "size"] + [f"count_{label}" for label in labels] + ["position"])
        for c in communities:
            w.writerow([c.community_id, c.size] + [c.label_counts[label] for label in labels] + [c.dominant])


# --- the LogEvent sessionizer that sessionize_summaries replaced ------------------


@dataclass(frozen=True)
class Session:
    """A time-bounded run of one user's events; k_items per the counting policy."""

    session_id: int
    user_hash: str
    events: tuple[LogEvent, ...]
    start_ms: int
    end_ms: int
    k_items: int


def session_groups(
    events: Iterable[LogEvent], gap_ms: int
) -> Iterator[tuple[str, list[LogEvent]]]:
    """Yield (user_hash, events) runs split wherever an inter-event gap exceeds gap_ms.

    Events are grouped per user and stably sorted by timestamp, so equal
    timestamps keep input order. Yield order is user-major, not global.
    """
    by_user: dict[str, list[LogEvent]] = {}
    for ev in events:
        user = ev[1]
        lst = by_user.get(user)
        if lst is None:
            by_user[user] = [ev]
        else:
            lst.append(ev)
    by_ts = itemgetter(0)
    for user, evs in by_user.items():
        evs.sort(key=by_ts)
        start = 0
        prev = evs[0][0]
        for i in range(1, len(evs)):
            t = evs[i][0]
            if t - prev > gap_ms:
                yield user, evs[start:i]
                start = i
            prev = t
        yield user, evs[start:]


def count_items(events: list[LogEvent], count_policy: str) -> int:
    if count_policy == "distinct":
        return len({ev.item_id for ev in events})
    if count_policy == "raw":
        return len(events)
    raise ConfigError(f"unknown count policy {count_policy!r} (expected one of {COUNT_POLICIES})")


def sessionize(
    events: Iterable[LogEvent],
    gap_seconds: float = DEFAULT_GAP_SECONDS,
    *,
    count_policy: str = "distinct",
) -> list[Session]:
    """Partition events into per-user sessions split on gaps exceeding gap_seconds.

    Sessions are numbered by ascending start time globally (ties broken by
    user_hash, which is total: one user's sessions never share a start).
    """
    if not gap_seconds > 0:
        raise ValueError("gap_seconds must be positive")
    count_items([], count_policy)  # validate policy up front
    gap_ms = round(gap_seconds * 1000)
    drafts = [
        (evs[0].ts_ms, user, evs)
        for user, evs in session_groups(events, gap_ms)
    ]
    drafts.sort(key=lambda d: (d[0], d[1]))
    return [
        Session(
            session_id=i,
            user_hash=user,
            events=tuple(evs),
            start_ms=start,
            end_ms=evs[-1].ts_ms,
            k_items=count_items(evs, count_policy),
        )
        for i, (start, user, evs) in enumerate(drafts)
    ]


# --- the hand-written timestamp parser that fromisoformat replaced ----------------

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_EPOCH_DT = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_MS = timedelta(milliseconds=1)
_DAY_MS = 86_400_000


def oracle_parse_timestamp_ms(text: str) -> int:
    """The old parser: a fast path for ``YYYY-MM-DDTHH:MM:SS[.f][Z]`` and
    otherwise fromisoformat, with a trailing ``Z`` rewritten to ``+00:00``.

    The fast path accepts some strings fromisoformat rejects (a one-digit
    second, non-ASCII digits, a basic or week date in the first ten
    characters); where both accept, the values agree.
    """
    try:
        return _oracle_fast_iso_ms(text)
    except (ValueError, IndexError):
        pass
    general = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(general)
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH_DT) // _ONE_MS


def _oracle_fast_iso_ms(s: str) -> int:
    d = date.fromisoformat(s[:10])
    day_ms = (d.toordinal() - _EPOCH_ORDINAL) * _DAY_MS
    if s[10] not in "T " or s[13] != ":" or s[16] != ":":
        raise ValueError(s)
    hh, mm, ss = s[11:13], s[14:16], s[17:19]
    if not (hh.isdigit() and mm.isdigit() and ss.isdigit()):
        raise ValueError(s)
    h, m, sec = int(hh), int(mm), int(ss)
    if h > 23 or m > 59 or sec > 59:
        raise ValueError(s)
    tail = s[19:]
    frac_ms = 0
    if tail.startswith("."):
        i = 1
        while i < len(tail) and tail[i].isdigit():
            i += 1
        if i == 1:
            raise ValueError(s)
        frac_ms = int((tail[1:i] + "000")[:3])
        tail = tail[i:]
    if tail not in ("", "Z"):
        raise ValueError(s)
    return day_ms + (h * 3600 + m * 60 + sec) * 1000 + frac_ms


# --- the per-event synth writer that write_log replaced -------------------------


def oracle_write_log(profile, dest: IO[str]) -> int:
    """write_log as it was: one f-string and one format_timestamp_s call per
    event of generate_sessions."""
    n = 0
    write = dest.write
    for s in generate_sessions(profile):
        user = s.user_hash
        start = s.start_ms
        write(
            "".join(
                f"{format_timestamp_s(start + j * 30_000)},{user},{item}\n"
                for j, item in enumerate(s.item_ids)
            )
        )
        n += len(s.item_ids)
    return n
