"""Shared factories and reference implementations for tests."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from logcompass.errors import InputError
from logcompass.events import LogEvent


def make_events(spec):
    """spec: iterable of (ts_seconds, user, item[, tag]) tuples."""
    out = []
    for row in spec:
        t, u, i = row[:3]
        tag = row[3] if len(row) > 3 else None
        out.append(LogEvent(int(t * 1000), u, i, tag))
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
