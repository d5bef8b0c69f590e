"""Epoch-millisecond timestamp parsing and formatting.

Timestamps are carried through the pipeline as integer epoch milliseconds
(UTC). Parsing accepts exactly what Python 3.11's
:func:`datetime.datetime.fromisoformat` accepts (``T`` or space separator,
``Z`` or a ``±HH:MM`` offset, basic and week dates, any number of fraction
digits); a naive timestamp counts as UTC and fractions are truncated to
milliseconds.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from itertools import repeat
from operator import floordiv, sub

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_NAIVE = datetime(1970, 1, 1)
_ONE_MS = timedelta(milliseconds=1)
_DAY_MS = 86_400_000

# Keyed by epoch day; bounded by the number of distinct days in the output.
_DAY_ISO: dict[int, str] = {}
# Two-digit hours, indexed by value.
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(24))
# "MM:SS" of each second of an hour, indexed by that second; built on first
# use by hour_tables, so that a process that formats no time never holds it.
_MIN_SEC: tuple[str, ...] = ()


def parse_timestamp_ms(text: str) -> int:
    """Parse an ISO-8601 timestamp to epoch milliseconds.

    Naive timestamps are treated as UTC; fractional seconds beyond
    milliseconds are truncated. Raises ValueError for unparseable input.
    """
    dt = datetime.fromisoformat(text)
    # A naive time minus the naive epoch is its offset from the epoch in UTC.
    return (dt - (_EPOCH_NAIVE if dt.tzinfo is None else _EPOCH)) // _ONE_MS


def parse_timestamps_ms(texts: list[str]) -> list[int]:
    """parse_timestamp_ms of each text, converted by map() without a
    bytecode loop per text.

    Raises ValueError for an unparseable text, and TypeError for texts that
    mix naive and aware timestamps.
    """
    dts = list(map(datetime.fromisoformat, texts))
    # The first time's epoch serves all: subtracting it from a time of the
    # other kind raises TypeError.
    epoch = _EPOCH_NAIVE if not dts or dts[0].tzinfo is None else _EPOCH
    return list(map(floordiv, map(sub, dts, repeat(epoch)), repeat(_ONE_MS)))


def day_iso(day: int) -> str:
    """``YYYY-MM-DD`` of an epoch day (days since 1970-01-01)."""
    return date.fromordinal(day + _EPOCH_ORDINAL).isoformat()


def hour_tables() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The two-digit hours and the "MM:SS" of each second of an hour, so
    that ``f"{hours[h]}:{min_sec[s]}"`` renders second s of hour h."""
    global _MIN_SEC
    if not _MIN_SEC:
        _MIN_SEC = tuple(f"{m:02d}:{s:02d}" for m in range(60) for s in range(60))
    return _TWO_DIGITS, _MIN_SEC


def format_timestamp_s(ms: int) -> str:
    """Render epoch milliseconds as ``YYYY-MM-DDTHH:MM:SSZ`` (whole seconds)."""
    day, rem = divmod(ms, _DAY_MS)
    prefix = _DAY_ISO.get(day)
    if prefix is None:
        prefix = _DAY_ISO[day] = day_iso(day)
    h, r = divmod(rem // 1000, 3600)
    hours, min_sec = hour_tables()
    return f"{prefix}T{hours[h]}:{min_sec[r]}Z"
