"""Deterministic synthetic access-log generation.

All randomness comes from SplitMix64, a publicly specified generator with
a single 64-bit state word (state advances by the golden-gamma constant
0x9E3779B97F4A7C15; outputs are the finalized state). The algorithm is
pinned so identical profiles and seeds produce byte-identical logs on any
platform; do not change it silently.

Sessions are laid out sequentially in virtual time: events within a
session are 30 s apart and the next session starts more than 1800 s after
the previous one ends, so re-sessionizing the output with the default gap
recovers exactly the generated sessions.

One planner (`_plan`) draws every session as a plain (user, start_ms,
item_ids) tuple; generate_sessions, generate_events and write_log each
render its output. write_log splits a session's start once into an epoch
day and a second of that day and steps 30 s per event, taking the text from
the day's ``YYYY-MM-DD`` prefix (rendered when the day changes), a
two-digit hour table and an ``MM:SS`` table, and moves to the next day's
prefix when a long session runs past midnight.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, starmap
from pathlib import Path
from typing import IO, Iterator

from .errors import ConfigError, load_config_object
from .events import LogEvent
from .timeutil import day_iso, hour_tables

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 sequence generator; see the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n) via the multiply-high reduction."""
        # next_u64 inline: the generator draws most of its values here.
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) * n) >> 64

    def unit(self) -> float:
        """Float in [0, 1)."""
        return self.next_u64() / 18446744073709551616.0


K_DISTRIBUTIONS = ("mostly-one", "heavy-tail", "uniform-range")
_UNIFORM_RE = re.compile(r"^uniform-range\((\d+),(\d+)\)$")

# mostly-one: P(K=1) = 17/20 exactly, else uniform on 2..10.
_MOSTLY_ONE_THRESHOLD = (17 << 64) // 20
_MOSTLY_ONE_MAX_K = 10
# heavy-tail: P(K=k) proportional to k^-1.5 on 1..50.
_HEAVY_TAIL_MAX_K = 50
_HEAVY_TAIL_TOTAL = sum(k ** -1.5 for k in range(1, _HEAVY_TAIL_MAX_K + 1))
_HEAVY_TAIL_CDF: tuple[float, ...] = tuple(
    c / _HEAVY_TAIL_TOTAL
    for c in accumulate(k ** -1.5 for k in range(1, _HEAVY_TAIL_MAX_K + 1))
)

BASE_EPOCH_S = 1_614_556_800  # 2021-03-01T00:00:00Z
EVENT_SPACING_S = 30
_SPACING_MS = EVENT_SPACING_S * 1000
_DAY_S = 86_400
SESSION_GAP_BUFFER_S = 1801  # strictly beyond the default 1800 s session gap
START_JITTER_S = 600
# Entries per cache of user and item texts in generate_sessions, so that its
# memory does not grow with n_users or n_items.
_TEXT_CACHE_SIZE = 8192


def parse_k_distribution(name: str) -> tuple[str, int, int]:
    """Parse a distribution name into (kind, lo, hi); lo/hi are 0 unless uniform."""
    if name in ("mostly-one", "heavy-tail"):
        return name, 0, 0
    m = _UNIFORM_RE.match(name)
    if m:
        return "uniform-range", int(m.group(1)), int(m.group(2))
    raise ConfigError(
        f"unknown k_distribution {name!r} "
        "(expected mostly-one, heavy-tail, or uniform-range(lo,hi))"
    )


@dataclass(frozen=True)
class SynthProfile:
    """Shape of a synthetic corpus; identical profile + seed => identical bytes."""

    n_users: int = 100
    n_items: int = 1000
    sessions_per_block: int = 100
    n_blocks: int = 10
    k_distribution: str = "mostly-one"
    drift_k: float = 1.0
    drift_q: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        # A profile file can hold any JSON value, so each field's type is
        # checked; a bool is an int to Python but not a count here.
        for name in ("n_users", "n_items", "sessions_per_block", "n_blocks", "seed"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "seed":
                raise ConfigError(f"{name} must be >= 1")
        for name in ("drift_k", "drift_q"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not self.drift_k > 0 or not self.drift_q > 0:
            raise ConfigError("drift factors must be positive")
        if not isinstance(self.k_distribution, str):
            raise ConfigError(f"k_distribution must be text, got {self.k_distribution!r}")
        kind, lo, hi = parse_k_distribution(self.k_distribution)
        if kind == "uniform-range" and not 1 <= lo <= hi:
            raise ConfigError(f"uniform-range needs 1 <= lo <= hi, got ({lo},{hi})")
        base_max = {
            "mostly-one": _MOSTLY_ONE_MAX_K,
            "heavy-tail": _HEAVY_TAIL_MAX_K,
            "uniform-range": hi,
        }[kind]
        try:
            if self.drift_k == 1.0:
                need = base_max
            else:
                worst = max(self.drift_k ** b for b in range(self.n_blocks))
                need = math.ceil(base_max * worst) + 1
            # The last block's session count, as generate_sessions rounds it;
            # with drift_q above 1 it is the largest.
            round(self.sessions_per_block * self.drift_q ** (self.n_blocks - 1))
        except OverflowError:
            raise ConfigError("drift factors overflow over the profile's blocks") from None
        if need > self.n_items:
            raise ConfigError(
                f"profile may draw up to {need} distinct items per session "
                f"but n_items is {self.n_items}"
            )


@dataclass(frozen=True)
class PlannedSession:
    user_hash: str
    start_ms: int
    item_ids: tuple[str, ...]


def _draw_k(rng: SplitMix64, kind: str, lo: int, hi: int) -> int:
    if kind == "mostly-one":
        if rng.next_u64() < _MOSTLY_ONE_THRESHOLD:
            return 1
        return 2 + rng.below(_MOSTLY_ONE_MAX_K - 1)
    if kind == "heavy-tail":
        return bisect_right(_HEAVY_TAIL_CDF, rng.unit()) + 1
    return lo + rng.below(hi - lo + 1)


def _plan(profile: SynthProfile) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """The planned sessions as plain (user, start_ms, item_ids) tuples."""
    rng = SplitMix64(profile.seed)
    below = rng.below
    kind, lo, hi = parse_k_distribution(profile.k_distribution)
    n_users, n_items = profile.n_users, profile.n_items
    user_texts: dict[int, str] = {}
    item_texts: dict[int, str] = {}
    t_s = BASE_EPOCH_S
    for b in range(profile.n_blocks):
        q = max(1, round(profile.sessions_per_block * profile.drift_q ** b))
        scale = profile.drift_k ** b
        for _ in range(q):
            k = _draw_k(rng, kind, lo, hi)
            if scale != 1.0:
                # Stochastic rounding keeps the expected K equal to k * scale.
                x = k * scale
                k = int(x)
                frac = x - k
                if frac > 0.0 and rng.unit() < frac:
                    k += 1
                if k < 1:
                    k = 1
            u = below(n_users)
            user = user_texts.get(u)
            if user is None:
                user = f"u{u:05d}"
                if len(user_texts) < _TEXT_CACHE_SIZE:
                    user_texts[u] = user
            if k == 1:
                chosen = (below(n_items),)
            else:
                chosen = []
                seen: set[int] = set()
                while len(chosen) < k:
                    idx = below(n_items)
                    if idx not in seen:
                        seen.add(idx)
                        chosen.append(idx)
            items = []
            for idx in chosen:
                item = item_texts.get(idx)
                if item is None:
                    item = f"i{idx:06d}"
                    if len(item_texts) < _TEXT_CACHE_SIZE:
                        item_texts[idx] = item
                items.append(item)
            yield user, t_s * 1000, tuple(items)
            t_s += (k - 1) * EVENT_SPACING_S + SESSION_GAP_BUFFER_S + below(START_JITTER_S)


def generate_sessions(profile: SynthProfile) -> Iterator[PlannedSession]:
    """Planned sessions in global start order, one block after another."""
    return starmap(PlannedSession, _plan(profile))


def generate_events(profile: SynthProfile) -> Iterator[LogEvent]:
    """The event stream realizing the planned sessions."""
    for user, start_ms, items in _plan(profile):
        for j, item in enumerate(items):
            yield LogEvent(start_ms + j * _SPACING_MS, user, item)


def write_log(profile: SynthProfile, dest: str | Path | IO[str]) -> int:
    """Write the corpus as delimited (format a) lines; returns the event count."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return write_log(profile, fh)
    hours, min_sec = hour_tables()
    n = 0
    write = dest.write
    day = prefix = None
    for user, start_ms, items in _plan(profile):
        d, sec = divmod(start_ms // 1000, _DAY_S)
        if d != day:
            day, prefix = d, day_iso(d)
        lines = []
        for item in items:
            if sec >= _DAY_S:  # a long session runs past midnight
                sec -= _DAY_S
                day += 1
                prefix = day_iso(day)
            h, r = divmod(sec, 3600)
            lines.append(f"{prefix}T{hours[h]}:{min_sec[r]}Z,{user},{item}\n")
            sec += EVENT_SPACING_S
        write("".join(lines))
        n += len(lines)
    return n


_PROFILE_FIELDS = frozenset(SynthProfile.__dataclass_fields__)


def load_profile(path: str | Path) -> SynthProfile:
    """Load a profile from a JSON object file; unknown keys are rejected."""
    data = load_config_object(path, "profile")
    unknown = sorted(set(data) - _PROFILE_FIELDS)
    if unknown:
        raise ConfigError(f"bad profile {path}: unknown field {unknown[0]!r}")
    return SynthProfile(**data)
