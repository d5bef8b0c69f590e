"""Workload definitions and seeded corpus generation.

Every input is derived from the seed given to the benchmark: the synthetic
profile is logcompass's own SplitMix64 generator, and the format-b writer
below injects its noise lines from a second SplitMix64 stream, so the same
seed always yields the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

from logcompass.synth import SplitMix64, SynthProfile, generate_events, generate_sessions, write_log
from logcompass.timeutil import format_timestamp_s

# Filter rules of the format-b workload: the agents injected as bots match a
# deny pattern, the injected asset requests fail the item allow pattern, and
# every planned request passes both.
FILTER_RULES = {
    "agent_deny_patterns": ["bot", "[Ss]pider", "[Cc]rawl"],
    "item_allow_pattern": "^/articles/i[0-9]{6}$",
}
HUMAN_AGENTS = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:109.0) Gecko/20100101 Firefox/115.0",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 13_4) AppleWebKit/605.1.15 Safari/605.1.15",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/114.0 Safari/537.36",
)
BOT_AGENTS = (
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Mozilla/5.0 (compatible; bingbot/2.0)",
    "Baiduspider/2.0",
    "CCBot/2.0 (https://commoncrawl.org/faq/)",
)
ASSET_ITEMS = ("/static/app.js", "/static/site.css", "/favicon.ico", "/img/logo.png")
# Per planned request, in percent: one bot hit, one asset request, one
# malformed line, each drawn independently.
BOT_PCT, ASSET_PCT, MALFORMED_PCT = 20, 10, 1
# Stream separating the injection draws from the profile's own stream.
_NOISE_SEED_XOR = 0x5DEECE66D


@dataclass(frozen=True)
class Workload:
    name: str
    profile: dict
    log_format: str = "a"
    grouping: str = "stream"
    linkage: float = 0.0
    block_size: int = 10_000
    filtered: bool = False
    replay: bool = False

    def synth_profile(self, seed: int) -> SynthProfile:
        return SynthProfile(seed=seed, **self.profile)


# Criterion-6 shape (500 users, 5,000 items, 10,000 sessions per block,
# mostly-one K), cut to 4 blocks so that one run takes about a second.
# There is no format-a run of this plan: records-b-filtered covers the same
# ingest layers, and the run time buys longer, steadier measurements.
_STREAM_PROFILE = {
    "n_users": 500, "n_items": 5000, "sessions_per_block": 10_000,
    "n_blocks": 4, "k_distribution": "mostly-one",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("records-b-filtered", _STREAM_PROFILE, log_format="b", filtered=True),
        Workload(
            "user-linkage",
            {"n_users": 100, "n_items": 5000, "sessions_per_block": 70,
             "n_blocks": 36, "k_distribution": "heavy-tail"},
            grouping="user", linkage=4.0, block_size=70,
        ),
        # Reading sessions.csv costs far less per row than ingesting the log,
        # so the replay gets three times the blocks to run about as long as
        # the other jobs.
        Workload("stages-replay", dict(_STREAM_PROFILE, n_blocks=12), grouping="user", replay=True),
    )
}


@dataclass(frozen=True)
class CorpusInfo:
    """What the generator put into a corpus, for the output checker."""

    lines: int
    bot: int = 0
    asset: int = 0
    malformed: int = 0

    @property
    def kept(self) -> int:
        return self.lines - self.bot - self.asset - self.malformed


def planned_k(profile: SynthProfile) -> tuple[int, ...]:
    """Distinct items per planned session, in global start order."""
    return tuple(len(s.item_ids) for s in generate_sessions(profile))


def _ts_field(rng: SplitMix64, ms: int) -> str:
    # Half ISO-8601 text, half integer epoch milliseconds.
    if rng.next_u64() >> 63:
        return str(ms)
    return f'"{format_timestamp_s(ms)}"'


def _malformed_line(rng: SplitMix64, ms: int, user: str) -> str:
    kind = rng.below(4)
    if kind == 0:
        return f'{{"ts": {ms}, "user": "{user}", "item": "/articles/'  # truncated record
    if kind == 1:
        return f'{{"ts": {ms}, "user": "{user}"}}'  # missing item
    if kind == 2:
        return f'{{"ts": "2021-13-45T99:00:00Z", "user": "{user}", "item": "/articles/i000001"}}'
    return f'["{user}", {ms}]'  # not an object


def write_records(profile: SynthProfile, dest: IO[str]) -> CorpusInfo:
    """Write the profile's events as format-b JSON lines with injected noise.

    Each planned request becomes one record with /articles/ prefixed to its
    item and, with the percentages above, is preceded by a bot hit, an
    asset request and a malformed line. Noise never changes a planned
    session: bot and asset lines are removed by FILTER_RULES and malformed
    lines by the parser.
    """
    rng = SplitMix64(profile.seed ^ _NOISE_SEED_XOR)
    lines = bot = asset = malformed = 0
    write = dest.write
    for ev in generate_events(profile):
        ms, user = ev.ts_ms, ev.user_hash
        if rng.below(100) < BOT_PCT:
            agent = BOT_AGENTS[rng.below(len(BOT_AGENTS))]
            write(f'{{"ts": {_ts_field(rng, ms)}, "user": "{user}", '
                  f'"item": "/articles/{ev.item_id}", "agent": "{agent}"}}\n')
            bot += 1
        if rng.below(100) < ASSET_PCT:
            item = ASSET_ITEMS[rng.below(len(ASSET_ITEMS))]
            write(f'{{"ts": {_ts_field(rng, ms)}, "user": "{user}", "item": "{item}"}}\n')
            asset += 1
        if rng.below(100) < MALFORMED_PCT:
            write(_malformed_line(rng, ms, user) + "\n")
            malformed += 1
        agent = rng.below(len(HUMAN_AGENTS) + 1)
        agent_field = f', "agent": "{HUMAN_AGENTS[agent]}"' if agent < len(HUMAN_AGENTS) else ""
        write(f'{{"ts": {_ts_field(rng, ms)}, "user": "{user}", '
              f'"item": "/articles/{ev.item_id}"{agent_field}}}\n')
        lines += 1
    lines += bot + asset + malformed
    return CorpusInfo(lines, bot, asset, malformed)


def write_corpus(workload: Workload, seed: int, path: Path) -> CorpusInfo:
    """Generate the workload's input log at path."""
    profile = workload.synth_profile(seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if workload.log_format == "b":
            return write_records(profile, fh)
        n = write_log(profile, fh)
    return CorpusInfo(n)
