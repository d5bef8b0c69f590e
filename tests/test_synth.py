import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from logcompass.blocks import compute_variety_series
from logcompass.cli import main
from logcompass.errors import ConfigError
from helpers import by_user, group_events, oracle_write_log, sessionize
from logcompass.events import LogEvent, parse_events
import logcompass.synth as synth_module
from logcompass.synth import (
    PlannedSession,
    SplitMix64,
    SynthProfile,
    generate_events,
    generate_sessions,
    load_profile,
    write_log,
)
from logcompass.timeutil import format_timestamp_s


def test_splitmix64_reference_vectors():
    # outputs verified against the canonical C implementation
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        8067408807706546300,
        10524544129673143768,
        17628220338464321898,
        10564249190822667773,
        17942825297026433677,
    ]
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        14062913342209655702,
        8609350359453760831,
        10971379974863400223,
    ]


def test_splitmix64_below_and_unit():
    r = SplitMix64(1)
    assert all(0 <= r.below(10) < 10 for _ in range(100))
    assert all(0.0 <= r.unit() < 1.0 for _ in range(100))


def test_mostly_one_floor():
    profile = SynthProfile(sessions_per_block=1000, n_blocks=1, seed=3)
    sessions = list(generate_sessions(profile))
    assert len(sessions) == 1000
    ones = sum(1 for s in sessions if len(s.item_ids) == 1)
    assert ones >= 800


def test_write_log_is_byte_deterministic(tmp_path):
    profile = SynthProfile(sessions_per_block=50, n_blocks=3, seed=21)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert write_log(profile, a) == write_log(profile, b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_output(tmp_path):
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_log(SynthProfile(sessions_per_block=20, n_blocks=1, seed=1), buf1)
    write_log(SynthProfile(sessions_per_block=20, n_blocks=1, seed=2), buf2)
    assert buf1.getvalue() != buf2.getvalue()


def test_uniform_range_degenerate():
    profile = SynthProfile(
        sessions_per_block=30, n_blocks=2, k_distribution="uniform-range(1,1)", seed=5
    )
    assert all(len(s.item_ids) == 1 for s in generate_sessions(profile))


def test_items_are_distinct_within_session():
    profile = SynthProfile(
        n_items=40, sessions_per_block=50, n_blocks=2,
        k_distribution="uniform-range(5,20)", seed=9,
    )
    for s in generate_sessions(profile):
        assert len(set(s.item_ids)) == len(s.item_ids)


def test_round_trip_recovers_sessions_exactly():
    profile = SynthProfile(n_users=10, sessions_per_block=40, n_blocks=5, seed=13)
    planned = list(generate_sessions(profile))
    buf = io.StringIO()
    write_log(profile, buf)
    buf.seek(0)
    events, diags = parse_events(buf, "a")
    assert diags == []
    sessions = sessionize([e for evs in group_events(events).values() for e in evs], 1800)
    assert len(sessions) == len(planned) == 200
    for got, want in zip(sessions, planned):
        assert got.user_hash == want.user_hash
        assert got.start_ms == want.start_ms
        assert got.k_items == len(want.item_ids)
        assert tuple(e.item_id for e in got.events) == want.item_ids


def test_generate_events_matches_written_log(tmp_path):
    profile = SynthProfile(sessions_per_block=25, n_blocks=2, seed=17)
    path = tmp_path / "log.csv"
    write_log(profile, path)
    with open(path, encoding="utf-8") as fh:
        parsed, _ = parse_events(fh, "a")
    assert group_events(parsed) == by_user(generate_events(profile))


def test_drift_q_scales_block_volume():
    profile = SynthProfile(sessions_per_block=100, n_blocks=4, drift_q=1.5, seed=2)
    sessions = list(generate_sessions(profile))
    assert len(sessions) == sum(round(100 * 1.5 ** b) for b in range(4))


def test_drift_k_fidelity_within_five_percent():
    g = 1.02
    profile = SynthProfile(
        n_items=2000,
        sessions_per_block=2000,
        n_blocks=21,
        k_distribution="uniform-range(10,20)",
        drift_k=g,
        seed=77,
    )
    from helpers import compute_block_means, compute_histogram, partition_blocks

    k_items = [len(s.item_ids) for s in generate_sessions(profile)]
    blocks = partition_blocks(k_items, 2000)
    metrics = compute_variety_series(
        [compute_block_means(compute_histogram(b), b) for b in blocks]
    )
    assert len(metrics) == 21
    for m in metrics[1:]:
        assert abs(m.beta - g) / g <= 0.05


def test_heavy_tail_reaches_past_ten():
    profile = SynthProfile(
        sessions_per_block=2000, n_blocks=1, k_distribution="heavy-tail", seed=23
    )
    ks = [len(s.item_ids) for s in generate_sessions(profile)]
    assert max(ks) <= 50
    assert any(k > 10 for k in ks)
    assert ks.count(1) > len(ks) / 3  # the head still dominates


def test_infeasible_profile_rejected():
    with pytest.raises(ConfigError):
        SynthProfile(n_items=10, k_distribution="uniform-range(1,50)")
    with pytest.raises(ConfigError):
        SynthProfile(n_items=9)  # mostly-one draws up to 10 distinct items
    SynthProfile(n_items=10)  # exactly enough without drift


def test_profile_validation():
    with pytest.raises(ConfigError):
        SynthProfile(n_blocks=0)
    with pytest.raises(ConfigError):
        SynthProfile(drift_k=0.0)
    with pytest.raises(ConfigError):
        SynthProfile(k_distribution="zipf")
    with pytest.raises(ConfigError):
        SynthProfile(k_distribution="uniform-range(5,2)")


def test_load_profile(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"sessions_per_block": 7, "seed": 99}), encoding="utf-8")
    profile = load_profile(path)
    assert profile.sessions_per_block == 7
    assert profile.seed == 99
    assert profile.n_blocks == 10  # defaults fill the rest

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sessions": 1}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown field"):
        load_profile(bad)


# The generator's bytes are pinned: a change to them changes every corpus,
# benchmark input and digest built from a profile and seed.
_PINNED_PROFILES = [
    SynthProfile(),
    SynthProfile(n_users=500, n_items=5000, sessions_per_block=10_000, n_blocks=4, seed=42),
    SynthProfile(n_users=100, n_items=5000, sessions_per_block=70, n_blocks=36,
                 k_distribution="heavy-tail", seed=1),
    SynthProfile(n_users=50, n_items=1000, sessions_per_block=200, n_blocks=6,
                 k_distribution="uniform-range(3,7)", drift_k=1.1, drift_q=0.9, seed=7),
]


@pytest.mark.parametrize("profile, digest", zip(_PINNED_PROFILES, [
    "0cb237f63f6fe250fdb18f74b27dd3e422e71e1e0a832cc7cbf9fd97be2385c0",
    "98762bd035c8cd321da52d73e4bdd86be13f028eb4721d93d58ccfe9092748c8",
    "f40cac973145bf51177354b3c5432e27d3ae2504023c83b31b0583433aec2df5",
    "fe8191fdeeab49998baa9e27da0791ff45e53c8af879bb986c9af77df8e7fc36",
]))
def test_write_log_bytes_are_pinned(profile, digest):
    buf = io.StringIO()
    write_log(profile, buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("profile, sessions_digest, events_digest", [
    (p, *digests) for p, digests in zip(_PINNED_PROFILES, [
        ("b53a34ee78e7838d84a1052b78929764f2ada7e6645937a52b876d8e7285ca2a",
         "73e678e8956840e1367cd32ced24731b79a83fe54ff9a08198d62c7ef3c29034"),
        ("7c6dddaa962d6719243d3efe8be486da8c4ea752d2a62538fe81e46c11e65867",
         "8aa0c73a5b4ac244f62c8e05a703f6ff443034dfeeabae3f7b0ddd6327d754d9"),
        ("78d91464312b9155cf821df6af63cef4960644eed9b347ae378eb58d71f1c596",
         "3fcfa4718fad2cae2448ac70619f39cc2338f152c343a03954139ad766d91e49"),
        ("23c9b2e0e4d914f7c11522a3822512590ccc797e194032db417fd348089fe489",
         "18dd383b0b899cd18aa74a9ea3ee2f6cd780c58a13e9ab4356bb63468fb587ea"),
    ])
], ids=["default", "stream", "heavy-tail", "drift"])
def test_planned_sessions_and_events_are_pinned(profile, sessions_digest, events_digest):
    sessions = hashlib.sha256()
    for s in generate_sessions(profile):
        assert type(s) is PlannedSession and type(s.item_ids) is tuple
        sessions.update(f"{s.user_hash},{s.start_ms},{' '.join(s.item_ids)}\n".encode())
    events = hashlib.sha256()
    for e in generate_events(profile):
        assert type(e) is LogEvent
        events.update(f"{e.ts_ms},{e.user_hash},{e.item_id},{e.source_tag}\n".encode())
    assert (sessions.hexdigest(), events.hexdigest()) == (sessions_digest, events_digest)


def _assert_log_matches_oracle(profile) -> list[str]:
    """write_log's lines, checked against oracle_write_log's; a mismatch
    names its first differing line, not a diff of the whole log."""
    got, want = io.StringIO(), io.StringIO()
    assert write_log(profile, got) == oracle_write_log(profile, want)
    got_lines, want_lines = got.getvalue().splitlines(), want.getvalue().splitlines()
    first = next(((i, g, w) for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w), None)
    assert first is None
    assert len(got_lines) == len(want_lines)
    return got_lines


_K_DISTRIBUTIONS = st.one_of(
    st.sampled_from(["mostly-one", "heavy-tail"]),
    st.tuples(st.integers(1, 8), st.integers(0, 7)).map(
        lambda lo_span: f"uniform-range({lo_span[0]},{lo_span[0] + lo_span[1]})"),
)


@settings(deadline=None)
@given(
    st.builds(
        SynthProfile,
        n_users=st.integers(1, 50),
        n_items=st.integers(200, 3000),
        sessions_per_block=st.integers(1, 40),
        n_blocks=st.integers(1, 4),
        k_distribution=_K_DISTRIBUTIONS,
        drift_k=st.sampled_from([0.5, 0.9, 1.0, 1.1, 1.5]),
        drift_q=st.sampled_from([0.7, 1.0, 1.3]),
        seed=st.integers(-(2**70), 2**70),
    )
)
def test_write_log_matches_per_event_oracle(profile):
    _assert_log_matches_oracle(profile)


def test_sessions_across_midnight_are_written_on_both_days():
    # Sessions of 40-50 events span 20-25 minutes, so some start before
    # midnight and end after it.
    profile = SynthProfile(n_users=20, n_items=500, sessions_per_block=100, n_blocks=3,
                           k_distribution="uniform-range(40,50)", seed=11)
    day_ms = 86_400_000
    crossing = [
        s for s in generate_sessions(profile)
        if s.start_ms // day_ms != (s.start_ms + (len(s.item_ids) - 1) * 30_000) // day_ms
    ]
    assert crossing
    lines = _assert_log_matches_oracle(profile)
    first = crossing[0]
    row = next(i for i, line in enumerate(lines)
               if line.startswith(format_timestamp_s(first.start_ms) + ","))
    days = {line[:10] for line in lines[row:row + len(first.item_ids)]}
    assert len(days) == 2


@pytest.mark.parametrize("ms, text", [
    (0, "1970-01-01T00:00:00Z"),
    (999, "1970-01-01T00:00:00Z"),
    (86_399_999, "1970-01-01T23:59:59Z"),
    (86_400_000, "1970-01-02T00:00:00Z"),
    (1_614_556_799_000, "2021-02-28T23:59:59Z"),
    (1_614_556_800_000, "2021-03-01T00:00:00Z"),
    (1_614_643_199_500, "2021-03-01T23:59:59Z"),
    (-1, "1969-12-31T23:59:59Z"),
    (-1000, "1969-12-31T23:59:59Z"),
    (-1001, "1969-12-31T23:59:58Z"),
    (-86_400_000, "1969-12-31T00:00:00Z"),
    (-86_400_001, "1969-12-30T23:59:59Z"),
])
def test_format_timestamp_s_at_day_boundaries(ms, text):
    assert format_timestamp_s(ms) == text


@pytest.mark.parametrize("profile", [
    {"n_users": 1.5},
    {"n_users": True},
    {"n_items": "5000"},
    {"seed": 1.5},
    {"seed": None},
    {"k_distribution": 5},
    {"n_blocks": 1e400},
    {"drift_k": "1.1"},
    {"drift_q": False},
])
def test_synth_profile_of_wrong_type_is_config_error(tmp_path, capsys, profile):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile), encoding="utf-8")
    out = tmp_path / "log.csv"
    assert main(["synth", "--profile", str(path), "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--drift-k", "1e308", "--blocks", "3"],
    ["--drift-k", "inf"],
    ["--drift-k", "nan"],
    ["--drift-q", "inf", "--blocks", "3", "--sessions-per-block", "5"],
    ["--drift-q", "1e200", "--blocks", "3", "--sessions-per-block", "5"],
])
def test_synth_drift_out_of_range_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "log.csv"
    assert main(["synth", *flags, "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_synth_text_caches_are_capped(monkeypatch):
    # Past the cap, texts are formatted afresh; the output does not change.
    profile = SynthProfile(n_users=40, n_items=60, sessions_per_block=50, n_blocks=2, seed=3)
    want = list(generate_sessions(profile))
    monkeypatch.setattr(synth_module, "_TEXT_CACHE_SIZE", 5)
    assert list(generate_sessions(profile)) == want
