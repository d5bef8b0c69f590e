import io
import json

import pytest

from logcompass.blocks import compute_variety_series
from logcompass.errors import ConfigError
from helpers import sessionize, table_events
from logcompass.events import parse_events
from logcompass.synth import (
    SplitMix64,
    SynthProfile,
    generate_events,
    generate_sessions,
    load_profile,
    write_log,
)


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
    sessions = sessionize(table_events(events), 1800)
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
    assert table_events(parsed) == list(generate_events(profile))


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
