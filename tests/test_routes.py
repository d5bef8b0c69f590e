import itertools
import math
import os
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from logcompass.errors import ConfigError
from logcompass.routes import (
    CognitiveCommunity,
    SearchRoute,
    _profile,
    _within,
    build_transition_graph,
    detect_communities,
    extract_routes,
    route_distance,
    transition_edge_weights,
)

from test_compass import EXPECTED_EDGES, oracle_distance


def route(steps, owner="r", span=None):
    steps = tuple(steps)
    return SearchRoute(owner, steps, span or (0, len(steps) - 1))


def test_extract_stream_route():
    classified = [(0, "b"), (1, "b"), (2, "e"), (3, "b")]
    routes = extract_routes(classified, "stream")
    assert routes == [SearchRoute("stream", ("b", "b", "e", "b"), (0, 3))]


def test_extract_empty():
    assert extract_routes([], "stream") == []
    assert extract_routes([], "user", []) == []


def test_extract_per_user_route():
    classified = [(1, "b"), (2, "d"), (3, "c")]
    block_users = [{"u1", "u2"}, {"u2"}, {"u1"}]
    routes = extract_routes(classified, "user", block_users)
    assert routes == [
        SearchRoute("u1", ("b", "c"), (1, 3)),
        SearchRoute("u2", ("b", "d"), (1, 2)),
    ]


def test_extract_per_user_deduplicates_within_block():
    classified = [(1, "b")]
    routes = extract_routes(classified, "user", [["u1", "u1", "u1"]])
    assert routes == [SearchRoute("u1", ("b",), (1, 1))]


def test_extract_per_user_requires_block_users():
    with pytest.raises(ValueError):
        extract_routes([(1, "b")], "user")


@pytest.mark.parametrize("block_users", [[], [["u1"]], [["u1"], ["u2"], ["u3"]]])
def test_extract_per_user_rejects_block_count_mismatch(block_users):
    with pytest.raises(ValueError):
        extract_routes([(1, "b"), (2, "c")], "user", block_users)


def test_extract_per_user_reads_block_users_once():
    classified = [(1, "b"), (2, "d"), (4, "c")]
    slices = (users for users in (["u1", "u2"], ["u2"], ["u1", "u2"]))
    routes = extract_routes(classified, "user", slices)
    assert routes == [
        SearchRoute("u1", ("b", "c"), (1, 4)),
        SearchRoute("u2", ("b", "d", "c"), (1, 4)),
    ]


def test_extract_rejects_unordered_blocks():
    with pytest.raises(ValueError):
        extract_routes([(2, "b"), (1, "c")], "stream")


def test_extract_unknown_grouping():
    with pytest.raises(ConfigError):
        extract_routes([], "query")


def test_one_step_route_distance_is_the_hop_distance():
    # Hops are at most 3, below one indel pair (4), so a one-step pair is
    # always a substitution at the hop distance of its labels.
    cycle = dict.fromkeys(EXPECTED_EDGES, 1.0)
    for x, y in itertools.product("abcdef", repeat=2):
        assert route_distance(route(x), route(y)) == oracle_distance(cycle, x, y, "hops")


def test_route_distance_identity():
    r = route("bbeb")
    assert route_distance(r, r) == 0.0


def test_route_distance_antipodal_substitution():
    assert route_distance(route("a"), route("d")) == 3.0


def test_route_distance_single_deletion():
    assert route_distance(route("ab"), route("a")) == 2.0


def test_route_distance_symmetric():
    r1, r2 = route("abce"), route("fd")
    assert route_distance(r1, r2) == route_distance(r2, r1)


def test_route_distance_prefers_cheap_substitution_over_indel():
    # substituting b->f costs 1, cheaper than delete+insert (4)
    assert route_distance(route("ab"), route("af")) == 1.0


_steps = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5)


@given(_steps, _steps, _steps)
def test_route_distance_metric_axioms(s1, s2, s3):
    r1, r2, r3 = route(s1), route(s2), route(s3)
    d12 = route_distance(r1, r2)
    d13 = route_distance(r1, r3)
    d23 = route_distance(r2, r3)
    assert d12 >= 0
    assert (d12 == 0) == (tuple(s1) == tuple(s2))
    assert d12 == route_distance(r2, r1)
    assert d13 <= d12 + d23 + 1e-9


def test_detect_threshold_zero_groups_identical_step_sequences():
    routes = [
        route("ab", owner="u1"),
        route("ab", owner="u3"),
        route("ba", owner="u2"),
    ]
    communities = detect_communities(routes, 0.0)
    assert [c.members for c in communities] == [("u1", "u3"), ("u2",)]
    assert [c.community_id for c in communities] == [0, 1]
    assert [c.size for c in communities] == [2, 1]


def test_detect_distance_three_with_threshold_two_stays_split():
    routes = [route("a", owner="u1"), route("d", owner="u2")]
    assert route_distance(routes[0], routes[1]) == 3.0
    communities = detect_communities(routes, 2.0)
    assert [c.members for c in communities] == [("u1",), ("u2",)]


@pytest.mark.parametrize("threshold, merged", [(0.5, False), (1.0, True)])
def test_detect_threshold_is_inclusive_at_distance_one(threshold, merged):
    routes = [route("ab", owner="u1"), route("af", owner="u2")]
    assert route_distance(*routes) == 1.0
    assert len(detect_communities(routes, threshold)) == (1 if merged else 2)


def test_detect_large_threshold_merges_everything():
    routes = [route("a", owner="u1"), route("d", owner="u2"), route("bbb", owner="u3")]
    max_d = max(
        route_distance(r1, r2) for r1 in routes for r2 in routes
    )
    for threshold in (max_d, math.inf):
        communities = detect_communities(routes, threshold)
        assert len(communities) == 1
        assert communities[0].members == ("u1", "u2", "u3")


def test_detect_is_a_partition_and_order_invariant():
    rng = random.Random(4)
    routes = [
        route([rng.choice("abcdef") for _ in range(rng.randint(1, 4))], owner=f"u{i}")
        for i in range(12)
    ]
    for threshold in (0.0, 1.0, 2.5):
        communities = detect_communities(routes, threshold)
        members = [m for c in communities for m in c.members]
        assert sorted(members) == sorted(r.owner for r in routes)
        shuffled = list(routes)
        rng.shuffle(shuffled)
        assert detect_communities(shuffled, threshold) == communities


def test_detect_rejects_duplicate_owners_and_bad_threshold():
    with pytest.raises(ValueError):
        detect_communities([route("a", owner="u1"), route("b", owner="u1")], 0.0)
    with pytest.raises(ValueError):
        detect_communities([], -1.0)


@pytest.mark.parametrize("threshold", [-0.5, -math.inf, math.nan])
def test_detect_bad_threshold_is_config_error(threshold):
    with pytest.raises(ConfigError):
        detect_communities([route("a", owner="u1")], threshold)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 2.0, math.inf])
def test_detect_rejects_unknown_labels_at_any_threshold(threshold):
    # "z" is far from every other route, so no pair comparison would reach it.
    routes = [route("ab", owner="u1"), route("ab", owner="u2"), route("zzzzzzzzzz", owner="u3")]
    with pytest.raises(ValueError, match="unknown node label"):
        detect_communities(routes, threshold)
    with pytest.raises(ValueError, match="unknown node label"):
        detect_communities([route("az", owner="u1")], threshold)


def test_route_distance_rejects_unknown_labels():
    with pytest.raises(ValueError, match="unknown node label"):
        route_distance(route("ab"), route("aq"))


# --- exact linkage against the all-pairs oracle ------------------------------

_THRESHOLDS = (0.0, 0.5, 1.0, 2.0, 2.5, 3.9, 4.0, 6.0, math.inf)
_labels = st.sampled_from("abcdef")
_long_steps = st.lists(_labels, min_size=1, max_size=30)


def brute_force_communities(routes, threshold):
    """All-pairs single linkage with the full route_distance DP on every pair."""
    ordered = sorted(routes, key=lambda r: r.owner)
    parent = list(range(len(ordered)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(ordered)), 2):
        if find(i) != find(j) and route_distance(ordered[i], ordered[j]) <= threshold:
            parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(ordered):
        groups.setdefault(find(i), []).append(r)
    communities = []
    for group in sorted(groups.values(), key=lambda g: g[0].owner):
        counts = Counter(label for r in group for label in r.steps)
        label_counts = {label: counts[label] for label in "abcdef"}
        communities.append(
            CognitiveCommunity(
                community_id=len(communities),
                members=tuple(r.owner for r in group),
                label_counts=label_counts,
                dominant=min(label_counts, key=lambda l: (-label_counts[l], l)),
                size=len(group),
            )
        )
    return communities


def _mutate(draw, steps):
    """A few random insertions, substitutions and deletions, keeping 1-30 steps."""
    steps = list(steps)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(steps)))
        op = draw(st.sampled_from("isd"))
        if op == "i" and len(steps) < 30:
            steps.insert(pos, draw(_labels))
        elif op == "s" and pos < len(steps):
            steps[pos] = draw(_labels)
        elif op == "d" and pos < len(steps) and len(steps) > 1:
            del steps[pos]
    return steps


@st.composite
def _route_sets(draw):
    # Variants of a few random bases, so that thresholds up to 6 chain some routes.
    bases = draw(st.lists(_long_steps, min_size=1, max_size=4))
    routes = [
        route(_mutate(draw, draw(st.sampled_from(bases))), owner=f"u{i:02d}")
        for i in range(draw(st.integers(1, 40)))
    ]
    return draw(st.permutations(routes))


@settings(deadline=None)
@given(_route_sets(), st.sampled_from(_THRESHOLDS))
def test_detect_matches_all_pairs_oracle(routes, threshold):
    assert detect_communities(routes, threshold) == brute_force_communities(routes, threshold)


@st.composite
def _step_pairs(draw):
    s1 = draw(_long_steps)
    s2 = _mutate(draw, s1) if draw(st.booleans()) else draw(_long_steps)
    return s1, s2


@settings(max_examples=300, deadline=None)
@given(_step_pairs(), st.sampled_from(_THRESHOLDS + (1.5, 3.0, 5.0, 8.0, 12.0)))
def test_within_matches_route_distance(pair, threshold):
    s1, s2 = pair
    expected = route_distance(route(s1), route(s2)) <= threshold
    assert _within(_profile(s1), _profile(s2), threshold) == expected
    assert _within(_profile(s2), _profile(s1), threshold) == expected


def test_within_matches_route_distance_on_all_short_pairs():
    seqs = [s for n in (1, 2) for s in itertools.product("abcdef", repeat=n)]
    for s1, s2 in itertools.product(seqs, repeat=2):
        d = route_distance(route(s1), route(s2))
        for threshold in _THRESHOLDS + (3.0, 5.0):
            assert _within(_profile(s1), _profile(s2), threshold) == (d <= threshold)


@pytest.mark.scale
@pytest.mark.skipif(
    not os.environ.get("LOGCOMPASS_SCALE"),
    reason="all-pairs oracle on hundreds of long routes; set LOGCOMPASS_SCALE=1 to enable",
)
@pytest.mark.parametrize("n_routes", [250, 500])
def test_scale_linkage_matches_oracle(n_routes):
    rng = random.Random(n_routes)
    routes = [
        route([rng.choice("abcdef") for _ in range(rng.randint(20, 40))], owner=f"u{i:03d}")
        for i in range(n_routes)
    ]
    t0 = time.perf_counter()
    got = detect_communities(routes, 6.0)
    fast_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    want = brute_force_communities(routes, 6.0)
    oracle_s = time.perf_counter() - t0
    assert got == want
    print(f"SCALE LINKAGE PASS: {n_routes} routes, detect_communities {fast_s:.2f}s, "
          f"all-pairs oracle {oracle_s:.1f}s")


def test_transition_counts():
    tg = build_transition_graph([route("bbe")])
    assert tg.counts == {("b", "b"): 1, ("b", "e"): 1}


def test_transition_counts_empty():
    assert build_transition_graph([]).counts == {}


def test_transition_sum_rule_random():
    rng = random.Random(8)
    routes = [
        route([rng.choice("abcdef") for _ in range(rng.randint(1, 9))], owner=f"u{i}")
        for i in range(30)
    ]
    tg = build_transition_graph(routes)
    assert sum(tg.counts.values()) == sum(len(r.steps) - 1 for r in routes)


def test_transition_edge_weights():
    tg = build_transition_graph([route("aeae"), route("bd", owner="r2")])
    weights = transition_edge_weights(tg)
    assert weights[("a", "e")] == 1.0 + 3  # a->e twice, e->a once
    assert weights[("b", "d")] == 1.0 + 1
    assert weights[("c", "d")] == 1.0
    # non-adjacent transitions never become edges
    tg2 = build_transition_graph([route("ad")])
    assert all(w == 1.0 for w in transition_edge_weights(tg2).values())


def test_detect_signature_counts():
    communities = detect_communities([route("aab", owner="u1"), route("ab", owner="u2")], 10.0)
    assert len(communities) == 1
    c = communities[0]
    assert c.label_counts["a"] == 3
    assert c.label_counts["b"] == 2
    assert c.dominant == "a"
    # Several owners share a step sequence: its steps count once per owner.
    shared = [route("aab", owner="u3"), route("ab", owner="u2"), route("aab", owner="u1"),
              route("bbd", owner="u4"), route("ab", owner="u5")]
    zero = detect_communities(shared, 0.0)
    assert [c.members for c in zero] == [("u1", "u3"), ("u2", "u5"), ("u4",)]
    assert [c.size for c in zero] == [2, 2, 1]
    assert [(c.label_counts["a"], c.label_counts["b"], c.label_counts["d"]) for c in zero] == [
        (4, 2, 0), (2, 2, 0), (0, 2, 1)]
    (c,) = detect_communities(shared, 10.0)
    assert c.members == ("u1", "u2", "u3", "u4", "u5")
    assert c.size == 5
    assert c.label_counts == {"a": 6, "b": 6, "c": 0, "d": 1, "e": 0, "f": 0}
    assert c.dominant == "a"
