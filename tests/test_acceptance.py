"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every expected value is
either produced by an in-test brute-force oracle or asserted against the
frozen classification table; nothing is tuned to the implementation.
"""

import io
import os
import random
import time
from itertools import combinations, product

import pytest

from helpers import compute_block_means, compute_histogram, partition_blocks
from logcompass.blocks import compute_variety_series
from logcompass.compass import build_base_graph, betweenness, minimum_spanning_tree, assortativity, neighbors, shortest_distance, derive_edges
from logcompass.events import parse_events
from logcompass.graphio import parse_canonical, to_canonical
from logcompass.hierarchy import (
    collapse_node,
    expand_all_leaves,
    expand_node,
    leaf_count,
    new_hierarchy,
)
from logcompass.pipeline import (
    ARTIFACT_FILES,
    GRAPH_FILES,
    PipelineConfig,
    run_pipeline,
    sessionize_summaries,
)
from logcompass.routes import SearchRoute, detect_communities, route_distance
from logcompass.synth import SynthProfile, generate_sessions, write_log
from logcompass.taxonomy import (
    ADMISSIBLE_NODES,
    BEST_TRIPLET,
    WORST_TRIPLET,
    Stability,
    Tendency,
    Triplet,
    assign_node,
    tendency_of,
)

from test_compass import (
    EXPECTED_EDGES,
    oracle_betweenness,
    oracle_distance,
    oracle_edges,
    oracle_mst,
    oracle_pearson,
    random_weights,
)

MIN, MID, MAX = Tendency.MIN, Tendency.MID, Tendency.MAX
STABLE, UNSTABLE = Stability.STABLE, Stability.UNSTABLE

TABLE = {
    "a": Triplet(MAX, MAX, UNSTABLE),
    "b": Triplet(MIN, MAX, STABLE),
    "c": Triplet(MIN, MIN, UNSTABLE),
    "d": Triplet(MIN, MIN, STABLE),
    "e": Triplet(MAX, MIN, UNSTABLE),
    "f": Triplet(MAX, MAX, STABLE),
}


def test_criterion_1_taxonomy_oracle():
    t0 = time.perf_counter()
    assert {n.label: n.triplet for n in ADMISSIBLE_NODES} == TABLE
    triplets = {n.triplet for n in ADMISSIBLE_NODES}
    assert BEST_TRIPLET not in triplets
    assert WORST_TRIPLET not in triplets

    def oracle_cost(raw, target):
        cost = 0.0
        for x, y in ((raw.n_tend, target.n_tend), (raw.k_tend, target.k_tend)):
            if x is not y:
                cost += 0.5 if MID in (x, y) else 1.0
        return cost + (0.0 if raw.stab is target.stab else 1.0)

    raws = [
        Triplet(n, k, s)
        for n, k, s in product((MIN, MID, MAX), (MIN, MID, MAX), (STABLE, UNSTABLE))
    ]
    assert len(raws) == 18
    for raw in raws:
        expected = min(ADMISSIBLE_NODES, key=lambda n: (oracle_cost(raw, n.triplet), n.label))
        assert assign_node(raw) is expected, raw
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: taxonomy mapping matches brute force over 18 triplets ({elapsed:.3f}s)")


def test_criterion_2_compass_derivation():
    t0 = time.perf_counter()
    g = build_base_graph()
    assert set(derive_edges()) == oracle_edges() == EXPECTED_EDGES
    assert set(g.weights) == EXPECTED_EDGES
    assert neighbors(g, "c") == ("d", "e")
    assert all(len(neighbors(g, v)) == 2 for v in g.nodes)
    dists = {
        (u, v): shortest_distance(g, u, v) for u in g.nodes for v in g.nodes
    }
    assert all(d < float("inf") for d in dists.values())  # connected
    assert max(dists.values()) == 3  # diameter
    for u in g.nodes:
        assert sorted(int(dists[(u, v)]) for v in g.nodes) == [0, 1, 1, 2, 2, 3]
    color = {v: None for v in g.nodes}
    color["a"] = 0
    stack = ["a"]
    while stack:
        u = stack.pop()
        for v in neighbors(g, u):
            if color[v] is None:
                color[v] = 1 - color[u]
                stack.append(v)
            assert color[v] != color[u]  # bipartite
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: compass derivation and structure checks ({elapsed:.3f}s)")


def test_criterion_3_graph_analytics_vs_brute_force():
    g = build_base_graph()
    bc = betweenness(g)
    oracle_bc = oracle_betweenness(g.weights)
    for v in g.nodes:
        assert abs(bc[v] - oracle_bc[v]) <= 1e-12
    for u, v in combinations(g.nodes, 2):
        assert shortest_distance(g, u, v) == oracle_distance(g.weights, u, v)
    rng = random.Random(2024)
    for _ in range(10):
        wg = build_base_graph(random_weights(rng))
        total, edges = oracle_mst(wg.weights)
        mst = minimum_spanning_tree(wg)
        assert set(mst) == edges
        for u, v in combinations(wg.nodes, 2):
            assert shortest_distance(wg, u, v, "weighted") == pytest.approx(
                oracle_distance(wg.weights, u, v, "weighted"), abs=1e-12
            )
        values = {v: rng.uniform(-5, 5) for v in wg.nodes}
        pairs = []
        for u, v in sorted(wg.weights):
            pairs += [(values[u], values[v]), (values[v], values[u])]
        assert assortativity(wg, values) == pytest.approx(oracle_pearson(pairs), abs=1e-12)
    print("ACCEPTANCE 3 PASS: betweenness, MST, assortativity, distances match oracles")


def test_criterion_4_metrics_conservation():
    profile = SynthProfile(
        n_items=200, sessions_per_block=50, n_blocks=1000,
        k_distribution="heavy-tail", seed=404,
    )
    k_items = [len(s.item_ids) for s in generate_sessions(profile)]
    blocks = partition_blocks(k_items, 50)
    assert len(blocks) == 1000
    for b in blocks:
        hist = compute_histogram(b)
        assert sum(hist.entries.values()) == b.search_volume

    metrics = compute_variety_series(
        [compute_block_means(compute_histogram(b), b) for b in blocks]
    )
    assert metrics[0].alpha is None and metrics[0].beta is None and metrics[0].variety is None

    constant = SynthProfile(
        sessions_per_block=40, n_blocks=30, k_distribution="uniform-range(4,4)", seed=1
    )
    const_k_items = [len(s.item_ids) for s in generate_sessions(constant)]
    const_blocks = partition_blocks(const_k_items, 40)
    const_metrics = compute_variety_series(
        [compute_block_means(compute_histogram(b), b) for b in const_blocks]
    )
    assert const_metrics[0].variety is None
    assert all(m.variety == 1.0 for m in const_metrics[1:])
    print("ACCEPTANCE 4 PASS: histogram mass conserved over 1000 blocks; constant stream variety == 1")


def test_criterion_5_threshold_formula():
    rng = random.Random(20250810)
    disagreements = 0
    for _ in range(1000):
        lo = rng.uniform(-100.0, 100.0)
        hi = lo + rng.uniform(0.001, 80.0)
        z = rng.uniform(0.01, 0.99)
        value = rng.uniform(lo - 20.0, hi + 20.0)
        # direct restatement of the banding rule
        if value > hi - (hi - lo) * z:
            expected = MAX
        elif value < lo + (hi - lo) * z:
            expected = MIN
        else:
            expected = MID
        if tendency_of(value, lo, hi, z) is not expected:
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 5 PASS: tendency banding matches the direct rule on 1000 random cases")


def test_criterion_6_full_scale_run(tmp_path):
    profile = SynthProfile(
        n_users=500, n_items=5000, sessions_per_block=10_000, n_blocks=100, seed=42
    )
    corpus = tmp_path / "corpus.csv"
    t0 = time.perf_counter()
    write_log(profile, corpus)
    synth_s = time.perf_counter() - t0

    cfg1 = PipelineConfig(inputs=(corpus,), out_dir=tmp_path / "out1", block_size=10_000)
    t0 = time.perf_counter()
    report = run_pipeline(cfg1, io.StringIO())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert report["sessions"]["total"] == 1_000_000
    assert report["blocks"]["total"] == 100

    dominant = [l for l, t in report["types"].items() if t["share_pct"] > 50.0]
    assert len(dominant) == 1
    assert report["dominant_type"] == dominant[0]

    cfg2 = PipelineConfig(inputs=(corpus,), out_dir=tmp_path / "out2", block_size=10_000)
    run_pipeline(cfg2, io.StringIO())
    for name in list(ARTIFACT_FILES.values()) + list(GRAPH_FILES.values()):
        assert (cfg1.out_dir / name).read_bytes() == (cfg2.out_dir / name).read_bytes(), name
    print(
        f"ACCEPTANCE 6 PASS: 1,000,000 sessions in {elapsed:.1f}s (synth {synth_s:.1f}s), "
        f"dominant type {dominant[0]} at {report['types'][dominant[0]]['share_pct']:.1f}%, byte-identical reruns"
    )


def test_criterion_7_self_similarity():
    base = new_hierarchy()
    depth2 = expand_all_leaves(base)
    depth3 = expand_all_leaves(depth2)
    assert leaf_count(depth2) == 36
    assert leaf_count(depth3) == 216
    for path in (("a",), ("f",)):
        assert collapse_node(expand_node(base, path), path) == base
    expanded = expand_node(base, ("c",))
    assert collapse_node(expand_node(expanded, ("c", "d")), ("c", "d")) == expanded
    print("ACCEPTANCE 7 PASS: 36/216 leaves at depths 2/3; collapse inverts expand")


def test_criterion_8_route_metric_and_communities():
    rng = random.Random(88)

    def rand_route(owner):
        steps = tuple(rng.choice("abcdef") for _ in range(rng.randint(1, 6)))
        return SearchRoute(owner, steps, (0, len(steps) - 1))

    for i in range(10_000):
        r1, r2, r3 = (rand_route(f"u{i}-{j}") for j in range(3))
        d11 = route_distance(r1, r1)
        d12 = route_distance(r1, r2)
        d21 = route_distance(r2, r1)
        assert d11 == 0.0
        assert d12 >= 0.0
        assert (d12 == 0.0) == (r1.steps == r2.steps)
        assert d12 == d21
        assert route_distance(r1, r3) <= d12 + route_distance(r2, r3) + 1e-9

    routes = [rand_route(f"u{i}") for i in range(60)]
    for threshold in (0.0, 1.5, 4.0):
        communities = detect_communities(routes, threshold)
        members = sorted(m for c in communities for m in c.members)
        assert members == sorted(r.owner for r in routes)  # a partition
    zero = detect_communities(routes, 0.0)
    classes = {}
    for r in routes:
        classes.setdefault(r.steps, set()).add(r.owner)
    assert {frozenset(c.members) for c in zero} == {frozenset(v) for v in classes.values()}
    print("ACCEPTANCE 8 PASS: metric axioms on 10,000 samples; communities partition; threshold-0 classes")


def test_criterion_9_round_trips():
    rng = random.Random(3)
    for _ in range(5):
        g = build_base_graph(random_weights(rng))
        assert parse_canonical(to_canonical(g)) == g

    profile = SynthProfile(n_users=12, sessions_per_block=60, n_blocks=4, seed=31)
    planned = list(generate_sessions(profile))
    buf = io.StringIO()
    write_log(profile, buf)
    buf.seek(0)
    events, diags = parse_events(buf, "a")
    assert diags == []
    sessions = sessionize_summaries(events, 1800)
    assert len(sessions) == len(planned) == 240
    assert sessions.k_items == [len(p.item_ids) for p in planned]
    print("ACCEPTANCE 9 PASS: canonical graph and synth/ingest round-trips are lossless")


@pytest.mark.scale
@pytest.mark.skipif(
    not os.environ.get("LOGCOMPASS_SCALE"),
    reason="10M-session scale run; set LOGCOMPASS_SCALE=1 to enable",
)
def test_scale_anchor_ten_million_sessions(tmp_path):
    profile = SynthProfile(
        n_users=2000, n_items=20_000, sessions_per_block=10_000, n_blocks=1000, seed=7
    )
    corpus = tmp_path / "corpus10m.csv"
    write_log(profile, corpus)
    cfg = PipelineConfig(inputs=(corpus,), out_dir=tmp_path / "out", block_size=10_000)
    t0 = time.perf_counter()
    report = run_pipeline(cfg, io.StringIO())
    elapsed = time.perf_counter() - t0
    assert report["sessions"]["total"] == 10_000_000
    assert elapsed < 600.0
    print(f"SCALE ANCHOR PASS: 10,000,000 sessions in {elapsed:.0f}s")
