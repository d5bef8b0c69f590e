import random
from itertools import combinations, permutations, product
from math import fsum, inf, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from logcompass.compass import (
    DISTANCE_MODES,
    CrownGraph,
    NODES,
    assortativity,
    betweenness,
    build_base_graph,
    derive_edges,
    minimum_spanning_tree,
    neighbors,
    shortest_distance,
)

EXPECTED_EDGES = {("a", "e"), ("a", "f"), ("b", "d"), ("b", "f"), ("c", "d"), ("c", "e")}

# Independent restatement of the six type triplets for the brute-force derivation.
TYPE_TRIPLETS = {
    "a": ("max", "max", "unstable"),
    "b": ("min", "max", "stable"),
    "c": ("min", "min", "unstable"),
    "d": ("min", "min", "stable"),
    "e": ("max", "min", "unstable"),
    "f": ("max", "max", "stable"),
}


# --- oracles -----------------------------------------------------------------


def oracle_edges():
    out = set()
    for u, v in combinations(sorted(TYPE_TRIPLETS), 2):
        diff = sum(x != y for x, y in zip(TYPE_TRIPLETS[u], TYPE_TRIPLETS[v]))
        if diff == 1:
            out.add((u, v))
    return out


def all_simple_paths(weights, s, t):
    nodes = sorted({v for e in weights for v in e})
    adj = {v: set() for v in nodes}
    for u, v in weights:
        adj[u].add(v)
        adj[v].add(u)
    paths = []

    def walk(path):
        if path[-1] == t:
            paths.append(tuple(path))
            return
        for nxt in sorted(adj[path[-1]]):
            if nxt not in path:
                walk(path + [nxt])

    walk([s])
    return paths


def path_cost(weights, path, mode):
    if mode == "hops":
        return len(path) - 1
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += weights[(u, v) if (u, v) in weights else (v, u)]
    return total


def oracle_distance(weights, s, t, mode="hops"):
    if s == t:
        return 0.0
    paths = all_simple_paths(weights, s, t)
    return min(path_cost(weights, p, mode) for p in paths) if paths else inf


def oracle_betweenness(weights, mode="hops"):
    nodes = sorted({v for e in weights for v in e})
    bc = dict.fromkeys(nodes, 0.0)
    for s, t in combinations(nodes, 2):
        paths = all_simple_paths(weights, s, t)
        if not paths:
            continue
        best = min(path_cost(weights, p, mode) for p in paths)
        geodesics = [p for p in paths if path_cost(weights, p, mode) == best]
        for p in geodesics:
            for v in p[1:-1]:
                bc[v] += 1.0 / len(geodesics)
    return bc


def oracle_mst(weights):
    nodes = sorted({v for e in weights for v in e})
    best = None
    for subset in combinations(sorted(weights), len(nodes) - 1):
        seen = {nodes[0]}
        frontier = [nodes[0]]
        adj = {v: [] for v in nodes}
        for u, v in subset:
            adj[u].append(v)
            adj[v].append(u)
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) != len(nodes):
            continue
        total = sum(weights[e] for e in subset)
        if best is None or total < best[0]:
            best = (total, set(subset))
    return best


def oracle_pearson(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    n = len(pairs)
    mx, my = fsum(xs) / n, fsum(ys) / n
    cov = fsum((x - mx) * (y - my) for x, y in pairs) / n
    vx = fsum((x - mx) ** 2 for x in xs) / n
    vy = fsum((y - my) ** 2 for y in ys) / n
    return cov / sqrt(vx * vy)


def path_graph():
    # the compass cycle with edge a-f removed: endpoints a and f
    weights = {e: 1.0 for e in sorted(EXPECTED_EDGES - {("a", "f")})}
    return CrownGraph(NODES, weights)


def random_weights(rng):
    return {e: rng.uniform(0.5, 10.0) for e in sorted(EXPECTED_EDGES)}


# --- structure ---------------------------------------------------------------


def test_edge_set_matches_expected_and_brute_force():
    assert set(derive_edges()) == EXPECTED_EDGES == oracle_edges()
    assert set(build_base_graph().weights) == EXPECTED_EDGES


def test_neighbors_of_c():
    assert neighbors(build_base_graph(), "c") == ("d", "e")


def test_a_d_is_not_an_edge():
    assert ("a", "d") not in build_base_graph().weights
    # antipodal types differ in more than one coordinate (all three, in fact)
    assert sum(x != y for x, y in zip(TYPE_TRIPLETS["a"], TYPE_TRIPLETS["d"])) > 1


def test_graph_is_2_regular_connected_bipartite_girth_6():
    g = build_base_graph()
    assert all(len(neighbors(g, v)) == 2 for v in g.nodes)
    assert all(shortest_distance(g, "a", v) < inf for v in g.nodes)
    # 2-coloring by BFS parity must succeed
    color = {"a": 0}
    frontier = ["a"]
    while frontier:
        u = frontier.pop()
        for v in neighbors(g, u):
            if v not in color:
                color[v] = 1 - color[u]
                frontier.append(v)
            else:
                assert color[v] != color[u]
    assert {v for v, c in color.items() if c == 0} in ({"a", "b", "c"}, {"d", "e", "f"})
    # girth: shortest cycle through each edge is 1 + distance with the edge removed
    girth = min(
        1 + oracle_distance({e: w for e, w in g.weights.items() if e != edge}, *edge)
        for edge in g.weights
    )
    assert girth == 6


def test_distance_multiset_is_node_independent():
    g = build_base_graph()
    for u in g.nodes:
        dists = sorted(int(shortest_distance(g, u, v)) for v in g.nodes)
        assert dists == [0, 1, 1, 2, 2, 3]


# --- distances ----------------------------------------------------------------


def test_distance_identity_and_antipodes():
    g = build_base_graph()
    assert shortest_distance(g, "a", "a") == 0
    assert shortest_distance(g, "a", "d") == 3
    antipodal = {
        (u, v)
        for u, v in combinations(g.nodes, 2)
        if shortest_distance(g, u, v) == 3
    }
    assert antipodal == {("a", "d"), ("b", "e"), ("c", "f")}
    assert max(shortest_distance(g, u, v) for u, v in combinations(g.nodes, 2)) == 3


def test_all_pairs_distances_match_oracle():
    g = build_base_graph()
    for u, v in combinations(g.nodes, 2):
        assert shortest_distance(g, u, v, "hops") == oracle_distance(g.weights, u, v, "hops")


def test_weighted_distances_match_oracle():
    rng = random.Random(99)
    for _ in range(10):
        g = build_base_graph(random_weights(rng))
        for u, v in combinations(g.nodes, 2):
            got = shortest_distance(g, u, v, "weighted")
            assert got == pytest.approx(oracle_distance(g.weights, u, v, "weighted"), abs=1e-12)


def test_weighted_distance_symmetry():
    rng = random.Random(7)
    g = build_base_graph(random_weights(rng))
    for u, v in permutations(g.nodes, 2):
        assert shortest_distance(g, u, v, "weighted") == shortest_distance(g, v, u, "weighted")


def test_distance_validation():
    g = build_base_graph()
    with pytest.raises(ValueError):
        shortest_distance(g, "a", "z")
    with pytest.raises(ValueError):
        shortest_distance(g, "a", "b", "warp")


# --- betweenness ---------------------------------------------------------------


def test_betweenness_uniform_on_base_graph():
    g = build_base_graph()
    bc = betweenness(g)
    oracle = oracle_betweenness(g.weights)
    assert set(bc) == set(g.nodes)
    assert len(set(bc.values())) == 1  # vertex-transitive cycle
    for v in g.nodes:
        assert abs(bc[v] - oracle[v]) <= 1e-12
        assert bc[v] == pytest.approx(2.0, abs=1e-12)  # value fixed by the oracle


def test_betweenness_path_graph_endpoints_are_zero():
    g = path_graph()
    bc = betweenness(g)
    oracle = oracle_betweenness(g.weights)
    for v in g.nodes:
        assert abs(bc[v] - oracle[v]) <= 1e-12
    assert bc["a"] == 0.0
    assert bc["f"] == 0.0


def test_betweenness_weighted_matches_oracle():
    rng = random.Random(5)
    for _ in range(5):
        g = build_base_graph(random_weights(rng))
        bc = betweenness(g, weighted=True)
        oracle = oracle_betweenness(g.weights, "weighted")
        for v in g.nodes:
            assert abs(bc[v] - oracle[v]) <= 1e-9


def test_betweenness_weighted_unit_equals_unweighted():
    g = build_base_graph()
    assert betweenness(g, weighted=True) == pytest.approx(betweenness(g))


# Any subset of the 15 node pairs, so graphs with several geodesics per pair
# and disconnected ones come up. Weights are multiples of 1/16, so every path
# length the oracle sums is exact and a tie for the oracle is a tie for the
# search too.
_SUBGRAPH_WEIGHTS = st.dictionaries(
    st.sampled_from(list(combinations(NODES, 2))), st.integers(1, 320).map(lambda n: n / 16)
)


@settings(max_examples=150, deadline=None)
@given(_SUBGRAPH_WEIGHTS)
def test_distances_and_betweenness_match_oracle_on_any_subgraph(weights):
    g = CrownGraph(NODES, weights)
    linked = {v for e in weights for v in e}
    for mode in DISTANCE_MODES:
        for u, v in product(NODES, repeat=2):
            if u == v or {u, v} <= linked:
                want = oracle_distance(weights, u, v, mode)
            else:
                want = inf  # the oracle knows only the nodes of some edge
            assert shortest_distance(g, u, v, mode) == pytest.approx(want, abs=1e-9)
        bc = betweenness(g, weighted=mode == "weighted")
        oracle = oracle_betweenness(weights, mode)
        assert set(bc) == set(NODES)
        for v in NODES:
            assert abs(bc[v] - oracle.get(v, 0.0)) <= 1e-9


# --- minimum spanning tree -------------------------------------------------------


def test_mst_unit_weights_tie_break():
    g = build_base_graph()
    mst = minimum_spanning_tree(g)
    assert len(mst) == 5
    assert set(mst) == EXPECTED_EDGES - {("c", "e")}  # lexicographically greatest dropped


def test_mst_distinct_weights_matches_brute_force():
    rng = random.Random(31)
    for _ in range(20):
        g = build_base_graph(random_weights(rng))
        total, edges = oracle_mst(g.weights)
        mst = minimum_spanning_tree(g)
        assert set(mst) == edges
        assert sum(g.weights[e] for e in mst) == pytest.approx(total)
        # cycle property: the heaviest edge is the one left out
        heaviest = max(g.weights, key=lambda e: g.weights[e])
        assert heaviest not in set(mst)


def test_mst_always_five_edges():
    rng = random.Random(13)
    for _ in range(10):
        assert len(minimum_spanning_tree(build_base_graph(random_weights(rng)))) == 5


# --- assortativity ---------------------------------------------------------------


def test_assortativity_degenerate_values():
    g = build_base_graph()
    degree_values = {v: 2.0 for v in g.nodes}  # the graph is 2-regular
    with pytest.raises(ValueError, match="degenerate"):
        assortativity(g, degree_values)


def test_assortativity_alternating_signs_is_minus_one():
    g = build_base_graph()
    # alternating around the cycle == the bipartition classes
    values = {"a": 1.0, "b": 1.0, "c": 1.0, "d": -1.0, "e": -1.0, "f": -1.0}
    for u, v in g.weights:
        assert values[u] == -values[v]  # every edge joins opposite signs
    assert assortativity(g, values) == pytest.approx(-1.0, abs=1e-12)


def test_assortativity_antipodal_indicator():
    g = build_base_graph()
    values = {v: (1.0 if v in ("a", "d") else 0.0) for v in g.nodes}
    pairs = []
    for u, v in sorted(g.weights):
        pairs += [(values[u], values[v]), (values[v], values[u])]
    expected = oracle_pearson(pairs)
    assert assortativity(g, values) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.5)


def test_assortativity_random_values_match_oracle():
    g = build_base_graph()
    rng = random.Random(17)
    for _ in range(25):
        values = {v: rng.uniform(-3, 3) for v in g.nodes}
        pairs = []
        for u, v in sorted(g.weights):
            pairs += [(values[u], values[v]), (values[v], values[u])]
        assert assortativity(g, values) == pytest.approx(oracle_pearson(pairs), abs=1e-12)


def test_assortativity_missing_node_value():
    g = build_base_graph()
    with pytest.raises(ValueError, match="missing"):
        assortativity(g, {"a": 1.0})


# --- construction -----------------------------------------------------------------


def test_build_rejects_non_positive_weight():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            build_base_graph({("a", "e"): bad})


def test_build_rejects_unknown_edge():
    with pytest.raises(ValueError):
        build_base_graph({("a", "d"): 1.0})


def test_build_accepts_either_orientation():
    g = build_base_graph({("e", "a"): 2.5})
    assert g.weights[("a", "e")] == 2.5
