"""The six-node compass graph and its structural analytics.

Two node types are adjacent exactly when their triplets differ in one
coordinate. Over the six admissible types that yields the single cycle
a-e-c-d-b-f-a: every node has degree 2, the graph is connected, bipartite
({a,b,c} against {d,e,f}), and has diameter 3.

The analytics functions only read ``nodes`` and ``weights`` from the graph
they are given, so tests can run them on modified topologies. Distances and
betweenness come from one Dijkstra search, which counts hops by giving
every edge length 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import fsum, inf, sqrt
from typing import Mapping

from .taxonomy import ADMISSIBLE_NODES

NODES: tuple[str, ...] = tuple(n.label for n in ADMISSIBLE_NODES)

Edge = tuple[str, str]

DISTANCE_MODES = ("hops", "weighted")


def canonical_edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class CrownGraph:
    """Undirected weighted compass graph: six nodes, the six derived edges."""

    nodes: tuple[str, ...]
    weights: dict[Edge, float]


def derive_edges() -> tuple[Edge, ...]:
    """All node pairs whose triplets differ in exactly one coordinate."""
    out: list[Edge] = []
    for i, m in enumerate(ADMISSIBLE_NODES):
        for n in ADMISSIBLE_NODES[i + 1 :]:
            a, b = m.triplet, n.triplet
            diff = (
                (a.n_tend is not b.n_tend)
                + (a.k_tend is not b.k_tend)
                + (a.stab is not b.stab)
            )
            if diff == 1:
                out.append(canonical_edge(m.label, n.label))
    return tuple(sorted(out))


def build_base_graph(weights: Mapping[Edge, float] | None = None) -> CrownGraph:
    """Build the compass graph; unspecified edges weigh 1.

    Weight keys may name an edge in either orientation. Unknown pairs and
    non-positive weights are rejected.
    """
    table: dict[Edge, float] = {e: 1.0 for e in derive_edges()}
    if weights:
        for key, w in weights.items():
            edge = canonical_edge(*key)
            if edge not in table:
                raise ValueError(f"not a compass edge: {key!r}")
            if not w > 0:
                raise ValueError(f"edge weight must be positive, got {w!r} for {key!r}")
            table[edge] = float(w)
    return CrownGraph(NODES, table)


def _adjacency(g: CrownGraph, weighted: bool) -> dict[str, list[tuple[str, float]]]:
    """Each node's (neighbor, length) pairs; every edge has length 1 unless
    weighted, so that a search counts hops."""
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in g.nodes}
    for (u, v), w in sorted(g.weights.items()):
        length = w if weighted else 1.0
        adj[u].append((v, length))
        adj[v].append((u, length))
    return adj


def neighbors(g: CrownGraph, label: str) -> tuple[str, ...]:
    if label not in g.nodes:
        raise ValueError(f"unknown node {label!r}")
    return tuple(sorted(v for e in g.weights for v in e if label in e and v != label))


def shortest_distance(g: CrownGraph, u: str, v: str, mode: str = "hops") -> float:
    """Shortest-path length between two nodes, by hop count or by weight."""
    if mode not in DISTANCE_MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {DISTANCE_MODES})")
    for label in (u, v):
        if label not in g.nodes:
            raise ValueError(f"unknown node {label!r}")
    # Search from the lexicographically smaller endpoint so d(u, v) and
    # d(v, u) run the identical float computation.
    u, v = (u, v) if u <= v else (v, u)
    dist, *_ = _search(_adjacency(g, mode == "weighted"), u)
    return dist[v]


def betweenness(g: CrownGraph, *, weighted: bool = False) -> dict[str, float]:
    """Shortest-path betweenness per node (Brandes accumulation).

    Pairs are unordered and endpoints are excluded; when a pair has several
    geodesics each contributes its fraction.
    """
    adj = _adjacency(g, weighted)
    bc = dict.fromkeys(adj, 0.0)
    for s in adj:
        _, order, preds, sigma = _search(adj, s)
        delta = dict.fromkeys(adj, 0.0)
        while order:
            w = order.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    # Undirected: every unordered pair was accumulated from both endpoints.
    return {v: x / 2.0 for v, x in bc.items()}


def _search(adj: dict[str, list[tuple[str, float]]], source: str):
    """Dijkstra's search from source, keeping every shortest path (Brandes
    2001); with unit lengths it visits nodes as a breadth-first search does.

    Returns (dist, order, preds, sigma): each node's distance (inf when
    unreachable), the reached nodes in the order they were settled, each
    node's predecessors on its shortest paths, and its number of shortest
    paths.
    """
    dist = dict.fromkeys(adj, inf)
    sigma = dict.fromkeys(adj, 0.0)
    preds: dict[str, list[str]] = {v: [] for v in adj}
    dist[source] = 0.0
    sigma[source] = 1.0
    order: list[str] = []
    seen: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        order.append(u)
        for v, w in adj[u]:
            nd = d + w
            # Lengths this close are one length, so that the same weights
            # summed in another order tie.
            tol = 1e-12 * max(1.0, abs(nd))
            if nd < dist[v] - tol:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heapq.heappush(heap, (nd, v))
            elif abs(nd - dist[v]) <= tol and v not in seen:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, order, preds, sigma


def minimum_spanning_tree(g: CrownGraph) -> tuple[Edge, ...]:
    """Kruskal over (weight, edge label): deterministic lexicographic tie-break."""
    parent = {v: v for v in g.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[Edge] = []
    for w, (u, v) in sorted((w, e) for e, w in g.weights.items()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
    if len(chosen) != len(g.nodes) - 1:
        raise ValueError("graph is not connected")
    return tuple(sorted(chosen))


def assortativity(g: CrownGraph, node_values: Mapping[str, float]) -> float:
    """Pearson correlation of node values over edge endpoints, both orientations."""
    missing = [v for v in g.nodes if v not in node_values]
    if missing:
        raise ValueError(f"missing value for node {missing[0]!r}")
    xs: list[float] = []
    ys: list[float] = []
    for u, v in sorted(g.weights):
        xs += [node_values[u], node_values[v]]
        ys += [node_values[v], node_values[u]]
    n = len(xs)
    mx = fsum(xs) / n
    my = fsum(ys) / n
    var_x = fsum((x - mx) ** 2 for x in xs) / n
    var_y = fsum((y - my) ** 2 for y in ys) / n
    if var_x <= 0.0 or var_y <= 0.0:
        raise ValueError("degenerate values")
    cov = fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
    return cov / sqrt(var_x * var_y)
