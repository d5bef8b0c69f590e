"""Search routes over classified blocks, route comparison, and communities.

A route is the ordered sequence of node-type labels a stream (or a single
user) traverses across classified blocks. Routes are compared with a
weighted edit distance whose substitution cost is the compass hop distance
between labels and whose insertion/deletion cost is a fixed 2, and grouped
into communities by single linkage under that distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .compass import NODES, build_base_graph, shortest_distance
from .errors import ConfigError

GROUPINGS = ("stream", "user")
STREAM_OWNER = "stream"
INDEL_COST = 2.0


# The compass hop distance of every pair of labels, indexed by their
# positions in NODES.
_CODE = {label: i for i, label in enumerate(NODES)}
_BASE = build_base_graph()
_HOP_ROWS = tuple(tuple(int(shortest_distance(_BASE, x, y)) for y in NODES) for x in NODES)


def _check_labels(step_seqs: Iterable[Sequence[str]]) -> None:
    unknown = {label for steps in step_seqs for label in steps} - _CODE.keys()
    if unknown:
        raise ValueError(f"unknown node label {min(unknown, key=repr)!r} in route steps")


@dataclass(frozen=True)
class SearchRoute:
    owner: str
    steps: tuple[str, ...]
    span: tuple[int, int]


@dataclass(frozen=True)
class TransitionGraph:
    """counts[(x, y)] = consecutive x→y steps summed over all routes (unsorted)."""

    counts: dict[tuple[str, str], int]


@dataclass(frozen=True)
class CognitiveCommunity:
    community_id: int
    members: tuple[str, ...]
    label_counts: dict[str, int]
    dominant: str
    size: int


def extract_routes(
    classified: Sequence[tuple[int, str]],
    grouping: str = "stream",
    block_users: Iterable[Iterable[str]] | None = None,
) -> list[SearchRoute]:
    """Turn per-block classifications into routes.

    User grouping yields one route per user from the types of the classified
    blocks that user appears in. It needs block_users: one collection of
    users per classified block, in the order of classified, read once and
    one block at a time (a generator will do); a different number of
    collections than blocks is a ValueError. A user contributes each block
    once. Stream grouping is the case of one owner, STREAM_OWNER, in every
    classified block: one route over all of them.
    """
    if grouping not in GROUPINGS:
        raise ConfigError(f"unknown grouping {grouping!r} (expected one of {GROUPINGS})")
    for (b1, _), (b2, _) in zip(classified, classified[1:]):
        if b2 <= b1:
            raise ValueError("classifications must be ordered by block_index")
    if grouping == "stream":
        block_users = [(STREAM_OWNER,)] * len(classified)
    elif block_users is None:
        raise ValueError("per-user grouping needs block_users")
    blocks_of: dict[str, list[int]] = {}
    for (block_index, _), users in zip(classified, block_users, strict=True):
        for user in set(users):
            blocks_of.setdefault(user, []).append(block_index)
    label_of = dict(classified)
    return [
        SearchRoute(user, tuple(label_of[b] for b in bs), (bs[0], bs[-1]))
        for user, bs in sorted(blocks_of.items())
    ]


def route_distance(r1: SearchRoute, r2: SearchRoute) -> float:
    """Edit distance over step sequences.

    Substitutions cost the compass hop distance between the labels (0-3);
    insertions and deletions cost 2 each. Symmetric in its arguments.
    """
    _check_labels((r1.steps, r2.steps))
    a, b = ([_CODE[label] for label in r.steps] for r in (r1, r2))
    prev = [j * INDEL_COST for j in range(len(b) + 1)]
    for i, x in enumerate(a, 1):
        cur = [i * INDEL_COST]
        for j, y in enumerate(b, 1):
            cur.append(
                min(
                    prev[j - 1] + _HOP_ROWS[x][y],
                    prev[j] + INDEL_COST,
                    cur[j - 1] + INDEL_COST,
                )
            )
        prev = cur
    return prev[-1]


_Profile = tuple[tuple[int, ...], tuple[int, ...]]


def _profile(steps: Sequence[str]) -> _Profile:
    """Label codes of a step sequence and its per-label counts (the bag)."""
    codes = tuple(_CODE[label] for label in steps)
    counts = [0] * len(NODES)
    for c in codes:
        counts[c] += 1
    return codes, tuple(counts)


def _within(p1: _Profile, p2: _Profile, threshold: float) -> bool:
    """Exactly route_distance <= threshold for two profiled step sequences.

    With a the shorter sequence, b the longer and d = len b - len a:
    accept when 3 len a + 2d <= threshold (substitute every step of a at
    hop cost <= 3, insert the rest); reject when 2d > threshold (at least d
    indels at 2 each); reject when E + d > threshold, where E sums, over
    labels, how many more steps of that label b has than a (bag excess):
    each such step costs at least 1 to substitute or 2 to insert, and at
    least d steps are inserted.
    Otherwise run the DP on the diagonals j - i in [-e, d + e] only, with
    e = (threshold - 2d) // 4: a path through diagonal k pays 2(|k| +
    |d - k|) in indels. The DP stops as soon as a whole row exceeds the
    threshold (Ukkonen's cut-off), since every path crosses every row.
    """
    (a, bag_a), (b, bag_b) = (p1, p2) if len(p1[0]) <= len(p2[0]) else (p2, p1)
    la, lb = len(a), len(b)
    d = lb - la
    if 3 * la + 2 * d <= threshold:
        return True
    if 2 * d > threshold:
        return False
    if sum(y - x for x, y in zip(bag_a, bag_b) if y > x) + d > threshold:
        return False
    e = int((threshold - 2 * d) // 4)
    dead = int(threshold) + 1  # any value above the threshold
    prev = [2 * j if j <= d + e else dead for j in range(lb + 1)]
    for i, x in enumerate(a, 1):
        hops = _HOP_ROWS[x]
        cur = [dead] * (lb + 1)
        if i <= e:
            cur[0] = left = 2 * i
            start = 1
        else:
            left = dead
            start = i - e
        row_min = left
        for j in range(start, min(lb, i + d + e) + 1):
            v = prev[j - 1] + hops[b[j - 1]]
            up = prev[j] + 2
            if up < v:
                v = up
            left += 2
            if left < v:
                v = left
            cur[j] = left = v
            if v < row_min:
                row_min = v
        if row_min > threshold:
            return False
        prev = cur
    return prev[lb] <= threshold


def dominant_label(counts: Mapping[str, int]) -> str:
    """The label with the highest count; the smallest label on a tie."""
    return min(counts, key=lambda label: (-counts[label], label))


def detect_communities(
    routes: Sequence[SearchRoute], linkage_threshold: float
) -> list[CognitiveCommunity]:
    """Single-linkage grouping: routes chained by distances <= threshold share a community.

    Output is a partition of the routes, numbered by smallest member key;
    the result does not depend on input order. The linkage is exact: it
    equals comparing every pair with route_distance. Routes are grouped
    by step sequence first (threshold 0 stops there), and everything after
    works on the distinct sequences with their owners: a community's label
    counts are its sequences' label bags times their owner counts. The
    distinct sequences are swept in length order, and a pair is skipped
    without a DP when twice its length difference, or its label-bag bound
    (the longer route's steps in excess of the shorter's per-label counts,
    plus the length difference), exceeds the threshold. The remaining pairs run a DP
    banded to the diagonals a path within the threshold can use, stopped
    as soon as a whole row exceeds the threshold. A threshold of inf merges
    everything; a negative or NaN threshold is a ConfigError, and a step
    label outside NODES a ValueError.
    """
    if not linkage_threshold >= 0:
        raise ConfigError(f"linkage threshold must be >= 0, got {linkage_threshold!r}")
    owners = [r.owner for r in routes]
    if len(set(owners)) != len(owners):
        raise ValueError("route owners must be unique")
    owners_of: dict[tuple[str, ...], list[str]] = {}
    for r in routes:
        owners_of.setdefault(r.steps, []).append(r.owner)
    _check_labels(owners_of)
    distinct = sorted(owners_of, key=len)
    profiles = [_profile(steps) for steps in distinct]
    parent = list(range(len(distinct)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if linkage_threshold >= 1:  # distinct step sequences are at least 1 apart
        for p, short in enumerate(distinct):
            for q in range(p + 1, len(distinct)):
                if 2 * (len(distinct[q]) - len(short)) > linkage_threshold:
                    break
                rp, rq = find(p), find(q)
                if rp != rq and _within(profiles[p], profiles[q], linkage_threshold):
                    parent[rp] = rq

    groups: dict[int, list[int]] = {}
    for i in range(len(distinct)):
        groups.setdefault(find(i), []).append(i)
    found = []
    for group in groups.values():
        members: list[str] = []
        label_counts = dict.fromkeys(NODES, 0)
        for i in group:
            seq_owners = owners_of[distinct[i]]
            members += seq_owners
            for label, k in zip(NODES, profiles[i][1]):
                label_counts[label] += k * len(seq_owners)
        members.sort()
        found.append((members, label_counts))
    found.sort(key=lambda f: f[0][0])
    return [
        CognitiveCommunity(
            community_id=i,
            members=tuple(members),
            label_counts=label_counts,
            dominant=dominant_label(label_counts),
            size=len(members),
        )
        for i, (members, label_counts) in enumerate(found)
    ]


def build_transition_graph(routes: Sequence[SearchRoute]) -> TransitionGraph:
    """Count consecutive step pairs across all routes."""
    counts: dict[tuple[str, str], int] = {}
    for r in routes:
        for x, y in zip(r.steps, r.steps[1:]):
            counts[(x, y)] = counts.get((x, y), 0) + 1
    return TransitionGraph(counts)


def transition_edge_weights(tg: TransitionGraph) -> dict[tuple[str, str], float]:
    """Compass edge weights: 1 plus the transition counts of both directions.

    Transitions between non-adjacent labels do not correspond to an edge
    and are ignored; the 1 keeps unobserved edges positive.
    """
    g = build_base_graph()
    return {
        (u, v): 1.0 + tg.counts.get((u, v), 0) + tg.counts.get((v, u), 0)
        for (u, v) in sorted(g.weights)
    }
