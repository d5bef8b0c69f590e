"""Session blocks and their mass/intensity/variety statistics.

A block is a contiguous run of sessions in global order. Per block we
count, for every intensity value K, the number N of sessions that read
exactly K items (the usage histogram), then reduce to block means and
extremes. The variety series compares consecutive blocks: alpha is the
growth ratio of mean N, beta the growth ratio of mean K, and variety is
alpha/beta; the first block of a series has no predecessor and carries
none of the three.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence


@dataclass(frozen=True)
class Block:
    """k_items[j] is the item count K of the block's j-th session."""

    block_index: int
    k_items: tuple[int, ...]
    search_volume: int


@dataclass(frozen=True)
class UsageHistogram:
    """entries[k] = number of sessions in the block that read exactly k items."""

    entries: dict[int, int]


@dataclass(frozen=True)
class BlockMetrics:
    block_index: int
    q: int
    mean_n: float
    mean_k: float
    n_min: int
    n_max: int
    k_min: int
    k_max: int
    alpha: float | None = None
    beta: float | None = None
    variety: float | None = None


def partition_blocks(k_items: Sequence[int], block_size: int) -> list[Block]:
    """Cut the K values of sessions (already in global order) into consecutive
    runs of block_size.

    The final block may be smaller; its search_volume says so. An empty
    sequence yields an empty block list.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    blocks: list[Block] = []
    for i in range(0, len(k_items), block_size):
        chunk = tuple(k_items[i : i + block_size])
        blocks.append(Block(len(blocks), chunk, len(chunk)))
    return blocks


def compute_histogram(block: Block) -> UsageHistogram:
    """Count sessions per intensity value; entry counts sum to the block volume."""
    if not block.k_items:
        raise ValueError("empty block")
    entries: dict[int, int] = {}
    for k in block.k_items:
        if k < 1:
            raise ValueError(f"k_items must be >= 1, got {k}")
        entries[k] = entries.get(k, 0) + 1
    return UsageHistogram(dict(sorted(entries.items())))


def compute_block_means(histogram: UsageHistogram, block: Block) -> BlockMetrics:
    """Reduce a block histogram to means and extremes (variety left unset).

    mean_k is the per-session mean item count; mean_n averages the reader
    counts over the distinct observed K values.
    """
    entries = histogram.entries
    if not entries:
        raise ValueError("empty histogram")
    q = sum(entries.values())
    if q != block.search_volume:
        raise ValueError(
            f"histogram mass {q} does not match block volume {block.search_volume}"
        )
    return BlockMetrics(
        block_index=block.block_index,
        q=q,
        mean_n=q / len(entries),
        mean_k=sum(k * n for k, n in entries.items()) / q,
        n_min=min(entries.values()),
        n_max=max(entries.values()),
        k_min=min(entries),
        k_max=max(entries),
    )


def compute_variety_series(metrics: Sequence[BlockMetrics]) -> list[BlockMetrics]:
    """Fill alpha/beta/variety from consecutive block means.

    For each block after the first: alpha = mean_n ratio to the previous
    block, beta = mean_k ratio, variety = alpha/beta. The first block gets
    all three cleared.
    """
    out: list[BlockMetrics] = []
    prev: BlockMetrics | None = None
    for m in metrics:
        if prev is not None and m.block_index <= prev.block_index:
            raise ValueError("metrics must be ordered by block_index")
        if m.mean_n <= 0 or m.mean_k <= 0:
            raise ValueError(f"block {m.block_index} has non-positive means")
        if prev is None:
            out.append(replace(m, alpha=None, beta=None, variety=None))
        else:
            alpha = m.mean_n / prev.mean_n
            beta = m.mean_k / prev.mean_k
            out.append(replace(m, alpha=alpha, beta=beta, variety=alpha / beta))
        prev = m
    return out


def metric_bounds(metrics: Sequence[BlockMetrics]) -> tuple[float, float, float, float]:
    """Global (n_lo, n_hi, k_lo, k_hi) over the block means of a whole series."""
    if not metrics:
        raise ValueError("no block metrics")
    n_means = [m.mean_n for m in metrics]
    k_means = [m.mean_k for m in metrics]
    return min(n_means), max(n_means), min(k_means), max(k_means)
