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

from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence


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


def block_means(k_items: Sequence[int], block_size: int) -> list[BlockMetrics]:
    """Cut the K values of sessions (already in global order) into
    consecutive blocks of block_size and reduce each to means and extremes
    (variety left unset). The final block may be smaller.

    Each block counts its sessions per K value once. mean_k is the
    per-session mean item count; mean_n averages the session counts over
    the distinct observed K values.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    out: list[BlockMetrics] = []
    for b, i in enumerate(range(0, len(k_items), block_size)):
        block = k_items[i : i + block_size]
        counts = Counter(block)
        q = len(block)
        out.append(
            BlockMetrics(
                block_index=b,
                q=q,
                mean_n=q / len(counts),
                mean_k=sum(block) / q,
                n_min=min(counts.values()),
                n_max=max(counts.values()),
                k_min=min(counts),
                k_max=max(counts),
            )
        )
    return out


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
