import math

import pytest
from hypothesis import given, strategies as st

from helpers import Block, compute_block_means, compute_histogram, partition_blocks
from logcompass.blocks import BlockMetrics, block_means, compute_variety_series, metric_bounds
from logcompass.pipeline import metrics_from_summaries


def block_of(ks, index=0):
    return Block(index, tuple(ks), len(ks))


def metrics_of(ks, index=0):
    b = block_of(ks, index)
    return compute_block_means(compute_histogram(b), b)


def test_partition_sizes():
    blocks = partition_blocks([1] * 25, 10)
    assert [b.search_volume for b in blocks] == [10, 10, 5]
    assert [b.block_index for b in blocks] == [0, 1, 2]


def test_partition_single_full_block():
    blocks = partition_blocks([1] * 10_000, 10_000)
    assert len(blocks) == 1
    assert blocks[0].search_volume == 10_000


def test_partition_empty():
    assert partition_blocks([], 10) == []


def test_partition_contiguity():
    ks = list(range(1, 24))  # distinct values, so order is checked too
    blocks = partition_blocks(ks, 7)
    rejoined = [k for b in blocks for k in b.k_items]
    assert rejoined == ks


def test_partition_rejects_bad_size():
    with pytest.raises(ValueError):
        partition_blocks([], 0)


@pytest.mark.parametrize("size", [0, -3])
def test_block_means_rejects_bad_size(size):
    with pytest.raises(ValueError, match="block_size must be >= 1"):
        block_means([1, 2], size)


@pytest.mark.parametrize("n", range(0, 23))
@pytest.mark.parametrize("size", [1, 2, 3, 5, 7])
def test_partition_count_matches_brute_force(n, size):
    ks = list(range(1, n + 1))
    blocks = partition_blocks(ks, size)
    # brute-force splitter
    expected = []
    rest = list(ks)
    while rest:
        expected.append(rest[:size])
        rest = rest[size:]
    assert len(blocks) == len(expected) == math.ceil(n / size)
    assert [list(b.k_items) for b in blocks] == expected


def test_histogram_counts():
    assert compute_histogram(block_of([1, 1, 1, 3])).entries == {1: 3, 3: 1}


def test_histogram_single_intensity():
    h = compute_histogram(block_of([1] * 40))
    assert h.entries == {1: 40}


def test_histogram_hand_count():
    h = compute_histogram(block_of([2, 5, 5, 5, 9]))
    assert h.entries == {2: 1, 5: 3, 9: 1}
    assert sum(h.entries.values()) == 5


def test_histogram_empty_block():
    with pytest.raises(ValueError, match="empty block"):
        compute_histogram(Block(0, (), 0))


def test_means_basic():
    m = metrics_of([1, 1, 1, 3])
    assert m.mean_k == pytest.approx(1.5)
    assert m.mean_n == pytest.approx(2.0)
    assert (m.k_min, m.k_max, m.n_min, m.n_max) == (1, 3, 1, 3)


def test_means_degenerate_single_k():
    m = metrics_of([5] * 7)
    assert m.mean_k == 5
    assert m.mean_n == 7
    assert (m.k_min, m.k_max, m.n_min, m.n_max) == (5, 5, 7, 7)


def test_means_hand_arithmetic():
    m = metrics_of([1] * 9 + [10])
    assert m.mean_k == pytest.approx(1.9)
    assert m.mean_n == pytest.approx(5.0)


def test_means_rejects_mismatched_histogram():
    b = block_of([1, 1, 1, 3])
    h = compute_histogram(block_of([1, 1]))
    with pytest.raises(ValueError):
        compute_block_means(h, b)


def test_variety_ratios():
    series = [
        BlockMetrics(0, 10, 100.0, 5.0, 1, 1, 5, 5),
        BlockMetrics(1, 10, 110.0, 5.0, 1, 1, 5, 5),
    ]
    out = compute_variety_series(series)
    assert out[0].alpha is out[0].beta is out[0].variety is None
    assert out[1].alpha == pytest.approx(1.1)
    assert out[1].beta == pytest.approx(1.0)
    assert out[1].variety == pytest.approx(1.1)


def test_variety_identical_blocks_is_exactly_one():
    ks = [1, 1, 2, 5]
    series = [metrics_of(ks, i) for i in range(5)]
    out = compute_variety_series(series)
    assert all(m.variety == 1.0 and m.alpha == 1.0 and m.beta == 1.0 for m in out[1:])


def test_variety_toward_zero():
    series = [
        BlockMetrics(0, 10, 10.0, 2.0, 1, 1, 2, 2),
        BlockMetrics(1, 10, 10.0, 8.0, 1, 1, 8, 8),
    ]
    out = compute_variety_series(series)
    assert out[1].variety == pytest.approx(0.25)


def test_variety_rejects_zero_means():
    series = [
        BlockMetrics(0, 1, 0.0, 1.0, 1, 1, 1, 1),
        BlockMetrics(1, 1, 1.0, 1.0, 1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        compute_variety_series(series)


def test_variety_rejects_unordered_blocks():
    series = [metrics_of([1], 1), metrics_of([1], 0)]
    with pytest.raises(ValueError):
        compute_variety_series(series)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=80))
def test_histogram_mass_conservation(ks):
    b = block_of(ks)
    h = compute_histogram(b)
    assert sum(h.entries.values()) == b.search_volume
    assert all(k >= 1 and n >= 1 for k, n in h.entries.items())


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
    st.integers(min_value=2, max_value=5),
)
def test_scale_covariance(ks, c):
    base = metrics_of(ks)
    scaled = metrics_of([k for k in ks for _ in range(c)])
    assert scaled.mean_n == pytest.approx(c * base.mean_n)
    assert scaled.mean_k == pytest.approx(base.mean_k)
    # constant duplication across blocks leaves the variety series unchanged
    series_a = compute_variety_series([metrics_of(ks, 0), metrics_of(ks + [1], 1)])
    series_b = compute_variety_series(
        [
            metrics_of([k for k in ks for _ in range(c)], 0),
            metrics_of([k for k in (ks + [1]) for _ in range(c)], 1),
        ]
    )
    assert series_b[1].variety == pytest.approx(series_a[1].variety)


def test_metric_bounds():
    series = [metrics_of([1, 2], 0), metrics_of([5, 5, 5], 1), metrics_of([1, 9], 2)]
    n_lo, n_hi, k_lo, k_hi = metric_bounds(series)
    assert n_lo == min(m.mean_n for m in series)
    assert n_hi == max(m.mean_n for m in series)
    assert k_lo == min(m.mean_k for m in series)
    assert k_hi == max(m.mean_k for m in series)
    with pytest.raises(ValueError):
        metric_bounds([])


@given(
    st.lists(st.integers(min_value=1, max_value=60), max_size=120),
    st.integers(min_value=1, max_value=40),
)
def test_block_means_equal_the_oracle_chain(ks, size):
    blocks = partition_blocks(ks, size)
    want = [compute_block_means(compute_histogram(b), b) for b in blocks]
    assert block_means(ks, size) == want
    assert metrics_from_summaries(ks, size) == compute_variety_series(want)
