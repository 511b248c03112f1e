"""The rule that a percentile needs ten samples beyond it."""

import pytest

from perfbench.stats import (
    BATCH,
    MIN_BEYOND,
    InsufficientSamples,
    batched_percentile,
    percentile,
)


def test_p99_needs_ten_samples_beyond():
    assert MIN_BEYOND == 10
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 0.99)
    # 1000 samples: rank 990, so exactly ten lie beyond it.
    assert percentile(list(range(1000)), 0.99) == 989


def test_p50_needs_ten_samples_beyond():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 0.5)
    assert percentile(list(range(20)), 0.5) == 9


def test_percentile_is_nearest_rank_of_unsorted_input():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert percentile(samples, 0.5) == 3.0



def test_batched_percentile_is_the_median_over_full_batches():
    assert BATCH == 1000
    with pytest.raises(InsufficientSamples):
        batched_percentile([1.0] * (BATCH - 1), 0.99)
    # Three batches whose p99 is 989, 10989 and 20989; the partial
    # fourth batch holds the largest samples and is left out.
    samples = [float(i) for i in range(3 * BATCH + 500)]
    assert batched_percentile(samples, 0.99) == 1989.0
    # One stalled batch does not move the median.
    samples[:BATCH] = [1e9] * BATCH
    assert batched_percentile(samples, 0.99) == 2989.0
