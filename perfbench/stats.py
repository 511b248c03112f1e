"""Order statistics the benchmark reports.

A percentile is only reported where at least :data:`MIN_BEYOND` samples
lie beyond it, so a tail figure never rests on a handful of requests.
A reported latency percentile is the median of the percentile of each
:data:`BATCH` consecutive requests, so a short stretch in which the host
stalls the program moves one batch's figure, not the reported one.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Requests per batch of :func:`batched_percentile`: the fewest that
#: leave :data:`MIN_BEYOND` beyond a p99.
BATCH = 1000


class InsufficientSamples(ValueError):
    """Too few samples to report the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q < 1``) of ``samples``.

    The value at rank ``ceil(q * n)`` is returned; the ``n - rank``
    samples above that rank are the ones "beyond" it, and there must be
    at least :data:`MIN_BEYOND` of them.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples leaves {max(0, n - rank)} beyond "
            f"it; need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def batched_percentile(samples: Sequence[float], q: float) -> float:
    """Median of the ``q`` quantile of each full batch of :data:`BATCH`
    consecutive ``samples`` (a last, partial batch is left out)."""
    full = len(samples) - len(samples) % BATCH
    if not full:
        raise InsufficientSamples(
            f"{len(samples)} samples make no batch of {BATCH}"
        )
    return median(
        percentile(samples[i:i + BATCH], q) for i in range(0, full, BATCH)
    )
