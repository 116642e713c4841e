"""Percentiles for latency samples.

A tail percentile is only meaningful when enough samples lie beyond it:
the p99 of 50 samples is the maximum, i.e. one outlier.  ``tail`` picks
the highest percentile of a fixed ladder that keeps at least
``MIN_BEYOND`` samples beyond it, so a report never claims more tail
than its sample count supports.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: percentiles a tail may be reported at, ascending
LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation); NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond the ``p``-th."""
    return round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND


def tail(samples: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(p, value)``: the highest ladder percentile the samples support.

    ``p`` is None (and ``value`` NaN) when not even the median has
    ``MIN_BEYOND`` samples beyond it.
    """
    best = None
    for p in LADDER:
        if supports(len(samples), p):
            best = p
    if best is None:
        return None, float("nan")
    return best, percentile(samples, best)


def summary(samples: Sequence[float]) -> Dict[str, object]:
    """Sample count, mean, median and supported tail of one latency series."""
    p, value = tail(samples)
    return {
        "n": len(samples),
        "mean": float(np.mean(samples)) if len(samples) else float("nan"),
        "p50": percentile(samples, 50.0),
        "tail_p": p,
        "tail": value,
    }


_REFERENCE_MATRIX = np.random.default_rng(0).random((64, 64))


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter and NumPy work (~1.5 ms).

    Timed right after each measured operation, it tracks how fast the
    host runs at that moment: on a shared host the same code runs 30-40%
    slower in contended periods that last seconds to minutes, and the
    operations slow down with it.  Costs divide by it (see NOTES.md).
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    counts: Dict[int, int] = {}
    for i in range(2_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(20):
        _REFERENCE_MATRIX @ _REFERENCE_MATRIX
    return time.perf_counter() - t0
