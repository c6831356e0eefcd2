"""Order statistics and span arithmetic shared by the pipeline benchmark.

Two rules from the benchmark's contract live here so that every number
is computed one way:

* a tail percentile is only reported where at least ``MIN_TAIL``
  samples lie beyond it; with fewer samples the highest percentile the
  sample supports is reported instead, together with the sample count;
* a span's *self time* is its duration minus the part of its interval
  that its child spans cover (overlapping children count once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

MIN_TAIL = 10


@dataclass(frozen=True)
class Percentile:
    """One reported order statistic: value, the percentile actually used, n."""

    value: float
    percentile: float
    n: int

    def label(self) -> str:
        return f"p{self.percentile:g} of n={self.n}"


def supported_percentile(n: int, wanted: float) -> float:
    """Highest percentile ``<= wanted`` with ``MIN_TAIL`` samples beyond it.

    The median is always reported, even for tiny samples.
    """
    if n <= 0:
        return 50.0
    highest = 100.0 * (1.0 - MIN_TAIL / n)
    # One decimal is enough to name the statistic; round down so the
    # tail guarantee still holds after rounding.
    highest = math.floor(highest * 10.0) / 10.0
    return max(50.0, min(float(wanted), highest))


def percentile(values: Sequence[float], wanted: float) -> Percentile:
    """The ``wanted`` percentile, capped to what the sample supports."""
    data = np.asarray(values, dtype=np.float64)
    n = int(data.size)
    if n == 0:
        return Percentile(float("nan"), float(wanted), 0)
    used = supported_percentile(n, wanted)
    return Percentile(float(np.percentile(data, used)), used, n)


def median(values: Sequence[float]) -> float:
    data = np.asarray(values, dtype=np.float64)
    return float(np.median(data)) if data.size else float("nan")


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping to ``[lo, hi]``."""
    clipped: List[Tuple[float, float]] = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    covered = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval."""
    return (end - start) - union_length(children, start, end)
