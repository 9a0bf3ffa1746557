"""Small statistics helpers shared by the benchmark and its self-tests."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Candidate percentiles for the tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest value with at least ``pct``
    percent of the sample at or below it)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats drifting
    return float(ordered[int(rank) - 1])


def samples_beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie strictly above the ``pct`` percentile."""
    cut = percentile(values, pct)
    return sum(1 for value in values if value > cut)


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with at least ``min_beyond`` samples
    strictly above it, as ``(pct, value)``; ``None`` when even the
    median has fewer than ``min_beyond`` samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if not values or samples_beyond(values, pct) < min_beyond:
            break
        best = (pct, percentile(values, pct))
    return best


def lateness(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Per-request lateness of an open-loop generator: completion time
    minus the time the request was *due*, never its actual start, so a
    stall also charges the requests queued behind it."""
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


@dataclass
class ErrorTally:
    """Failed operations against attempted ones.

    An operation is a program run, a batch sent or a query; it fails on
    a non-zero exit, a failed output check, a served drop or apply
    error, or a query error or timeout.
    """

    attempted: int = 0
    failed: int = 0

    def record(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
