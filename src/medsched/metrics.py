"""Evaluation metrics: idle time ratio, trip count, constraint flags, rank test.

The Mann-Whitney U test uses the normal approximation with average ranks,
tie-corrected variance and a continuity correction; benchmark samples are
large enough (>= 20 per group) for that to be accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .constraints import schedule_counts
from .model import IncompatibilityRule, Schedule


@dataclass(frozen=True)
class SolutionMetrics:
    """Per-solution summary: journey density, mobility and constraint flags.

    ``itr`` is the idle time ratio: idle minutes between consecutive
    appointments over the journey span, None for fewer than two
    assignments.  Overlapping slots count as zero idle, so the ratio stays
    computable for baseline outputs.  ``trips`` counts facility changes and
    breaks over two hours, plus the first trip.
    """

    itr: float | None
    trips: int
    overlap_ok: bool
    compatibility_ok: bool
    travel_ok: bool
    fully_scheduled: bool


def solution_metrics(
    schedule: Schedule, rules: Iterable[IncompatibilityRule], act_count: int
) -> SolutionMetrics:
    """ITR, trip count, the three constraint flags and full coverage of the request."""
    counts = schedule_counts(schedule, rules)
    return SolutionMetrics(
        itr=counts.idle / counts.span if len(schedule) >= 2 else None,
        trips=counts.trips,
        overlap_ok=not counts.overlaps,
        compatibility_ok=not counts.breaches,
        travel_ok=not counts.transfers,
        fully_scheduled=len(schedule) == act_count,
    )


def _average_ranks(values: Sequence[float]) -> tuple[list[float], int]:
    # Fractional ranking: tied values share the mean of their rank positions.
    # Also returns the tie term, the sum of t**3 - t over groups of t ties.
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        t = j - i + 1
        tie_term += t**3 - t
        i = j + 1
    return ranks, tie_term


def mann_whitney_u(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns (min(U_a, U_b), p).

    When every value in both samples is identical the statistic carries no
    information and p is 1.0 by convention.
    """
    if not sample_a or not sample_b:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(sample_a), len(sample_b)
    ranks, tie_term = _average_ranks(list(sample_a) + list(sample_b))
    rank_sum_a = sum(ranks[:n_a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2
    u_b = n_a * n_b - u_a
    u = min(u_a, u_b)

    n = n_a + n_b
    variance = n_a * n_b / 12 * (n + 1 - tie_term / (n * (n - 1)))
    if variance <= 0:
        return u, 1.0

    mean = n_a * n_b / 2
    z = max(0.0, abs(u - mean) - 0.5) / math.sqrt(variance)
    p = min(1.0, math.erfc(z / math.sqrt(2)))
    return u, p
