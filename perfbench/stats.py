"""Order statistics and failure counting shared by every workload.

Percentiles follow the nearest-rank rule, and a tail percentile is reported
only when at least :data:`MIN_BEYOND` samples lie beyond it: a p95 of 60
samples rests on three values and moves with every outlier.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(p: float, n: int) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile of ``n``."""
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return n - max(1, math.ceil(p / 100.0 * n))


def min_samples_for(p: float) -> int:
    """Smallest sample size whose ``p``-th percentile has :data:`MIN_BEYOND` beyond it."""
    n = MIN_BEYOND + 1
    while samples_beyond(p, n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses a tail with fewer than :data:`MIN_BEYOND` beyond it.

    The median (``p <= 50``) needs only a non-empty sample.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise InsufficientSamples("no samples")
    if p > 50 and samples_beyond(p, n) < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{p:g} of {n} samples has {samples_beyond(p, n)} beyond it; "
            f"needs {MIN_BEYOND} ({min_samples_for(p)} samples)"
        )
    return float(ordered[max(1, math.ceil(p / 100.0 * n)) - 1])


def median(values: Iterable[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    return float(statistics.median(list(values)))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as :func:`statistics.quantiles` gives them; one value repeats."""
    values = list(values)
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


@dataclass
class Tally:
    """Attempted/ok/failed counts of one phase, with failure reasons.

    A refused, timed-out or wrong answer is a failure.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, ok: bool, reason: str = "wrong") -> bool:
        """Count one operation; ``reason`` labels it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1
        return ok

    @property
    def ok(self) -> int:
        """Operations that succeeded."""
        return self.attempted - self.failed

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for the run record."""
        return {
            "sent": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "reasons": dict(self.reasons),
        }


class Phases:
    """One :class:`Tally` per named phase; totals feed the result line."""

    def __init__(self) -> None:
        self.tallies: Dict[str, Tally] = {}

    def __getitem__(self, name: str) -> Tally:
        return self.tallies.setdefault(name, Tally())

    @property
    def attempted(self) -> int:
        """Operations attempted across every phase."""
        return sum(t.attempted for t in self.tallies.values())

    @property
    def failed(self) -> int:
        """Operations failed across every phase."""
        return sum(t.failed for t in self.tallies.values())

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Per-phase sent/ok/failed."""
        return {name: tally.as_dict() for name, tally in self.tallies.items()}
