"""In-memory spans recorded by the benchmark around its calls into the program.

A span has a name, start, end, parent and request id.  Spans stay in memory
and are written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed interval (seconds on the monotonic clock)."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[str] = None

    @property
    def duration(self) -> float:
        """``end - start`` in seconds."""
        return self.end - self.start


def covered(interval: Tuple[float, float], parts: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts`` (clipped to it)."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in parts if min(hi, b) > max(lo, a))
    total = 0.0
    run_start: Optional[float] = None
    run_end = lo
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


class SpanRecorder:
    """Collects spans; a disabled recorder records nothing and costs a branch."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._children: Dict[int, List[int]] = {}

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[str] = None,
    ) -> Optional[int]:
        """Record a finished interval; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, start, end, parent, request)
        self._append(span)
        return span.id

    def _append(self, span: Span) -> None:
        self.spans.append(span)
        if span.parent is not None:
            self._children.setdefault(span.parent, []).append(span.id)

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, request: Optional[str] = None
    ) -> Iterator[Optional[int]]:
        """Time the ``with`` body as one span; yields the id children use as parent."""
        if not self.enabled:
            yield None
            return
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, request)
        self._append(span)
        try:
            yield span.id
        finally:
            span.end = self.clock()

    def children(self, span_id: int) -> List[Span]:
        """Direct children of one span."""
        return [self.spans[i] for i in self._children.get(span_id, [])]

    def self_time(self, span_id: int) -> float:
        """Span duration minus what its direct children cover (seconds)."""
        span = self.spans[span_id]
        kids = [(c.start, c.end) for c in self.children(span_id)]
        return span.duration - covered((span.start, span.end), kids)

    def self_times(self) -> Dict[str, List[float]]:
        """Self time of every span, grouped by name (seconds)."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(self.self_time(span.id))
        return out

    def as_dicts(self) -> List[Dict[str, object]]:
        """Spans as plain dicts, for the run record."""
        return [asdict(span) for span in self.spans]
