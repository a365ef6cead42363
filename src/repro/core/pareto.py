"""Pareto analysis of the accuracy / MAC-reduction design space (stage 5)."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


def pareto_front(
    points: Sequence[T],
    objective_a: Callable[[T], float],
    objective_b: Callable[[T], float],
) -> List[T]:
    """Extract the Pareto-optimal subset when *maximising both objectives*.

    A point is Pareto-optimal iff no other point is at least as good in both
    objectives and strictly better in one.  The returned list is sorted by
    ``objective_a`` ascending (matching the paper's Fig. 2 reading order).
    """
    points = list(points)
    if not points:
        return []
    front: List[T] = []
    for candidate in points:
        ca, cb = objective_a(candidate), objective_b(candidate)
        dominated = False
        for other in points:
            if other is candidate:
                continue
            oa, ob = objective_a(other), objective_b(other)
            if oa >= ca and ob >= cb and (oa > ca or ob > cb):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    # Deduplicate identical objective pairs, keep stable ordering by objective_a.
    # Only exact duplicates go: two pairs that differ at all, however little,
    # do not dominate each other and both stay on the front.
    front.sort(key=lambda p: (objective_a(p), objective_b(p)))
    deduped: List[T] = []
    seen = set()
    for point in front:
        key = (objective_a(point), objective_b(point))
        if key not in seen:
            seen.add(key)
            deduped.append(point)
    return deduped


def is_pareto_optimal(
    point: T,
    points: Sequence[T],
    objective_a: Callable[[T], float],
    objective_b: Callable[[T], float],
) -> bool:
    """Whether ``point`` is on the Pareto front of ``points``."""
    ca, cb = objective_a(point), objective_b(point)
    for other in points:
        if other is point:
            continue
        oa, ob = objective_a(other), objective_b(other)
        if oa >= ca and ob >= cb and (oa > ca or ob > cb):
            return False
    return True


def select_by_accuracy_loss(
    points: Sequence[T],
    baseline_accuracy: float,
    max_accuracy_loss: float,
    accuracy: Callable[[T], float],
    gain: Callable[[T], float],
) -> Optional[T]:
    """Pick the design with the largest ``gain`` whose accuracy loss stays within budget.

    Parameters
    ----------
    points:
        Candidate designs (typically the Pareto front).
    baseline_accuracy:
        Accuracy of the exact design (same units as ``accuracy``).
    max_accuracy_loss:
        Maximum tolerated accuracy drop (absolute, same units).
    accuracy, gain:
        Accessors for the two metrics.

    Returns
    -------
    The selected design, or ``None`` if no design satisfies the constraint.
    """
    if max_accuracy_loss < 0:
        raise ValueError("max_accuracy_loss must be non-negative")
    threshold = baseline_accuracy - max_accuracy_loss
    feasible = [p for p in points if accuracy(p) >= threshold]
    if not feasible:
        return None
    return max(feasible, key=lambda p: (gain(p), accuracy(p)))
