"""The benchmark's own arithmetic: the tail rule, host adjustment, ratios.

Kept free of repro imports so its tests run in milliseconds and so none
of it can drift with the program under test.
"""

from __future__ import annotations

import bisect
import resource

import numpy as np

__all__ = [
    "MIN_TAIL",
    "tail_beyond",
    "highest_resolved_percentile",
    "adjust_time",
    "HostScale",
    "failed_ratio",
    "peak_rss_mb",
]

#: a percentile is reported as resolved only with this many samples beyond it
MIN_TAIL = 10


def tail_beyond(samples, q: float) -> int:
    """Number of samples strictly greater than the *q*-th percentile."""
    xs = np.asarray(samples, dtype=float)
    return int((xs > np.percentile(xs, q)).sum())


def highest_resolved_percentile(n: int, min_tail: int = MIN_TAIL) -> float | None:
    """Highest percentile that leaves at least *min_tail* of *n* samples
    beyond it (``None`` when fewer than ``min_tail + 1`` samples exist).

    With 100 samples that is p90; p99 needs 1,000.
    """
    if n <= min_tail:
        return None
    return 100.0 * (1.0 - min_tail / n)


def _speed_factor(probe_ms: float, reference_ms: float) -> float:
    """How much faster than at the reference host speed the work ran."""
    if probe_ms <= 0 or reference_ms <= 0:
        raise ValueError("probe and reference times must be positive")
    return reference_ms / probe_ms


def adjust_time(raw: float, probe_ms: float, reference_ms: float) -> float:
    """A time rescaled to the reference host speed.

    A host running the probe slower than the reference by a factor
    ``probe_ms / reference_ms`` ran the workload slower by the same
    factor, so the time is divided by it.
    """
    return raw * _speed_factor(probe_ms, reference_ms)


class HostScale:
    """Rescales intervals to the reference host speed, piece by piece.

    *marks* are ``(time, probe seconds)`` pairs in time order.  Between two
    marks the speed factor is the mean of theirs; before the first and
    after the last, that mark's own.  :meth:`interval` integrates the
    factor over ``[t0, t1]``, so a span that crosses marks is rescaled
    by each piece's own host speed.
    """

    def __init__(self, marks, reference_ms: float) -> None:
        if not marks:
            raise ValueError("HostScale needs at least one probe mark")
        self._times = [t for t, _ in marks]
        if self._times != sorted(self._times):
            raise ValueError("probe marks must be in time order")
        self._factors = [
            _speed_factor(p * 1e3, reference_ms) for _, p in marks
        ]

    def _segment(self, i: int) -> float:
        """Factor between mark ``i - 1`` and mark ``i``."""
        f = self._factors
        if i <= 0:
            return f[0]
        if i >= len(f):
            return f[-1]
        return 0.5 * (f[i - 1] + f[i])

    def interval(self, t0: float, t1: float) -> float:
        """Length of ``[t0, t1]`` at the reference host speed."""
        if t1 < t0:
            raise ValueError("interval ends before it starts")
        total, cur = 0.0, t0
        i = bisect.bisect_right(self._times, t0)
        while cur < t1:
            nxt = t1
            if i < len(self._times) and self._times[i] < t1:
                nxt = self._times[i]
            total += (nxt - cur) * self._segment(i)
            cur = nxt
            i += 1
        return total


def failed_ratio(failed: int, attempted: int) -> float:
    """Ops without a full ``ok`` answer over ops attempted."""
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the largest peak among the
    children already joined, so call this after every worker has exited
    and before starting any other child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB
