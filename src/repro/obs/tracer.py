"""Solver instrumentation: counters, wall-clock timers, iteration records.

Message-passing localizers are characterized by their convergence curves —
per-iteration message residuals, how many beliefs still move, how many
messages (and bytes) the distributed execution would have spent.  The
:class:`Tracer` collects exactly that, plus named counters, peak-value
gauges, and a stack of nested wall-clock timers, and exports everything as
one JSON-safe dict (see :meth:`Tracer.snapshot`).  Services and
streams use the same class for their request and epoch metrics:
:meth:`Tracer.observe` keeps a bounded window of samples per name
(latencies, queue waits, staleness), exported as n/p50/p99/mean.

Design rules
------------
* **Opt-in and overhead-free by default.**  Every instrumented call site
  holds a :class:`NullTracer` (the module singleton :data:`NULL_TRACER`)
  unless the caller passes a real :class:`Tracer`; the null methods are
  empty and the hot paths additionally guard any non-trivial bookkeeping
  behind ``tracer.enabled``.
* **Observation only.**  A tracer never feeds back into the computation,
  so attaching one cannot change results: beliefs are bit-identical with
  and without tracing (the golden-trace tests assert this).
* **Deterministic export.**  Everything except wall-clock timings is a
  pure function of the inputs and the seed; :meth:`Tracer.snapshot` with
  ``include_timings=False`` drops the only non-reproducible part, which is
  what the golden-trace regression suite snapshots.  Observed samples
  are wall-clock values too, so they sit in that section.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable

from repro.obs.report import reservoir_summary

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "OBSERVE_WINDOW",
    "NullTracer",
    "Tracer",
    "NULL_TRACER",
]

#: bumped whenever the exported dict layout changes incompatibly
TRACE_SCHEMA_VERSION = 1

#: samples kept per :meth:`Tracer.observe` name: a sliding window of the
#: most recent values, so the percentiles track current load
OBSERVE_WINDOW = 4096

#: scalar types allowed in iteration records and annotations (JSON-safe)
_SCALAR_TYPES = (bool, int, float, str, type(None))


class _NullTimer:
    """Reusable no-op context manager (one shared instance, zero alloc)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class NullTracer:
    """Do-nothing tracer — the default at every instrumented call site.

    Implements the full tracer interface as empty methods so solver code
    never branches on ``tracer is None``.  Anything costlier than a method
    call (e.g. computing per-iteration beliefs just to count changes) must
    additionally be guarded by ``if tracer.enabled:``.
    """

    #: call sites guard non-trivial bookkeeping behind this flag
    enabled = False

    __slots__ = ()

    def count(self, name: str, n: int | float = 1) -> None:
        """Add *n* to counter *name* (no-op)."""

    def gauge_max(self, name: str, value: int | float) -> None:
        """Record *value* into peak-gauge *name* if it is a new max (no-op)."""

    def annotate(self, name: str, value) -> None:
        """Attach scalar metadata (no-op)."""

    def observe(self, name: str, value: int | float) -> None:
        """Add *value* to the sample window of *name* (no-op)."""

    def timer(self, name: str):
        """Context manager timing a (possibly nested) phase (no-op)."""
        return _NULL_TIMER

    def iteration(self, **fields) -> None:
        """Append one per-iteration record (no-op)."""

    def snapshot(self, include_timings: bool = True):
        """Exported trace dict; ``None`` for the null tracer."""
        return None


#: module-level singleton used as the default tracer everywhere
NULL_TRACER = NullTracer()


class _Timer:
    """Context manager created by :meth:`Tracer.timer`.

    Accumulates elapsed wall time under a ``/``-joined path built from the
    tracer's timer stack, so nested phases naturally satisfy
    ``parent.seconds >= sum(child.seconds)`` (up to timer resolution).
    """

    __slots__ = ("_tracer", "_name", "_path", "_t0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Timer":
        tracer = self._tracer
        self._path = "/".join(tracer._timer_stack + [self._name])
        tracer._timer_stack.append(self._name)
        self._t0 = tracer._clock()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        elapsed = tracer._clock() - self._t0
        popped = tracer._timer_stack.pop()
        if popped != self._name:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"timer stack corrupted: exited {self._name!r}, "
                f"expected {popped!r}"
            )
        entry = tracer.timers.setdefault(self._path, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += elapsed
        entry["calls"] += 1
        return False


class Tracer(NullTracer):
    """Collects counters, peak gauges, timers, and per-iteration records.

    Parameters
    ----------
    clock:
        Monotonic time source for the timers (default
        :func:`time.perf_counter`); injectable for deterministic tests.

    Attributes
    ----------
    counters:
        ``{name: total}`` — monotone accumulating sums.
    gauges:
        ``{name: peak}`` — running maxima (e.g. largest factor built).
    meta:
        ``{name: scalar}`` annotations (method name, grid size, …); a
        repeated :meth:`annotate` overwrites, so with several runs on one
        tracer the last run wins.
    iterations:
        List of per-iteration dicts, auto-numbered 1-based via the
        ``"iteration"`` key unless the caller provides one.
    timers:
        ``{path: {"seconds": float, "calls": int}}`` keyed by the nested
        ``/``-joined phase path.
    samples:
        ``{name: deque}`` — the last :data:`OBSERVE_WINDOW` values given
        to :meth:`observe` under each name.
    """

    enabled = True

    __slots__ = ("counters", "gauges", "meta", "iterations", "timers",
                 "samples", "_clock", "_timer_stack")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, int | float] = {}
        self.meta: dict[str, object] = {}
        self.iterations: list[dict] = []
        self.timers: dict[str, dict] = {}
        self.samples: dict[str, deque] = {}
        self._clock = clock
        self._timer_stack: list[str] = []

    # ------------------------------------------------------------------ #
    def count(self, name: str, n: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge_max(self, name: str, value: int | float) -> None:
        if name not in self.gauges or value > self.gauges[name]:
            self.gauges[name] = value

    def annotate(self, name: str, value) -> None:
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"annotation {name!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
        self.meta[name] = value

    def observe(self, name: str, value: int | float) -> None:
        window = self.samples.get(name)
        if window is None:
            window = self.samples[name] = deque(maxlen=OBSERVE_WINDOW)
        window.append(float(value))

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    def iteration(self, **fields) -> None:
        record: dict = {"iteration": len(self.iterations) + 1}
        for key, value in fields.items():
            if not isinstance(value, _SCALAR_TYPES):
                raise TypeError(
                    f"iteration field {key!r} must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )
            record[key] = value
        self.iterations.append(record)

    # ------------------------------------------------------------------ #
    def snapshot(self, include_timings: bool = True) -> dict:
        """Deep-copied, JSON-serializable export of everything collected.

        With ``include_timings=False`` the (non-deterministic) wall-clock
        section is omitted; the remainder is a pure function of inputs and
        seed, suitable for golden-file comparison.  That section holds
        ``timers`` and, once anything was observed, ``distributions``:
        ``{name: reservoir_summary(samples)}``.
        """
        out: dict = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "iterations": [dict(r) for r in self.iterations],
        }
        if include_timings:
            out["timers"] = {k: dict(v) for k, v in self.timers.items()}
            if self.samples:
                out["distributions"] = {
                    k: reservoir_summary(v) for k, v in self.samples.items()
                }
        return out

    def to_json(self, include_timings: bool = True, indent: int | None = None) -> str:
        """The snapshot as a JSON string (sorted keys — stable output)."""
        return json.dumps(
            self.snapshot(include_timings), sort_keys=True, indent=indent
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(counters={len(self.counters)}, "
            f"iterations={len(self.iterations)}, timers={len(self.timers)})"
        )
