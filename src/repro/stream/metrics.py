"""Stream-runtime metrics: ingest hygiene, solve outcomes, staleness.

:class:`StreamMetrics` is a :class:`repro.obs.Tracer` with a run window.
Counter names:

``ingested / duplicates / stale_discarded / out_of_order`` — ingest
hygiene; ``solved / replayed / coasted / shed / failed`` — per-epoch
outcomes, each epoch counted once: a live epoch by its kind, an epoch
replayed from a checkpoint ledger as ``replayed`` only, so the five sum
to the run's number of (network, step) cells; ``degraded_steps`` — live
solves that were flagged (a cold re-solve after a guard trip);
``guard_trips / cold_resolves`` — the warm-start divergence guard.
Worker replacements are the executor's to report
(``StreamResult.executor["replacements"]``).

Staleness (seconds between an epoch's arrival and its belief update
landing) is observed as ``staleness_ms``; :meth:`StreamMetrics.summary`
exports its n/p50/p99/mean plus sustained updates/sec over the run —
the two headline numbers of E21.
"""

from __future__ import annotations

import time

from repro.obs import Tracer, reservoir_summary

__all__ = ["StreamMetrics"]


class StreamMetrics(Tracer):
    """A tracer that also knows when its stream run started and ended.

    *clock* times the run window and the staleness samples (and any
    timers)."""

    def __init__(self, clock=time.perf_counter) -> None:
        super().__init__(clock=clock)
        self._started: float | None = None
        self._finished: float | None = None

    # ------------------------------------------------------------------ #
    def now(self) -> float:
        return self._clock()

    def start(self) -> None:
        if self._started is None:
            self._started = self._clock()

    def finish(self) -> None:
        self._finished = self._clock()

    def observe_staleness(self, seconds: float) -> None:
        self.observe("staleness_ms", seconds * 1e3)

    # ------------------------------------------------------------------ #
    @property
    def elapsed_s(self) -> float | None:
        if self._started is None:
            return None
        end = self._finished if self._finished is not None else self._clock()
        return max(end - self._started, 1e-9)

    def summary(self) -> dict:
        """The run's headline block (``StreamResult.metrics``)."""
        counters = dict(self.counters)
        updates = counters.get("solved", 0) + counters.get("coasted", 0)
        elapsed = self.elapsed_s
        return {
            "counters": counters,
            "staleness_ms": reservoir_summary(self.samples.get("staleness_ms", ())),
            "elapsed_s": elapsed,
            "updates_per_sec": (updates / elapsed) if elapsed else None,
        }
