"""Fault-tolerant fleet-scale streaming tracking runtime.

Measurement epochs for many concurrent mobile networks arrive as one
time-ordered (but hostile: late, duplicated, dropped) event stream;
per-network beliefs update incrementally via warm-started grid BP —
yesterday's posterior, motion-diffused, is today's pre-knowledge — with
per-network watermarks, a warm-start divergence guard, staleness-based
shedding, per-network failure isolation, and ckpt-ledger resumability.
See :mod:`repro.stream.runtime` for the full contract; ``repro stream``
is the CLI entry point and E21 the benchmark.  :class:`StreamMetrics` is
the run's :class:`repro.obs.Tracer` (counters, ``staleness_ms`` samples,
the run window); ``StreamResult.metrics`` is its ``summary()``.
"""

from repro.stream.events import DisruptionStats, Epoch, StreamDisruption
from repro.stream.metrics import StreamMetrics
from repro.stream.pool import InlineExecutor, PoolExecutor
from repro.stream.runtime import (
    StreamConfig,
    StreamResult,
    StreamRuntime,
    run_stream,
    stream_meta,
)
from repro.stream.scenario import (
    FleetConfig,
    FleetNetwork,
    build_fleet,
    fleet_events,
)

__all__ = [
    "Epoch",
    "DisruptionStats",
    "StreamDisruption",
    "StreamMetrics",
    "InlineExecutor",
    "PoolExecutor",
    "StreamConfig",
    "StreamResult",
    "StreamRuntime",
    "run_stream",
    "stream_meta",
    "FleetConfig",
    "FleetNetwork",
    "build_fleet",
    "fleet_events",
]
