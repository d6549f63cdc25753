"""Localization-as-a-service: fault-tolerant async serving runtime.

Micro-batches concurrent localization requests onto the batched grid-BP
kernel through a pool of warm worker processes, inside a robustness
envelope: per-request deadlines with cooperative BP cancellation,
bounded admission with load shedding, per-shape circuit breakers, worker
health probes with crash replacement, and graceful degradation — every
admitted request gets an answer, possibly a flagged fallback, never
silence.

Metrics live on one :class:`repro.obs.Tracer`
(``LocalizationService.metrics``), written only on the event loop:
counters, gauges and the ``latency_ms`` / ``queue_wait_ms`` sample
windows that :meth:`LocalizationService.metrics_snapshot` (the
``metrics`` op) reports.
"""

from repro.serve.breaker import BreakerRegistry, CircuitBreaker
from repro.serve.loadgen import LoadReport, LoadSpec, run_load
from repro.serve.server import LocalizationServer, ServeClient
from repro.serve.service import LocalizationService, ServeConfig
from repro.serve.types import LocalizeRequest, LocalizeResponse
from repro.serve.workers import WorkerPool, execute_batch

__all__ = [
    "BreakerRegistry",
    "CircuitBreaker",
    "LoadReport",
    "LoadSpec",
    "LocalizationServer",
    "LocalizationService",
    "LocalizeRequest",
    "LocalizeResponse",
    "ServeClient",
    "ServeConfig",
    "WorkerPool",
    "execute_batch",
    "run_load",
]
