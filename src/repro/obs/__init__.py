"""Observability: convergence traces, counters, and timers for the solvers.

Attach a :class:`Tracer` to any message-passing localizer to capture its
convergence trajectory (per-iteration message residual, beliefs-changed
count, messages/bytes spent) together with named counters, peak gauges,
and nested wall-clock timers::

    from repro import CooperativeLocalizer, Tracer

    tracer = Tracer()
    loc = CooperativeLocalizer("grid-bp", tracer=tracer)
    result = loc.run(net, ranging, rng=0)
    result.telemetry            # JSON-safe trace dict (= tracer.snapshot())

The default is the no-op :data:`NULL_TRACER`, which keeps the hot paths
untouched and the results bit-identical to untraced runs.  ``python -m
repro trace`` prints the same information from the command line.

The same :class:`Tracer` is the metrics surface of the service and the
stream runtime: ``tracer.observe("latency_ms", v)`` keeps a sliding
window of the last :data:`OBSERVE_WINDOW` samples per name, and the
snapshot's timing section exports each as n/p50/p99/mean
(:func:`reservoir_summary`).
"""

from repro.obs.report import (
    format_trace_table,
    merge_traces,
    reservoir_summary,
    trace_summary,
)
from repro.obs.tracer import (
    NULL_TRACER,
    OBSERVE_WINDOW,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "OBSERVE_WINDOW",
    "format_trace_table",
    "trace_summary",
    "merge_traces",
    "reservoir_summary",
]
