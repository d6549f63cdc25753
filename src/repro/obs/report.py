"""Rendering and aggregation of exported traces.

Operates on the plain dicts produced by
:meth:`repro.obs.tracer.Tracer.snapshot` (not on live tracers), so traces
that crossed a process boundary — e.g. returned by pool workers — are
first-class citizens.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.utils.tables import format_table

__all__ = [
    "format_trace_table",
    "trace_summary",
    "merge_traces",
    "reservoir_summary",
]


def reservoir_summary(values) -> dict:
    """JSON-safe percentile block for a bounded sample reservoir.

    The shape every :meth:`~repro.obs.Tracer.observe` distribution
    exports (serve latencies and queue waits, stream staleness), and the
    load generator's latency block: sample count, p50/p99, and mean —
    ``None`` when the reservoir is empty so the block stays JSON-clean.
    """
    import numpy as np

    vals = list(values)
    if not vals:
        return {"n": 0, "p50": None, "p99": None, "mean": None}
    arr = np.asarray(vals, dtype=np.float64)
    return {
        "n": len(vals),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
    }

#: iteration-record keys shown as table columns, in display order
_ITERATION_COLUMNS = (
    "iteration",
    "residual",
    "beliefs_changed",
    "messages",
    "messages_cum",
    "bytes_cum",
)


def _require_trace(trace: Mapping) -> None:
    if not isinstance(trace, Mapping):
        raise TypeError(
            "expected a trace dict (Tracer.snapshot()); did you pass a "
            "NullTracer snapshot (None) or a live Tracer?"
        )


def format_trace_table(trace: Mapping, *, precision: int = 6) -> str:
    """Aligned per-iteration table of a trace dict.

    Columns are the intersection of :data:`_ITERATION_COLUMNS` with the
    keys actually present (solvers record slightly different fields);
    unknown extra keys are appended alphabetically.
    """
    _require_trace(trace)
    iterations = trace.get("iterations", [])
    if not iterations:
        return "(no iteration records)"
    present: set = set()
    for rec in iterations:
        present.update(rec)
    headers = [c for c in _ITERATION_COLUMNS if c in present]
    headers += sorted(present - set(_ITERATION_COLUMNS))
    rows = [[rec.get(h, "") for h in headers] for rec in iterations]
    method = trace.get("meta", {}).get("method")
    title = f"trace: {method}" if method else None
    return format_table(headers, rows, precision=precision, title=title)


def _stat(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def trace_summary(trace: Mapping) -> str:
    """Multi-line summary: meta, counters, peak gauges, timers, and the
    n/p50/p99/mean of each observed distribution."""
    _require_trace(trace)
    lines: list[str] = []
    meta = trace.get("meta", {})
    if meta:
        lines.append("meta:")
        lines += [f"  {k} = {meta[k]}" for k in sorted(meta)]
    counters = trace.get("counters", {})
    if counters:
        lines.append("counters:")
        lines += [f"  {k} = {counters[k]}" for k in sorted(counters)]
    gauges = trace.get("gauges", {})
    if gauges:
        lines.append("peaks:")
        lines += [f"  {k} = {gauges[k]}" for k in sorted(gauges)]
    timers = trace.get("timers", {})
    if timers:
        lines.append("timers:")
        for path in sorted(timers):
            t = timers[path]
            lines.append(
                f"  {path}: {t['seconds'] * 1e3:.2f} ms over {t['calls']} call(s)"
            )
    distributions = trace.get("distributions", {})
    if distributions:
        lines.append("distributions:")
        for name in sorted(distributions):
            d = distributions[name]
            lines.append(
                f"  {name}: n={d['n']} p50={_stat(d['p50'])} "
                f"p99={_stat(d['p99'])} mean={_stat(d['mean'])}"
            )
    if not lines:
        return "(empty trace)"
    return "\n".join(lines)


def merge_traces(traces: Iterable[Mapping]) -> dict:
    """Aggregate trace dicts from independent runs (e.g. pool workers).

    Counters and timer totals/calls are summed, gauges take the maximum,
    and ``n_iterations_total`` counts all iteration records; the
    per-iteration records themselves are *not* concatenated (they describe
    different runs, not one convergence curve).  Meta keys are kept only
    where all traces agree — disagreeing keys are dropped, so e.g. a
    shared method name survives while per-run seeds do not.
    """
    merged: dict = {
        "schema_version": None,
        "meta": {},
        "counters": {},
        "gauges": {},
        "timers": {},
        "n_runs": 0,
        "n_iterations_total": 0,
    }
    first = True
    for trace in traces:
        _require_trace(trace)
        merged["n_runs"] += 1
        version = trace.get("schema_version")
        if merged["schema_version"] is None:
            merged["schema_version"] = version
        elif version != merged["schema_version"]:
            raise ValueError(
                f"cannot merge traces with schema versions "
                f"{merged['schema_version']} and {version}"
            )
        for name, value in trace.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in trace.get("gauges", {}).items():
            if name not in merged["gauges"] or value > merged["gauges"][name]:
                merged["gauges"][name] = value
        for path, entry in trace.get("timers", {}).items():
            slot = merged["timers"].setdefault(path, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += entry["seconds"]
            slot["calls"] += entry["calls"]
        merged["n_iterations_total"] += len(trace.get("iterations", []))
        meta = trace.get("meta", {})
        if first:
            merged["meta"] = dict(meta)
            first = False
        else:
            merged["meta"] = {
                k: v for k, v in merged["meta"].items()
                if k in meta and meta[k] == v
            }
    if merged["n_runs"] == 0:
        raise ValueError("merge_traces needs at least one trace")
    return merged
