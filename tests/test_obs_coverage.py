"""Line-coverage floor for the repro.obs instrumentation layer.

The container has no coverage plugin installed, so this uses the stdlib
:mod:`trace` module directly: an exercise function drives the whole
``repro.obs`` API (happy paths and error paths) under ``trace.Trace``,
executed lines are read from its counts, and the executable-line universe
is derived from the modules' own function code objects via
``co_lines()``.  The suite fails if either module drops below 90% line
coverage — the ISSUE's acceptance floor for the subsystem.

Run it alone with::

    PYTHONPATH=src python -m pytest tests/test_obs_coverage.py -q
"""

import inspect
import json
import trace as trace_mod
import types

import pytest

from repro.obs import report as report_module
from repro.obs import tracer as tracer_module
from repro.obs import (
    NULL_TRACER,
    OBSERVE_WINDOW,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    format_trace_table,
    merge_traces,
    reservoir_summary,
    trace_summary,
)

COVERAGE_FLOOR = 0.90


# --------------------------------------------------------------------- #
# Executable-line discovery
# --------------------------------------------------------------------- #
def _code_objects(module: types.ModuleType):
    """Every function/method code object defined in *module*, recursively
    including nested code objects (comprehensions, closures)."""
    roots = []
    for obj in vars(module).values():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            roots.append(obj.__code__)
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                fn = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
                if inspect.isfunction(fn):
                    roots.append(fn.__code__)
    stack, seen = list(roots), set()
    while stack:
        code = stack.pop()
        if code in seen:
            continue
        seen.add(code)
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)


def _executable_lines(module: types.ModuleType) -> set:
    lines: set = set()
    for code in _code_objects(module):
        for _start, _end, lineno in code.co_lines():
            # co_firstlineno is the `def` statement itself — present in
            # co_lines() but never hit by the trace hook at call time.
            if lineno is not None and lineno != code.co_firstlineno:
                lines.add(lineno)
    return lines


# --------------------------------------------------------------------- #
# The exercise: every public entry point, happy and error paths
# --------------------------------------------------------------------- #
def _exercise() -> None:
    # -- NullTracer: the entire no-op surface
    null = NullTracer()
    null.count("c")
    null.gauge_max("g", 1)
    null.annotate("a", 1)
    null.iteration(residual=0.5)
    null.observe("o", 1.0)
    with null.timer("t"):
        pass
    assert null.snapshot() is None
    assert NULL_TRACER.enabled is False

    # -- Tracer: counters, gauges, annotations, iterations, timers
    now = [0.0]
    t = Tracer(clock=lambda: now.__setitem__(0, now[0] + 1.0) or now[0])
    t.count("messages", 10)
    t.count("messages", 5)
    t.count("runs")
    t.gauge_max("peak", 3)
    t.gauge_max("peak", 9)
    t.gauge_max("peak", 4)
    t.annotate("method", "grid-bp")
    t.annotate("converged", True)
    try:
        t.annotate("bad", [1])
    except TypeError:
        pass
    with t.timer("outer"):
        with t.timer("inner"):
            t.iteration(residual=0.5, messages=10, messages_cum=10)
            t.iteration(residual=0.25, messages=10, messages_cum=20)
    t.iteration(iteration=99, residual=0.1)
    for v in range(OBSERVE_WINDOW + 1):
        t.observe("latency_ms", v)
    assert len(t.samples["latency_ms"]) == OBSERVE_WINDOW
    try:
        t.iteration(residual=[0.1])
    except TypeError:
        pass
    repr(t)

    # -- snapshot / to_json, both timing variants
    snap = t.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    assert snap["distributions"]["latency_ms"]["n"] == OBSERVE_WINDOW
    assert "timers" not in t.snapshot(include_timings=False)
    assert "distributions" not in t.snapshot(include_timings=False)
    json.loads(t.to_json())
    json.loads(t.to_json(include_timings=False, indent=2))

    # -- report: table (full, empty, no-method title, extras), summary
    assert "residual" in format_trace_table(snap)
    assert "(no iteration records)" in format_trace_table(Tracer().snapshot())
    bare = Tracer()
    bare.iteration(residual=0.5, custom=1)
    assert "custom" in format_trace_table(bare.snapshot())
    assert "counters:" in trace_summary(snap)
    assert trace_summary(Tracer().snapshot()) == "(empty trace)"
    for fn in (format_trace_table, trace_summary, lambda x: merge_traces([x])):
        try:
            fn(None)
        except TypeError:
            pass

    # -- reservoir_summary: empty and populated reservoirs
    assert reservoir_summary([]) == {"n": 0, "p50": None, "p99": None, "mean": None}
    filled = reservoir_summary([1.0, 2.0, 3.0])
    assert filled["n"] == 3 and filled["p50"] == 2.0

    # -- merge_traces: aggregation and both error paths
    other = Tracer(clock=lambda: 0.0)
    other.annotate("method", "grid-bp")
    other.annotate("seed", 7)
    other.count("messages", 2)
    other.gauge_max("peak", 100)
    with other.timer("outer"):
        other.iteration(residual=0.3)
    merged = merge_traces([snap, other.snapshot()])
    assert merged["counters"]["messages"] == 17
    assert merged["gauges"]["peak"] == 100
    assert merged["meta"] == {"method": "grid-bp"}
    try:
        merge_traces([])
    except ValueError:
        pass
    bad = other.snapshot()
    bad["schema_version"] = TRACE_SCHEMA_VERSION + 1
    try:
        merge_traces([snap, bad])
    except ValueError:
        pass


# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def executed_lines():
    tracer = trace_mod.Trace(count=1, trace=0)
    tracer.runfunc(_exercise)
    counts = tracer.results().counts  # {(filename, lineno): hits}
    by_file: dict = {}
    for (filename, lineno), hits in counts.items():
        if hits > 0:
            by_file.setdefault(filename, set()).add(lineno)
    return by_file


@pytest.mark.parametrize(
    "module", [tracer_module, report_module], ids=lambda m: m.__name__
)
def test_obs_module_line_coverage(executed_lines, module):
    executable = _executable_lines(module)
    assert executable, f"found no executable lines in {module.__name__}"
    executed = executed_lines.get(module.__file__, set())
    covered = executable & executed
    ratio = len(covered) / len(executable)
    missed = sorted(executable - executed)
    assert ratio >= COVERAGE_FLOOR, (
        f"{module.__name__}: {ratio:.1%} line coverage "
        f"({len(covered)}/{len(executable)}), below the "
        f"{COVERAGE_FLOOR:.0%} floor; missed lines: {missed}"
    )
