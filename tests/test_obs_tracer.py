"""Unit tests for the repro.obs instrumentation layer itself."""

import json

import pytest

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


class FakeClock:
    """Deterministic clock: each reading advances by `step` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        t = NullTracer()
        assert t.enabled is False
        t.count("x")
        t.gauge_max("x", 3)
        t.annotate("x", 1)
        t.iteration(residual=0.5)
        t.observe("latency_ms", 3.0)
        with t.timer("phase"):
            pass
        assert t.snapshot() is None
        assert not hasattr(t, "samples")

    def test_module_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled


class TestTracerCounters:
    def test_count_accumulates(self):
        t = Tracer()
        t.count("messages", 10)
        t.count("messages", 5)
        t.count("runs")
        assert t.counters == {"messages": 15, "runs": 1}

    def test_gauge_keeps_max(self):
        t = Tracer()
        t.gauge_max("peak", 3)
        t.gauge_max("peak", 7)
        t.gauge_max("peak", 5)
        assert t.gauges == {"peak": 7}

    def test_annotate_scalars_only(self):
        t = Tracer()
        t.annotate("method", "grid-bp")
        t.annotate("converged", True)
        with pytest.raises(TypeError):
            t.annotate("bad", [1, 2])


class TestTracerIterations:
    def test_auto_numbering(self):
        t = Tracer()
        t.iteration(residual=0.5, messages=10)
        t.iteration(residual=0.25, messages=10)
        assert [r["iteration"] for r in t.iterations] == [1, 2]
        assert t.iterations[0]["residual"] == 0.5

    def test_explicit_iteration_wins(self):
        t = Tracer()
        t.iteration(iteration=7, residual=0.1)
        assert t.iterations[0]["iteration"] == 7

    def test_rejects_non_scalar_fields(self):
        t = Tracer()
        with pytest.raises(TypeError):
            t.iteration(residual=[0.1])


class TestTracerTimers:
    def test_nested_paths_and_totals(self):
        t = Tracer(clock=FakeClock())
        with t.timer("outer"):
            with t.timer("inner"):
                pass
        assert set(t.timers) == {"outer", "outer/inner"}
        assert t.timers["outer"]["calls"] == 1
        # Fake clock ticks once per reading: outer spans 3 ticks, inner 1.
        assert t.timers["outer"]["seconds"] >= t.timers["outer/inner"]["seconds"]

    def test_repeated_phase_accumulates_calls(self):
        t = Tracer(clock=FakeClock())
        for _ in range(3):
            with t.timer("phase"):
                pass
        assert t.timers["phase"]["calls"] == 3

    def test_parent_covers_children(self):
        t = Tracer(clock=FakeClock(step=0.5))
        with t.timer("parent"):
            with t.timer("a"):
                pass
            with t.timer("b"):
                pass
        children = t.timers["parent/a"]["seconds"] + t.timers["parent/b"]["seconds"]
        assert t.timers["parent"]["seconds"] >= children


class TestSnapshot:
    def _populated(self) -> Tracer:
        t = Tracer(clock=FakeClock())
        t.annotate("method", "grid-bp")
        t.count("messages", 42)
        t.gauge_max("peak", 9)
        with t.timer("run"):
            t.iteration(residual=0.5, messages=21)
            t.iteration(residual=0.25, messages=21)
        return t

    def test_json_serializable(self):
        snap = self._populated().snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed == snap
        assert snap["schema_version"] == TRACE_SCHEMA_VERSION

    def test_without_timings_is_deterministic_section_only(self):
        snap = self._populated().snapshot(include_timings=False)
        assert "timers" not in snap
        assert snap["counters"]["messages"] == 42

    def test_snapshot_is_a_copy(self):
        t = self._populated()
        snap = t.snapshot()
        snap["counters"]["messages"] = 0
        snap["iterations"][0]["residual"] = -1
        assert t.counters["messages"] == 42
        assert t.iterations[0]["residual"] == 0.5

    def test_to_json_stable(self):
        t = self._populated()
        assert t.to_json() == t.to_json()
        assert json.loads(t.to_json(indent=2)) == t.snapshot()


class TestObserve:
    def test_window_keeps_the_latest_samples(self):
        t = Tracer()
        for v in range(OBSERVE_WINDOW + 10):
            t.observe("latency_ms", v)
        window = t.samples["latency_ms"]
        assert len(window) == OBSERVE_WINDOW
        assert window[0] == 10.0 and window[-1] == OBSERVE_WINDOW + 9

    def test_snapshot_exports_distributions_with_timings(self):
        t = Tracer()
        for v in (1, 2, 3, 4):
            t.observe("queue_wait_ms", v)
        snap = t.snapshot()
        assert snap["distributions"] == {
            "queue_wait_ms": {
                "n": 4, "p50": 2.5, "p99": pytest.approx(3.97), "mean": 2.5,
            }
        }
        assert json.loads(json.dumps(snap)) == snap
        assert "distributions" not in t.snapshot(include_timings=False)

    def test_no_observation_keeps_the_trace_layout(self):
        t = Tracer()
        t.count("messages")
        assert sorted(t.snapshot()) == [
            "counters", "gauges", "iterations", "meta", "schema_version", "timers",
        ]


class TestReport:
    def _trace(self) -> dict:
        t = Tracer(clock=FakeClock())
        t.annotate("method", "grid-bp")
        t.count("messages", 20)
        t.gauge_max("peak_factor_nnz", 64)
        with t.timer("bp"):
            t.iteration(residual=0.5, messages=10, messages_cum=10)
            t.iteration(residual=0.25, messages=10, messages_cum=20)
        return t.snapshot()

    def test_table_contains_iterations(self):
        table = format_trace_table(self._trace())
        assert "residual" in table and "messages_cum" in table
        assert "0.5" in table
        assert table.startswith("trace: grid-bp")

    def test_table_empty_trace(self):
        t = Tracer()
        assert "no iteration records" in format_trace_table(t.snapshot())

    def test_table_rejects_null_snapshot(self):
        with pytest.raises(TypeError):
            format_trace_table(NullTracer().snapshot())

    def test_table_extra_columns_appended(self):
        t = Tracer()
        t.iteration(residual=0.5, custom_field=3)
        assert "custom_field" in format_trace_table(t.snapshot())

    def test_summary_sections(self):
        s = trace_summary(self._trace())
        assert "counters:" in s and "timers:" in s and "peaks:" in s
        assert "messages = 20" in s

    def test_summary_empty(self):
        assert trace_summary(Tracer().snapshot()) == "(empty trace)"

    def test_summary_prints_distributions(self):
        t = Tracer()
        for v in (1, 2, 3, 4):
            t.observe("queue_wait_ms", v)
        t.observe("staleness_ms", 0.125)
        s = trace_summary(t.snapshot())
        assert s.splitlines()[-3:] == [
            "distributions:",
            "  queue_wait_ms: n=4 p50=2.5 p99=3.97 mean=2.5",
            "  staleness_ms: n=1 p50=0.125 p99=0.125 mean=0.125",
        ]
        assert "distributions:" not in trace_summary(self._trace())
        empty = {"distributions": {"latency_ms": reservoir_summary([])}}
        assert trace_summary(empty) == (
            "distributions:\n  latency_ms: n=0 p50=- p99=- mean=-"
        )


class TestMergeTraces:
    def _worker_trace(self, messages: int, peak: int) -> dict:
        t = Tracer(clock=FakeClock())
        t.annotate("method", "grid-bp")
        t.annotate("seed", messages)  # differs per worker → dropped by merge
        t.count("messages", messages)
        t.gauge_max("peak", peak)
        with t.timer("run"):
            t.iteration(residual=0.5)
        return t.snapshot()

    def test_merge_sums_counters_and_timers(self):
        merged = merge_traces([self._worker_trace(10, 3), self._worker_trace(5, 8)])
        assert merged["counters"]["messages"] == 15
        assert merged["gauges"]["peak"] == 8
        assert merged["timers"]["run"]["calls"] == 2
        assert merged["n_runs"] == 2
        assert merged["n_iterations_total"] == 2

    def test_merge_keeps_only_agreeing_meta(self):
        merged = merge_traces([self._worker_trace(10, 3), self._worker_trace(5, 8)])
        assert merged["meta"] == {"method": "grid-bp"}

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_traces([])

    def test_merge_rejects_mixed_schema(self):
        a, b = self._worker_trace(1, 1), self._worker_trace(1, 1)
        b["schema_version"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            merge_traces([a, b])

    def test_merge_rejects_non_dict(self):
        with pytest.raises(TypeError):
            merge_traces([None])
