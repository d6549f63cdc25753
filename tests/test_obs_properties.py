"""Property tests for trace invariants.

Two layers: hypothesis-driven properties of the :class:`Tracer` container
itself (counters are sums, gauges are maxima, timers nest), and
parametrized solver-level invariants — for every solver configuration the
exported trace must have non-negative residuals, monotone non-decreasing
cumulative message counts, parent timers covering their children, and a
:class:`NullTracer` run that is bit-identical to the traced one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GridBPConfig, GridBPLocalizer, NBPConfig, NBPLocalizer
from repro.measurement import GaussianRanging, observe
from repro.network import NetworkConfig, UnitDiskRadio, generate_network
from repro.obs import Tracer


@pytest.fixture(scope="module")
def scenario():
    net = generate_network(
        NetworkConfig(
            n_nodes=30,
            anchor_ratio=0.2,
            radio=UnitDiskRadio(0.3),
            require_connected=True,
        ),
        rng=21,
    )
    ms = observe(net, GaussianRanging(0.02), rng=22)
    return net, ms


# --------------------------------------------------------------------- #
# Hypothesis properties of the container
# --------------------------------------------------------------------- #
class TestTracerContainerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
    def test_counter_is_sum(self, increments):
        t = Tracer()
        for n in increments:
            t.count("c", n)
        assert t.counters.get("c", 0) == sum(increments)

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_gauge_is_max(self, values):
        t = Tracer()
        for v in values:
            t.gauge_max("g", v)
        assert t.gauges["g"] == max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=30))
    def test_iteration_numbering_monotone(self, residuals):
        t = Tracer()
        for r in residuals:
            t.iteration(residual=r)
        numbers = [rec["iteration"] for rec in t.iterations]
        assert numbers == list(range(1, len(residuals) + 1))

    @given(st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=1, max_size=10))
    @settings(deadline=None)
    def test_parent_timer_covers_children(self, child_durations):
        # Deterministic clock advanced by hand: the parent interval always
        # contains every child interval.
        now = [0.0]

        def clock():
            return now[0]

        t = Tracer(clock=clock)
        with t.timer("parent"):
            for i, d in enumerate(child_durations):
                with t.timer(f"child{i}"):
                    now[0] += d
        children = sum(
            e["seconds"] for path, e in t.timers.items() if path != "parent"
        )
        assert t.timers["parent"]["seconds"] >= children - 1e-12


# --------------------------------------------------------------------- #
# Solver-level invariants, across configurations
# --------------------------------------------------------------------- #
GRID_CONFIGS = [
    GridBPConfig(grid_size=8, max_iterations=5, tol=1e-9),
    GridBPConfig(grid_size=8, max_iterations=5, tol=1e-9, damping=0.0),
    GridBPConfig(grid_size=8, max_iterations=4, tol=1e-9, schedule="serial"),
    GridBPConfig(grid_size=8, max_iterations=4, tol=1e-9, max_product=True,
                 estimator="map"),
]


def _check_trace_invariants(trace: dict) -> None:
    iterations = trace["iterations"]
    assert iterations, "traced solver produced no iteration records"
    residuals = [rec["residual"] for rec in iterations]
    assert all(np.isfinite(r) and r >= 0 for r in residuals)
    cums = [rec["messages_cum"] for rec in iterations]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert cums[0] >= 0
    bytes_cum = [rec["bytes_cum"] for rec in iterations]
    assert all(b >= a for a, b in zip(bytes_cum, bytes_cum[1:]))
    changed = [rec["beliefs_changed"] for rec in iterations]
    assert all(0 <= c <= trace["meta"]["n_unknowns"] for c in changed)


def _check_timer_tree(timers: dict) -> None:
    """Every parent phase's total covers the sum of its direct children."""
    for path, entry in timers.items():
        children = sum(
            e["seconds"]
            for p, e in timers.items()
            if p.startswith(path + "/") and "/" not in p[len(path) + 1:]
        )
        assert entry["seconds"] >= children - 1e-9, (
            f"timer {path!r} ({entry['seconds']}) < sum of children ({children})"
        )


@pytest.mark.parametrize("cfg", GRID_CONFIGS, ids=lambda c: (
    f"g{c.grid_size}-{c.schedule}-d{c.damping}-{'mp' if c.max_product else 'sp'}"
))
class TestGridTraceInvariants:
    def test_invariants(self, scenario, cfg):
        _, ms = scenario
        tracer = Tracer()
        result = GridBPLocalizer(config=cfg, tracer=tracer).localize(ms)
        trace = result.telemetry
        _check_trace_invariants(trace)
        _check_timer_tree(trace["timers"])
        # counters agree with the result's own accounting
        assert trace["counters"]["messages"] == result.messages_sent
        assert trace["counters"]["bp_iterations"] == result.n_iterations

    def test_null_tracer_bit_identical(self, scenario, cfg):
        _, ms = scenario
        traced = GridBPLocalizer(config=cfg, tracer=Tracer()).localize(ms)
        untraced = GridBPLocalizer(config=cfg).localize(ms)
        assert np.array_equal(traced.estimates, untraced.estimates)
        for u, b in untraced.extras["beliefs"].items():
            assert np.array_equal(b, traced.extras["beliefs"][u])


class TestNBPTraceInvariants:
    def test_invariants(self, scenario):
        _, ms = scenario
        tracer = Tracer()
        cfg = NBPConfig(n_particles=40, n_iterations=3)
        result = NBPLocalizer(config=cfg, tracer=tracer).localize(ms, rng=7)
        trace = result.telemetry
        _check_trace_invariants(trace)
        _check_timer_tree(trace["timers"])
        assert trace["counters"]["messages"] == result.messages_sent
        assert len(trace["iterations"]) == cfg.n_iterations

    def test_null_tracer_bit_identical(self, scenario):
        _, ms = scenario
        cfg = NBPConfig(n_particles=40, n_iterations=3)
        traced = NBPLocalizer(config=cfg, tracer=Tracer()).localize(ms, rng=7)
        untraced = NBPLocalizer(config=cfg).localize(ms, rng=7)
        assert np.array_equal(traced.estimates, untraced.estimates)
