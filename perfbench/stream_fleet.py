"""stream-fleet: replay of a clean step-major fleet feed, in one process.

100 mobile networks x 12 nodes feed :class:`~repro.stream.StreamRuntime`
through :class:`~repro.stream.InlineExecutor` with the E21
throughput-lane settings (grid 12, 2 warm iterations, batch_max 32).
The batched kernel runs here at T = 32, 2 iterations, K = 144, so
per-call overhead and potentials weigh more than arithmetic; there is
no IPC.

The host probe runs every 25 events, between an ingest and the next;
the runtime's clock excludes it, so staleness does not include it.

The traced pass times the runtime's own phases (ingest, admission, batch
bookkeeping), every ``GridBeliefPrior`` build and every executor solve as
exclusive sections, so the layer-sum check compares directly timed work
with the wall.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np

import repro.stream.runtime as stream_runtime
from repro.priors import GridBeliefPrior
from repro.stream import (
    FleetConfig,
    InlineExecutor,
    StreamConfig,
    StreamMetrics,
    StreamRuntime,
    fleet_events,
)

from common import CacheDelta, LiveLayers, PassResult, Sections, bad_estimates

FLEET = FleetConfig(
    n_networks=100,
    n_nodes=12,
    anchor_ratio=0.3,
    radio_range=0.4,
    noise_sigma=0.02,
    step_sigma=0.025,
)
STREAM = StreamConfig(
    grid_size=12,
    warm_iterations=2,
    cold_iterations=10,
    batch_max=32,
    max_ready_burst=8,
)
#: epoch updates per second of --seconds (frozen: sets the op count)
OPS_PER_SECOND = 420.0
PROBE_EVERY = 25
WARMUP = dict(n_networks=8, n_steps=2)


class Workload:
    name = "stream-fleet"

    def __init__(self, seed: int, seconds: int, warmup_only: bool = False) -> None:
        n_steps = max(1, round(seconds * OPS_PER_SECOND / FLEET.n_networks) - 1)
        self.fleet = dataclasses.replace(FLEET, n_steps=n_steps, seed=seed)
        warm = dataclasses.replace(FLEET, seed=seed + 1_000_003, **WARMUP)
        self.warmup = (warm, fleet_events(warm))
        self.events = [] if warmup_only else fleet_events(self.fleet)

    def run(self, probe, trace: bool, setup_only: bool) -> dict:
        t0 = time.perf_counter()
        warm, events = self.warmup
        StreamRuntime(STREAM, expected_networks=warm.n_networks).run(
            events,
            final_step=warm.n_steps,
            network_ids=range(warm.n_networks),
            n_nodes=warm.n_nodes,
        )
        out: dict = {"ready_s": time.perf_counter() - t0}
        if setup_only:
            return out
        out["passes"] = {"untraced": self._pass(probe, traced=False)}
        if trace:
            out["passes"]["traced"] = self._pass(probe, traced=True)
        return out

    def _feed(self, probe):
        for i, epoch in enumerate(self.events):
            if i % PROBE_EVERY == 0:
                probe.run()
            yield epoch

    def _pass(self, probe, traced: bool) -> PassResult:
        mark = probe.mark()
        cache = CacheDelta()
        fleet = self.fleet
        metrics = _StalenessSamples(clock=probe.now)
        sections = Sections()
        with contextlib.ExitStack() as stack:
            if traced:
                executor = _RecordingExecutor(sections)
                runtime = _TimedRuntime(
                    STREAM, executor=executor, metrics=metrics,
                    expected_networks=fleet.n_networks, sections=sections,
                )
                stack.enter_context(_PriorTimer(sections))
                live = stack.enter_context(LiveLayers())
            else:
                runtime = StreamRuntime(
                    STREAM, executor=InlineExecutor(), metrics=metrics,
                    expected_networks=fleet.n_networks,
                )
            result = runtime.run(
                self._feed(probe),
                final_step=fleet.n_steps,
                network_ids=range(fleet.n_networks),
                n_nodes=fleet.n_nodes,
            )
        probe.run()
        counters = result.metrics["counters"]
        truth = {(e.network_id, e.step): e for e in self.events}
        errors, bad = [], 0
        for nid, track in result.networks.items():
            bad += bad_estimates(track.estimates)
            final = truth[(nid, fleet.n_steps)]
            unknown = ~final.measurements.anchor_mask
            err = np.linalg.norm(
                track.estimates[fleet.n_steps] - final.true_positions, axis=1
            )[unknown]
            errors.extend((err / fleet.radio_range).tolist())
        missing = set(result.lost_networks) | (set(range(fleet.n_networks)) - set(result.networks))
        lost = sum(1 for e in self.events if e.network_id in missing)
        failed = lost + sum(
            counters.get(k, 0) for k in ("coasted", "shed", "failed", "degraded_steps")
        )
        pass_result = PassResult(
            ops=len(self.events),
            spans=metrics.spans,
            windows=[metrics.window],
            failed=failed,
            lost=lost,
            errors_r=errors,
            bad_estimates=bad,
            probe_ms=probe.mean_ms(mark),
            probe_median_ms=probe.median_ms(mark),
            n_probes=probe.mark() - mark,
            notes={"counters": counters},
        )
        if traced:
            pass_result.layers = _layers(
                pass_result, executor, sections, live, counters, metrics, cache.result()
            )
        return pass_result


class _StalenessSamples(StreamMetrics):
    """Stream metrics that also keep the run's window and every staleness
    sample as (ingest, commit) times."""

    def __init__(self, clock) -> None:
        super().__init__(clock=clock)
        self.spans: list[tuple[float, float]] = []
        self.window = (0.0, 0.0)

    def start(self) -> None:
        super().start()
        self.window = (self.now(), self.now())

    def finish(self) -> None:
        super().finish()
        self.window = (self.window[0], self.now())

    def observe_staleness(self, seconds: float) -> None:
        end = self.now()
        self.spans.append((end - seconds, end))
        super().observe_staleness(seconds)


class _TimedRuntime(StreamRuntime):
    """Stream runtime whose own phases are timed as exclusive sections:
    ``ingest``, admission (``_should_drain`` / ``_collect_ready``, with
    gap coasting and shedding) and a batch's bookkeeping around its
    solve (item building, the divergence guard, commits)."""

    def __init__(self, *args, sections: Sections, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sections = sections

    def ingest(self, epoch) -> None:
        with self._sections("stream.ingest"):
            super().ingest(epoch)

    def _should_drain(self) -> bool:
        with self._sections("stream.admission"):
            return super()._should_drain()

    def _collect_ready(self, force: bool):
        with self._sections("stream.admission"):
            return super()._collect_ready(force)

    def _solve_batch(self, batch) -> None:
        with self._sections("stream.batch_bookkeeping"):
            super()._solve_batch(batch)


class _RecordingExecutor(InlineExecutor):
    """Inline executor that times each ``solve`` and counts its items."""

    def __init__(self, sections: Sections) -> None:
        self._sections = sections
        self.sizes: list[int] = []
        self.warm = 0

    def solve(self, items: list[dict]) -> list[dict]:
        with self._sections("stream.solve"):
            payloads = super().solve(items)
        self.sizes.append(len(items))
        self.warm += sum(1 for item in items if item.get("prior") is not None)
        return payloads


class _PriorTimer:
    """Times every ``GridBeliefPrior`` the stream runtime builds inside a
    ``with`` block, as the section ``priors.belief_prior``: the
    motion-diffused prior from each solved epoch's beliefs and the
    pipe-light copy sent with each warm item."""

    def __init__(self, sections: Sections) -> None:
        self._sections = sections

    def __enter__(self) -> "_PriorTimer":
        sections = self._sections

        class TimedPrior(GridBeliefPrior):
            def __init__(self, *args, **kwargs):
                with sections("priors.belief_prior"):
                    super().__init__(*args, **kwargs)

        stream_runtime.GridBeliefPrior = TimedPrior
        return self

    def __exit__(self, *exc) -> bool:
        stream_runtime.GridBeliefPrior = GridBeliefPrior
        return False


def _layers(result, executor, sections, live, counters, metrics, cache) -> dict:
    """Per-layer numbers of a traced pass, all timed live inside its window.

    The breakdown's top level is the exclusive sections; the solve
    section is split into the kernel and core layers timed inside it and
    the rest of ``execute_batch`` (``stream.solve_other``), so the layers
    sum to the directly timed total."""
    secs = sections.seconds
    solve_s = secs["stream.solve"]
    n_batches = max(sections.calls["stream.solve"], 1)
    n_items = sum(executor.sizes)
    layer = live.totals()
    named_core = layer["bp_s"] + layer["node_s"] + layer["edge_s"] + layer["estimate_s"]
    hits, misses = cache
    epochs = result.ops
    staleness_ms = np.asarray(result.latencies_s or [0.0]) * 1e3
    breakdown = {
        "stream.ingest": secs["stream.ingest"],
        "stream.admission": secs["stream.admission"],
        "stream.batch_bookkeeping": secs["stream.batch_bookkeeping"],
        "priors.belief_prior": secs["priors.belief_prior"],
        "kernels.bp": layer["bp_s"],
        "core.node_potentials": layer["node_s"],
        "core.edge_potentials": layer["edge_s"],
        "core.estimate": layer["estimate_s"],
        "stream.solve_other": solve_s - named_core,
    }
    builds = sections.calls["priors.belief_prior"]
    per_epoch = 1e3 / epochs
    return {
        "metrics": {
            "kernels.bp_ms": layer["bp_s"] * per_epoch,
            "kernels.bp_round_ms": layer["bp_s"] / max(layer["iterations"], 1) * 1e3,
            "kernels.bp_iterations": layer["iterations"],
            "core.node_potentials_ms": layer["node_s"] * per_epoch,
            "core.edge_potentials_ms": layer["edge_s"] * per_epoch,
            "core.estimate_ms": layer["estimate_s"] * per_epoch,
            "core.cache_hit_ratio": hits / max(hits + misses, 1),
            "stream.solve_ms": solve_s / n_batches * 1e3,
            "stream.batch_size": n_items / n_batches,
            "stream.runtime_ms": (result.window_s - solve_s) * per_epoch,
            "stream.staleness_ms.p99": float(np.percentile(staleness_ms, 99)),
            "stream.warm_solves": executor.warm,
            "stream.cold_resolves": counters.get("cold_resolves", 0),
            "stream.guard_trips": counters.get("guard_trips", 0),
            "stream.coasted": counters.get("coasted", 0),
            "priors.belief_prior_ms": secs["priors.belief_prior"] / max(builds, 1) * 1e3,
        },
        "breakdown_s": breakdown,
        "bases": {
            "per op": f"{epochs} epoch updates",
            "per batch": f"{n_batches} solve calls, {n_items} items",
            "stream.warm_solves": f"of {n_items} solved items",
            "stream.staleness_ms.p99": f"{len(metrics.spans)} samples",
            "priors.belief_prior_ms": f"{builds} builds",
            "sections": (
                "ingest, admission, batch bookkeeping, prior builds and solves "
                "are timed directly and exclusively; the sum check compares "
                "their total with the wall"
            ),
            "kernels, core": (
                f"timed live in {layer['problems']} traced solves; "
                "stream.solve_other is the rest of the solve section "
                "(grouping, restart checks, result assembly, tracer snapshots)"
            ),
            "kernels.bp_round_ms": f"{layer['iterations']} problem-rounds",
            "core.cache_hit_ratio": f"{hits} hits / {hits + misses} lookups",
        },
        "sum_check": True,
    }
