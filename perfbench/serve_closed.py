"""serve-closed: 8 closed-loop callers over one pipelined TCP connection.

An in-process :class:`~repro.serve.LocalizationServer` with
``ServeConfig(n_workers=1, max_batch=8)``; requests have the E18 shape
(25 nodes, 24% anchors, radio 0.35, grid 12, 10 iterations), one
distinct seeded scenario each, built client-side in measurement form.
Every batch crosses admission, micro-batching, the JSON wire codec,
pickling and the worker pipe.

The 8 callers run free across segments of 32 requests (each sends its
next request as soon as its last one is answered, so batches fill as
answers and new requests happen to meet the 10 ms batch window); the
host probe runs between segments, when no request is in flight.  The
worker gets a CPU of its own beside the server's, and the probe runs on
the worker's CPU: the worker's solves are ~90% of a request's latency,
so its CPU's speed is the one that moves the timings.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import statistics
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np

from repro.core.potentials import shared_registry
from repro.serve import LoadSpec, LocalizationServer, LocalizationService, ServeConfig
from repro.serve.loadgen import build_request_payloads
from repro.serve.server import ServeClient, request_from_wire
from repro.serve.workers import execute_batch

from arith import adjust_time
from common import LiveLayers, PassResult, bad_estimates

SERVE = ServeConfig(n_workers=1, max_batch=8)
CALLERS = 8
#: requests between two probe points, during which the callers run free
SEGMENT = 32
PROBES_PER_SEGMENT = 2
#: replays probe at the pass's cadence, so caches are as warm as the worker's
BATCHES_PER_SEGMENT = SEGMENT // SERVE.max_batch
#: requests per second of --seconds (frozen: sets the op count of a run)
OPS_PER_SECOND = 33.0
WARMUP_REQUESTS = 16
#: pings through the idle pool that time one pipe round trip
PINGS = 9
RADIO = 0.35


def _spec(n_requests: int, seed: int) -> LoadSpec:
    return LoadSpec(
        n_requests=n_requests,
        concurrency=CALLERS,
        n_nodes=25,
        anchor_ratio=0.24,
        radio_range=RADIO,
        grid_size=12,
        max_iterations=10,
        seed=seed,
    )


def _requests(n: int, seed: int, tag: str) -> list[dict]:
    out = []
    for i, p in enumerate(build_request_payloads(_spec(n, seed))):
        line = {"op": "localize", "id": f"{tag}{i}", **p["wire"]}
        out.append({**p, "line": line, "bytes": len(json.dumps(line)) + 1})
    return out


class Workload:
    name = "serve-closed"
    #: the worker process runs on a CPU of its own
    spawns_worker = True

    def __init__(self, seed: int, seconds: int, warmup_only: bool = False) -> None:
        n_segments = max(1, round(seconds * OPS_PER_SECOND / SEGMENT))
        base = seed * 100_000
        self.warmup = _requests(WARMUP_REQUESTS, base + 90_000, "w")
        self.requests = [] if warmup_only else _requests(n_segments * SEGMENT, base, "r")

    def run(self, probe, trace: bool, setup_only: bool) -> dict:
        return asyncio.run(self._session(probe, trace, setup_only))

    async def _session(self, probe, trace: bool, setup_only: bool) -> dict:
        t0 = time.perf_counter()
        server = LocalizationServer(LocalizationService(SERVE))
        host, port = await server.start()
        if probe.cpus:
            for worker in multiprocessing.active_children():
                os.sched_setaffinity(worker.pid, {probe.cpus[-1]})
        client = await ServeClient(host, port).connect()
        try:
            await self._closed_loop(client, self.warmup, probe, _Tally())
            out: dict = {"ready_s": time.perf_counter() - t0}
            if setup_only:
                return out
            out["passes"] = {
                "untraced": await self._pass(client, server.service, probe, False)
            }
            if trace:
                out["passes"]["traced"] = await self._pass(
                    client, server.service, probe, True
                )
            return out
        finally:
            await client.close()
            await server.stop()

    @staticmethod
    async def _closed_loop(client, requests, probe, tally) -> tuple[float, float]:
        """Each caller sends its next request when its last one answered.
        Returns the segment's (start, end) on the probe clock."""
        queue = iter(requests)

        async def caller() -> None:
            for req in queue:
                t0 = probe.now()
                try:
                    resp = await client.localize(**{
                        k: v for k, v in req["line"].items() if k != "op"
                    })
                except (ConnectionError, OSError):
                    tally.lost += 1
                    continue
                tally.record(req, resp, (t0, probe.now()))

        t0 = probe.now()
        await asyncio.gather(*(caller() for _ in range(CALLERS)))
        return t0, probe.now()

    async def _pass(self, client, service, probe, traced: bool) -> PassResult:
        mark = probe.mark()
        tally = _Tally()
        pool = service.pool
        spans: list[tuple[float, list, float | None, list]] = []
        if traced:
            run_batch = pool.run_batch

            async def timed(items, deadline_s, timeout):
                t0 = time.perf_counter()
                payloads = await run_batch(items, deadline_s, timeout)
                spans.append((time.perf_counter() - t0, items, deadline_s, payloads))
                return payloads

            pool.run_batch = timed
        before = service.metrics_snapshot()["counters"]
        windows = []
        try:
            probe.run(PROBES_PER_SEGMENT)
            for lo in range(0, len(self.requests), SEGMENT):
                chunk = self.requests[lo: lo + SEGMENT]
                windows.append(await self._closed_loop(client, chunk, probe, tally))
                probe.run(PROBES_PER_SEGMENT)
        finally:
            if traced:
                del pool.run_batch
        after = service.metrics_snapshot()["counters"]
        batches = after.get("batches", 0) - before.get("batches", 0)
        batched = after.get("batched_requests", 0) - before.get("batched_requests", 0)
        result = PassResult(
            ops=len(self.requests),
            spans=tally.spans,
            windows=windows,
            failed=tally.failed + tally.lost,
            lost=tally.lost,
            errors_r=tally.errors,
            bad_estimates=tally.bad,
            probe_ms=probe.mean_ms(mark),
            probe_median_ms=probe.median_ms(mark),
            n_probes=probe.mark() - mark,
            notes={"batches": batches, "statuses": dict(tally.statuses)},
        )
        if traced:
            rtts = []
            for _ in range(PINGS):
                t0 = time.perf_counter()
                await pool.probe()
                rtts.append(time.perf_counter() - t0)
            rtt_s = statistics.median(rtts)
            result.layers = self._layers(
                result, tally, spans, batches, batched, probe, rtt_s
            )
        return result

    def _layers(self, result, tally, spans, batches, batched, probe, rtt_s) -> dict:
        """Replays, outside the measured window and on the worker's CPU,
        what the traced pass sent, and converts the replay times to the
        pass's host speed (the pass's probe time as the reference).

        IPC per batch is timed directly: the pipe's pickling of the batch
        message and of its reply, both ways, plus one ping round trip
        through the pool (*rtt_s*)."""
        home = os.sched_getaffinity(0)
        if probe.cpus:  # replay on the worker's CPU, the one the probe measures
            os.sched_setaffinity(0, {probe.cpus[-1]})
        try:
            batches_items = [items for _span, items, _deadline, _payloads in spans]
            execute_batch(batches_items[0], None)  # warm this process's caches
            reg0 = shared_registry().stats()
            mark = probe.mark()
            compute_s = 0.0
            for i, items in enumerate(batches_items, 1):
                t0 = time.perf_counter()
                execute_batch(items, None)
                compute_s += time.perf_counter() - t0
                if i % BATCHES_PER_SEGMENT == 0:
                    probe.run()
            reg1 = shared_registry().stats()
            hits = reg1["hits"] - reg0["hits"]
            lookups = hits + reg1["misses"] - reg0["misses"]
            t0 = time.perf_counter()
            for req in self.requests:
                request_from_wire(req["line"])
            decode_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _span, items, deadline_s, payloads in spans:
                for msg in (("batch", items, deadline_s), ("ok", payloads)):
                    ForkingPickler.loads(ForkingPickler.dumps(msg))
            pickle_s = time.perf_counter() - t0
            probe.run()
            here = probe.mean_ms(mark)
            compute_s = adjust_time(compute_s, here, result.probe_ms)
            decode_s = adjust_time(decode_s, here, result.probe_ms)
            pickle_s = adjust_time(pickle_s, here, result.probe_ms)
            mark = probe.mark()
            traced_compute_s = 0.0
            with LiveLayers() as live:
                for i, items in enumerate(batches_items, 1):
                    t0 = time.perf_counter()
                    execute_batch(items, None)
                    traced_compute_s += time.perf_counter() - t0
                    if i % BATCHES_PER_SEGMENT == 0:
                        probe.run()
            probe.run()
            replay = live.totals()
            here = probe.mean_ms(mark)
            traced_compute_s = adjust_time(traced_compute_s, here, result.probe_ms)
            for key in ("bp_s", "node_s", "edge_s", "estimate_s"):
                replay[key] = adjust_time(replay[key], here, result.probe_ms)
        finally:
            os.sched_setaffinity(0, home)

        n_req = result.ops
        n_spans = max(len(spans), 1)
        pool_s = sum(span[0] for span in spans)
        ipc_s = pickle_s + len(spans) * rtt_s
        solver_s = replay["bp_s"] + replay["node_s"] + replay["edge_s"] + replay["estimate_s"]
        q = np.asarray(tally.queue_ms) if tally.queue_ms else np.zeros(1)
        breakdown = {
            "serve.ipc": ipc_s,
            "kernels.bp": replay["bp_s"],
            "core.node_potentials": replay["node_s"],
            "core.edge_potentials": replay["edge_s"],
            "core.estimate": replay["estimate_s"],
            "serve.worker_other": traced_compute_s - solver_s,
            "serve.pool_unattributed": pool_s - ipc_s - traced_compute_s,
            "io.decode": decode_s,
            "serve.between_batches": result.window_s - pool_s - decode_s,
        }
        per_req = 1e3 / n_req
        return {
            "metrics": {
                "kernels.bp_ms": replay["bp_s"] * per_req,
                "kernels.bp_round_ms": replay["bp_s"] / max(replay["iterations"], 1) * 1e3,
                "kernels.bp_iterations": replay["iterations"],
                "core.node_potentials_ms": replay["node_s"] * per_req,
                "core.edge_potentials_ms": replay["edge_s"] * per_req,
                "core.estimate_ms": replay["estimate_s"] * per_req,
                "core.cache_hit_ratio": hits / max(lookups, 1),
                "serve.queue_wait_ms.p50": float(np.percentile(q, 50)),
                "serve.queue_wait_ms.p99": float(np.percentile(q, 99)),
                "serve.batch_occupancy": batched / max(batches, 1),
                "serve.pool_batch_ms": pool_s / n_spans * 1e3,
                "serve.worker_compute_ms": compute_s / n_spans * 1e3,
                "serve.ipc_ms": ipc_s / n_spans * 1e3,
                "io.decode_ms": decode_s * per_req,
                "io.request_bytes": float(np.mean(tally.request_bytes)),
                "io.response_bytes": float(np.mean(tally.response_bytes)),
            },
            "breakdown_s": breakdown,
            "bases": {
                "per op": f"{n_req} requests",
                "per batch": f"{len(spans)} batches",
                "serve.batch_occupancy": (
                    f"{batched} requests / {batches} batches, max {SERVE.max_batch}"
                ),
                "serve.queue_wait_ms": f"{len(tally.queue_ms)} responses",
                "kernels, core, worker_compute": "inline execute_batch replays of the traced batches",
                "serve.ipc_ms": (
                    f"pickling of {len(spans)} batch messages and replies "
                    f"+ a {rtt_s * 1e3:.3f} ms ping round trip (median of {PINGS})"
                ),
                "residuals": (
                    "serve.pool_unattributed (pool wall - IPC - replayed compute) "
                    "and serve.between_batches (window - pool wall - decode)"
                ),
                "kernels.bp_round_ms": f"{replay['iterations']} problem-rounds",
                "core.cache_hit_ratio": f"{hits} hits / {lookups} lookups in the replay",
            },
            "sum_check": False,
        }


class _Tally:
    """Client-side accounting of one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self.errors: list[float] = []
        self.queue_ms: list[float] = []
        self.request_bytes: list[int] = []
        self.response_bytes: list[int] = []
        self.statuses: dict[str, int] = {}
        self.failed = 0
        self.lost = 0
        self.bad = 0

    def record(self, req: dict, resp: dict, span: tuple[float, float]) -> None:
        status = resp.get("status")
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.request_bytes.append(req["bytes"])
        self.response_bytes.append(len(json.dumps(resp)) + 1)
        if status != "ok":
            self.failed += 1
        est = resp.get("estimates")
        if est is None:
            return
        self.spans.append(span)
        self.queue_ms.append(float(resp.get("queue_ms", 0.0)))
        est = np.asarray(
            [[np.nan if v is None else v for v in row] for row in est], dtype=float
        )
        self.bad += bad_estimates(est)
        unknown = ~req["anchor_mask"]
        err = np.linalg.norm(est[unknown] - req["true_positions"][unknown], axis=1)
        self.errors.extend((err / RADIO).tolist())
