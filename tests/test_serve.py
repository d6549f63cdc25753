"""Localization-service suite — the gate for ``repro.serve``.

Covers the robustness envelope end to end:

* cooperative deadline cancellation inside the BP kernels (partial
  posterior, flagged, bit-identical when inactive);
* micro-batch grouping properties — requests with incompatible
  compatibility keys are never co-batched, and a singleton group matches
  the solver's reference path bit-identically;
* the circuit breaker state machine (injectable clock, no sleeping);
* the in-process fast lane: smoke (two requests, one forced
  deadline-degrade), backpressure shedding, invalid requests, shutdown
  flushing — every admitted request resolves;
* the JSON-lines TCP front end and pipelining client;
* (slow) the warm process pool: an idle dead worker replaced by the
  probe, and a worker batch bit-identical to the inline one.  Crashes,
  timeouts and remote errors mid-batch are cells of the fault matrix
  (``tests/test_fault_matrix.py``).

Fast lane (module marker ``serve``) runs in the default suite; the
process-pool tests are additionally ``slow``.
"""

import asyncio
import dataclasses as dc
import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ReferenceGridBP
from repro.core import GridBPConfig, GridBPLocalizer
from repro.experiments.config import ScenarioConfig, build_scenario
from repro.kernels import Deadline, compatibility_key, deadline_scope
from repro.obs import NULL_TRACER
from repro.parallel.pool import RemoteError
from repro.serve import (
    CircuitBreaker,
    LocalizationServer,
    LocalizationService,
    LocalizeRequest,
    LocalizeResponse,
    ServeClient,
    ServeConfig,
    execute_batch,
)
from repro.serve.types import request_batch_key, widened_sigma

pytestmark = pytest.mark.serve

SCEN = ScenarioConfig(n_nodes=18, anchor_ratio=0.25, radio_range=0.42)
CFG = GridBPConfig(grid_size=9, max_iterations=8)


def _scenario(seed):
    network, ms, prior = build_scenario(SCEN, seed=seed)
    return network, ms, prior


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------- #
# cooperative deadline cancellation (kernel layer)
# ---------------------------------------------------------------------- #
class _SteppingClock:
    """Deterministic clock: each read advances a fixed step."""

    def __init__(self, step):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestDeadlineCancellation:
    def test_expired_deadline_stops_after_one_round(self):
        _net, ms, prior = _scenario(3)
        loc = GridBPLocalizer(prior=prior, config=CFG)
        full = loc.localize(ms)
        assert full.n_iterations > 1
        with deadline_scope(seconds=0.0):
            partial = loc.localize(ms)
        # at least one BP round always completes; the stop is flagged
        assert partial.n_iterations == 1
        assert not partial.converged
        assert partial.extras.get("deadline_stop") is True
        assert np.isfinite(partial.estimates[partial.localized_mask]).all()

    def test_fake_clock_stops_mid_schedule(self):
        _net, ms, prior = _scenario(3)
        loc = GridBPLocalizer(prior=prior, config=dc.replace(CFG, tol=1e-12))
        clock = _SteppingClock(step=0.1)
        deadline = Deadline(seconds=0.35, clock=clock)
        with deadline_scope(deadline=deadline):
            partial = loc.localize(ms)
        full = loc.localize(ms)
        assert 1 <= partial.n_iterations < full.n_iterations
        assert partial.extras.get("deadline_stop") is True

    def test_no_scope_is_bit_identical(self):
        _net, ms, prior = _scenario(4)
        loc = GridBPLocalizer(prior=prior, config=CFG)
        before = loc.localize(ms)
        with deadline_scope(seconds=0.0):
            loc.localize(ms)
        after = loc.localize(ms)  # scope fully unwound; nothing leaks
        assert np.array_equal(before.estimates, after.estimates, equal_nan=True)
        assert before.n_iterations == after.n_iterations
        assert "deadline_stop" not in after.extras

    def test_batched_backend_flags_all_trials(self):
        lists = []
        for seed in (5, 6, 7):
            _net, ms, prior = _scenario(seed)
            lists.append((GridBPLocalizer(prior=prior, config=CFG), ms))
        from repro.core.bnloc import localize_batch

        with deadline_scope(seconds=0.0):
            results = localize_batch(lists)
        for r in results:
            assert r.n_iterations == 1
            assert r.extras.get("deadline_stop") is True

    def test_none_scope_is_noop(self):
        from repro.kernels import active_deadline

        with deadline_scope(seconds=None):
            assert active_deadline() is None


# ---------------------------------------------------------------------- #
# request/response types
# ---------------------------------------------------------------------- #
class TestTypes:
    def test_exactly_one_problem_form(self):
        _net, ms, _prior = _scenario(1)
        with pytest.raises(ValueError, match="exactly one"):
            LocalizeRequest()
        with pytest.raises(ValueError, match="exactly one"):
            LocalizeRequest(measurements=ms, scenario=SCEN)

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            LocalizeRequest(scenario=SCEN, deadline_s=0.0)

    def test_response_status_validated(self):
        with pytest.raises(ValueError, match="unknown status"):
            LocalizeResponse(request_id="x", status="maybe")

    def test_widened_sigma_is_uniform_rms(self):
        assert widened_sigma(1.0, 1.0) == pytest.approx(np.sqrt(2.0 / 12.0))

    def test_to_dict_is_json_safe(self):
        import json

        resp = LocalizeResponse(
            request_id="r",
            status="ok",
            estimates=np.array([[0.1, 0.2], [np.nan, np.nan]]),
            localized_mask=np.array([True, False]),
            fallback_mask=np.array([False, False]),
            uncertainty=np.array([0.05, np.nan]),
        )
        wire = json.loads(json.dumps(resp.to_dict()))
        assert wire["estimates"][1] == [None, None]
        assert wire["uncertainty"] == [0.05, None]


# ---------------------------------------------------------------------- #
# micro-batch grouping properties
# ---------------------------------------------------------------------- #
class TestGroupingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        g1=st.integers(6, 10),
        g2=st.integers(6, 10),
        it1=st.integers(3, 8),
        it2=st.integers(3, 8),
    )
    def test_batch_key_matches_kernel_compatibility(self, g1, g2, it1, it2):
        """Equal request keys ⇔ equal prepared-problem compatibility keys —
        so the service can group *before* preparing, and incompatible
        shapes are never co-batched."""
        _net, ms, prior = _scenario(2)
        reqs, keys = [], []
        for g, it in ((g1, it1), (g2, it2)):
            cfg = GridBPConfig(grid_size=g, max_iterations=it)
            req = LocalizeRequest(measurements=ms, prior=prior, config=cfg)
            reqs.append(req)
            keys.append(request_batch_key(req))
            prob = (
                GridBPLocalizer(prior=prior, config=req.config)
                ._prepare(ms)
                .problem
            )
            assert request_batch_key(req) == compatibility_key(prob)
        assert (keys[0] == keys[1]) == (
            (g1, it1) == (g2, it2)
        )

    @pytest.mark.parametrize("grid_size", [5, 8, 12])
    @pytest.mark.parametrize("field", [(1.0, 1.0), (2.5, 1.5), (1.25, 3.0)])
    def test_batch_key_matches_on_any_field(self, grid_size, field):
        """The key is built from the config and the field alone, yet equals
        the prepared problem's key on every grid size and field shape."""
        _net, ms, prior = _scenario(2)
        ms = dc.replace(ms, width=field[0], height=field[1])
        cfg = GridBPConfig(grid_size=grid_size, max_iterations=3)
        req = LocalizeRequest(measurements=ms, prior=prior, config=cfg)
        prob = GridBPLocalizer(prior=prior, config=cfg)._prepare(ms).problem
        assert request_batch_key(req) == compatibility_key(prob)
        assert prob.grid.width == field[0] and prob.grid.height == field[1]

    @pytest.mark.parametrize("field", [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)])
    def test_batch_key_rejects_bad_field(self, field):
        ms = SimpleNamespace(width=field[0], height=field[1])
        with pytest.raises(ValueError, match="must be a positive finite number"):
            request_batch_key(LocalizeRequest(measurements=ms))

    def test_incompatible_requests_run_in_separate_batches(self):
        async def main():
            svc = LocalizationService(
                ServeConfig(n_workers=0, max_batch=8, batch_window_s=0.02)
            )
            await svc.start()
            try:
                reqs = []
                for i in range(6):
                    cfg = dc.replace(CFG, grid_size=8 + (i % 2))
                    reqs.append(
                        LocalizeRequest(scenario=SCEN, seed=i, config=cfg)
                    )
                return await asyncio.gather(*[svc.submit(r) for r in reqs])
            finally:
                await svc.stop()

        resps = run(main())
        assert all(r.status == "ok" for r in resps)
        # two shapes, three requests each: no batch may exceed 3
        assert all(r.batch_size <= 3 for r in resps)
        assert any(r.batch_size == 3 for r in resps)

    def test_singleton_group_matches_reference_backend_bitwise(self):
        _net, ms, prior = _scenario(8)
        ref = ReferenceGridBP(prior=prior, config=CFG).localize(ms)
        payload = execute_batch(
            [{"measurements": ms, "prior": prior, "config": CFG}]
        )[0]
        assert payload["ok"]
        assert np.array_equal(
            payload["estimates"], ref.estimates, equal_nan=True
        )
        assert payload["n_iterations"] == ref.n_iterations
        assert payload["converged"] == ref.converged

    def test_multi_item_batch_matches_sequential_reference(self):
        items, refs = [], []
        for seed in (11, 12, 13):
            _net, ms, prior = _scenario(seed)
            items.append({"measurements": ms, "prior": prior, "config": CFG})
            refs.append(GridBPLocalizer(prior=prior, config=CFG).localize(ms))
        payloads = execute_batch(items)
        for payload, ref in zip(payloads, refs):
            assert np.array_equal(
                payload["estimates"], ref.estimates, equal_nan=True
            )
            assert payload["n_iterations"] == ref.n_iterations


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #
class _ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        clock = _ManualClock()
        br = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=clock)
        assert br.allow()
        br.record_failure()
        br.record_failure()
        assert br.allow()  # still closed below threshold
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        clock.t = 4.9
        assert not br.allow()  # cooldown not elapsed
        clock.t = 5.0
        assert br.allow()  # half-open probe
        assert not br.allow()  # only one probe at a time
        br.record_success()
        assert br.state == "closed"
        assert br.allow()
        assert br.trips == 1

    def test_half_open_failure_reopens(self):
        clock = _ManualClock()
        br = CircuitBreaker(threshold=2, cooldown_s=1.0, clock=clock)
        br.record_failure()
        br.record_failure()
        clock.t = 1.0
        assert br.allow()
        br.record_failure()  # probe failed -> straight back to open
        assert br.state == "open"
        assert not br.allow()
        assert br.trips == 2

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker(threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"


# ---------------------------------------------------------------------- #
# the in-process fast lane
# ---------------------------------------------------------------------- #
def _inline_service(**kw):
    defaults = dict(n_workers=0, max_batch=4, batch_window_s=0.005)
    defaults.update(kw)
    return LocalizationService(ServeConfig(**defaults))


class TestServiceFastLane:
    def test_smoke_two_requests_one_deadline_degrade(self):
        """The required smoke: two requests through an in-process server,
        one with a budget that forces the degraded path."""

        async def main():
            svc = _inline_service(batch_window_s=0.02)
            await svc.start()
            try:
                ok_fut = svc.submit(
                    LocalizeRequest(
                        scenario=SCEN, seed=1, config=CFG, request_id="ok"
                    )
                )
                # a budget far below the batch window forces expiry
                dl_fut = svc.submit(
                    LocalizeRequest(
                        scenario=SCEN, seed=2, config=CFG,
                        deadline_s=1e-6, request_id="deadline",
                    )
                )
                return await asyncio.gather(ok_fut, dl_fut), svc
            finally:
                await svc.stop()

        (ok, degraded), svc = run(main())
        assert ok.status == "ok"
        assert ok.answered and ok.mean_error is not None
        assert degraded.status == "degraded"
        assert degraded.reason == "deadline-expired"
        assert degraded.answered  # fallback estimates, not silence
        assert degraded.fallback_mask.sum() > 0
        wide = widened_sigma(1.0, 1.0)
        assert np.all(
            degraded.uncertainty[degraded.fallback_mask] == wide
        )
        counters = svc.metrics_snapshot()["counters"]
        assert counters["ok"] == 1
        assert counters["degraded"] == 1
        assert counters["expired"] == 1

    def test_backpressure_sheds_with_retry_hint(self):
        async def main():
            svc = _inline_service(queue_limit=2, batch_window_s=0.05)
            await svc.start()
            try:
                futs = [
                    svc.submit(
                        LocalizeRequest(
                            scenario=SCEN, seed=s, config=CFG,
                            request_id=f"r{s}",
                        )
                    )
                    for s in range(6)
                ]
                return await asyncio.gather(*futs)
            finally:
                await svc.stop()

        resps = run(main())
        statuses = [r.status for r in resps]
        assert statuses.count("shed") == 4  # beyond the 2-deep queue
        for r in resps:
            if r.status == "shed":
                assert r.reason == "queue-full"
                assert r.retry_after > 0
            else:
                assert r.status == "ok"

    def test_invalid_request_is_an_error_not_a_loss(self):
        async def main():
            svc = _inline_service()
            await svc.start()
            try:
                bad_scen = ScenarioConfig(n_nodes=5, anchor_ratio=0.99)
                return await svc.localize(
                    LocalizeRequest(scenario=bad_scen, config=CFG)
                )
            finally:
                await svc.stop()

        resp = run(main())
        assert resp.status == "error"
        assert resp.reason == "invalid-request"
        assert resp.error

    def test_shutdown_flushes_queued_requests(self):
        async def main():
            svc = _inline_service(batch_window_s=5.0)  # never fires
            await svc.start()
            fut = svc.submit(
                LocalizeRequest(scenario=SCEN, seed=1, config=CFG)
            )
            await svc.stop()
            return await fut

        resp = run(main())
        assert resp.status == "shed"
        assert resp.reason == "shutdown"

    def test_submit_after_stop_is_shed(self):
        async def main():
            svc = _inline_service()
            await svc.start()
            await svc.stop()
            return await svc.submit(
                LocalizeRequest(scenario=SCEN, seed=1, config=CFG)
            )

        assert run(main()).status == "shed"

    def test_execution_error_degrades_and_trips_breaker(self):
        async def main():
            svc = _inline_service(
                breaker_threshold=2, breaker_cooldown_s=60.0
            )
            await svc.start()

            async def boom(items, deadline_s, timeout):
                raise RemoteError("RuntimeError", "kernel exploded")

            svc.pool.run_batch = boom
            try:
                r1 = await svc.localize(
                    LocalizeRequest(scenario=SCEN, seed=1, config=CFG)
                )
                r2 = await svc.localize(
                    LocalizeRequest(scenario=SCEN, seed=2, config=CFG)
                )
                r3 = await svc.localize(
                    LocalizeRequest(scenario=SCEN, seed=3, config=CFG)
                )
                return r1, r2, r3, svc
            finally:
                await svc.stop()

        r1, r2, r3, svc = run(main())
        assert r1.status == "degraded" and r1.reason == "execution-error"
        assert r2.status == "degraded" and r2.reason == "execution-error"
        # third request hits the now-open breaker without executing
        assert r3.status == "degraded" and r3.reason == "breaker-open"
        assert r1.answered and r2.answered and r3.answered
        assert svc.breakers.snapshot()["trips"] == 1

    def test_degraded_fallback_carries_honest_uncertainty(self):
        async def main():
            svc = _inline_service()
            await svc.start()

            async def boom(items, deadline_s, timeout):
                raise RemoteError("RuntimeError", "down")

            svc.pool.run_batch = boom
            try:
                return await svc.localize(
                    LocalizeRequest(scenario=SCEN, seed=4, config=CFG)
                )
            finally:
                await svc.stop()

        resp = run(main())
        assert resp.degraded
        assert np.isfinite(resp.estimates).all()
        assert resp.localized_mask.all()
        unknown = resp.fallback_mask
        assert unknown.any()
        assert (resp.uncertainty[unknown] == widened_sigma(1.0, 1.0)).all()
        assert (resp.uncertainty[~unknown] == 0.0).all()
        assert resp.mean_error is not None  # scenario form knows the truth

    def test_metrics_snapshot_under_injected_clock(self, monkeypatch):
        """Two requests admitted at t = 0 and 0.05 s, dispatched at 0.1 s,
        solved in 0.25 s: latencies 350/300 ms, queue waits 100/50 ms."""
        clock = _ManualClock()

        def solve_quarter_second(items, deadline_s=None):
            clock.t += 0.25
            return execute_batch(items, deadline_s)

        monkeypatch.setattr(
            "repro.serve.workers.execute_batch", solve_quarter_second
        )

        async def main():
            svc = LocalizationService(
                ServeConfig(n_workers=0, max_batch=4, batch_window_s=0.005),
                clock=clock,
            )
            await svc.start()
            try:
                first = svc.submit(
                    LocalizeRequest(scenario=SCEN, seed=1, config=CFG)
                )
                clock.t = 0.05
                second = svc.submit(
                    LocalizeRequest(scenario=SCEN, seed=2, config=CFG)
                )
                clock.t = 0.1
                resps = await asyncio.gather(first, second)
                return resps, svc.metrics_snapshot()
            finally:
                await svc.stop()

        resps, snap = run(main())
        assert [r.status for r in resps] == ["ok", "ok"]
        assert snap["latency_ms"] == {
            "n": 2, "p50": 325.0, "p99": 349.5, "mean": 325.0
        }
        assert snap["queue_wait_ms"] == {
            "n": 2, "p50": 75.0, "p99": 99.5, "mean": 75.0
        }
        assert snap["batch"] == {"count": 1, "mean_occupancy": 2.0, "max_size": 2}
        # the counters perfbench's serve-closed workload reads
        assert snap["counters"]["batches"] == 1
        assert snap["counters"]["batched_requests"] == 2
        assert snap["counters"]["submitted"] == snap["counters"]["ok"] == 2
        assert snap["queue_depth"] == 0
        assert snap["workers"]["inline"] is True


# ---------------------------------------------------------------------- #
# JSON-lines TCP front end
# ---------------------------------------------------------------------- #
class TestServer:
    def test_tcp_roundtrip_and_ops(self):
        async def main():
            server = LocalizationServer(_inline_service())
            host, port = await server.start()
            client = await ServeClient(host, port).connect()
            try:
                assert await client.ready() is True
                health = await client.health()
                assert health["status"] == "ok"
                resp = await client.localize(
                    scenario={
                        "n_nodes": 18,
                        "anchor_ratio": 0.25,
                        "radio_range": 0.42,
                    },
                    seed=1,
                    config={"grid_size": 9, "max_iterations": 8},
                )
                metrics = await client.metrics()
                bad = await client.localize(config={"grid_size": 9})
                unknown_cfg = await client.localize(
                    scenario={"n_nodes": 18}, config={"nonsense": 1}
                )
                return resp, metrics, bad, unknown_cfg
            finally:
                await client.close()
                await server.stop()

        resp, metrics, bad, unknown_cfg = run(main())
        assert resp["status"] == "ok"
        assert resp["n_iterations"] >= 1
        assert resp["mean_error"] is not None
        assert metrics["counters"]["ok"] == 1
        assert bad["status"] == "error"
        assert unknown_cfg["status"] == "error"
        assert "nonsense" in unknown_cfg["error"]

    def test_measurement_form_roundtrip(self):
        from repro.io import measurements_to_dict

        _net, ms, _prior = _scenario(5)
        ref = GridBPLocalizer(config=CFG).localize(ms)

        async def main():
            server = LocalizationServer(_inline_service())
            host, port = await server.start()
            client = await ServeClient(host, port).connect()
            try:
                return await client.localize(
                    measurements=measurements_to_dict(ms),
                    config={"grid_size": 9, "max_iterations": 8},
                )
            finally:
                await client.close()
                await server.stop()

        resp = run(main())
        assert resp["status"] == "ok"
        est = np.array(
            [
                [np.nan if v is None else v for v in row]
                for row in resp["estimates"]
            ]
        )
        mask = np.array(resp["localized_mask"], dtype=bool)
        assert np.array_equal(est[mask], ref.estimates[mask])

    def test_malformed_line_gets_error_reply(self):
        async def main():
            server = LocalizationServer(_inline_service())
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                import json

                reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return reply
            finally:
                await server.stop()

        reply = run(main())
        assert reply["status"] == "error"

    def test_pipelined_requests_on_one_connection(self):
        async def main():
            server = LocalizationServer(
                _inline_service(max_batch=4, batch_window_s=0.02)
            )
            host, port = await server.start()
            client = await ServeClient(host, port).connect()
            try:
                scen_wire = {
                    "n_nodes": 18,
                    "anchor_ratio": 0.25,
                    "radio_range": 0.42,
                }
                cfg_wire = {"grid_size": 9, "max_iterations": 8}
                return await asyncio.gather(
                    *[
                        client.localize(
                            scenario=scen_wire, seed=s, config=cfg_wire
                        )
                        for s in range(4)
                    ]
                )
            finally:
                await client.close()
                await server.stop()

        resps = run(main())
        assert [r["status"] for r in resps] == ["ok"] * 4
        assert {r["batch_size"] for r in resps} == {4}  # co-batched


# ---------------------------------------------------------------------- #
# warm process pool (slow lane)
# ---------------------------------------------------------------------- #
@pytest.mark.slow
class TestProcessPool:
    def test_probe_replaces_idle_dead_worker(self):
        async def main():
            svc = LocalizationService(
                ServeConfig(n_workers=1, probe_interval_s=0.05)
            )
            await svc.start()
            try:
                victim = svc.pool._pool.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    snap = svc.pool.snapshot()
                    if snap["replacements"] >= 1 and snap["alive"] >= 1:
                        break
                resp = await svc.localize(
                    LocalizeRequest(scenario=SCEN, seed=2, config=CFG)
                )
                return resp, svc.pool.snapshot()
            finally:
                await svc.stop()

        resp, snap = run(main())
        assert snap["replacements"] >= 1
        assert resp.status == "ok"

    def test_worker_batch_matches_inline_bitwise(self):
        _net, ms, prior = _scenario(21)
        ref = GridBPLocalizer(prior=prior, config=CFG).localize(ms)

        async def main():
            svc = LocalizationService(ServeConfig(n_workers=1))
            await svc.start()
            try:
                return await svc.localize(
                    LocalizeRequest(
                        measurements=ms, prior=prior, config=CFG
                    )
                )
            finally:
                await svc.stop()

        resp = run(main())
        assert resp.status == "ok"
        assert np.array_equal(resp.estimates, ref.estimates, equal_nan=True)
        assert resp.n_iterations == ref.n_iterations
