"""E18 — localization-as-a-service under fire: the robustness envelope.

Replays two request lanes against a live :mod:`repro.serve` server
(JSON lines over TCP, warm process-pool workers, micro-batching):

* **healthy + murdered worker** — clean synthetic scenarios; halfway
  through the run one worker process is SIGKILLed mid-traffic.  The
  pool must detect the crash, retry the in-flight batch on a surviving
  worker, and spawn a warm replacement — with **zero lost requests**.
* **fault-injected** — every request's measurements are first degraded
  through a seeded :class:`~repro.faults.FaultPlan` (anchor failures,
  link loss, outlier bursts) and carry a latency budget, exercising the
  degradation ladder (partial-BP answers, fallback estimates) under the
  same zero-lost contract.

The acceptance gate is the service's core invariant: every admitted
request gets a full answer or a flagged degraded/shed response — never
silence.  Throughput, latency percentiles, and shed/degraded counts for
both lanes are written to ``BENCH_e18.json`` at the repo root.
"""

import asyncio
import json
import os
import signal
from pathlib import Path

import pytest
from conftest import report

from repro.faults.plan import FaultPlan
from repro.serve import (
    LoadSpec,
    LocalizationServer,
    LocalizationService,
    ServeConfig,
    run_load,
)

SEED = 0
N_REQUESTS = 32
SERVE = ServeConfig(
    n_workers=2,
    queue_limit=24,
    max_batch=6,
    batch_window_s=0.01,
    probe_interval_s=0.2,
    exec_timeout_s=60.0,
)
HEALTHY = LoadSpec(
    n_requests=N_REQUESTS,
    concurrency=8,
    n_nodes=25,
    anchor_ratio=0.24,
    radio_range=0.35,
    grid_size=12,
    max_iterations=10,
    seed=SEED,
)
FAULTED = LoadSpec(
    n_requests=N_REQUESTS,
    concurrency=8,
    n_nodes=25,
    anchor_ratio=0.24,
    radio_range=0.35,
    grid_size=12,
    max_iterations=10,
    seed=SEED,
    deadline_s=10.0,
    fault_plan=FaultPlan(
        seed=7,
        anchor_failure_rate=0.25,
        link_loss_rate=0.15,
        outlier_fraction=0.1,
        outlier_bias_ratio=1.0,
    ),
)


def run_experiment():
    async def main():
        service = LocalizationService(SERVE)
        server = LocalizationServer(service)
        host, port = await server.start()

        killed = {}

        async def murder_worker():
            victim = service.pool._pool.worker_pids()[0]
            killed["pid"] = victim
            os.kill(victim, signal.SIGKILL)

        healthy = await run_load(
            host, port, HEALTHY, mid_run_hook=murder_worker
        )
        replacements_after_kill = service.pool.replacements
        faulted = await run_load(host, port, FAULTED)
        metrics = service.metrics_snapshot()
        await server.stop()
        return {
            "healthy_lane": healthy.to_dict(),
            "faulted_lane": faulted.to_dict(),
            "killed_worker_pid": killed.get("pid"),
            "worker_replacements": replacements_after_kill,
            "server_metrics": {
                "counters": metrics["counters"],
                "batch": metrics["batch"],
                "latency_ms": metrics["latency_ms"],
            },
            "serve_config": {
                "n_workers": SERVE.n_workers,
                "queue_limit": SERVE.queue_limit,
                "max_batch": SERVE.max_batch,
                "batch_window_ms": SERVE.batch_window_s * 1e3,
            },
        }

    return asyncio.run(main())


def _lane_line(name, lane):
    lat = lane["latency_ms"] or {}
    return (
        f"{name:>8}: {lane['answered']}/{lane['n_requests']} answered "
        f"(ok {lane['statuses'].get('ok', 0)}, "
        f"degraded {lane['statuses'].get('degraded', 0)}, "
        f"final-shed {lane['statuses'].get('shed', 0)}), "
        f"lost {lane['lost']}, shed-retries {lane['shed_retries']}, "
        f"{lane['throughput_rps']} req/s, "
        f"p50 {lat.get('p50')} ms, p99 {lat.get('p99')} ms, "
        f"mean err {lane['mean_error_ok']}"
    )


@pytest.mark.perf
@pytest.mark.slow
def test_e18_serving(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    healthy = out["healthy_lane"]
    faulted = out["faulted_lane"]
    text = (
        "E18: localization service under worker murder and fault "
        f"injection ({N_REQUESTS} requests/lane, {SERVE.n_workers} workers, "
        f"max batch {SERVE.max_batch})\n"
        + _lane_line("healthy", healthy)
        + "\n"
        + _lane_line("faulted", faulted)
        + f"\nSIGKILLed worker {out['killed_worker_pid']} mid-run; "
        f"{out['worker_replacements']} replacement(s) spawned; "
        f"degraded reasons (faulted lane): {faulted['degraded_reasons']}"
    )
    report("e18_serving", text)
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_e18.json"
    bench_path.write_text(json.dumps(out, indent=2) + "\n")

    # --- the acceptance gate: zero lost requests in BOTH lanes --------- #
    assert healthy["lost"] == 0
    assert faulted["lost"] == 0
    # every request reached a terminal outcome
    for lane in (healthy, faulted):
        assert sum(lane["statuses"].values()) == lane["n_requests"]

    # the worker was really murdered and really replaced
    assert out["killed_worker_pid"] is not None
    assert out["worker_replacements"] >= 1

    # healthy lane answered everything (sheds are transient, retried)
    assert healthy["answered"] == healthy["n_requests"]
    assert healthy["statuses"].get("error", 0) == 0

    # faulted lane: every request answered (full or flagged degraded) —
    # measurement-level faults degrade accuracy, not availability
    assert faulted["answered"] == faulted["n_requests"]

    # the service actually micro-batched under concurrent load
    assert out["server_metrics"]["batch"]["max_size"] > 1

    # faults cost accuracy, visibly but not catastrophically
    assert faulted["mean_error_ok"] is None or (
        faulted["mean_error_ok"] > healthy["mean_error_ok"]
    )

    # latency telemetry is present and sane
    assert healthy["latency_ms"]["p50"] > 0
    assert healthy["latency_ms"]["p99"] >= healthy["latency_ms"]["p50"]
