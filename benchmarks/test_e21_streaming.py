"""E21 — fleet-scale streaming tracking under chaos (extension experiment).

Two lanes against the :mod:`repro.stream` runtime:

* **throughput** — a clean step-major feed from 100+ concurrent mobile
  networks, solved in-process.  Reports sustained belief updates/sec and
  p99 staleness, and compares the warm-started path (previous posterior,
  motion-diffused, few BP iterations) against two memoryless cold
  baselines at full iterations: the *same grid* (cheaper but far less
  accurate) and the *accuracy-matched grid* — the resolution a cold
  solver needs just to approach the warm path's error.  The warm path
  must be ≥2× faster than the accuracy-matched baseline while being at
  least as accurate as both, with E16-style tracking coverage preserved:
  temporal pre-knowledge buys accuracy-per-compute that memoryless
  re-solving cannot reach by spending more grid.
* **chaos** — a smaller fleet on a 2-worker spawn pool with ≥10% of
  events late/duplicated/dropped, a `FaultPlan` degrading a subset of
  networks, and one worker SIGKILLed mid-run.  Gated on the tentpole
  contract: zero lost networks, the murdered worker replaced, and the
  run's ckpt ledger resuming bit-identically without workers.

Results land in ``BENCH_e21.json`` at the repo root.
"""

import json
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import report

from repro.ckpt import Checkpoint
from repro.core.bnloc import GridBPConfig
from repro.faults import FaultPlan
from repro.serve.workers import execute_batch
from repro.stream import (
    FleetConfig,
    InlineExecutor,
    PoolExecutor,
    StreamConfig,
    StreamDisruption,
    StreamRuntime,
    fleet_events,
    run_stream,
    stream_meta,
)

SEED = 21

# --- throughput lane: 100 networks, clean feed, inline ----------------- #
THROUGHPUT_FLEET = FleetConfig(
    n_networks=100,
    n_nodes=12,
    anchor_ratio=0.3,
    n_steps=5,
    radio_range=0.4,
    noise_sigma=0.02,
    step_sigma=0.025,
    seed=SEED,
)
THROUGHPUT_STREAM = StreamConfig(
    grid_size=12,
    warm_iterations=2,
    cold_iterations=10,
    batch_max=32,
    max_ready_burst=8,
)
#: Cold baselines: same grid at full iterations (cheaper but much less
#: accurate), and the grid a memoryless solver needs to *approach* the
#: warm path's accuracy — the honest "matched accuracy" comparison.
COLD_SAME_GRID = 12
COLD_MATCHED_GRID = 20

# --- chaos lane: hostile feed + faults + worker murder ----------------- #
CHAOS_FLEET = FleetConfig(
    n_networks=24,
    n_nodes=12,
    anchor_ratio=0.3,
    n_steps=3,
    radio_range=0.4,
    noise_sigma=0.02,
    step_sigma=0.025,
    seed=SEED,
    fault_plan=FaultPlan(
        anchor_failure_rate=0.4,
        link_loss_rate=0.25,
        outlier_fraction=0.25,
        outlier_bias_ratio=1.5,
        seed=5,
    ),
    faulted_networks=(0, 1, 2),
)
CHAOS_STREAM = StreamConfig(
    grid_size=12,
    warm_iterations=3,
    cold_iterations=10,
    batch_max=32,
    max_ready_burst=8,
    n_workers=2,
)
CHAOS_PLAN = StreamDisruption(
    late_rate=0.1, duplicate_rate=0.05, drop_rate=0.05, max_lag=6, seed=3
)


def _fleet_accuracy_and_coverage(result, events, fleet):
    """Mean final-step error (radio-normalized) over unknowns, plus the
    E16-style coverage: localized-and-not-degraded step fraction."""
    truth = {}
    anchors = {}
    for e in events:
        truth[(e.network_id, e.step)] = e.true_positions
        anchors[e.network_id] = e.measurements.anchor_mask
    errs, covered, total = [], 0, 0
    for nid, tr in result.networks.items():
        unknown = ~anchors[nid]
        t_final = tr.estimates.shape[0] - 1
        pos = truth.get((nid, t_final))
        if pos is not None:
            e = np.linalg.norm(tr.estimates[t_final] - pos, axis=1)[unknown]
            errs.extend(e[np.isfinite(e)] / fleet.radio_range)
        good = tr.localized & ~tr.extras["degraded"][:, None]
        covered += int(good[:, unknown].sum())
        total += int(good[:, unknown].size)
    return float(np.mean(errs)), covered / total


def _cold_baseline(events, fleet, stream, grid_size):
    """Memoryless re-localization: every epoch solved cold at full
    iterations, batched per step exactly like the runtime batches."""
    cfg = GridBPConfig(
        grid_size=grid_size, max_iterations=stream.cold_iterations
    )
    by_step: dict[int, list] = {}
    for e in events:
        by_step.setdefault(e.step, []).append(e)
    t0 = time.perf_counter()
    errs = []
    for step in sorted(by_step):
        epochs = by_step[step]
        for lo in range(0, len(epochs), stream.batch_max):
            chunk = epochs[lo : lo + stream.batch_max]
            items = [
                {"measurements": e.measurements, "config": cfg} for e in chunk
            ]
            payloads = execute_batch(items, None)
            if step == fleet.n_steps:
                for e, p in zip(chunk, payloads):
                    unknown = ~e.measurements.anchor_mask
                    err = np.linalg.norm(
                        np.asarray(p["estimates"]) - e.true_positions, axis=1
                    )[unknown]
                    errs.extend(err[np.isfinite(err)] / fleet.radio_range)
    elapsed = time.perf_counter() - t0
    n_updates = len(events)
    return {
        "grid_size": grid_size,
        "elapsed_s": round(elapsed, 3),
        "updates_per_sec": round(n_updates / elapsed, 1),
        "mean_error_final": round(float(np.mean(errs)), 4),
        "iterations": stream.cold_iterations,
    }


def _throughput_lane():
    events = fleet_events(THROUGHPUT_FLEET)
    result = run_stream(THROUGHPUT_FLEET, THROUGHPUT_STREAM)
    warm_err, coverage = _fleet_accuracy_and_coverage(
        result, events, THROUGHPUT_FLEET
    )
    cold_same = _cold_baseline(
        events, THROUGHPUT_FLEET, THROUGHPUT_STREAM, COLD_SAME_GRID
    )
    cold_matched = _cold_baseline(
        events, THROUGHPUT_FLEET, THROUGHPUT_STREAM, COLD_MATCHED_GRID
    )
    m = result.metrics
    warm = {
        "grid_size": THROUGHPUT_STREAM.grid_size,
        "elapsed_s": round(m["elapsed_s"], 3),
        "updates_per_sec": round(m["updates_per_sec"], 1),
        "staleness_ms": m["staleness_ms"],
        "mean_error_final": round(warm_err, 4),
        "coverage": round(coverage, 4),
        "iterations": THROUGHPUT_STREAM.warm_iterations,
        "counters": m["counters"],
    }
    return {
        "n_networks": THROUGHPUT_FLEET.n_networks,
        "n_updates": len(events),
        "warm": warm,
        "cold_same_grid": cold_same,
        "cold_matched": cold_matched,
        "speedup_vs_matched": round(
            cold_matched["elapsed_s"] / m["elapsed_s"], 2
        ),
        "lost_networks": result.lost_networks,
    }


def _chaos_lane(ledger_path):
    events = fleet_events(CHAOS_FLEET)
    hostile, stats = CHAOS_PLAN.apply(events)
    pool = PoolExecutor(CHAOS_STREAM)
    ck = Checkpoint(ledger_path).open(
        stream_meta(CHAOS_FLEET, CHAOS_STREAM, CHAOS_PLAN)
    )
    killed = {}

    def murder():
        pid = pool.pool.worker_pids()[0]
        killed["pid"] = pid
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:  # pragma: no cover - worker already gone
            pass

    timer = threading.Timer(0.75, murder)
    timer.start()
    try:
        runtime = StreamRuntime(
            CHAOS_STREAM,
            executor=pool,
            checkpoint=ck,
            expected_networks=CHAOS_FLEET.n_networks,
        )
        result = runtime.run(
            hostile,
            final_step=CHAOS_FLEET.n_steps,
            network_ids=range(CHAOS_FLEET.n_networks),
            n_nodes=CHAOS_FLEET.n_nodes,
        )
    finally:
        timer.cancel()
        replacements = pool.pool.replacements
        pool.close()
        ck.close()

    # Resume the chaos ledger without any workers: pure replay, and the
    # replayed fleet must be bit-identical to the live chaos run.
    ck2 = Checkpoint(ledger_path).open(
        stream_meta(CHAOS_FLEET, CHAOS_STREAM, CHAOS_PLAN)
    )
    try:
        resumed = StreamRuntime(
            CHAOS_STREAM,
            executor=InlineExecutor(),
            checkpoint=ck2,
            expected_networks=CHAOS_FLEET.n_networks,
        ).run(
            hostile,
            final_step=CHAOS_FLEET.n_steps,
            network_ids=range(CHAOS_FLEET.n_networks),
            n_nodes=CHAOS_FLEET.n_nodes,
        )
    finally:
        ck2.close()
    identical = all(
        np.array_equal(
            result.networks[nid].estimates, resumed.networks[nid].estimates
        )
        and np.array_equal(
            result.networks[nid].extras["degraded"],
            resumed.networks[nid].extras["degraded"],
        )
        for nid in result.networks
    )
    total_cells = CHAOS_FLEET.n_networks * (CHAOS_FLEET.n_steps + 1)
    m = result.metrics
    return {
        "n_networks": CHAOS_FLEET.n_networks,
        "faulted_networks": list(CHAOS_FLEET.faulted_networks),
        "disruption": {
            "n_events": stats.n_events,
            "n_delayed": stats.n_delayed,
            "n_duplicated": stats.n_duplicated,
            "n_dropped": stats.n_dropped,
            "disrupted_fraction": round(stats.disrupted_fraction, 3),
        },
        "killed_worker_pid": killed.get("pid"),
        "worker_replacements": replacements,
        "counters": m["counters"],
        "updates_per_sec": round(m["updates_per_sec"], 1),
        "staleness_ms": m["staleness_ms"],
        "lost_networks": result.lost_networks,
        "resume_replayed_all": resumed.metrics["counters"].get("replayed", 0)
        == total_cells,
        "resume_bit_identical": identical,
    }


def run_experiment():
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "throughput_lane": _throughput_lane(),
            "chaos_lane": _chaos_lane(Path(tmp) / "chaos.jsonl"),
        }


@pytest.mark.perf
@pytest.mark.slow
@pytest.mark.stream
def test_e21_streaming(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    tp, chaos = out["throughput_lane"], out["chaos_lane"]
    warm = tp["warm"]
    cold_same, cold_matched = tp["cold_same_grid"], tp["cold_matched"]
    text = (
        f"E21: streaming tracking at {tp['n_networks']} concurrent networks "
        f"({tp['n_updates']} belief updates)\n"
        f"    warm: {warm['updates_per_sec']} updates/s "
        f"(grid {warm['grid_size']}, {warm['iterations']} BP iters, "
        f"warm-started), "
        f"staleness p50 {warm['staleness_ms']['p50']:.1f} ms "
        f"p99 {warm['staleness_ms']['p99']:.1f} ms, "
        f"final err {warm['mean_error_final']} r, "
        f"coverage {warm['coverage']}\n"
        f"    cold: same grid {cold_same['updates_per_sec']} updates/s at "
        f"err {cold_same['mean_error_final']} r; accuracy-matched "
        f"(grid {cold_matched['grid_size']}) "
        f"{cold_matched['updates_per_sec']} updates/s at "
        f"err {cold_matched['mean_error_final']} r "
        f"-> warm speedup {tp['speedup_vs_matched']}x\n"
        f"   chaos: {chaos['n_networks']} networks, "
        f"{chaos['disruption']['disrupted_fraction']:.0%} of events "
        f"late/dup/dropped, faults on {chaos['faulted_networks']}, "
        f"worker {chaos['killed_worker_pid']} SIGKILLed "
        f"({chaos['worker_replacements']} replacement(s)); "
        f"lost networks: {chaos['lost_networks']}; "
        f"ledger resume bit-identical: {chaos['resume_bit_identical']}"
    )
    report("e21_streaming", text)
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_e21.json"
    bench_path.write_text(json.dumps(out, indent=2) + "\n")

    # --- throughput lane gates ---------------------------------------- #
    assert tp["n_networks"] >= 100
    assert tp["lost_networks"] == []
    assert warm["counters"]["solved"] == tp["n_updates"]
    # warm-started streaming is ≥2× faster than the cold re-solve that
    # comes closest to its accuracy (pre-knowledge buys compute) ...
    assert tp["speedup_vs_matched"] >= 2.0
    # ... at matched-or-better accuracy, not by corner-cutting: the warm
    # path is at least as accurate as BOTH cold baselines
    assert warm["mean_error_final"] <= cold_matched["mean_error_final"] + 0.01
    assert warm["mean_error_final"] <= cold_same["mean_error_final"] + 0.01
    # ... with E16-style tracking coverage preserved on a clean feed
    assert warm["coverage"] >= 0.99
    assert warm["staleness_ms"]["p99"] > 0

    # --- chaos lane gates: the tentpole contract ----------------------- #
    assert chaos["disruption"]["disrupted_fraction"] >= 0.10
    assert chaos["killed_worker_pid"] is not None
    assert chaos["worker_replacements"] >= 1
    assert chaos["lost_networks"] == []
    assert chaos["resume_replayed_all"]
    assert chaos["resume_bit_identical"]
