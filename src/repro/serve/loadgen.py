"""Load generator for the localization service (the E18 driver).

Builds a deterministic stream of measurement-form requests client-side
(one synthetic scenario per request, seeded off the spec), optionally
degrades each through a :class:`~repro.faults.FaultPlan` — the faulted
lane of E18 — and replays them against a live server over one pipelined
:class:`~repro.serve.server.ServeClient` connection with bounded
concurrency.  Shed responses are retried after the server's
``retry_after`` hint, so the report distinguishes *final* sheds (the
client gave up) from transient backpressure.

The report's ``lost`` count is the acceptance gate: requests that never
got a terminal response.  A correct service keeps it at zero through
worker murder and fault injection alike.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import reservoir_summary
from repro.serve.server import ServeClient

__all__ = ["LoadSpec", "LoadReport", "build_request_payloads", "run_load"]


@dataclass(frozen=True)
class LoadSpec:
    """What to throw at the server."""

    n_requests: int = 40
    concurrency: int = 8
    n_nodes: int = 25
    anchor_ratio: float = 0.24
    radio_range: float = 0.35
    noise_ratio: float = 0.1
    grid_size: int = 12
    max_iterations: int = 12
    deadline_s: float | None = None
    seed: int = 0
    fault_plan: object | None = None  # FaultPlan for the degraded lane
    max_shed_retries: int = 100

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


@dataclass
class LoadReport:
    """Outcome of one load run (JSON-safe via :meth:`to_dict`)."""

    n_requests: int = 0
    wall_s: float = 0.0
    statuses: dict = field(default_factory=dict)
    degraded_reasons: dict = field(default_factory=dict)
    lost: int = 0
    shed_retries: int = 0
    latencies_s: list = field(default_factory=list)
    mean_error_ok: float | None = None
    mean_error_degraded: float | None = None

    @property
    def answered(self) -> int:
        return self.statuses.get("ok", 0) + self.statuses.get("degraded", 0)

    def to_dict(self) -> dict:
        lat = reservoir_summary([s * 1e3 for s in self.latencies_s])
        return {
            "n_requests": self.n_requests,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": (
                round(self.answered / self.wall_s, 3) if self.wall_s > 0 else None
            ),
            "statuses": dict(self.statuses),
            "degraded_reasons": dict(self.degraded_reasons),
            "answered": self.answered,
            "lost": self.lost,
            "shed_retries": self.shed_retries,
            "latency_ms": {
                k: round(v, 3) if isinstance(v, float) else v
                for k, v in lat.items()
            }
            if self.latencies_s
            else None,
            "mean_error_ok": self.mean_error_ok,
            "mean_error_degraded": self.mean_error_degraded,
        }


def build_request_payloads(spec: LoadSpec) -> list[dict]:
    """Deterministic request stream: wire payload + true positions each.

    Scenario *i* is built from ``seed = spec.seed + i``; with a fault
    plan, request *i* is degraded under ``plan.seed + i`` so every
    request sees an independent (but reproducible) fault draw.
    """
    from repro.experiments.config import ScenarioConfig, build_scenario
    from repro.io import measurements_to_dict

    scen = ScenarioConfig(
        n_nodes=spec.n_nodes,
        anchor_ratio=spec.anchor_ratio,
        radio_range=spec.radio_range,
        noise_ratio=spec.noise_ratio,
    )
    config_wire = {
        "grid_size": spec.grid_size,
        "max_iterations": spec.max_iterations,
    }
    payloads = []
    for i in range(spec.n_requests):
        network, ms, _prior = build_scenario(scen, seed=spec.seed + i)
        if spec.fault_plan is not None:
            from repro.faults.inject import degrade_measurements

            plan = dataclasses.replace(
                spec.fault_plan, seed=spec.fault_plan.seed + i
            )
            ms, _log = degrade_measurements(ms, plan)
        wire: dict = {
            "measurements": measurements_to_dict(ms),
            "config": config_wire,
        }
        if spec.deadline_s is not None:
            wire["deadline_s"] = spec.deadline_s
        payloads.append(
            {
                "wire": wire,
                "true_positions": network.positions,
                "anchor_mask": ms.anchor_mask,
            }
        )
    return payloads


def _request_error(resp: dict, payload: dict) -> float | None:
    """Client-side mean localization error of a response, if computable."""
    est = resp.get("estimates")
    if est is None:
        return None
    est = np.asarray(
        [[np.nan if v is None else v for v in row] for row in est], dtype=float
    )
    unknown = ~payload["anchor_mask"]
    diff = est[unknown] - payload["true_positions"][unknown]
    err = np.linalg.norm(diff, axis=1)
    err = err[np.isfinite(err)]
    return float(err.mean()) if len(err) else None


async def run_load(
    host: str,
    port: int,
    spec: LoadSpec,
    payloads: list[dict] | None = None,
    mid_run_hook=None,
) -> LoadReport:
    """Replay the spec's request stream against a live server.

    *mid_run_hook*, if given, is an async callable invoked once after
    roughly half the requests have been **submitted** — E18 uses it to
    SIGKILL a worker while traffic is in flight.
    """
    if payloads is None:
        payloads = build_request_payloads(spec)
    report = LoadReport(n_requests=len(payloads))
    sem = asyncio.Semaphore(spec.concurrency)
    client = await ServeClient(host, port).connect()
    errors_ok: list[float] = []
    errors_degraded: list[float] = []
    hook_at = max(1, len(payloads) // 2)
    submitted = 0
    hook_task: asyncio.Task | None = None

    async def one(i: int, payload: dict) -> None:
        nonlocal submitted, hook_task
        async with sem:
            submitted += 1
            if mid_run_hook is not None and submitted == hook_at and hook_task is None:
                hook_task = asyncio.create_task(mid_run_hook())
            t0 = time.perf_counter()
            resp: dict | None = None
            for _retry in range(spec.max_shed_retries + 1):
                resp = await client.localize(**dict(payload["wire"]))
                if resp.get("status") != "shed":
                    break
                report.shed_retries += 1
                await asyncio.sleep(float(resp.get("retry_after") or 0.05))
            latency = time.perf_counter() - t0
            status = resp.get("status") if resp else None
            if status is None:
                report.lost += 1
                return
            report.statuses[status] = report.statuses.get(status, 0) + 1
            if status == "degraded":
                reason = resp.get("reason") or "unknown"
                report.degraded_reasons[reason] = (
                    report.degraded_reasons.get(reason, 0) + 1
                )
            if status in ("ok", "degraded"):
                report.latencies_s.append(latency)
                err = _request_error(resp, payload)
                if err is not None:
                    (errors_ok if status == "ok" else errors_degraded).append(err)
            elif status not in ("shed", "error"):
                report.lost += 1

    t_start = time.perf_counter()
    try:
        results = await asyncio.gather(
            *[one(i, p) for i, p in enumerate(payloads)],
            return_exceptions=True,
        )
        for res in results:
            if isinstance(res, BaseException):
                report.lost += 1
        if hook_task is not None:
            await hook_task
    finally:
        await client.close()
    report.wall_s = time.perf_counter() - t_start
    if errors_ok:
        report.mean_error_ok = round(float(np.mean(errors_ok)), 5)
    if errors_degraded:
        report.mean_error_degraded = round(float(np.mean(errors_degraded)), 5)
    return report
