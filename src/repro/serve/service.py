"""The asyncio localization service.

Request lifecycle::

    submit() ──► admission (bounded queue; full ⇒ shed + retry_after)
             ──► per-key micro-batch bucket (batch window / max_batch)
             ──► dispatch: expire check ─ breaker check ─ worker pool
             ──► resolve: ok | degraded (partial BP, fallback) — always

The invariant the whole module is built around: **every admitted request
gets exactly one response.**  Shedding happens only *before* admission;
after it, every path — deadline expiry, circuit breaker, worker crash
with retries exhausted, batch execution error, service shutdown, even an
internal dispatcher bug — resolves the request's future with a response
(possibly degraded, never lost).

Deadlines are cooperative end to end: the remaining budget at dispatch
travels into the worker as a :func:`repro.kernels.deadline_scope`, so BP
stops *between rounds* when the budget expires and the partial posterior
comes back flagged rather than discarded.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import Tracer, reservoir_summary
from repro.parallel.pool import CALL_ATTEMPTS, RemoteError, WorkerCrash
from repro.serve.breaker import BreakerRegistry
from repro.serve.types import (
    LocalizeRequest,
    LocalizeResponse,
    request_batch_key,
    widened_sigma,
)
from repro.serve.workers import DeadlineExpired, WorkerPool

__all__ = ["ServeConfig", "LocalizationService"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the robustness envelope."""

    n_workers: int = 0              # 0 = in-process (tests, single-proc)
    queue_limit: int = 64           # admission bound; beyond ⇒ shed
    max_batch: int = 8              # micro-batch size cap
    batch_window_s: float = 0.01    # wait this long to fill a batch
    default_deadline_s: float | None = None
    exec_timeout_s: float = 60.0    # hard cap on one worker call
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    probe_interval_s: float = 1.0
    probe_timeout_s: float = 2.0
    retry_after_s: float = 0.25     # backoff hint on shed responses

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class _Pending:
    """An admitted request waiting in (or moving through) the pipeline."""

    request: LocalizeRequest
    ms: object
    prior: object
    true_positions: object
    key: tuple
    future: asyncio.Future
    admitted_at: float
    deadline_at: float | None
    batch_size: int = 0

    def remaining(self, now: float) -> float | None:
        if self.deadline_at is None:
            return None
        return self.deadline_at - now


class LocalizationService:
    """Micro-batching localization service with a robustness envelope."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.clock = clock
        # Written only on the event loop: pool threads never touch it.
        self.metrics = Tracer()
        self.metrics.annotate("component", "serve")
        self.breakers = BreakerRegistry(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=clock,
        )
        self.pool = WorkerPool(
            self.config.n_workers, probe_timeout_s=self.config.probe_timeout_s
        )
        self._buckets: dict[tuple, list[_Pending]] = {}
        self._flush_handles: dict[tuple, object] = {}
        self._batch_tasks: set[asyncio.Task] = set()
        self._probe_task: asyncio.Task | None = None
        self._exec_sem: asyncio.Semaphore | None = None
        self._depth = 0
        self.running = False

    # ------------------------------------------------------------------ #
    # lifecycle

    async def start(self) -> None:
        if self.running:
            return
        await self.pool.start()
        self._exec_sem = asyncio.Semaphore(max(1, self.config.n_workers))
        self.running = True
        if not self.pool.inline and self.config.probe_interval_s > 0:
            self._probe_task = asyncio.create_task(self._probe_loop())

    async def stop(self) -> None:
        """Stop admitting, flush everything in flight, release workers."""
        self.running = False
        for handle in self._flush_handles.values():
            handle.cancel()
        self._flush_handles.clear()
        # Queued-but-undispatched requests are shed (they were admitted,
        # so they still get a response — the shed kind).
        for bucket in self._buckets.values():
            for p in bucket:
                self._resolve(p, self._shed_response(p.request, "shutdown"))
        self._buckets.clear()
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        await self.pool.stop()

    async def _probe_loop(self) -> None:
        while self.running:
            await asyncio.sleep(self.config.probe_interval_s)
            try:
                await self.pool.probe()
            except Exception:  # supervision must survive anything
                self.metrics.count("probe_errors")
            else:
                self.metrics.count("probes")

    # ------------------------------------------------------------------ #
    # admission

    def submit(self, request: LocalizeRequest) -> asyncio.Future:
        """Admit (or shed) a request; returns a future of the response."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        now = self.clock()
        self.metrics.count("submitted")
        if not self.running:
            future.set_result(self._shed_response(request, "shutdown"))
            self.metrics.count("shed")
            return future
        if self._depth >= self.config.queue_limit:
            future.set_result(self._shed_response(request, "queue-full"))
            self.metrics.count("shed")
            return future
        try:
            ms, prior, true_positions = self._resolve_problem(request)
        except Exception as exc:
            future.set_result(
                LocalizeResponse(
                    request_id=request.request_id,
                    status="error",
                    reason="invalid-request",
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            self.metrics.count("invalid")
            return future
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        pending = _Pending(
            request=request,
            ms=ms,
            prior=prior,
            true_positions=true_positions,
            key=request_batch_key(request),
            future=future,
            admitted_at=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
        )
        self._depth += 1
        self.metrics.gauge_max("max_queue_depth", self._depth)
        self._enqueue(pending)
        return future

    async def localize(self, request: LocalizeRequest) -> LocalizeResponse:
        """Submit and await — the convenience path for single callers."""
        return await self.submit(request)

    @staticmethod
    def _resolve_problem(request: LocalizeRequest):
        """Materialize (measurements, prior, true_positions) for a request."""
        if request.measurements is not None:
            if request.measurements.n_nodes < 1:
                raise ValueError("empty measurement set")
            return request.measurements, request.prior, None
        from repro.experiments.config import build_scenario

        network, ms, prior = build_scenario(request.scenario, seed=request.seed)
        if request.prior is not None:
            prior = request.prior
        return ms, prior, network.positions

    # ------------------------------------------------------------------ #
    # micro-batching

    def _enqueue(self, pending: _Pending) -> None:
        bucket = self._buckets.setdefault(pending.key, [])
        bucket.append(pending)
        if len(bucket) >= self.config.max_batch:
            self._flush(pending.key)
        elif pending.key not in self._flush_handles:
            loop = asyncio.get_running_loop()
            self._flush_handles[pending.key] = loop.call_later(
                self.config.batch_window_s, self._flush, pending.key
            )

    def _flush(self, key: tuple) -> None:
        handle = self._flush_handles.pop(key, None)
        if handle is not None:
            handle.cancel()
        bucket = self._buckets.get(key)
        if not bucket:
            return
        batch = bucket[: self.config.max_batch]
        del bucket[: self.config.max_batch]
        if not bucket:
            del self._buckets[key]
        else:
            # leftovers start a fresh window immediately
            loop = asyncio.get_running_loop()
            self._flush_handles[key] = loop.call_later(
                self.config.batch_window_s, self._flush, key
            )
        task = asyncio.ensure_future(self._run_batch_safe(key, batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    # ------------------------------------------------------------------ #
    # dispatch

    async def _run_batch_safe(self, key: tuple, batch: list[_Pending]) -> None:
        """The zero-lost wrapper: whatever breaks, every future resolves."""
        try:
            await self._run_batch(key, batch)
        except BaseException as exc:  # dispatcher bug — degrade, don't lose
            self.metrics.count("internal_errors")
            for p in batch:
                if not p.future.done():
                    self._resolve(
                        p,
                        self._fallback_response(
                            p, "internal-error",
                            error=f"{type(exc).__name__}: {exc}",
                        ),
                    )
            if isinstance(exc, asyncio.CancelledError):
                raise

    async def _run_batch(self, key: tuple, batch: list[_Pending]) -> None:
        now = self.clock()
        # 1. requests whose budget is already gone get instant fallbacks
        live: list[_Pending] = []
        for p in batch:
            rem = p.remaining(now)
            if rem is not None and rem <= 0:
                self.metrics.count("expired")
                self._resolve(p, self._fallback_response(p, "deadline-expired"))
            else:
                live.append(p)
        if not live:
            return
        # 2. a tripped breaker short-circuits this shape to fallbacks
        breaker = self.breakers.get(key)
        if not breaker.allow():
            self.metrics.count("breaker_short_circuits")
            for p in live:
                self._resolve(p, self._fallback_response(p, "breaker-open"))
            return
        for p in live:
            p.batch_size = len(live)
        self.metrics.count("batches")
        self.metrics.count("batched_requests", len(live))
        self.metrics.gauge_max("max_batch_size", len(live))
        items = [
            {
                "measurements": p.ms,
                "prior": p.prior,
                "config": p.request.config,
                **(
                    {"true_positions": p.true_positions}
                    if p.true_positions is not None
                    else {}
                ),
            }
            for p in live
        ]
        # 3. execute; the pool retries the batch across worker crashes
        start = self.clock()
        try:
            async with self._exec_sem:
                now = self.clock()
                budgets = [p.remaining(now) for p in live if p.deadline_at is not None]
                payloads = await self.pool.run_batch(
                    items, min(budgets, default=None), self.config.exec_timeout_s
                )
        except DeadlineExpired as exc:  # spent after exc.attempt crashes
            self.metrics.count("expired", len(live))
            failures, reason, error = exc.attempt, "deadline-expired", None
        except WorkerCrash as exc:  # every attempt crashed
            failures, reason, error = CALL_ATTEMPTS, "crash-retries-exhausted", str(exc)
        except RemoteError as exc:
            failures, reason, error = 1, "execution-error", str(exc)
        else:
            # crashes a retry recovered from do not count against the shape
            breaker.record_success()
            solve_s = self.clock() - start
            for p, payload in zip(live, payloads):
                self._resolve(p, self._payload_response(p, payload, solve_s))
            return
        for _ in range(failures):
            breaker.record_failure()
        for p in live:
            self._resolve(p, self._fallback_response(p, reason, error=error))

    # ------------------------------------------------------------------ #
    # response construction

    def _resolve(self, pending: _Pending, response: LocalizeResponse) -> None:
        if pending.future.done():
            return
        now = self.clock()
        response.total_s = now - pending.admitted_at
        response.queue_s = max(0.0, response.total_s - response.solve_s)
        self._depth -= 1
        self.metrics.count(response.status)
        if response.degraded:
            self.metrics.count("degraded_total")
        self.metrics.observe("latency_ms", response.total_s * 1e3)
        self.metrics.observe("queue_wait_ms", response.queue_s * 1e3)
        pending.future.set_result(response)

    def _shed_response(
        self, request: LocalizeRequest, reason: str
    ) -> LocalizeResponse:
        return LocalizeResponse(
            request_id=request.request_id,
            status="shed",
            reason=reason,
            retry_after=self.config.retry_after_s,
        )

    def _payload_response(
        self, pending: _Pending, payload: dict, solve_s: float
    ) -> LocalizeResponse:
        if not payload.get("ok"):
            return self._fallback_response(
                pending, "solver-error", error=payload.get("error")
            )
        if payload["deadline_stop"]:
            self.metrics.count("deadline_stops")
            status, reason = "degraded", "deadline-mid-solve"
        elif payload["fallback_mask"].any():
            status, reason = "degraded", "solver-fallback"
        else:
            status, reason = "ok", None
        return LocalizeResponse(
            request_id=pending.request.request_id,
            status=status,
            reason=reason,
            estimates=payload["estimates"],
            localized_mask=payload["localized_mask"],
            fallback_mask=payload["fallback_mask"],
            uncertainty=payload["uncertainty"],
            converged=payload["converged"],
            n_iterations=payload["n_iterations"],
            batch_size=pending.batch_size,
            solve_s=solve_s,
            mean_error=payload.get("mean_error"),
        )

    def _fallback_response(
        self, pending: _Pending, reason: str, error: str | None = None
    ) -> LocalizeResponse:
        """Graceful degradation: a baseline answer instead of no answer.

        Anchors keep their known positions; every unknown gets the
        range-free fallback (heard-anchor centroid → prior mean → field
        center) with honestly widened uncertainty.
        """
        from repro.core.health import fallback_position

        ms = pending.ms
        n = ms.n_nodes
        estimates = np.full((n, 2), np.nan)
        estimates[ms.anchor_mask] = ms.anchor_positions
        fallback = np.zeros(n, dtype=bool)
        uncertainty = np.zeros(n)
        wide = widened_sigma(ms.width, ms.height)
        for u in ms.unknown_ids:
            u = int(u)
            estimates[u] = fallback_position(ms, u)
            fallback[u] = True
            uncertainty[u] = wide
        response = LocalizeResponse(
            request_id=pending.request.request_id,
            status="degraded",
            reason=reason,
            estimates=estimates,
            localized_mask=np.ones(n, dtype=bool),
            fallback_mask=fallback,
            uncertainty=uncertainty,
            batch_size=pending.batch_size,
            error=error,
        )
        if pending.true_positions is not None:
            unknown = ~ms.anchor_mask
            err = np.linalg.norm(
                estimates[unknown] - np.asarray(pending.true_positions)[unknown],
                axis=1,
            )
            response.mean_error = float(np.mean(err)) if len(err) else 0.0
        return response

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def queue_depth(self) -> int:
        return self._depth

    def health(self) -> dict:
        workers = self.pool.snapshot()
        return {
            "status": "ok" if self.running else "stopped",
            "queue_depth": self._depth,
            "queue_limit": self.config.queue_limit,
            "workers": workers,
            "breakers": self.breakers.snapshot(),
        }

    def ready(self) -> bool:
        """Can this service usefully accept a request right now?"""
        if not self.running or self._depth >= self.config.queue_limit:
            return False
        if self.pool.inline:
            return True
        return self.pool.snapshot()["alive"] > 0

    def metrics_snapshot(self) -> dict:
        """JSON-safe state for the ``metrics`` op and the BENCH files."""
        counters = dict(self.metrics.counters)
        batches = counters.get("batches", 0)
        out = {"counters": counters, "queue_depth": self._depth}
        for name in ("latency_ms", "queue_wait_ms"):
            block = reservoir_summary(self.metrics.samples.get(name, ()))
            out[name] = {
                k: round(v, 3) if isinstance(v, float) else v
                for k, v in block.items()
            }
        out["batch"] = {
            "count": batches,
            "mean_occupancy": (
                counters["batched_requests"] / batches if batches else None
            ),
            "max_size": self.metrics.gauges.get("max_batch_size"),
        }
        out["workers"] = self.pool.snapshot()
        out["breakers"] = self.breakers.snapshot()
        return out
