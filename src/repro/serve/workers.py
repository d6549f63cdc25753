"""Warm worker processes and the batch execution payload.

The service keeps a pool of long-lived worker processes (spawn context —
each imports numpy/scipy once and then serves many batches, so the
shared :func:`repro.kernels.shared_registry` potential caches stay warm
per process).  The parent talks to each worker over a duplex
:class:`multiprocessing.Pipe` with a three-op protocol::

    ("ping",)                 -> ("pong", pid)
    ("batch", items, deadline)-> ("ok", [payload, ...]) | ("err", traceback)
    ("stop",)                 -> worker exits

All blocking pipe I/O runs in the event loop's default thread-pool
executor, so a wedged or murdered worker never stalls the loop.  A
worker that times out, crashes, or closes its pipe raises
:class:`WorkerCrash` to the dispatcher — which kills it, spawns a warm
replacement (with jittered backoff so a crash loop cannot spin), and
retries the batch on another worker.  ``n_workers=0`` selects in-process
execution (one thread, no pipes) for deterministic fast tests.

:func:`execute_batch` is the *only* code that runs inside a worker; it
must stay importable at module level (spawn pickles it by reference) and
must never raise for per-item solver problems — each item's failure is
captured into its own payload so one poisoned request cannot take down
its batch-mates.
"""

from __future__ import annotations

import asyncio
import os
import traceback
import multiprocessing as mp

import numpy as np

__all__ = [
    "execute_batch",
    "WorkerCrash",
    "BatchExecutionError",
    "WorkerHandle",
    "WorkerPool",
]


class WorkerCrash(RuntimeError):
    """A worker died, hung, or closed its pipe mid-call (retryable)."""


class BatchExecutionError(RuntimeError):
    """The batch itself failed inside a healthy worker (not retryable)."""


# ---------------------------------------------------------------------- #
# in-worker execution


def _item_payload(result, ms, true_positions=None, include_beliefs=False) -> dict:
    """Condense a LocalizationResult into a pipe-friendly payload."""
    from repro.serve.types import widened_sigma

    n = ms.n_nodes
    uncertainty = np.full(n, np.nan)
    cov = result.extras.get("covariances")
    if cov is not None:
        tr = cov[:, 0, 0] + cov[:, 1, 1]
        good = np.isfinite(tr)
        uncertainty[good] = np.sqrt(np.maximum(tr[good], 0.0))
    fb = (
        result.fallback_mask
        if result.fallback_mask is not None
        else np.zeros(n, dtype=bool)
    )
    uncertainty[fb] = widened_sigma(ms.width, ms.height)
    uncertainty[ms.anchor_mask] = 0.0
    payload = {
        "ok": True,
        "estimates": result.estimates,
        "localized_mask": result.localized_mask,
        "fallback_mask": fb,
        "uncertainty": uncertainty,
        "converged": bool(result.converged),
        "n_iterations": int(result.n_iterations),
        "deadline_stop": bool(result.extras.get("deadline_stop", False)),
    }
    if true_positions is not None:
        unknown = ~ms.anchor_mask
        err = np.linalg.norm(
            result.estimates[unknown] - np.asarray(true_positions)[unknown],
            axis=1,
        )
        payload["mean_error"] = float(np.mean(err)) if len(err) else 0.0
    if include_beliefs:
        # Streaming trackers need the posterior itself back across the
        # pipe: the next epoch's prior is these beliefs motion-diffused.
        payload["beliefs"] = dict(result.extras.get("beliefs", {}))
    return payload


def execute_batch(items: list[dict], deadline_s: float | None = None) -> list[dict]:
    """Run one micro-batch of compatible localization problems.

    *items* are dicts with ``measurements``, ``prior`` (optional),
    ``config``, optional ``true_positions``, and optional
    ``include_beliefs`` (return the full posterior belief vectors in the
    payload — the streaming runtime's warm-start feed).  All items share a
    batch key, so their prepared problems stack into one
    :func:`~repro.core.bnloc.localize_batch` call.  The whole solve runs
    under a
    :func:`~repro.kernels.deadline_scope` of *deadline_s* seconds — BP
    stops cooperatively between rounds when the budget expires, and the
    partial posterior comes back flagged ``deadline_stop``.

    Per-item failures degrade to per-item ``{"ok": False}`` payloads:
    the batch is retried item-by-item so one broken request cannot sink
    its batch-mates.
    """
    from repro.core.bnloc import GridBPLocalizer, localize_batch
    from repro.kernels import deadline_scope

    pairs = [
        (
            GridBPLocalizer(prior=item.get("prior"), config=item["config"]),
            item["measurements"],
        )
        for item in items
    ]
    with deadline_scope(seconds=deadline_s):
        try:
            results = localize_batch(pairs)
        except Exception:
            # Group-level failure: isolate the poisoned item(s) by
            # falling back to individual solves, capturing each error.
            results = []
            for loc, ms in pairs:
                try:
                    results.append(loc.localize(ms))
                except Exception as exc:
                    results.append(exc)
    out = []
    for (loc, ms), res, item in zip(pairs, results, items):
        if isinstance(res, Exception):
            out.append({
                "ok": False,
                "error": f"{type(res).__name__}: {res}",
            })
        else:
            out.append(
                _item_payload(
                    res,
                    ms,
                    item.get("true_positions"),
                    include_beliefs=bool(item.get("include_beliefs", False)),
                )
            )
    return out


def _worker_main(conn) -> None:
    """Entry point of a warm worker process."""
    import signal

    # The parent owns lifecycle; stray terminal interrupts must not kill
    # a worker mid-batch.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        op = msg[0]
        if op == "ping":
            conn.send(("pong", os.getpid()))
        elif op == "stop":
            break
        elif op == "batch":
            try:
                conn.send(("ok", execute_batch(*msg[1:])))
            except BaseException:
                conn.send(("err", traceback.format_exc()))
        else:  # pragma: no cover - protocol guard
            conn.send(("err", f"unknown op {op!r}"))
    conn.close()


def _pipe_call(conn, msg, timeout: float):
    """Blocking request/response over a worker pipe (runs in a thread)."""
    conn.send(msg)
    if not conn.poll(timeout):
        raise TimeoutError(f"worker reply timed out after {timeout:.1f}s")
    return conn.recv()


# ---------------------------------------------------------------------- #
# parent-side pool


class WorkerHandle:
    """One warm worker process plus its parent end of the pipe."""

    _ids = iter(range(1, 10**9))

    def __init__(self, ctx) -> None:
        self.id = next(WorkerHandle._ids)
        self.conn, child = mp.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child,), daemon=True,
            name=f"repro-serve-worker-{self.id}",
        )
        self.process.start()
        child.close()
        self.batches = 0

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    async def call(self, msg: tuple, timeout: float):
        """Send *msg* and await the reply without blocking the loop."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, _pipe_call, self.conn, msg, timeout
            )
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrash(
                f"worker {self.id} (pid {self.pid}) pipe failed: {exc!r}"
            ) from exc
        except TimeoutError as exc:
            raise WorkerCrash(
                f"worker {self.id} (pid {self.pid}) timed out"
            ) from exc

    def call_sync(self, msg: tuple, timeout: float):
        """Blocking variant of :meth:`call` for non-asyncio callers.

        Same crash translation: any pipe failure or timeout surfaces as
        :class:`WorkerCrash` so the caller can kill/replace/retry.  Used
        by the synchronous streaming runtime (:mod:`repro.stream`).
        """
        try:
            return _pipe_call(self.conn, msg, timeout)
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrash(
                f"worker {self.id} (pid {self.pid}) pipe failed: {exc!r}"
            ) from exc
        except TimeoutError as exc:
            raise WorkerCrash(
                f"worker {self.id} (pid {self.pid}) timed out"
            ) from exc

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


class WorkerPool:
    """Fixed-size pool of warm workers with probe/replace supervision.

    ``n_workers=0`` degenerates to in-process execution: batches run via
    ``execute_batch`` on the default thread-pool executor — no pipes, no
    crash surface, deterministic.  Used by fast tests and single-process
    deployments.
    """

    def __init__(
        self,
        n_workers: int,
        metrics=None,
        probe_timeout_s: float = 2.0,
        replace_backoff_s: float = 0.05,
    ) -> None:
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        self.n_workers = n_workers
        self.metrics = metrics
        self.probe_timeout_s = probe_timeout_s
        self.replace_backoff_s = replace_backoff_s
        self._ctx = mp.get_context("spawn")
        self._idle: asyncio.Queue = asyncio.Queue()
        self._workers: dict[int, WorkerHandle] = {}
        self.replacements = 0
        self._consecutive_failures = 0
        self._started = False

    @property
    def inline(self) -> bool:
        return self.n_workers == 0

    # ---------------------------------------------------------------- #
    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.inline:
            return
        loop = asyncio.get_running_loop()
        spawned = await asyncio.gather(
            *[loop.run_in_executor(None, WorkerHandle, self._ctx)
              for _ in range(self.n_workers)]
        )
        for handle in spawned:
            self._workers[handle.id] = handle
            self._idle.put_nowait(handle)

    async def stop(self) -> None:
        if not self._started or self.inline:
            self._started = False
            return
        self._started = False
        loop = asyncio.get_running_loop()
        for handle in list(self._workers.values()):
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        await asyncio.gather(
            *[loop.run_in_executor(None, h.kill) for h in self._workers.values()]
        )
        self._workers.clear()
        while not self._idle.empty():
            self._idle.get_nowait()

    # ---------------------------------------------------------------- #
    async def _replace(self, handle: WorkerHandle) -> None:
        """Kill a broken worker and spawn a warm replacement."""
        from repro.parallel.executor import _backoff

        self._workers.pop(handle.id, None)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, handle.kill)
        self.replacements += 1
        self._consecutive_failures += 1
        if self.metrics is not None:
            self.metrics.count("worker_replacements")
        # Jittered exponential backoff keeps a hard crash loop (e.g. a
        # worker that dies on import) from spinning the supervisor.
        delay = _backoff(
            self.replace_backoff_s,
            2.0,
            min(self._consecutive_failures - 1, 6),
            jitter=0.25,
            token=self.replacements,
        )
        if delay > 0:
            await asyncio.sleep(delay)
        fresh = await loop.run_in_executor(None, WorkerHandle, self._ctx)
        self._workers[fresh.id] = fresh
        self._idle.put_nowait(fresh)

    async def probe(self) -> int:
        """Ping every *idle* worker; replace the dead. Returns #replaced.

        Busy workers are implicitly probed by their in-flight call's
        timeout, so only the idle queue needs sweeping.
        """
        if self.inline or not self._started:
            return 0
        idle: list[WorkerHandle] = []
        while not self._idle.empty():
            idle.append(self._idle.get_nowait())
        replaced = 0
        for handle in idle:
            if not self._started:
                # stop() ran while probing; drop the handle, stop() owns it
                continue
            try:
                if not handle.alive:
                    raise WorkerCrash(f"worker {handle.id} exited "
                                      f"(code {handle.process.exitcode})")
                reply = await handle.call(("ping",), self.probe_timeout_s)
                if reply != ("pong", handle.pid):
                    raise WorkerCrash(f"worker {handle.id} bad pong {reply!r}")
                self._idle.put_nowait(handle)
            except WorkerCrash:
                replaced += 1
                await self._replace(handle)
        if self.metrics is not None:
            self.metrics.count("probes")
        return replaced

    # ---------------------------------------------------------------- #
    async def run_batch(
        self,
        items: list[dict],
        deadline_s: float | None,
        timeout: float,
    ) -> list[dict]:
        """Execute one batch on some worker; raises WorkerCrash /
        BatchExecutionError, never silently loses the batch."""
        if self.inline:
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, execute_batch, items, deadline_s
                )
            except Exception as exc:
                raise BatchExecutionError(
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        handle = await self._idle.get()
        try:
            if not handle.alive:
                raise WorkerCrash(
                    f"worker {handle.id} found dead "
                    f"(exit code {handle.process.exitcode})"
                )
            reply = await handle.call(("batch", items, deadline_s), timeout)
        except WorkerCrash:
            await self._replace(handle)
            raise
        handle.batches += 1
        self._consecutive_failures = 0
        self._idle.put_nowait(handle)
        if reply[0] == "ok":
            return reply[1]
        raise BatchExecutionError(str(reply[1]))

    def snapshot(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "alive": sum(1 for h in self._workers.values() if h.alive),
            "idle": self._idle.qsize(),
            "replacements": self.replacements,
            "inline": self.inline,
        }
