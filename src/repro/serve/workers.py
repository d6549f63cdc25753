"""Warm worker processes and the batch execution payload.

The service runs batches on one :class:`~repro.parallel.pool.WarmPool` of
long-lived spawn workers (each imports numpy/scipy once and then serves
many batches, so the shared :func:`repro.kernels.shared_registry`
potential caches stay warm per process).  :class:`WorkerPool` is the
event loop's face of it: ``run_batch`` awaits a
:func:`~repro.parallel.pool.retry_call` of :func:`execute_batch`, so a
wedged or murdered worker never stalls the loop.  A worker that times
out, crashes, or closes its pipe is replaced by the pool (with jittered
backoff so a crash loop cannot spin) and the batch runs again on the
replacement.  ``n_workers=0`` selects in-process execution (one thread,
no pipes) for deterministic fast tests.

:func:`execute_batch` is the *only* code that runs inside a worker; it
must stay importable at module level (spawn pickles it by reference) and
must never raise for per-item solver problems — each item's failure is
captured into its own payload so one poisoned request cannot take down
its batch-mates.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.parallel.pool import RemoteError, WarmPool, WorkerCrash, retry_call

__all__ = [
    "execute_batch",
    "DeadlineExpired",
    "WorkerPool",
]


class DeadlineExpired(Exception):
    """The batch's budget ran out before attempt ``attempt`` (0, 1, …)."""

    def __init__(self, attempt: int) -> None:
        super().__init__(attempt)
        self.attempt = attempt


# ---------------------------------------------------------------------- #
# in-worker execution


def _item_payloads(solved: list[tuple], items: list[dict]) -> list[dict]:
    """Condense ``(LocalizationResult, measurements)`` pairs into
    pipe-friendly payloads, one per pair; *items* are the pairs' batch
    items.

    The per-node uncertainty (the posterior's RMS radius; the widened
    sigma of a fallback node; 0 at anchors) is one pass over every
    pair's stacked rows, each payload holding its row slice.
    """
    from repro.serve.types import widened_sigma

    sizes = [ms.n_nodes for _, ms in solved]
    covs = [result.extras.get("covariances") for result, _ in solved]
    fallbacks = [
        result.fallback_mask
        if result.fallback_mask is not None
        else np.zeros(n, dtype=bool)
        for (result, _), n in zip(solved, sizes)
    ]
    uncertainty = np.full(sum(sizes), np.nan)
    if solved:
        cov = np.concatenate(
            [np.full((n, 2, 2), np.nan) if c is None else c for c, n in zip(covs, sizes)]
        )
        tr = cov[:, 0, 0] + cov[:, 1, 1]
        good = np.isfinite(tr)
        uncertainty[good] = np.sqrt(np.maximum(tr[good], 0.0))
        fb = np.concatenate(fallbacks)
        widened = [widened_sigma(ms.width, ms.height) for _, ms in solved]
        uncertainty[fb] = np.repeat(widened, sizes)[fb]
        uncertainty[np.concatenate([ms.anchor_mask for _, ms in solved])] = 0.0
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))).tolist()
    payloads = []
    for (result, ms), fb, lo, hi, item in zip(
        solved, fallbacks, bounds, bounds[1:], items
    ):
        payload = {
            "ok": True,
            "estimates": result.estimates,
            "localized_mask": result.localized_mask,
            "fallback_mask": fb,
            "uncertainty": uncertainty[lo:hi],
            "converged": bool(result.converged),
            "n_iterations": int(result.n_iterations),
            "deadline_stop": bool(result.extras.get("deadline_stop", False)),
        }
        true_positions = item.get("true_positions")
        if true_positions is not None:
            unknown = ~ms.anchor_mask
            err = np.linalg.norm(
                result.estimates[unknown] - np.asarray(true_positions)[unknown],
                axis=1,
            )
            payload["mean_error"] = float(np.mean(err)) if len(err) else 0.0
        if item.get("include_beliefs", False):
            # Streaming trackers need the posterior itself back across the
            # pipe: the next epoch's prior is these beliefs motion-diffused.
            payload["beliefs"] = dict(result.extras.get("beliefs", {}))
        payloads.append(payload)
    return payloads


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
    solved = [i for i, res in enumerate(results) if not isinstance(res, Exception)]
    payloads = iter(
        _item_payloads(
            [(results[i], pairs[i][1]) for i in solved], [items[i] for i in solved]
        )
    )
    return [
        {"ok": False, "error": f"{type(res).__name__}: {res}"}
        if isinstance(res, Exception)
        else next(payloads)
        for res in results
    ]


class WorkerPool:
    """The service's async face of one :class:`~repro.parallel.pool.WarmPool`.

    ``n_workers=0`` degenerates to in-process execution: batches run via
    ``execute_batch`` on the default thread-pool executor — no pipes, no
    crash surface, deterministic.  Used by fast tests and single-process
    deployments.
    """

    def __init__(self, n_workers: int, probe_timeout_s: float = 2.0) -> None:
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        self.n_workers = n_workers
        self.probe_timeout_s = probe_timeout_s
        self._pool: WarmPool | None = None  # set while started

    @property
    def inline(self) -> bool:
        return self.n_workers == 0

    @property
    def replacements(self) -> int:
        return self._pool.replacements if self._pool is not None else 0

    # ---------------------------------------------------------------- #
    async def start(self) -> None:
        """Spawn the workers (eagerly: they are running on return)."""
        if self._pool is None and not self.inline:
            # Spawning takes a while; keep it off the event loop.
            self._pool = await asyncio.get_running_loop().run_in_executor(
                None, WarmPool, self.n_workers
            )

    async def stop(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            await asyncio.get_running_loop().run_in_executor(None, pool.close)

    async def probe(self) -> int:
        """Ping every *idle* worker; replace the dead. Returns #replaced."""
        if self._pool is None:
            return 0
        return await asyncio.get_running_loop().run_in_executor(
            None, self._pool.probe, self.probe_timeout_s
        )

    # ---------------------------------------------------------------- #
    async def run_batch(
        self,
        items: list[dict],
        deadline_s: float | None,
        timeout: float,
    ) -> list[dict]:
        """Execute one batch; each attempt gets what is left of the
        *deadline_s* budget.  Raises :class:`DeadlineExpired`,
        :class:`~repro.parallel.pool.WorkerCrash` (every attempt crashed)
        or :class:`~repro.parallel.pool.RemoteError` (the batch raised);
        never silently loses the batch."""
        end = None if deadline_s is None else time.monotonic() + deadline_s

        def args_for(attempt: int) -> tuple:
            left = None if end is None else end - time.monotonic()
            if left is not None and left <= 0:
                raise DeadlineExpired(attempt)
            return items, left

        if self.inline:
            args = args_for(0)
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, execute_batch, *args
                )
            except Exception as exc:
                raise RemoteError.capture(exc) from exc
        if self._pool is None:
            raise WorkerCrash("worker pool is stopped")
        return await asyncio.wrap_future(
            retry_call(self._pool, execute_batch, args_for, timeout=timeout)
        )

    def snapshot(self) -> dict:
        if self._pool is None:
            snap = {"n_workers": self.n_workers, "alive": 0, "idle": 0, "replacements": 0}
        else:
            snap = self._pool.snapshot()
        return {**snap, "inline": self.inline}
