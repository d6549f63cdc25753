"""Solve executors for the streaming runtime.

Two interchangeable backends behind the same protocol
(``solve(items) -> payloads``, ``close()``, ``snapshot()``):

* :class:`InlineExecutor` — in-process :func:`repro.serve.execute_batch`;
  no pipes, no crash surface, deterministic.  The fast-test default.
* :class:`PoolExecutor` — shards items round-robin into one
  :func:`~repro.serve.execute_batch` call per worker of a
  :class:`~repro.parallel.pool.WarmPool`.  A shard whose worker crashes,
  hangs, or is SIGKILL'd is resubmitted by
  :func:`~repro.parallel.pool.retry_call`; one whose attempts all crash,
  or that raises in its worker, runs in-process as the last resort — so
  a batch is *never* lost to worker mortality.

Both return the same payloads for the same items (``localize_batch`` is
bit-identical across batch compositions), so ``n_workers`` is a pure
throughput knob: results do not depend on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.parallel.pool import RemoteError, WarmPool, WorkerCrash, retry_call
from repro.serve.workers import execute_batch

if TYPE_CHECKING:
    from repro.stream.runtime import StreamConfig

__all__ = ["InlineExecutor", "PoolExecutor"]


class InlineExecutor:
    """In-process executor: no pipes, no crash surface."""

    n_workers = 0

    def solve(self, items: list[dict]) -> list[dict]:
        return execute_batch(items, None)

    def close(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {"inline": True, "n_workers": 0, "replacements": 0}


class PoolExecutor:
    """Fan-out over a warm pool of ``stream.n_workers`` workers; each
    call is bounded by ``stream.worker_timeout_s``."""

    def __init__(self, stream: StreamConfig) -> None:
        if stream.n_workers < 1:
            raise ValueError("PoolExecutor needs n_workers >= 1")
        self.n_workers = stream.n_workers
        self.timeout_s = stream.worker_timeout_s
        self.pool = WarmPool(self.n_workers)

    def solve(self, items: list[dict]) -> list[dict]:
        """Execute *items* across the pool, preserving item order."""
        n = self.n_workers
        shards = [items[slot::n] for slot in range(min(n, len(items)))]
        calls = [
            retry_call(
                self.pool, execute_batch, lambda _attempt, s=shard: (s, None),
                timeout=self.timeout_s,
            )
            for shard in shards
        ]
        out: list[dict | None] = [None] * len(items)
        for slot, (shard, call) in enumerate(zip(shards, calls)):
            try:
                out[slot::n] = call.result()
            except (WorkerCrash, RemoteError):
                # Last resort: run the shard in-process.  Slower, but the
                # batch survives any worker mortality — the zero-lost
                # contract.
                out[slot::n] = execute_batch(shard, None)
        return out  # type: ignore[return-value]

    def close(self) -> None:
        self.pool.close()

    def snapshot(self) -> dict:
        return {"inline": False, **self.pool.snapshot()}
