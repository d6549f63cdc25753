"""One warm, supervised pool of spawn worker processes.

Every multiprocess path in the package runs here: Monte-Carlo trials
(:func:`~repro.parallel.run_trials`), served localization batches (:class:`repro.serve.workers.WorkerPool`) and stream
shards (:class:`repro.stream.pool.PoolExecutor`).  Workers are long-lived
(spawn context — each imports numpy/scipy once and keeps its potential
caches warm across calls).  The parent talks to each over a duplex
:class:`multiprocessing.Pipe`::

    ("call", fn, args) -> ("ok", result) | ("err", type_name, message, traceback)
    ("ping",)          -> ("pong", pid)
    ("stop",)          -> worker exits

:class:`WarmPool` keeps one thread per worker slot; :meth:`WarmPool.submit`
returns a :class:`concurrent.futures.Future`.  A dead pipe, a dead process
or a timed-out call kills that worker and spawns a replacement under
jittered exponential backoff (so a worker that dies on import cannot spin
the supervisor); the submission fails with :class:`WorkerCrash` (or its
subclass :class:`WorkerTimeout`).  An exception raised by the called
function comes back as :class:`RemoteError` and leaves the worker alive.
The one retry policy over :meth:`WarmPool.submit` is :func:`retry_call`:
it resubmits a crashed call, up to :data:`CALL_ATTEMPTS` attempts.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue
import threading
import traceback
from concurrent.futures import Future

import numpy as np

__all__ = ["CALL_ATTEMPTS", "RemoteError", "WarmPool", "WorkerCrash",
           "WorkerTimeout", "retry_call"]


class WorkerCrash(RuntimeError):
    """A worker died or closed its pipe mid-call (retryable)."""


class WorkerTimeout(WorkerCrash):
    """A worker call outlived its timeout; the worker was killed."""


class RemoteError(Exception):
    """An exception raised by a call inside a healthy worker, as text."""

    def __init__(self, type_name: str, message: str, traceback: str = "") -> None:
        super().__init__(type_name, message, traceback)
        self.type_name = type_name
        self.message = message
        self.traceback = traceback

    @classmethod
    def capture(cls, exc: BaseException) -> "RemoteError":
        return cls(
            type(exc).__name__, str(exc), "".join(traceback.format_exception(exc))
        )

    def __str__(self) -> str:
        return f"{self.type_name}: {self.message}"


#: namespace of the backoff-jitter stream — keeps it disjoint from every
#: trial/retry seed stream no matter what master seed the caller picked
_BACKOFF_JITTER_KEY = 0xB0FF_1E77

#: first replacement delay; doubles per consecutive failure (capped at 2^6)
_REPLACE_BACKOFF_S = 0.05

#: attempts per :func:`retry_call`: the first call plus two retries
CALL_ATTEMPTS = 3


def _backoff(
    base: float,
    factor: float,
    attempt: int,
    jitter: float = 0.0,
    token: int | None = None,
) -> float:
    """Exponential backoff with seeded, deterministic jitter.

    The jitter multiplier lies in ``[1, 1 + jitter)`` and is a pure
    function of *token* — the pool passes its replacement count, so a
    wave of replacements after a correlated failure fans out over
    distinct delays instead of stampeding back in lockstep, while the
    exact same run replays the exact same sleeps.  No trial seed stream
    is touched: the jitter draw comes from a fresh
    :class:`~numpy.random.SeedSequence` namespaced under
    :data:`_BACKOFF_JITTER_KEY`.
    """
    delay = base * factor**attempt if base > 0 else 0.0
    if delay > 0.0 and jitter > 0.0 and token is not None:
        word = np.random.SeedSequence(
            [_BACKOFF_JITTER_KEY, int(token)]
        ).generate_state(1, dtype=np.uint64)[0]
        delay *= 1.0 + jitter * (float(word) / 2.0**64)
    return delay


def _replace_delay(consecutive_failures: int, replacements: int) -> float:
    """Backoff before spawning replacement number *replacements*."""
    return _backoff(
        _REPLACE_BACKOFF_S,
        2.0,
        min(consecutive_failures - 1, 6),
        jitter=0.25,
        token=replacements,
    )


# ---------------------------------------------------------------------- #
# in-worker loop


def _worker_main(conn) -> None:
    """Entry point of a warm worker process."""
    import signal

    # The parent owns lifecycle; stray terminal interrupts must not kill
    # a worker mid-call.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        except Exception as exc:  # the call's fn/args did not unpickle here
            conn.send(("err", *RemoteError.capture(exc).args))
            continue
        op = msg[0]
        if op == "ping":
            conn.send(("pong", os.getpid()))
        elif op == "stop":
            break
        elif op == "call":
            try:
                reply = ("ok", msg[1](*msg[2]))
            except Exception as exc:
                reply = ("err", *RemoteError.capture(exc).args)
            try:
                conn.send(reply)
            except Exception as exc:  # the result did not pickle
                conn.send(("err", *RemoteError.capture(exc).args))
        else:  # pragma: no cover - protocol guard
            conn.send(("err", "ValueError", f"unknown op {op!r}", ""))
    conn.close()


# ---------------------------------------------------------------------- #
# parent side


class WorkerHandle:
    """One warm worker process plus its parent end of the pipe."""

    _ids = itertools.count(1)

    def __init__(self, ctx) -> None:
        self.id = next(WorkerHandle._ids)
        self.conn, child = mp.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child,), daemon=True,
            name=f"repro-worker-{self.id}",
        )
        self.process.start()
        child.close()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def call(self, msg: tuple, timeout: float | None):
        """Send *msg* and wait for the reply.

        A pipe failure or a timeout kills the worker and raises
        :class:`WorkerCrash` / :class:`WorkerTimeout`.  Anything else
        (e.g. *msg* does not pickle) propagates with the worker intact:
        the message is pickled whole before a byte is written.
        """
        try:
            self.conn.send(msg)
            if self.conn.poll(timeout):
                return self.conn.recv()
        except (EOFError, OSError):
            self.kill()
            raise WorkerCrash(
                f"worker {self.id} (pid {self.pid}) exited with code "
                f"{self.process.exitcode}"
            ) from None
        self.kill()
        raise WorkerTimeout(
            f"worker {self.id} (pid {self.pid}) timed out after {timeout:g}s"
        )

    def kill(self) -> None:
        self.conn.close()
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


class _Slot:
    """A worker and the thread that feeds it; ``busy`` is held per call."""

    def __init__(self, handle: WorkerHandle) -> None:
        self.handle = handle
        self.busy = threading.Lock()
        self.thread: threading.Thread | None = None


class WarmPool:
    """Fixed-size pool of warm spawn workers with crash supervision.

    Workers spawn eagerly in the constructor.  Use as a context manager
    (or call :meth:`close`): exit kills every worker, also when unwinding
    from ``KeyboardInterrupt`` or a trapped SIGTERM.  ``replacements``
    counts the workers replaced so far (also in :meth:`snapshot`); the
    pool writes into no caller's metrics, so its threads share no state
    with an event loop.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("WarmPool needs n_workers >= 1")
        self.n_workers = n_workers
        self.replacements = 0
        self._failures = 0  # consecutive, across slots; reset by a good call
        self._ctx = mp.get_context("spawn")
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._slots = [_Slot(WorkerHandle(self._ctx)) for _ in range(n_workers)]
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._serve, args=(slot,), daemon=True,
                name=f"repro-pool-slot-{slot.handle.id}",
            )
            slot.thread.start()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------------- #
    def submit(self, fn, *args, timeout: float | None = None) -> Future:
        """Run ``fn(*args)`` on a worker; *timeout* bounds the call."""
        fut: Future = Future()
        with self._lock:  # so close() cannot queue its sentinels first
            if self._closing.is_set():
                raise RuntimeError("pool is closed")
            self._jobs.put((fut, fn, args, timeout))
        return fut

    def map(self, fn, iterable):
        """Submit ``fn(x)`` for every *x* now; yield results in input order."""
        futures = [self.submit(fn, x) for x in iterable]
        return (f.result() for f in futures)

    def probe(self, timeout: float = 2.0) -> int:
        """Ping every idle worker; replace the dead. Returns #replaced.

        Busy workers are probed by their in-flight call's timeout."""
        replaced = 0
        for slot in self._slots:
            if not slot.busy.acquire(blocking=False):
                continue
            try:
                if self._closing.is_set():
                    break
                handle = slot.handle
                try:
                    if handle.call(("ping",), timeout) != ("pong", handle.pid):
                        raise WorkerCrash(f"worker {handle.id} bad pong")
                except WorkerCrash:
                    self._replace(slot)
                    replaced += 1
            finally:
                slot.busy.release()
        return replaced

    def worker_pids(self) -> list[int | None]:
        return [slot.handle.pid for slot in self._slots]

    def snapshot(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "alive": sum(slot.handle.alive for slot in self._slots),
            "idle": sum(not slot.busy.locked() for slot in self._slots),
            "replacements": self.replacements,
        }

    def close(self) -> None:
        """Kill every worker, cancel queued calls, join the slot threads.

        In-flight calls fail with :class:`WorkerCrash`; the slot threads
        cancel the queued ones on their way to the stop sentinels."""
        with self._lock:
            if self._closing.is_set():
                return
            self._closing.set()
            handles = [slot.handle for slot in self._slots]
        for handle in handles:
            handle.process.kill()
        for _ in self._slots:
            self._jobs.put(None)
        for slot in self._slots:
            slot.thread.join()
            slot.handle.kill()

    # ---------------------------------------------------------------- #
    def _serve(self, slot: _Slot) -> None:
        """Slot thread: feed queued calls to this slot's worker."""
        while True:
            job = self._jobs.get()
            if job is None:
                return
            fut, fn, args, timeout = job
            if self._closing.is_set():
                fut.cancel()
                continue
            if not fut.set_running_or_notify_cancel():
                continue
            with slot.busy:
                if not slot.handle.alive:  # died idle: replace, then run
                    self._replace(slot)
                try:
                    reply = slot.handle.call(("call", fn, args), timeout)
                except WorkerCrash as exc:
                    fut.set_exception(exc)
                    self._replace(slot)
                    continue
                except Exception as exc:  # fn/args or the reply did not pickle
                    fut.set_exception(exc)
                    continue
            with self._lock:
                self._failures = 0
            if reply[0] == "ok":
                fut.set_result(reply[1])
            else:
                fut.set_exception(RemoteError(*reply[1:]))

    def _replace(self, slot: _Slot) -> None:
        """Kill *slot*'s worker and spawn a warm replacement after backoff."""
        slot.handle.kill()
        if self._closing.is_set():
            return
        with self._lock:
            self.replacements += 1
            self._failures += 1
            delay = _replace_delay(self._failures, self.replacements)
        if self._closing.wait(delay):
            return
        # Spawn outside the lock: submit() takes it, often on an event loop.
        handle = WorkerHandle(self._ctx)
        with self._lock:
            if not self._closing.is_set():
                slot.handle = handle
                return
        handle.kill()


def retry_call(pool, fn, args_for, *, timeout: float | None = None) -> Future:
    """Run ``fn(*args_for(i))`` on *pool* for attempt i = 0, 1, …

    A :class:`WorkerCrash` (or timeout) starts the next attempt on the
    pool's replacement worker, up to :data:`CALL_ATTEMPTS`; then the
    future fails with the last crash.  Any other exception fails it at
    once: a :class:`RemoteError`, an unpicklable call, *args_for* giving
    up (e.g. on a spent budget), or ``submit`` on a closed pool.  The
    future always resolves and cannot be cancelled.
    """
    outer: Future = Future()
    # Running: a caller's cancel() cannot race the attempts' outcome.
    outer.set_running_or_notify_cancel()

    def attempt(i: int) -> None:
        try:
            call = pool.submit(fn, *args_for(i), timeout=timeout)
        except Exception as exc:  # args_for gave up, or the pool is closed
            outer.set_exception(exc)
        else:
            call.add_done_callback(lambda done: settle(i, done))

    def settle(i: int, call: Future) -> None:
        try:
            result = call.result()
        except Exception as exc:  # a crash, RemoteError, unpicklable, cancelled
            if isinstance(exc, WorkerCrash) and i + 1 < CALL_ATTEMPTS:
                return attempt(i + 1)
            outer.set_exception(exc)
        else:
            outer.set_result(result)

    attempt(0)
    return outer
