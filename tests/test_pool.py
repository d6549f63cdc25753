"""Contract of the one warm, supervised worker pool (repro.parallel.pool).

The mechanics every multiprocess caller relies on are tested here once:
ordering, remote errors, crash and timeout replacement, the replacement
backoff, idle-worker probes and teardown, and the one retry policy
(:func:`~repro.parallel.pool.retry_call`, against a stub pool).  What
each caller does when the attempts run out is checked against real
faults by ``tests/test_fault_matrix.py``.
"""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import CancelledError, Future, as_completed

import pytest

from repro.parallel.pool import (
    _REPLACE_BACKOFF_S,
    CALL_ATTEMPTS,
    RemoteError,
    WarmPool,
    WorkerCrash,
    WorkerTimeout,
    _backoff,
    _replace_delay,
    retry_call,
)


def _slow_square(x: int, delay: float = 0.0) -> int:
    time.sleep(delay)
    return x * x


def _pid() -> int:
    return os.getpid()


def _raise_value_error(msg: str) -> None:
    raise ValueError(msg)


def _sigkill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class TestBackoffJitter:
    """Seeded jitter on retry backoff: deterministic, bounded, and
    invisible to the trial seed streams."""

    def test_zero_jitter_is_pure_exponential(self):
        for attempt in range(4):
            assert _backoff(0.5, 2.0, attempt) == 0.5 * 2.0**attempt
            assert (
                _backoff(0.5, 2.0, attempt, jitter=0.0, token=123)
                == 0.5 * 2.0**attempt
            )

    def test_jitter_bounds_and_determinism(self):
        base, factor, jitter = 0.25, 2.0, 0.4
        for attempt, token in [(0, 7), (1, 7), (2, 99), (3, 2**63)]:
            raw = base * factor**attempt
            d1 = _backoff(base, factor, attempt, jitter=jitter, token=token)
            d2 = _backoff(base, factor, attempt, jitter=jitter, token=token)
            assert d1 == d2  # same token -> identical delay across runs
            assert raw <= d1 < raw * (1.0 + jitter)

    def test_tokens_desynchronize(self):
        delays = {
            _backoff(1.0, 2.0, 0, jitter=0.5, token=t) for t in range(32)
        }
        assert len(delays) == 32  # distinct tokens -> distinct delays

    def test_no_token_means_no_jitter(self):
        assert _backoff(1.0, 2.0, 1, jitter=0.5, token=None) == 2.0

    def test_zero_base_stays_zero(self):
        assert _backoff(0.0, 2.0, 3, jitter=0.5, token=5) == 0.0


class TestReplacementBackoff:
    def test_deterministic_jittered_and_capped(self):
        for failures in range(1, 10):
            raw = _REPLACE_BACKOFF_S * 2.0 ** min(failures - 1, 6)
            d = _replace_delay(failures, replacements=failures)
            assert d == _replace_delay(failures, replacements=failures)
            assert raw <= d < raw * 1.25
        # distinct replacement counts desynchronize the delays
        assert len({_replace_delay(1, r) for r in range(16)}) == 16

    def test_needs_a_worker(self):
        with pytest.raises(ValueError, match="n_workers"):
            WarmPool(0)


class _StubPool:
    """``submit`` returns the next scripted outcome as a done future;
    ``"closed"`` raises like a closed :class:`WarmPool` and ``"pending"``
    hands out a future the test resolves (kept as ``pending``)."""

    def __init__(self, *outcomes) -> None:
        self.outcomes = list(outcomes)
        self.submits: list[tuple] = []

    def submit(self, fn, *args, timeout=None) -> Future:
        self.submits.append(args)
        outcome = self.outcomes.pop(0)
        if outcome == "closed":
            raise RuntimeError("pool is closed")
        fut: Future = Future()
        if outcome == "pending":
            self.pending = fut
        elif outcome == "cancelled":
            fut.cancel()
        elif isinstance(outcome, BaseException):
            fut.set_exception(outcome)
        else:
            fut.set_result(outcome)
        return fut


class TestRetryCall:
    """The one retry policy, without processes."""

    @staticmethod
    def _call(pool, seen=None):
        def args_for(attempt):
            if seen is not None:
                seen.append(attempt)
            return (f"args-{attempt}",)

        return retry_call(pool, _pid, args_for, timeout=1.0)

    def test_recovers_after_crashes_with_fresh_args_each_attempt(self):
        pool = _StubPool(WorkerCrash("a"), WorkerTimeout("b"), "done")
        seen = []
        assert self._call(pool, seen).result(timeout=0) == "done"
        assert seen == [0, 1, 2]
        assert pool.submits == [("args-0",), ("args-1",), ("args-2",)]

    def test_every_attempt_crashed_fails_with_the_last_crash(self):
        crashes = [WorkerCrash(str(i)) for i in range(CALL_ATTEMPTS)]
        pool = _StubPool(*crashes, "never")
        seen = []
        fut = self._call(pool, seen)
        assert fut.exception(timeout=0) is crashes[-1]
        assert len(pool.submits) == CALL_ATTEMPTS
        assert seen == list(range(CALL_ATTEMPTS))

    @pytest.mark.parametrize(
        "failure",
        [
            RemoteError("ValueError", "boom"),
            TypeError("cannot pickle"),
            "cancelled",
        ],
        ids=["remote", "unpicklable", "cancelled"],
    )
    def test_other_failures_are_not_retried(self, failure):
        pool = _StubPool(failure, "never")
        err = self._call(pool).exception(timeout=0)
        if failure == "cancelled":  # queued when the pool closed
            assert isinstance(err, CancelledError)
        else:
            assert err is failure
        assert len(pool.submits) == 1

    def test_args_for_raising_fails_the_future(self):
        pool = _StubPool(WorkerCrash("a"), "never")
        spent = LookupError("budget spent")

        def args_for(attempt):
            if attempt:
                raise spent
            return ()

        fut = retry_call(pool, _pid, args_for)
        assert fut.exception(timeout=0) is spent
        assert len(pool.submits) == 1

    def test_pool_closed_between_attempts_still_resolves(self):
        pool = _StubPool(WorkerCrash("a"), "closed")
        err = self._call(pool).exception(timeout=0)
        assert isinstance(err, RuntimeError) and "closed" in str(err)
        assert len(pool.submits) == 2

    def test_caller_cannot_cancel(self):
        pool = _StubPool("pending")
        fut = self._call(pool)
        assert not fut.cancel()
        pool.pending.set_result("done")
        assert fut.result(timeout=0) == "done"


@pytest.mark.slow
class TestWarmPool:
    def test_map_keeps_input_order(self):
        with WarmPool(2) as pool:
            # the first items finish last: order is by input, not completion
            delays = [0.3, 0.2, 0.1, 0.0, 0.0, 0.0]
            futures = [
                pool.submit(_slow_square, i, d) for i, d in enumerate(delays)
            ]
            assert [f.result() for f in futures] == [i * i for i in range(6)]
            assert list(pool.map(_slow_square, range(7))) == [i * i for i in range(7)]

    def test_as_completed_yields_completion_order(self):
        with WarmPool(2) as pool:
            slow = pool.submit(_slow_square, 3, 1.0)
            fast = pool.submit(_slow_square, 2, 0.0)
            assert [f.result() for f in as_completed([slow, fast])] == [4, 9]

    def test_remote_exception_carries_type_message_traceback(self):
        with WarmPool(1) as pool:
            pid = pool.worker_pids()[0]
            with pytest.raises(RemoteError) as exc_info:
                pool.submit(_raise_value_error, "boom").result()
            err = exc_info.value
            assert err.type_name == "ValueError"
            assert err.message == "boom"
            assert "_raise_value_error" in err.traceback
            assert str(err) == "ValueError: boom"
            # a raising call leaves its worker alive and in place
            assert pool.submit(_pid).result() == pid
            assert pool.replacements == 0

    def test_unpicklable_call_fails_alone(self):
        with WarmPool(1) as pool:
            with pytest.raises(AttributeError, match="pickle"):
                pool.submit(lambda: 1).result()
            assert pool.submit(_slow_square, 4).result() == 16
            assert pool.replacements == 0

    def test_sigkill_fails_the_call_and_replaces_the_worker(self):
        with WarmPool(1) as pool:
            old = pool.worker_pids()[0]
            with pytest.raises(WorkerCrash, match="exited with code -9"):
                pool.submit(_sigkill_self).result(timeout=60)
            assert pool.replacements == 1
            new = pool.submit(_pid).result(timeout=60)
            assert new != old
            assert pool.worker_pids() == [new]

    def test_timeout_kills_and_replaces(self):
        with WarmPool(1) as pool:
            old = pool.worker_pids()[0]
            # warm the worker first so the timeout bounds only the call
            assert pool.submit(_pid).result(timeout=60) == old
            t0 = time.monotonic()
            with pytest.raises(WorkerTimeout, match="timed out"):
                pool.submit(_slow_square, 1, 30.0, timeout=0.5).result()
            assert time.monotonic() - t0 < 10
            assert pool.replacements == 1
            assert pool.submit(_pid).result(timeout=60) != old

    def test_probe_replaces_dead_idle_worker(self):
        with WarmPool(2) as pool:
            assert pool.probe() == 0
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            assert pool.probe() == 1
            assert pool.replacements == 1
            assert victim not in pool.worker_pids()
            assert pool.snapshot()["alive"] == 2
            assert list(pool.map(_slow_square, range(4))) == [0, 1, 4, 9]

    def test_close_during_inflight_map_leaves_no_children(self):
        pool = WarmPool(2)
        outcome = {}

        def run_map():
            try:
                list(pool.map(_slow_square, [7, 8, 9]))
                outcome["error"] = None
            except Exception as exc:
                outcome["error"] = exc

        # two 30 s calls occupy both workers, so the map's calls are still
        # queued when the pool closes
        hung = [pool.submit(_slow_square, i, 30.0) for i in range(2)]
        thread = threading.Thread(target=run_map)
        thread.start()
        time.sleep(0.5)
        t0 = time.monotonic()
        pool.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < 15
        for fut in hung:  # in flight when the pool closed
            with pytest.raises(WorkerCrash):
                fut.result(timeout=0)
        assert isinstance(outcome["error"], CancelledError)  # queued
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_pid)
