"""Contract of the one warm, supervised worker pool (repro.parallel.pool).

The mechanics every multiprocess caller relies on are tested here once:
ordering, remote errors, crash and timeout replacement, the replacement
backoff, idle-worker probes and teardown.  Each caller's own retry policy
is tested with the caller (serve, stream).
"""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import CancelledError, as_completed

import pytest

from repro.parallel.pool import (
    _REPLACE_BACKOFF_S,
    RemoteError,
    WarmPool,
    WorkerCrash,
    WorkerTimeout,
    _backoff,
    _replace_delay,
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
