"""Tests for fail-fast trial errors and the resilient trial executor.

The serial path of :func:`run_trials` must identify a failing trial by
index and seed; :func:`run_trials_resilient` must retry on fresh seeds,
survive raising / crashing / hanging workers, and return partial results
plus a structured failure report instead of aborting the batch.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.parallel import (
    TrialBatchResult,
    TrialExecutionError,
    TrialExecutor,
    TrialFailure,
    run_trials,
    run_trials_resilient,
)
from repro.parallel.executor import _attempt_seed_table, child_seed_ints
from repro.parallel.pool import RemoteError, _backoff


def _ok(seed: int) -> int:
    return seed % 997


def _raise_even(seed: int) -> int:
    if seed % 2 == 0:
        raise ValueError(f"even seed {seed}")
    return seed % 997


def _sigkill_even(seed: int) -> int:
    if seed % 2 == 0:
        os.kill(os.getpid(), signal.SIGKILL)  # simulated OOM kill
    return seed % 997


def _hang_even(seed: int) -> int:
    if seed % 2 == 0:
        time.sleep(60)
    return seed % 997


def _unpicklable_even(seed: int):
    if seed % 2 == 0:
        return lambda: seed  # a result that cannot travel back over the pipe
    return seed % 997


def _first_even_index(seed: int, n: int) -> int:
    seeds = child_seed_ints(seed, n)
    return next(i for i, s in enumerate(seeds) if s % 2 == 0)


def _raise_even_param(param: str, seed: int) -> int:
    return _raise_even(seed)


_WORKERS = [1, pytest.param(2, marks=pytest.mark.slow)]


class TestTrialExecutionError:
    @pytest.mark.parametrize("n_workers", _WORKERS)
    def test_serial_failure_names_index_and_seed(self, n_workers):
        idx = _first_even_index(3, 8)
        seeds = child_seed_ints(3, 8)
        with pytest.raises(TrialExecutionError) as exc_info:
            run_trials(_raise_even, 8, seed=3, n_workers=n_workers)
        err = exc_info.value
        assert err.trial_index == idx
        assert err.trial_seed == seeds[idx]
        assert str(err.trial_seed) in str(err)
        assert "run_trials_resilient" in str(err)
        assert "ValueError: even seed" in str(err)
        if n_workers == 1:
            assert isinstance(err.__cause__, ValueError)
        else:  # the worker's exception, carried back as text
            assert isinstance(err.__cause__, RemoteError)
            assert err.__cause__.type_name == "ValueError"
            assert "_raise_even" in err.__cause__.traceback

    @pytest.mark.slow
    def test_unpicklable_result_names_index_and_seed(self):
        idx = _first_even_index(3, 8)
        seeds = child_seed_ints(3, 8)
        with pytest.raises(TrialExecutionError) as exc_info:
            run_trials(_unpicklable_even, 8, seed=3, n_workers=2)
        err = exc_info.value
        assert err.trial_index == idx
        assert err.trial_seed == seeds[idx]
        assert isinstance(err.__cause__, RemoteError)
        assert "pickle" in err.__cause__.message.lower()

    @pytest.mark.parametrize("n_workers", _WORKERS)
    def test_map_over_failure_names_index_and_seed(self, n_workers):
        blocks = child_seed_ints(3, 2)
        seeds = child_seed_ints(blocks[0], 8)
        idx = next(i for i, s in enumerate(seeds) if s % 2 == 0)
        with pytest.raises(TrialExecutionError) as exc_info:
            TrialExecutor(n_workers=n_workers).map_over(
                _raise_even_param, ["a", "b"], 8, seed=3
            )
        assert exc_info.value.trial_index == idx
        assert exc_info.value.trial_seed == seeds[idx]

    def test_reproduce_from_reported_seed(self):
        with pytest.raises(TrialExecutionError) as exc_info:
            run_trials(_raise_even, 8, seed=3)
        with pytest.raises(ValueError):
            _raise_even(exc_info.value.trial_seed)


class TestAttemptSeeds:
    def test_attempt_zero_matches_run_trials(self):
        table = _attempt_seed_table(42, 6, max_retries=3)
        assert [row[0] for row in table] == child_seed_ints(42, 6)
        assert all(len(row) == 4 for row in table)

    def test_retry_seeds_are_fresh(self):
        table = _attempt_seed_table(42, 4, max_retries=2)
        flat = [s for row in table for s in row]
        assert len(set(flat)) == len(flat)


class TestResilientSerial:
    def test_failure_free_matches_run_trials(self):
        assert (
            run_trials_resilient(_ok, 6, seed=7).results
            == run_trials(_ok, 6, seed=7)
        )

    def test_partial_results_and_report(self):
        batch = run_trials_resilient(
            _raise_even, 8, seed=3, max_retries=0, backoff_base=0.0
        )
        assert isinstance(batch, TrialBatchResult)
        assert batch.n_trials == 8
        assert 0 < batch.n_ok < 8
        assert not batch.ok
        for f in batch.failures:
            assert isinstance(f, TrialFailure)
            assert batch.results[f.trial_index] is None
            assert f.error_type == "ValueError"
            assert "even seed" in f.message
            assert "ValueError" in f.traceback
        report = batch.report()
        assert report["n_trials"] == 8
        assert report["n_ok"] == batch.n_ok
        assert len(report["failures"]) == len(batch.failures)
        assert "trials ok" in batch.summary()
        ok_values = batch.successes()
        assert len(ok_values) == batch.n_ok
        assert all(v is not None for v in ok_values)

    def test_retry_on_fresh_seed_can_succeed(self):
        # With retries, a trial whose first seed is even gets odd retry
        # seeds with probability 1/2 each — seed 3 is chosen so at least
        # one failing trial recovers (deterministic given the seed table).
        none = run_trials_resilient(
            _raise_even, 8, seed=3, max_retries=0, backoff_base=0.0
        )
        some = run_trials_resilient(
            _raise_even, 8, seed=3, max_retries=4, backoff_base=0.0
        )
        assert some.retries > 0
        assert len(some.failures) < len(none.failures)
        for f in some.failures:
            assert f.attempts == 5
            assert len(set(f.attempt_seeds)) == 5

    def test_closures_allowed_serially(self):
        calls = []
        batch = run_trials_resilient(
            lambda s: calls.append(s) or s, 3, seed=0
        )
        assert batch.ok and len(calls) == 3

    def test_empty_batch(self):
        batch = run_trials_resilient(_ok, 0, seed=0)
        assert batch.ok and batch.results == [] and batch.n_trials == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_trials_resilient(_ok, -1)
        with pytest.raises(ValueError):
            run_trials_resilient(_ok, 1, n_workers=0)
        with pytest.raises(ValueError):
            run_trials_resilient(_ok, 1, max_retries=-1)
        with pytest.raises(ValueError):
            run_trials_resilient(_ok, 1, backoff_base=-0.1)
        with pytest.raises(ValueError):
            run_trials_resilient(_ok, 1, backoff_factor=0.5)
        with pytest.raises(ValueError):
            run_trials_resilient(_ok, 1, timeout=0.0)

    def test_unpicklable_fn_rejected_for_processes(self):
        with pytest.raises(TypeError, match="picklable"):
            run_trials_resilient(lambda s: s, 2, n_workers=2)


@pytest.mark.slow
class TestResilientProcesses:
    def test_failure_free_parallel_matches_run_trials(self):
        batch = run_trials_resilient(_ok, 6, seed=11, n_workers=2)
        assert batch.ok
        assert batch.results == run_trials(_ok, 6, seed=11)

    def test_killed_worker_does_not_abort_batch(self):
        batch = run_trials_resilient(
            _sigkill_even, 6, seed=3, n_workers=2, max_retries=0,
            backoff_base=0.0,
        )
        assert batch.n_trials == 6
        assert batch.failures  # some child seeds are even
        assert batch.n_ok > 0
        for f in batch.failures:
            assert f.error_type == "WorkerCrash"
            assert "exited with code" in f.message
        # survivors produced real values
        for i, r in enumerate(batch.results):
            if i not in batch.failed_indices:
                assert r is not None

    def test_worker_exception_is_structured(self):
        batch = run_trials_resilient(
            _raise_even, 6, seed=3, n_workers=2, max_retries=0,
            backoff_base=0.0,
        )
        assert batch.failures
        for f in batch.failures:
            assert f.error_type == "ValueError"
            assert "even seed" in f.message
            assert "Traceback" in f.traceback

    def test_unpicklable_result_is_a_trial_failure(self):
        batch = run_trials_resilient(
            _unpicklable_even, 6, seed=3, n_workers=2, max_retries=1,
            backoff_base=0.0,
        )
        assert batch.failures and batch.n_ok > 0
        assert batch.retries > 0
        for f in batch.failures:
            assert "pickle" in f.message.lower()
        for i, r in enumerate(batch.results):
            if i not in batch.failed_indices:
                assert isinstance(r, int)

    def test_timeout_terminates_hung_trials(self):
        t0 = time.monotonic()
        batch = run_trials_resilient(
            _hang_even, 4, seed=3, n_workers=4, max_retries=0,
            backoff_base=0.0, timeout=2.0,
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 30  # far below the 60 s hang
        for f in batch.failures:
            assert f.error_type == "TrialTimeout"
            assert "wall-clock" in f.message

    def test_map_resilient(self):
        batch = TrialExecutor(n_workers=2).map_resilient(_ok, 4, seed=5)
        assert batch.ok
        assert batch.results == run_trials(_ok, 4, seed=5)


class _BatchedFn:
    """Block-protocol wrapper: ``run_batch(seeds) == [fn(s) for s in seeds]``.

    Records every batch seed vector it was handed, so tests can assert
    which attempt seeds actually entered each wave.
    """

    def __init__(self, fn):
        self.fn = fn
        self.batch_calls: list[list[int]] = []

    def __call__(self, seed: int) -> int:
        return self.fn(seed)

    def run_batch(self, seeds):
        self.batch_calls.append(list(seeds))
        return [self.fn(s) for s in seeds]


class TestBatchedRunTrials:
    def test_batched_matches_unbatched(self):
        for batch_size in (2, 3, 7, 50):
            fn = _BatchedFn(_ok)
            got = run_trials(fn, 7, seed=5, batch_size=batch_size)
            assert got == run_trials(_ok, 7, seed=5)
        assert [len(b) for b in fn.batch_calls] == [7]  # one 50-wide block

    def test_batch_size_one_runs_per_trial(self):
        fn = _BatchedFn(_ok)
        assert run_trials(fn, 4, seed=5, batch_size=1) == run_trials(
            _ok, 4, seed=5
        )
        assert fn.batch_calls == []  # protocol bypassed entirely

    def test_failing_batch_attributes_exact_trial(self):
        idx = _first_even_index(3, 8)
        seeds = child_seed_ints(3, 8)
        with pytest.raises(TrialExecutionError) as exc_info:
            run_trials(_BatchedFn(_raise_even), 8, seed=3, batch_size=4)
        assert exc_info.value.trial_index == idx
        assert exc_info.value.trial_seed == seeds[idx]

    def test_fn_without_run_batch_rejected(self):
        with pytest.raises(ValueError, match="run_batch"):
            run_trials(_ok, 4, seed=5, batch_size=2)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_trials(_BatchedFn(_ok), 4, seed=5, batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrialExecutor(batch_size=0)

    @pytest.mark.slow
    def test_pooled_batched_matches_serial(self):
        got = run_trials(
            _module_batched_ok, 6, seed=11, n_workers=2, batch_size=2
        )
        assert got == run_trials(_ok, 6, seed=11)


def _module_ok_batch(seeds):
    return [_ok(s) for s in seeds]


class _ModuleBatched:
    """Picklable batched fn for pool tests (module-level, no closures)."""

    def __call__(self, seed):
        return _ok(seed)

    def run_batch(self, seeds):
        return _module_ok_batch(seeds)


_module_batched_ok = _ModuleBatched()


class TestBatchedResilient:
    def test_failure_free_batched_matches_unbatched(self):
        fn = _BatchedFn(_ok)
        batch = run_trials_resilient(fn, 7, seed=5, batch_size=3)
        assert batch.ok
        assert batch.results == run_trials(_ok, 7, seed=5)
        assert [len(b) for b in fn.batch_calls] == [3, 3, 1]

    def test_batched_failures_match_unbatched(self):
        kw = dict(seed=3, max_retries=2, backoff_base=0.0)
        plain = run_trials_resilient(_raise_even, 8, **kw)
        batched = run_trials_resilient(
            _BatchedFn(_raise_even), 8, batch_size=3, **kw
        )
        assert batched.results == plain.results
        assert batched.retries == plain.retries
        assert [f.trial_index for f in batched.failures] == [
            f.trial_index for f in plain.failures
        ]
        for fb, fp in zip(batched.failures, plain.failures):
            assert fb.attempt_seeds == fp.attempt_seeds

    def test_retried_trial_reenters_batch_with_retry_seed(self):
        # Regression: the first cut re-enqueued failed trials with the
        # wave's original seed vector, so retries re-ran the seed that had
        # just failed.  A retry must contribute its *retry* seed (attempt
        # column 1, 2, ...) to the wave it joins.
        table = _attempt_seed_table(3, 8, max_retries=2)
        fn = _BatchedFn(_raise_even)
        run_trials_resilient(
            fn, 8, seed=3, batch_size=3, max_retries=2, backoff_base=0.0
        )
        seen = [s for wave in fn.batch_calls for s in wave]
        retried = [i for i in range(8) if table[i][0] % 2 == 0]
        assert retried, "seed 3 must produce failing attempt-0 trials"
        for i in retried:
            assert table[i][1] in seen, (
                f"trial {i}: retry seed never entered a later wave"
            )
            assert seen.count(table[i][0]) == 1, (
                f"trial {i}: failed attempt-0 seed was re-batched"
            )

    @pytest.mark.slow
    def test_processes_bypass_batching(self):
        # Process-per-attempt isolation supersedes batching: the pool path
        # must accept batch_size and ignore it (no run_batch required).
        batch = run_trials_resilient(
            _ok, 4, seed=5, n_workers=2, batch_size=3
        )
        assert batch.ok
        assert batch.results == run_trials(_ok, 4, seed=5)


class TestTracerIntegration:
    def test_batch_counters(self):
        from repro.obs import Tracer

        tracer = Tracer()
        batch = run_trials_resilient(
            _raise_even, 8, seed=3, max_retries=1, backoff_base=0.0,
            tracer=tracer,
        )
        snap = tracer.snapshot(include_timings=False)
        assert snap["counters"]["trials"] == 8
        assert snap["counters"]["trials_failed"] == len(batch.failures)
        assert snap["counters"]["trial_retries"] == batch.retries


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

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            run_trials_resilient(_ok, 1, backoff_jitter=-0.1)

    def test_jitter_does_not_touch_attempt_seeds(self):
        # The jitter stream is keyed off a dedicated namespace constant;
        # results, retries, and every attempt seed must match a
        # jitter-free run exactly.
        kw = dict(seed=3, max_retries=2, backoff_base=0.0)
        plain = run_trials_resilient(_raise_even, 8, backoff_jitter=0.0, **kw)
        jittered = run_trials_resilient(
            _raise_even, 8, backoff_jitter=0.9, **kw
        )
        assert jittered.results == plain.results
        assert jittered.retries == plain.retries
        for fj, fp in zip(jittered.failures, plain.failures):
            assert fj.attempt_seeds == fp.attempt_seeds

    def test_jittered_sleep_path_runs(self):
        # Exercise the sleeping branch with a micro base: outcome equals
        # the jitter-free run, just via the jittered delay computation.
        batch = run_trials_resilient(
            _raise_even, 4, seed=3, max_retries=1,
            backoff_base=1e-6, backoff_jitter=0.5,
        )
        ref = run_trials_resilient(
            _raise_even, 4, seed=3, max_retries=1, backoff_base=0.0
        )
        assert batch.results == ref.results
