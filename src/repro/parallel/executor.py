"""Seeded Monte-Carlo trial execution, serial or multiprocess.

The contract: ``run_trials(fn, n, seed)`` calls ``fn(child_seed_i)`` for
*n* statistically independent child seeds derived from one master seed
(``SeedSequence.spawn``) and returns results **in trial order**, no matter
how many workers executed them or in what order they finished.  That makes
experiment sweeps reproducible and trivially parallelizable — the same
discipline mpi4py programs use (independent per-rank streams), realized
here with :mod:`multiprocessing` since no MPI runtime is assumed.

``fn`` must be a picklable module-level callable for process pools; pass
``n_workers=1`` (or leave the default) for closures/lambdas.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.ckpt import (
    decode_value,
    encode_value,
    resolve_checkpoint,
    seed_fingerprint,
    trap_signals,
)
from repro.core.potentials import shared_registry
from repro.obs import NULL_TRACER, NullTracer
from repro.utils.rng import RNGLike, child_seed_ints, spawn_seeds

T = TypeVar("T")

__all__ = [
    "run_trials",
    "run_trials_resilient",
    "TrialExecutor",
    "TrialExecutionError",
    "TrialFailure",
    "TrialBatchResult",
]


def pool_map_interruptible(pool, fn, iterable, chunksize=None):
    """``pool.map`` that stays responsive to ``KeyboardInterrupt``.

    A bare ``Pool.map`` blocks in an uninterruptible wait while workers
    run; Ctrl-C (or a trapped SIGTERM) then leaves orphaned worker
    processes behind.  Polling the async result with short timeouts keeps
    the main thread receptive to signals; on any interruption the caller
    must terminate/join the pool (see :func:`run_trials`).
    """
    result = pool.map_async(fn, iterable, chunksize=chunksize)
    while not result.ready():
        result.wait(0.2)
    return result.get()


def _record_cache_stats(tracer: NullTracer, before: dict) -> None:
    """Batch-level potential-cache telemetry: hit/miss deltas over the run
    plus resident bytes.  Reflects this process's registry only — pool
    workers each warm their own copy, which these counters cannot see
    (their effect still shows up as wall-clock speedup).
    """
    after = shared_registry().stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    if hits:
        tracer.count("cache_hits", hits)
    if misses:
        tracer.count("cache_misses", misses)
    tracer.gauge_max("cache_bytes", after["bytes"])


class TrialExecutionError(RuntimeError):
    """A trial raised inside :func:`run_trials`.

    Carries the failing trial's index and child seed so the exact trial
    can be reproduced in isolation (``fn(trial_seed)``) — chained to the
    original exception via ``__cause__``.
    """

    def __init__(self, trial_index: int, trial_seed: int, cause: BaseException) -> None:
        self.trial_index = int(trial_index)
        self.trial_seed = int(trial_seed)
        super().__init__(
            f"trial {trial_index} (seed {trial_seed}) raised "
            f"{type(cause).__name__}: {cause}; reproduce with "
            f"fn({trial_seed}), or use run_trials_resilient for "
            "partial results instead of an abort"
        )


def _batch_fn(fn: Callable, batch_size: int | None):
    """Resolve the batched-execution protocol for *fn*.

    Returns ``fn.run_batch`` when batching was requested and *fn* supports
    it, else ``None``.  The contract: ``fn.run_batch(seeds)`` must return
    one result per seed, in order, equal to ``[fn(s) for s in seeds]`` —
    batching is an execution strategy, never a semantic change (grid-BP
    solvers satisfy this via :func:`repro.core.bnloc.localize_batch`,
    which stacks compatible trials and falls back per-trial otherwise).
    """
    if batch_size is None:
        return None
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size == 1:
        return None
    run_batch = getattr(fn, "run_batch", None)
    if run_batch is None:
        raise ValueError(
            f"batch_size={batch_size} requires fn to provide a "
            "run_batch(seeds) method returning one result per seed; "
            f"{fn!r} has none (omit batch_size to run per-trial)"
        )
    return run_batch


def _run_batch_block(args):
    """Module-level (picklable) block runner for batched ``run_trials``.

    Runs one block through ``fn.run_batch``; if the batch call fails, each
    trial reruns individually so the error is attributed to the exact
    (trial, seed) that caused it.
    """
    fn, start, seeds_block = args
    try:
        out = list(fn.run_batch(seeds_block))
        if len(out) != len(seeds_block):
            raise RuntimeError(
                f"run_batch returned {len(out)} results for "
                f"{len(seeds_block)} seeds"
            )
        return out
    except Exception:
        out = []
        for k, s in enumerate(seeds_block):
            try:
                out.append(fn(s))
            except Exception as exc:
                raise TrialExecutionError(start + k, s, exc) from exc
        return out


def _require_picklable(fn: Callable) -> None:
    """Fail fast, and clearly, before a pool ever sees an unpicklable fn.

    ``multiprocessing`` otherwise surfaces this as a raw traceback from
    deep inside the pool machinery, long after the workers have spawned.
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise TypeError(
            f"fn {fn!r} is not picklable, so it cannot be shipped to "
            "worker processes: with n_workers > 1 the trial function must "
            "be a module-level callable (not a lambda, closure, or bound "
            "local); use n_workers=1 for unpicklable functions"
        ) from exc


def run_trials(
    fn: Callable[[int], T],
    n_trials: int,
    seed: RNGLike = None,
    n_workers: int = 1,
    chunksize: int | None = None,
    tracer: NullTracer | None = None,
    batch_size: int | None = None,
) -> list[T]:
    """Run ``fn(child_seed)`` for *n_trials* independent seeds.

    Parameters
    ----------
    fn:
        Trial function taking one integer seed.  Must be a picklable
        module-level callable when ``n_workers > 1`` (checked up front; a
        lambda or closure raises :class:`TypeError` with guidance instead
        of a raw :mod:`multiprocessing` traceback).
    n_trials:
        Number of trials.
    seed:
        Master seed; children are spawned from it.
    n_workers:
        1 = serial (default); > 1 = process pool of that size.
    chunksize:
        Pool chunk size (must be >= 1 when given); default balances load
        as ``ceil(n / (4·workers))``.
    tracer:
        Optional :class:`~repro.obs.Tracer`; times the batch under
        ``"run_trials"`` and counts trials.  Workers do not share it —
        aggregate worker-side traces with
        :func:`repro.obs.merge_traces` instead.
    batch_size:
        Run trials in blocks of up to this many consecutive seeds through
        ``fn.run_batch(seeds)`` (required to exist, to return one result
        per seed in order, and to equal ``[fn(s) for s in seeds]`` — the
        batched grid-BP kernel satisfies this bit-exactly).  Per-trial
        child seeds are unchanged, so results are identical to the
        unbatched run.  If a batch call raises, its trials rerun
        individually so the failure is attributed to the exact trial.
        With ``n_workers > 1`` each pool task is one block.

    Returns
    -------
    list
        Trial results in seed order (deterministic given *seed*).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if chunksize is not None and chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    run_batch = _batch_fn(fn, batch_size)
    tracer = tracer if tracer is not None else NULL_TRACER
    seeds = child_seed_ints(seed, n_trials)
    if n_trials == 0:
        return []
    blocks = None
    if run_batch is not None:
        blocks = [
            (fn, start, seeds[start : start + batch_size])
            for start in range(0, n_trials, batch_size)
        ]
    cache_before = shared_registry().stats() if tracer.enabled else None
    with tracer.timer("run_trials"):
        if n_workers == 1:
            if blocks is not None:
                out = []
                for blk in blocks:
                    out.extend(_run_batch_block(blk))
            else:
                out = []
                for i, s in enumerate(seeds):
                    try:
                        out.append(fn(s))
                    except Exception as exc:
                        raise TrialExecutionError(i, s, exc) from exc
        else:
            _require_picklable(fn)
            ctx = mp.get_context("spawn")
            pool = ctx.Pool(processes=n_workers)
            try:
                if blocks is not None:
                    nested = pool_map_interruptible(
                        pool, _run_batch_block, blocks, chunksize=chunksize or 1
                    )
                    out = [r for blk in nested for r in blk]
                else:
                    if chunksize is None:
                        chunksize = max(
                            1, (n_trials + 4 * n_workers - 1) // (4 * n_workers)
                        )
                    out = pool_map_interruptible(
                        pool, fn, seeds, chunksize=chunksize
                    )
                pool.close()
                pool.join()
            except BaseException:
                # KeyboardInterrupt (possibly a trapped SIGTERM) or a
                # worker exception: kill the workers instead of orphaning
                # them behind an uninterruptible map().
                pool.terminate()
                pool.join()
                raise
    if tracer.enabled:
        tracer.count("trials", n_trials)
        tracer.annotate("n_workers", n_workers)
        if run_batch is not None:
            tracer.annotate("batch_size", batch_size)
        _record_cache_stats(tracer, cache_before)
    return out


@dataclass
class TrialFailure:
    """One trial that exhausted its retry budget.

    Everything needed to reproduce the failure offline: the trial index,
    the seed of every attempt (the first entry is the original child
    seed), and the final attempt's error with its traceback text.
    """

    trial_index: int
    attempt_seeds: list[int]
    error_type: str
    message: str
    traceback: str = ""

    @property
    def trial_seed(self) -> int:
        return self.attempt_seeds[0]

    @property
    def attempts(self) -> int:
        return len(self.attempt_seeds)

    def to_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "attempt_seeds": list(self.attempt_seeds),
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class TrialBatchResult:
    """Partial results of a resilient trial batch.

    ``results`` is in trial order with ``None`` at failed indices;
    ``failures`` holds one structured :class:`TrialFailure` per failed
    trial.  The batch never raises for individual trial failures — check
    :attr:`ok` (or ``failures``) explicitly.
    """

    results: list
    failures: list[TrialFailure] = field(default_factory=list)
    retries: int = 0

    @property
    def n_trials(self) -> int:
        return len(self.results)

    @property
    def n_ok(self) -> int:
        return self.n_trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> list[int]:
        return [f.trial_index for f in self.failures]

    def successes(self) -> list:
        """Results of the successful trials only, in trial order."""
        failed = set(self.failed_indices)
        return [r for i, r in enumerate(self.results) if i not in failed]

    def report(self) -> dict:
        """JSON-safe failure report for logs and trace files."""
        return {
            "n_trials": self.n_trials,
            "n_ok": self.n_ok,
            "retries": self.retries,
            "failures": [f.to_dict() for f in self.failures],
        }

    def summary(self) -> str:
        if self.ok:
            return f"{self.n_ok}/{self.n_trials} trials ok"
        worst = ", ".join(
            f"#{f.trial_index}: {f.error_type}" for f in self.failures[:4]
        )
        more = "" if len(self.failures) <= 4 else f", +{len(self.failures) - 4} more"
        return (
            f"{self.n_ok}/{self.n_trials} trials ok "
            f"({self.retries} retries; failed {worst}{more})"
        )


def _attempt_seed_table(seed: RNGLike, n_trials: int, max_retries: int) -> list[list[int]]:
    """Per-trial attempt seeds.  Attempt 0 equals the seed ``run_trials``
    would use (so a failure-free resilient batch reproduces ``run_trials``
    exactly); retries draw fresh independent child streams."""
    table: list[list[int]] = []
    for ss in spawn_seeds(seed, n_trials):
        first = int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFF_FFFF_FFFF_FFFF)
        retries = [
            int(c.generate_state(1, dtype=np.uint64)[0] & 0x7FFF_FFFF_FFFF_FFFF)
            for c in ss.spawn(max_retries)
        ]
        table.append([first, *retries])
    return table


def _subprocess_trial(fn: Callable, seed: int, conn) -> None:
    """Entry point of one spawned trial process: run, ship the outcome
    back over the pipe, never let an exception escape unreported."""
    try:
        result = fn(seed)
        payload = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - full isolation by design
        payload = ("err", type(exc).__name__, str(exc), traceback.format_exc())
    try:
        conn.send(payload)
    except Exception:
        # Unpicklable result/exception: report what we can.
        try:
            conn.send(("err", "PicklingError",
                       "trial outcome could not be pickled", ""))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Attempt:
    """Bookkeeping of one in-flight or queued trial attempt."""

    trial_index: int
    attempt: int
    ready_at: float = 0.0
    process: object = None
    conn: object = None
    deadline: float | None = None


def run_trials_resilient(
    fn: Callable[[int], T],
    n_trials: int,
    seed: RNGLike = None,
    n_workers: int = 1,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    backoff_factor: float = 2.0,
    backoff_jitter: float = 0.1,
    timeout: float | None = None,
    tracer: NullTracer | None = None,
    checkpoint=None,
    batch_size: int | None = None,
) -> TrialBatchResult:
    """Fault-tolerant variant of :func:`run_trials`.

    A raising, crashing (e.g. OOM-killed), or timed-out trial no longer
    aborts the batch: it is retried up to *max_retries* times on a fresh
    independent child seed with exponential backoff, and if it still
    fails the batch completes anyway, returning the successes plus a
    structured failure report (:class:`TrialBatchResult`).

    Backoff delays carry seeded, deterministic jitter (*backoff_jitter*
    sets the fractional spread; 0 disables): each retry's delay is
    stretched by a factor in ``[1, 1 + backoff_jitter)`` derived from that
    retry's child seed, so trials that failed together — a correlated
    stall on a shared worker pool — do not retry in a synchronized wave,
    yet identical runs sleep identically.  The jitter stream is
    namespaced away from the trial seed streams, so attempt seeds are
    exactly those of a jitter-free run.

    Execution model
    ---------------
    * ``n_workers == 1`` and ``timeout is None``: trials run in-process
      (closures allowed), exceptions are caught and retried.
    * otherwise: every attempt runs in its own spawned process (at most
      *n_workers* concurrently), so a killed or hung worker is detected —
      nonzero exit status and wall-clock *timeout* respectively — and
      only that trial is affected.  *fn* must then be picklable, as in
      :func:`run_trials`.

    A failure-free batch returns exactly the results ``run_trials`` would
    have produced: attempt-0 seeds are identical, and retry seeds are
    fresh spawned streams that cannot collide with them.

    *batch_size* enables the ``fn.run_batch`` block protocol of
    :func:`run_trials` on the in-process path: pending (trial, attempt)
    entries run in waves of up to *batch_size*, and a retried trial
    re-enters its wave with **its retry seed**, never the wave's original
    seed vector — so retry streams stay exactly those of the unbatched
    resilient run.  A failing wave falls back to per-trial execution for
    precise failure attribution.  On the process-isolated path
    (``n_workers > 1`` or a *timeout*) batching is ignored: each attempt
    already owns a process, which is the isolation the caller asked for.

    Checkpointing
    -------------
    With ``checkpoint=<ledger path>`` (or an open
    :class:`~repro.ckpt.Checkpoint`), every successful trial is durably
    appended to a write-ahead ledger the moment it completes; restarting
    the identical call replays the ledger, skips finished trials, and
    runs only the missing ones on the same attempt seeds — bit-identical
    to an uninterrupted batch.  Trial results must be built from plain
    data (scalars, lists, tuples, dicts, NumPy arrays — see
    :mod:`repro.ckpt.snapshot`), the master seed must be reproducible
    (int or ``SeedSequence``), and only successes are checkpointed:
    previously failed trials get a fresh set of attempts on resume.
    SIGTERM is trapped for the duration so the ledger closes flushed and
    worker processes are torn down rather than orphaned.

    Returns
    -------
    TrialBatchResult
        ``results`` in trial order (``None`` where all attempts failed),
        plus per-failure diagnostics and the total retry count.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if backoff_base < 0:
        raise ValueError("backoff_base must be non-negative")
    if backoff_factor < 1.0:
        raise ValueError("backoff_factor must be >= 1")
    if backoff_jitter < 0:
        raise ValueError("backoff_jitter must be non-negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    tracer = tracer if tracer is not None else NULL_TRACER
    if n_trials == 0:
        return TrialBatchResult(results=[])

    ck = owned = None
    if checkpoint is not None:
        ck, owned = resolve_checkpoint(
            checkpoint,
            lambda: {
                "kind": "trials",
                "n_trials": int(n_trials),
                "seed": seed_fingerprint(seed),
                "total_cells": int(n_trials),
            },
        )

    seeds = _attempt_seed_table(seed, n_trials, max_retries)
    use_processes = n_workers > 1 or timeout is not None
    if use_processes:
        _require_picklable(fn)
        batch_size = None  # process-per-attempt isolation supersedes batching
    run_batch = _batch_fn(fn, batch_size)

    done: dict[int, object] = {}
    record = None
    if ck is not None:
        for i in range(n_trials):
            payload = ck.get(f"trial:{i}")
            if payload is not None:
                done[i] = decode_value(payload["result"])

        def record(i: int, s: int, result) -> None:
            ck.record(
                f"trial:{i}", {"seed": int(s), "result": encode_value(result)}
            )

    cache_before = shared_registry().stats() if tracer.enabled else None
    trap = trap_signals() if ck is not None else contextlib.nullcontext()
    try:
        with tracer.timer("run_trials_resilient"), trap:
            if use_processes:
                batch = _run_resilient_processes(
                    fn, seeds, n_workers, backoff_base, backoff_factor, timeout,
                    jitter=backoff_jitter, done=done, record=record,
                )
            elif run_batch is not None:
                batch = _run_resilient_serial_batched(
                    fn, seeds, batch_size, backoff_base, backoff_factor,
                    jitter=backoff_jitter, done=done, record=record,
                )
            else:
                batch = _run_resilient_serial(
                    fn, seeds, backoff_base, backoff_factor,
                    jitter=backoff_jitter, done=done, record=record,
                )
    finally:
        if ck is not None:
            ck.emit_counters(tracer)
            if owned:
                ck.close()
    if tracer.enabled:
        tracer.count("trials", n_trials)
        tracer.count("trials_failed", len(batch.failures))
        tracer.count("trial_retries", batch.retries)
        tracer.annotate("n_workers", n_workers)
        _record_cache_stats(tracer, cache_before)
    return batch


#: namespace of the backoff-jitter stream — keeps it disjoint from every
#: trial/retry seed stream no matter what master seed the caller picked
_BACKOFF_JITTER_KEY = 0xB0FF_1E77


def _backoff(
    base: float,
    factor: float,
    attempt: int,
    jitter: float = 0.0,
    token: int | None = None,
) -> float:
    """Exponential backoff with seeded, deterministic jitter.

    The jitter multiplier lies in ``[1, 1 + jitter)`` and is a pure
    function of *token* — callers pass the retry attempt's child seed, so
    the wave of trials retrying after a correlated failure (a shared pool
    stall, a node flap) fans out over distinct delays instead of
    stampeding back in lockstep, while the exact same run replays the
    exact same sleeps.  The trial seed streams themselves are untouched:
    the jitter draw comes from a fresh :class:`~numpy.random.SeedSequence`
    namespaced under :data:`_BACKOFF_JITTER_KEY`, never from the streams
    that produce attempt seeds.
    """
    delay = base * factor**attempt if base > 0 else 0.0
    if delay > 0.0 and jitter > 0.0 and token is not None:
        word = np.random.SeedSequence(
            [_BACKOFF_JITTER_KEY, int(token)]
        ).generate_state(1, dtype=np.uint64)[0]
        delay *= 1.0 + jitter * (float(word) / 2.0**64)
    return delay


def _run_resilient_serial(
    fn,
    seeds: list[list[int]],
    backoff_base: float,
    backoff_factor: float,
    jitter: float = 0.0,
    done: dict | None = None,
    record=None,
) -> TrialBatchResult:
    results: list = [None] * len(seeds)
    failures: list[TrialFailure] = []
    retries = 0
    done = done or {}
    for i, attempt_seeds in enumerate(seeds):
        if i in done:
            results[i] = done[i]
            continue
        last: tuple[str, str, str] | None = None
        for attempt, s in enumerate(attempt_seeds):
            if attempt > 0:
                retries += 1
                time.sleep(
                    _backoff(backoff_base, backoff_factor, attempt - 1, jitter, s)
                )
            try:
                results[i] = fn(s)
                last = None
            except Exception as exc:
                last = (type(exc).__name__, str(exc), traceback.format_exc())
                continue
            # Outside the try: a ledger failure (or the CheckpointAbort
            # test hook) must abort the batch, not look like a trial error.
            if record is not None:
                record(i, s, results[i])
            break
        if last is not None:
            failures.append(
                TrialFailure(i, list(attempt_seeds), last[0], last[1], last[2])
            )
    return TrialBatchResult(results=results, failures=failures, retries=retries)


def _run_resilient_serial_batched(
    fn,
    seeds: list[list[int]],
    batch_size: int,
    backoff_base: float,
    backoff_factor: float,
    jitter: float = 0.0,
    done: dict | None = None,
    record=None,
) -> TrialBatchResult:
    """In-process batched execution with retry waves.

    Pending ``(trial, attempt)`` entries run in waves of up to
    *batch_size* through ``fn.run_batch``.  Each entry contributes **its
    own attempt seed** — a trial retrying after a failure re-enters a
    later wave on its retry seed next to other trials' attempt-0 seeds,
    so every trial consumes exactly the seed stream the unbatched
    resilient path would have given it.  A wave whose batch call fails
    falls back to per-trial execution, which both attributes the error to
    the precise trial and (fn being deterministic) reproduces the results
    the batch would have returned for the healthy trials.
    """
    n = len(seeds)
    results: list = [None] * n
    failed: set[int] = set()
    errors: dict[int, tuple[str, str, str]] = {}
    retries = 0
    done = done or {}
    for i, r in done.items():
        results[i] = r

    pending: deque[tuple[int, int]] = deque(
        (i, 0) for i in range(n) if i not in done
    )
    while pending:
        wave = [pending.popleft() for _ in range(min(batch_size, len(pending)))]
        wave_seeds = [seeds[i][att] for i, att in wave]
        delay = 0.0
        for i, att in wave:
            if att > 0:
                retries += 1
                delay = max(
                    delay,
                    _backoff(
                        backoff_base, backoff_factor, att - 1, jitter, seeds[i][att]
                    ),
                )
        if delay > 0:
            time.sleep(delay)
        block = None
        try:
            out = list(fn.run_batch(wave_seeds))
            if len(out) == len(wave_seeds):
                block = out
        except Exception:
            block = None
        if block is not None:
            for (i, _att), s, r in zip(wave, wave_seeds, block):
                results[i] = r
                errors.pop(i, None)
                # Outside the try above: a ledger failure (or the
                # CheckpointAbort test hook) must abort the batch, not
                # masquerade as a trial error.
                if record is not None:
                    record(i, s, r)
            continue
        for (i, att), s in zip(wave, wave_seeds):
            try:
                r = fn(s)
            except Exception as exc:
                errors[i] = (type(exc).__name__, str(exc), traceback.format_exc())
                if att + 1 < len(seeds[i]):
                    pending.append((i, att + 1))
                else:
                    failed.add(i)
                continue
            results[i] = r
            errors.pop(i, None)
            if record is not None:
                record(i, s, r)
    failures = [
        TrialFailure(i, list(seeds[i]), *errors[i]) for i in sorted(failed)
    ]
    return TrialBatchResult(results=results, failures=failures, retries=retries)


def _run_resilient_processes(
    fn,
    seeds: list[list[int]],
    n_workers: int,
    backoff_base: float,
    backoff_factor: float,
    timeout: float | None,
    jitter: float = 0.0,
    done: dict | None = None,
    record=None,
) -> TrialBatchResult:
    """Process-per-attempt execution: crashes and hangs are contained.

    Unlike a shared pool, a killed worker here takes down exactly one
    attempt (detected by its exit status) and a hung trial is terminated
    at its deadline — the rest of the batch is untouched.
    """
    ctx = mp.get_context("spawn")
    n = len(seeds)
    results: list = [None] * n
    errors: dict[int, tuple[str, str, str]] = {}
    failed: set[int] = set()
    retries = 0
    done = done or {}
    for i, r in done.items():
        results[i] = r

    queue: deque[_Attempt] = deque(
        _Attempt(trial_index=i, attempt=0) for i in range(n) if i not in done
    )
    running: list[_Attempt] = []

    def launch(item: _Attempt) -> None:
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_subprocess_trial,
            args=(fn, seeds[item.trial_index][item.attempt], child),
            daemon=True,
        )
        proc.start()
        child.close()
        item.process, item.conn = proc, parent
        item.deadline = (time.monotonic() + timeout) if timeout else None
        running.append(item)

    def finish(item: _Attempt, outcome: tuple | None, crashed: str | None) -> None:
        nonlocal retries
        i = item.trial_index
        if outcome is not None and outcome[0] == "ok":
            results[i] = outcome[1]
            errors.pop(i, None)
            if record is not None:
                record(i, seeds[i][item.attempt], outcome[1])
            return
        if outcome is not None:
            errors[i] = (outcome[1], outcome[2], outcome[3])
        else:
            errors[i] = (
                "WorkerCrash" if crashed == "crash" else "TrialTimeout",
                (
                    f"worker exited with code {item.process.exitcode}"
                    if crashed == "crash"
                    else f"trial exceeded {timeout}s wall-clock timeout"
                ),
                "",
            )
        if item.attempt + 1 < len(seeds[i]):
            retries += 1
            queue.append(
                _Attempt(
                    trial_index=i,
                    attempt=item.attempt + 1,
                    ready_at=time.monotonic()
                    + _backoff(
                        backoff_base,
                        backoff_factor,
                        item.attempt,
                        jitter,
                        seeds[i][item.attempt + 1],
                    ),
                )
            )
        else:
            failed.add(i)

    try:
        while queue or running:
            now = time.monotonic()
            while queue and len(running) < n_workers:
                # Launch the first queued attempt whose backoff elapsed.
                ready = next((a for a in queue if a.ready_at <= now), None)
                if ready is None:
                    break
                queue.remove(ready)
                launch(ready)
            progressed = False
            for item in list(running):
                outcome = None
                crashed = None
                if item.conn.poll():
                    try:
                        outcome = item.conn.recv()
                    except EOFError:
                        crashed = "crash"
                elif not item.process.is_alive():
                    crashed = "crash"
                elif item.deadline is not None and now > item.deadline:
                    item.process.terminate()
                    crashed = "timeout"
                else:
                    continue
                progressed = True
                running.remove(item)
                item.process.join()
                item.conn.close()
                finish(item, outcome, crashed)
            if not progressed:
                time.sleep(0.005)
    finally:
        for item in running:
            item.process.terminate()
            item.process.join()
            item.conn.close()

    failures = [
        TrialFailure(i, list(seeds[i]), *errors[i]) for i in sorted(failed)
    ]
    return TrialBatchResult(results=results, failures=failures, retries=retries)


class TrialExecutor:
    """Reusable executor with fixed worker settings.

    Convenient when an experiment harness runs many sweeps with the same
    parallel configuration::

        ex = TrialExecutor(n_workers=4)
        results = ex.map(trial_fn, n_trials=100, seed=0)
    """

    def __init__(
        self,
        n_workers: int = 1,
        chunksize: int | None = None,
        batch_size: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.n_workers = int(n_workers)
        self.chunksize = chunksize
        self.batch_size = batch_size

    def map(
        self, fn: Callable[[int], T], n_trials: int, seed: RNGLike = None
    ) -> list[T]:
        return run_trials(
            fn,
            n_trials,
            seed,
            n_workers=self.n_workers,
            chunksize=self.chunksize,
            batch_size=self.batch_size,
        )

    def map_resilient(
        self,
        fn: Callable[[int], T],
        n_trials: int,
        seed: RNGLike = None,
        max_retries: int = 2,
        timeout: float | None = None,
    ) -> TrialBatchResult:
        """Fault-tolerant :meth:`map`: see :func:`run_trials_resilient`."""
        return run_trials_resilient(
            fn,
            n_trials,
            seed,
            n_workers=self.n_workers,
            max_retries=max_retries,
            timeout=timeout,
            batch_size=self.batch_size,
        )

    def map_over(
        self,
        fn: Callable[[object, int], T],
        params: Sequence,
        trials_per_param: int,
        seed: RNGLike = None,
    ) -> list[list[T]]:
        """For each parameter value, run ``trials_per_param`` trials.

        ``fn(param, child_seed)`` is called with independent seeds; each
        parameter gets its own spawned seed block, so adding parameters
        never perturbs the trials of existing ones.
        """
        blocks = child_seed_ints(seed, len(params))
        out: list[list[T]] = []
        for p, block_seed in zip(params, blocks):
            out.append(
                run_trials(
                    lambda s, _p=p: fn(_p, s),
                    trials_per_param,
                    block_seed,
                    n_workers=1,  # closures are not picklable; stay serial here
                )
                if self.n_workers == 1
                else self._map_param(fn, p, trials_per_param, block_seed)
            )
        return out

    def _map_param(self, fn, param, n_trials: int, seed: int) -> list:
        _require_picklable(fn)
        seeds = child_seed_ints(seed, n_trials)
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=self.n_workers) as pool:
            return pool.starmap(
                fn, [(param, s) for s in seeds], chunksize=self.chunksize or 1
            )
