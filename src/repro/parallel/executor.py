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
import functools
import heapq
import pickle
import time
from concurrent import futures
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
from repro.parallel.pool import (
    RemoteError,
    WarmPool,
    WorkerCrash,
    WorkerTimeout,
    _backoff,
)
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


def _run_block(fn: Callable, seeds: list[int], batched: bool) -> list[tuple]:
    """Run a block of trials: one ``(result, None)`` or ``(None, exc)`` per seed.

    A batched block goes through ``fn.run_batch`` first; if that call
    fails, each trial reruns individually so every failure is attributed
    to the exact trial that caused it.
    """
    if batched:
        try:
            out = list(fn.run_batch(seeds))
            if len(out) == len(seeds):
                return [(r, None) for r in out]
        except Exception:
            pass
    outcomes = []
    for s in seeds:
        try:
            outcomes.append((fn(s), None))
        except Exception as exc:
            outcomes.append((None, exc))
    return outcomes


def _run_block_remote(task) -> list[tuple]:
    """:func:`_run_block` of ``task = (fn, seeds, batched)`` whose trial
    exceptions travel as :class:`~repro.parallel.pool.RemoteError`."""
    return [
        (r, None if exc is None else RemoteError.capture(exc))
        for r, exc in _run_block(*task)
    ]


def _run_seeds(
    fn, seeds: list[int], pool: WarmPool | None, batch_size: int | None
) -> list:
    """``[fn(s) for s in seeds]`` in blocks, serially or on *pool*.

    Blocks go through ``fn.run_batch`` in *batch_size* trials when that
    is given (validated by :func:`_batch_fn`), else are single trials in
    process and ``ceil(n / (4·workers))`` trials per pool task.  The
    first failing trial (in trial order) raises
    :class:`TrialExecutionError` naming its index and seed; a pool block
    whose reply cannot come back (say, a result that does not pickle)
    fails as its first trial.
    """
    batched = batch_size is not None
    if batched:
        size = batch_size
    elif pool is None:
        size = 1
    else:
        size = max(1, -(-len(seeds) // (4 * pool.n_workers)))
    starts = range(0, len(seeds), size)
    if pool is None:
        blocks = (_run_block(fn, seeds[i : i + size], batched) for i in starts)
    else:
        blocks = pool.map(
            _run_block_remote, [(fn, seeds[i : i + size], batched) for i in starts]
        )
    out: list = []
    for start in starts:
        try:
            outcomes = next(blocks)
        except RemoteError as exc:  # the block's reply failed (e.g. did not pickle)
            outcomes = [(None, exc)]
        for k, (result, exc) in enumerate(outcomes):
            if exc is not None:
                raise TrialExecutionError(start + k, seeds[start + k], exc) from exc
            out.append(result)
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
        1 = serial (default); > 1 = a :class:`~repro.parallel.pool.WarmPool`
        of that size, fed blocks of ``ceil(n / (4·workers))`` trials.
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

    Raises
    ------
    TrialExecutionError
        The first failing trial (in trial order), with its index and
        seed; chained to the trial's exception, which from a worker is a
        :class:`~repro.parallel.pool.RemoteError`.  There is no retry, and
        a crashed worker raises :class:`~repro.parallel.pool.WorkerCrash`.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if _batch_fn(fn, batch_size) is None:
        batch_size = None
    tracer = tracer if tracer is not None else NULL_TRACER
    seeds = child_seed_ints(seed, n_trials)
    if n_trials == 0:
        return []
    cache_before = shared_registry().stats() if tracer.enabled else None
    with tracer.timer("run_trials"):
        if n_workers == 1:
            out = _run_seeds(fn, seeds, None, batch_size)
        else:
            _require_picklable(fn)
            with WarmPool(n_workers) as pool:
                out = _run_seeds(fn, seeds, pool, batch_size)
    if tracer.enabled:
        tracer.count("trials", n_trials)
        tracer.annotate("n_workers", n_workers)
        if batch_size is not None:
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
    * otherwise: attempts run on a :class:`~repro.parallel.pool.WarmPool`
      of *n_workers* warm processes, so a killed or hung worker is
      detected — dead pipe and wall-clock *timeout* respectively — and
      only that attempt is affected; the worker is killed and replaced.
      *fn* must then be picklable, as in :func:`run_trials`.

    A failure-free batch returns exactly the results ``run_trials`` would
    have produced: attempt-0 seeds are identical, and retry seeds are
    fresh spawned streams that cannot collide with them.

    *batch_size* enables the ``fn.run_batch`` block protocol of
    :func:`run_trials` on the in-process path: pending (trial, attempt)
    entries run in waves of up to *batch_size*, and a retried trial
    re-enters its wave with **its retry seed**, never the wave's original
    seed vector — so retry streams stay exactly those of the unbatched
    resilient run.  A failing wave falls back to per-trial execution for
    precise failure attribution.  On the pool (``n_workers > 1`` or a
    *timeout*) batching is ignored: each attempt is its own pool call, so
    a crash or timeout costs exactly one attempt.

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
        batch_size = None  # one pool call per attempt supersedes batching
    wave = batch_size if _batch_fn(fn, batch_size) is not None else 1

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
            pool = WarmPool(n_workers) if use_processes else contextlib.nullcontext()
            with pool:
                batch = _run_resilient(
                    fn, seeds, pool.submit if use_processes else _submit_inline,
                    n_workers, wave, backoff_base, backoff_factor, timeout,
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


def _submit_inline(fn, *args, timeout=None) -> futures.Future:
    """In-process stand-in for ``WarmPool.submit``: runs the call now and
    returns its finished future."""
    fut: futures.Future = futures.Future()
    fut.set_result(fn(*args))
    return fut


def _run_resilient(
    fn,
    seeds: list[list[int]],
    submit,
    slots: int,
    wave: int,
    backoff_base: float,
    backoff_factor: float,
    timeout: float | None,
    jitter: float,
    done: dict,
    record,
) -> TrialBatchResult:
    """Drive every pending (trial, attempt) to success or exhaustion.

    Ready attempts run in waves of up to *wave* (one ``fn.run_batch``
    block when *wave* > 1) through *submit* — a warm pool's, or
    :func:`_submit_inline` — with at most *slots* waves in flight.  Each
    entry contributes **its own attempt seed**, so a retried trial joins
    a later wave on its retry seed and every trial consumes exactly the
    seed stream of an unbatched run.  A failed attempt re-enters on the
    trial's next attempt seed once its backoff has elapsed.  On a pool a
    crashed or timed-out worker, or a reply that cannot come back (say, a
    result that does not pickle), fails only the attempts of that wave.
    """
    n = len(seeds)
    results: list = [None] * n
    errors: dict[int, RemoteError] = {}
    failed: set[int] = set()
    retries = 0
    for i, r in done.items():
        results[i] = r
    # heap of (ready_at, trial, attempt); first attempts are due at once
    ready = [(0.0, i, 0) for i in range(n) if i not in done]
    inflight: dict = {}  # future -> [(trial, attempt), ...]
    while ready or inflight:
        now = time.monotonic()
        while ready and ready[0][0] <= now and len(inflight) < slots:
            entries = []
            while ready and ready[0][0] <= now and len(entries) < wave:
                entries.append(heapq.heappop(ready)[1:])
            task = (fn, [seeds[i][a] for i, a in entries], wave > 1)
            inflight[submit(_run_block_remote, task, timeout=timeout)] = entries
        if not inflight:
            time.sleep(ready[0][0] - now)
            continue
        wait_s = None  # until a wave completes, or the next retry is due
        if ready and len(inflight) < slots:
            wait_s = max(0.0, ready[0][0] - now)
        finished, _ = futures.wait(
            inflight, timeout=wait_s, return_when=futures.FIRST_COMPLETED
        )
        for fut in finished:
            entries = inflight.pop(fut)
            try:
                outcomes = fut.result()
            except WorkerTimeout:
                err = RemoteError(
                    "TrialTimeout", f"trial exceeded {timeout}s wall-clock timeout"
                )
                outcomes = [(None, err)] * len(entries)
            except WorkerCrash as exc:
                outcomes = [(None, RemoteError("WorkerCrash", str(exc)))] * len(entries)
            except RemoteError as exc:  # the wave's reply failed (e.g. did not pickle)
                outcomes = [(None, exc)] * len(entries)
            for (i, attempt), (value, err) in zip(entries, outcomes):
                if err is None:
                    results[i] = value
                    # Outside any try: a ledger failure (or the
                    # CheckpointAbort test hook) must abort the batch, not
                    # look like a trial error.
                    if record is not None:
                        record(i, seeds[i][attempt], value)
                    continue
                errors[i] = err
                if attempt + 1 < len(seeds[i]):
                    retries += 1
                    delay = _backoff(
                        backoff_base, backoff_factor, attempt, jitter,
                        seeds[i][attempt + 1],
                    )
                    heapq.heappush(ready, (time.monotonic() + delay, i, attempt + 1))
                else:
                    failed.add(i)
    failures = [
        TrialFailure(
            i, list(seeds[i]), errors[i].type_name, errors[i].message,
            errors[i].traceback,
        )
        for i in sorted(failed)
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
        batch_size: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.n_workers = int(n_workers)
        self.batch_size = batch_size

    def map(
        self, fn: Callable[[int], T], n_trials: int, seed: RNGLike = None
    ) -> list[T]:
        return run_trials(
            fn,
            n_trials,
            seed,
            n_workers=self.n_workers,
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
        never perturbs the trials of existing ones.  With ``n_workers > 1``
        all parameters share one warm pool and *fn* must be picklable.
        A failing trial raises :class:`TrialExecutionError` with its index
        and seed within its parameter's block.
        """
        blocks = child_seed_ints(seed, len(params))
        pool = None
        if self.n_workers > 1:
            _require_picklable(fn)
            pool = WarmPool(self.n_workers)
        with pool if pool is not None else contextlib.nullcontext():
            return [
                _run_seeds(
                    functools.partial(fn, p),
                    child_seed_ints(block_seed, trials_per_param),
                    pool,
                    None,
                )
                for p, block_seed in zip(params, blocks)
            ]
