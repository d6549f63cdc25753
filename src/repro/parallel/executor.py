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

import pickle
from typing import Callable, TypeVar

from repro.core.potentials import shared_registry
from repro.obs import NULL_TRACER, NullTracer
from repro.parallel.pool import RemoteError, WarmPool
from repro.utils.rng import RNGLike, child_seed_ints

T = TypeVar("T")

__all__ = ["run_trials", "TrialExecutionError"]


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
            f"fn({trial_seed})"
        )


def _run_block(fn: Callable, seeds: list[int]) -> list[tuple]:
    """Run a block of trials: one ``(result, None)`` or ``(None, exc)`` per seed."""
    outcomes = []
    for s in seeds:
        try:
            outcomes.append((fn(s), None))
        except Exception as exc:
            outcomes.append((None, exc))
    return outcomes


def _run_block_remote(task) -> list[tuple]:
    """:func:`_run_block` of ``task = (fn, seeds)`` whose trial
    exceptions travel as :class:`~repro.parallel.pool.RemoteError`."""
    return [
        (r, None if exc is None else RemoteError.capture(exc))
        for r, exc in _run_block(*task)
    ]


def _run_seeds(fn, seeds: list[int], pool: WarmPool | None) -> list:
    """``[fn(s) for s in seeds]`` in blocks, serially or on *pool*.

    Blocks are single trials in process and ``ceil(n / (4·workers))``
    trials per pool task.  The first failing trial (in trial order) raises
    :class:`TrialExecutionError` naming its index and seed; a pool block
    whose reply cannot come back (say, a result that does not pickle)
    fails as its first trial.
    """
    size = 1 if pool is None else max(1, -(-len(seeds) // (4 * pool.n_workers)))
    starts = range(0, len(seeds), size)
    if pool is None:
        blocks = (_run_block(fn, seeds[i : i + size]) for i in starts)
    else:
        blocks = pool.map(
            _run_block_remote, [(fn, seeds[i : i + size]) for i in starts]
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
    tracer = tracer if tracer is not None else NULL_TRACER
    seeds = child_seed_ints(seed, n_trials)
    if n_trials == 0:
        return []
    cache_before = shared_registry().stats() if tracer.enabled else None
    with tracer.timer("run_trials"):
        if n_workers == 1:
            out = _run_seeds(fn, seeds, None)
        else:
            _require_picklable(fn)
            with WarmPool(n_workers) as pool:
                out = _run_seeds(fn, seeds, pool)
    if tracer.enabled:
        tracer.count("trials", n_trials)
        tracer.annotate("n_workers", n_workers)
        _record_cache_stats(tracer, cache_before)
    return out
