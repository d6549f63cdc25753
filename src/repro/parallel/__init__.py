"""Parallel and distributed-execution substrate.

* :mod:`repro.parallel.executor` — the Monte-Carlo trial runner: maps a
  trial function over independent child seeds, serially or on a process
  pool, with identical results either way (the mpi4py-style "independent
  streams per worker" discipline from the HPC guides).
* :mod:`repro.parallel.pool` — the one warm, supervised worker pool every
  multiprocess path runs on (trials, served batches, stream shards):
  spawn workers behind a pipe protocol, ``submit`` → ``Future``, crash
  and timeout detection with killed-and-replaced workers under jittered
  backoff, idle-worker health probes.  Retry policy stays with callers.
* :mod:`repro.parallel.messaging` — a synchronous-round message-passing
  simulator of the *distributed* BP deployment: per-node mailboxes, real
  counted messages/bytes, and bit-identical beliefs to the centralized
  solver (tested).  Accepts a :class:`~repro.faults.FaultPlan` for
  robustness experiments.

The executor comes in two flavors: :func:`run_trials` (fail-fast, raises
:class:`TrialExecutionError` with the failing trial's index and seed) and
:func:`run_trials_resilient` (retries with backoff on fresh seeds, detects
crashed/hung workers, and returns partial results plus a structured
failure report instead of dying), both on the same pool.
"""

from repro.parallel.executor import (
    TrialBatchResult,
    TrialExecutionError,
    TrialExecutor,
    TrialFailure,
    run_trials,
    run_trials_resilient,
)
from repro.parallel.messaging import DistributedBPSimulator, RoundStats

__all__ = [
    "TrialExecutor",
    "TrialExecutionError",
    "TrialFailure",
    "TrialBatchResult",
    "run_trials",
    "run_trials_resilient",
    "DistributedBPSimulator",
    "RoundStats",
]
