"""Parallel and distributed-execution substrate.

* :mod:`repro.parallel.executor` — the Monte-Carlo trial runner
  :func:`run_trials`: maps a trial function over independent child
  seeds, serially or on a process pool, with identical results either
  way (the mpi4py-style "independent streams per worker" discipline).
  It fails fast: the first failing trial raises
  :class:`TrialExecutionError` with its index and seed.
* :mod:`repro.parallel.pool` — the one warm, supervised worker pool every
  multiprocess path runs on (trials, served batches, stream shards):
  spawn workers behind a pipe protocol, ``submit`` → ``Future``, crash
  and timeout detection with killed-and-replaced workers under jittered
  backoff, idle-worker health probes and the one retry policy, ``retry_call``.
* :mod:`repro.parallel.messaging` — a synchronous-round message-passing
  simulator of the *distributed* BP deployment: per-node mailboxes, real
  counted messages/bytes, and bit-identical beliefs to the centralized
  solver (tested).  Accepts a :class:`~repro.faults.FaultPlan` for
  robustness experiments.
"""

from repro.parallel.executor import TrialExecutionError, run_trials
from repro.parallel.messaging import DistributedBPSimulator, RoundStats

__all__ = [
    "run_trials",
    "TrialExecutionError",
    "DistributedBPSimulator",
    "RoundStats",
]
