"""The fixed host-speed probe and the clock that excludes it.

FROZEN.  The probe kernel below and the reference time in
``config.json`` (``probe.reference_ms``) define the unit every
host-adjusted metric is expressed in.  Changing either redefines every
timing the benchmark reports, so it is a benchmark change of its own,
never part of a change that claims a speed-up.

One probe call runs, on fixed seeded inputs:

* 10 x (a sparse 256x256 CSR (10% dense) times a dense 256x64 block,
  then ``exp`` / row-normalize / ``log`` over a 200x256 array), the
  numpy/scipy mix of a grid-BP round;
* a 20,000-step pure-Python loop, the interpreter overhead of the
  runtimes around the kernels.

Workloads call :meth:`HostProbe.run` at a fixed cadence of operations,
with no operation in flight.  :meth:`HostProbe.now` is a clock that has
every probe's wall time removed, so a measured window or a latency that
spans a probe call does not include it.

A probe built with *cpus* runs each call on every one of them in turn,
moving the calling thread there and back, so it can measure the CPU a
worker process is pinned to rather than its own.

Each :meth:`HostProbe.run` leaves a mark: when it ran and its mean
sample.  Timings are rescaled interval by interval from the marks on
either side (:class:`arith.HostScale`), not by one figure per run: on a
shared 2-vCPU cloud host a CPU's speed switches between two states
about 40% apart for seconds at a time (another tenant on the sibling
hyperthread), so one figure per run cannot follow work that spans both.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from scipy import sparse

__all__ = ["HostProbe"]

_SEED = 20261016


class HostProbe:
    """Runs the probe kernel and keeps its samples (seconds) and marks."""

    def __init__(self, cpus: tuple[int, ...] = ()) -> None:
        #: CPUs each :meth:`run` probes; empty means the calling thread's own
        self.cpus = tuple(cpus)
        rng = np.random.default_rng(_SEED)
        self._csr = sparse.random(
            256, 256, density=0.1, format="csr", random_state=rng
        )
        self._dense = rng.random((256, 64))
        self._logits = rng.standard_normal((200, 256))
        self._excluded_s = 0.0
        self.samples_s: list[float] = []
        #: (time on :meth:`now`, mean probe seconds) of every :meth:`run`
        self.marks: list[tuple[float, float]] = []
        self._kernel()  # first call pays page faults and lazy imports

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self._csr @ self._dense
            e = np.exp(self._logits - self._logits.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            np.log(e)
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        return time.perf_counter() - t0

    def run(self, times: int = 1) -> None:
        """Run the probe *times* times (on each of :attr:`cpus`); their wall
        time leaves :meth:`now`."""
        t0 = time.perf_counter()
        if self.cpus:
            home = os.sched_getaffinity(0)
            batch = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                batch += [self._kernel() for _ in range(times)]
            os.sched_setaffinity(0, home)
        else:
            batch = [self._kernel() for _ in range(times)]
        self.samples_s.extend(batch)
        self._excluded_s += time.perf_counter() - t0
        self.marks.append((self.now(), statistics.fmean(batch)))

    def now(self) -> float:
        """``perf_counter`` minus the wall time spent in probe calls."""
        return time.perf_counter() - self._excluded_s

    def mark(self) -> int:
        """Sample index that starts one pass's probe samples."""
        return len(self.samples_s)

    def _since(self, since: int) -> list[float]:
        samples = self.samples_s[since:]
        if not samples:
            raise ValueError("no probe samples in this interval")
        return samples

    def mean_ms(self, since: int = 0) -> float:
        """Mean probe time in ms over the samples taken after *since*."""
        return statistics.fmean(self._since(since)) * 1e3

    def median_ms(self, since: int = 0) -> float:
        """Median probe time in ms over the samples taken after *since*."""
        return statistics.median(self._since(since)) * 1e3
