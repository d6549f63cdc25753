"""The fault matrix: every way a pool call fails, against both callers of
:func:`repro.parallel.pool.retry_call` (slow lane).

Faults {SIGKILL mid-call, timeout, remote exception, unpicklable result}
× callers {serve batch, stream shard}; crashes and timeouts fire on the
first attempt only or on every attempt.  Each cell asserts its caller's
invariant:

* serve answers every request of the batch with the cell's status and
  reason, the pool replaced exactly the crashed workers, the shape's
  breaker holds the declared state (crashes a retry recovered from do not
  count; a batch whose every attempt crashed trips it at the default
  threshold), and every write to the service's tracer ran on the event
  loop's thread (the tracer has no lock; pool threads must not touch it);
* stream loses no network, and every batch's payloads are byte-equal to
  :class:`~repro.stream.InlineExecutor`'s.

Faults come from :func:`_faulty_execute_batch`, which stands in for
``execute_batch`` and fires only inside a pool worker, so a caller's
in-process last resort runs clean.  Workers are other processes: the
wrapper reads the cell's plan and counts worker calls and in-process runs
in files under the cell's ``tmp_path``.  Every cell spawns its own pool,
since the autouse orphan check allows no worker to outlive a test.
"""

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import GridBPConfig
from repro.experiments.config import ScenarioConfig
from repro.obs import Tracer
from repro.parallel.pool import CALL_ATTEMPTS
from repro.serve import LocalizationService, LocalizeRequest, ServeConfig
from repro.serve.breaker import CLOSED, OPEN
from repro.serve.types import request_batch_key
from repro.serve.workers import execute_batch
from repro.stream import (
    FleetConfig,
    InlineExecutor,
    PoolExecutor,
    StreamConfig,
    StreamRuntime,
    fleet_events,
)

pytestmark = pytest.mark.slow

#: names the directory that holds the cell's plan and tallies
_FAULT_DIR = "REPRO_TEST_FAULT_DIR"
#: a faulted call's stall; the pool's timeout kills the worker first
_STALL_S = 600.0
#: call timeout of the timeout cells: above a cold worker's first batch
_TIMEOUT_S = 5.0


def _tally(path: Path) -> int:
    """Add one mark to *path*; return how many it holds now."""
    with open(path, "ab") as f:
        f.write(b".")
        return f.tell()


def _count(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _faulty_execute_batch(items, deadline_s=None):
    """``execute_batch`` whose first N calls in a worker fail.

    The plan file holds the fault and N.  In the test process (a
    caller's in-process last resort) it never fires; it only counts."""
    where = Path(os.environ[_FAULT_DIR])
    if multiprocessing.parent_process() is None:
        _tally(where / "inline")
        return execute_batch(items, deadline_s)
    fault, faulted, stall = (where / "plan").read_text().split()
    if _tally(where / "calls") <= int(faulted):
        time.sleep(float(stall))
        if fault == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "timeout":
            time.sleep(_STALL_S)
        elif fault == "remote":
            raise ValueError("injected fault")
        elif fault == "unpicklable":
            return lambda: items
    return execute_batch(items, deadline_s)


def _plan(where: Path, monkeypatch, fault: str, faulted: int, stall=0.0):
    """Arm the wrapper for one cell (before the cell's pool spawns)."""
    (where / "plan").write_text(f"{fault} {faulted} {stall}")
    monkeypatch.setenv(_FAULT_DIR, str(where))


# cell id -> (fault, worker calls that fail, how the call ends)
CELLS = {
    "sigkill-first": ("sigkill", 1, "recovered"),
    "sigkill-every": ("sigkill", CALL_ATTEMPTS, "exhausted"),
    "timeout-first": ("timeout", 1, "recovered"),
    "timeout-every": ("timeout", CALL_ATTEMPTS, "exhausted"),
    "remote": ("remote", 1, "raised"),
    "unpicklable": ("unpicklable", 1, "raised"),
}
# how the call ends -> worker attempts the faulted call made
ATTEMPTS = {"recovered": 2, "exhausted": CALL_ATTEMPTS, "raised": 1}
# how the call ends -> workers that crashed (and were replaced)
CRASHED = {"recovered": 1, "exhausted": CALL_ATTEMPTS, "raised": 0}
matrix = pytest.mark.parametrize(
    "fault,faulted,ends", list(CELLS.values()), ids=list(CELLS)
)


def _timeout(fault: str) -> float:
    return _TIMEOUT_S if fault == "timeout" else 60.0


# ---------------------------------------------------------------------- #
# serve batch

SCEN = ScenarioConfig(n_nodes=18, anchor_ratio=0.25, radio_range=0.42)
CFG = GridBPConfig(grid_size=9, max_iterations=8)
# how the call ends -> (status, reason) of every request in the batch
SERVE_ANSWERS = {
    "recovered": ("ok", None),
    "exhausted": ("degraded", "crash-retries-exhausted"),
    "raised": ("degraded", "execution-error"),
}
# how the call ends -> the shape's breaker: (state, failures, trips)
SERVE_BREAKER = {
    "recovered": (CLOSED, 0, 0),
    "exhausted": (OPEN, CALL_ATTEMPTS, 1),
    "raised": (CLOSED, 1, 0),
}


class _ThreadRecordingTracer(Tracer):
    """The service tracer, noting the thread of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[int] = set()

    def count(self, name, n=1):
        self.threads.add(threading.get_ident())
        super().count(name, n)

    def gauge_max(self, name, value):
        self.threads.add(threading.get_ident())
        super().gauge_max(name, value)

    def annotate(self, name, value):
        self.threads.add(threading.get_ident())
        super().annotate(name, value)

    def observe(self, name, value):
        self.threads.add(threading.get_ident())
        super().observe(name, value)


def _serve(config: ServeConfig, batch, follow_up, where: Path, monkeypatch):
    """Run *batch* as one served batch, then *follow_up*.  Returns the
    batch's responses, the worker calls it made, the breaker's
    (state, failures, trips) after it, the pool's replacements once its
    worker is back, the follow-up's response, and the threads that wrote
    to the service tracer less the event loop's."""
    monkeypatch.setattr("repro.serve.service.Tracer", _ThreadRecordingTracer)

    async def main():
        svc = LocalizationService(config)
        await svc.start()
        try:
            resps = await asyncio.gather(*(svc.submit(r) for r in batch))
            calls = _count(where / "calls")
            br = svc.breakers.get(request_batch_key(batch[0]))
            breaker = (br.state, br.failures, br.trips)
            # the last crash answers the batch before its replacement spawns
            for _ in range(200):
                if svc.pool.snapshot()["alive"] == 1:
                    break
                await asyncio.sleep(0.05)
            replacements = svc.pool.replacements
            after = await svc.localize(follow_up)
        finally:
            await svc.stop()
        off_loop = svc.metrics.threads - {threading.get_ident()}
        return resps, calls, breaker, replacements, after, off_loop

    return asyncio.run(main())


def _requests(seeds, **kw):
    return [
        LocalizeRequest(
            scenario=SCEN, seed=s, config=CFG, request_id=f"r{s}", **kw
        )
        for s in seeds
    ]


# ---------------------------------------------------------------------- #
# stream shard

FLEET = FleetConfig(
    n_networks=3,
    n_nodes=10,
    anchor_ratio=0.3,
    n_steps=2,
    radio_range=0.45,
    noise_sigma=0.02,
    seed=11,
)
STREAM = StreamConfig(
    grid_size=10,
    warm_iterations=3,
    cold_iterations=6,
    reorder_window=8,
    max_ready_burst=8,
    n_workers=1,
)
# how the call ends -> in-process runs of the faulted shard
STREAM_INLINE_RUNS = {"recovered": 0, "exhausted": 1, "raised": 1}


def _wire_bytes(payloads: list[dict]) -> list[tuple]:
    """Every value of every payload as (key, dtype, bytes)."""
    rows = []
    for payload in payloads:
        for key, value in payload.items():
            if key == "beliefs":
                rows += [(key, n, np.asarray(v).tobytes()) for n, v in value.items()]
            else:
                arr = np.asarray(value)
                rows.append((key, arr.dtype.str, arr.tobytes()))
    return rows


# ---------------------------------------------------------------------- #
class TestFaultMatrix:
    @pytest.mark.serve
    @matrix
    def test_serve_batch(self, fault, faulted, ends, tmp_path, monkeypatch):
        _plan(tmp_path, monkeypatch, fault, faulted)
        monkeypatch.setattr(
            "repro.serve.workers.execute_batch", _faulty_execute_batch
        )
        config = ServeConfig(
            n_workers=1, max_batch=4, batch_window_s=0.05,
            exec_timeout_s=_timeout(fault),
        )
        resps, calls, breaker, replacements, after, off_loop = _serve(
            config, _requests(range(3)), _requests([9])[0], tmp_path,
            monkeypatch,
        )
        status, reason = SERVE_ANSWERS[ends]
        # zero lost: every request answered, all of them the same way
        assert [(r.status, r.reason) for r in resps] == [(status, reason)] * 3
        assert all(r.answered for r in resps)
        assert calls == ATTEMPTS[ends]
        assert breaker == SERVE_BREAKER[ends]
        assert replacements == CRASHED[ends]
        if ends == "exhausted":  # a poison shape is held back at once
            assert (after.status, after.reason) == ("degraded", "breaker-open")
        else:
            assert (after.status, after.reason) == ("ok", None)
        # crashes replace workers on pool threads; none of them wrote metrics
        assert off_loop == set()

    @pytest.mark.stream
    @matrix
    def test_stream_shard(self, fault, faulted, ends, tmp_path, monkeypatch):
        _plan(tmp_path, monkeypatch, fault, faulted)
        monkeypatch.setattr(
            "repro.stream.pool.execute_batch", _faulty_execute_batch
        )
        stream = dataclasses.replace(STREAM, worker_timeout_s=_timeout(fault))
        pool = PoolExecutor(stream)
        solves = []
        solve = pool.solve

        def recorded(items):
            payloads = solve(items)
            solves.append((items, payloads))
            return payloads

        pool.solve = recorded
        try:
            result = StreamRuntime(
                stream, executor=pool, expected_networks=FLEET.n_networks
            ).run(
                fleet_events(FLEET), final_step=FLEET.n_steps,
                network_ids=range(FLEET.n_networks), n_nodes=FLEET.n_nodes,
            )
        finally:
            pool.close()
        calls, inline_runs = (
            _count(tmp_path / "calls"), _count(tmp_path / "inline")
        )
        assert result.lost_networks == []
        # one shard per batch (one worker): the first made ATTEMPTS calls
        assert calls == len(solves) - 1 + ATTEMPTS[ends]
        assert inline_runs == STREAM_INLINE_RUNS[ends]
        for items, payloads in solves:
            inline = InlineExecutor().solve(items)
            assert _wire_bytes(payloads) == _wire_bytes(inline)


@pytest.mark.serve
def test_serve_budget_spent_between_attempts(tmp_path, monkeypatch):
    """A crash that outlives the batch's budget ends it as
    ``deadline-expired``; the breaker counts the one crashed attempt."""
    _plan(tmp_path, monkeypatch, "sigkill", 1, stall=2.0)
    monkeypatch.setattr("repro.serve.workers.execute_batch", _faulty_execute_batch)
    config = ServeConfig(n_workers=1, max_batch=4, batch_window_s=0.05)
    resps, calls, breaker, replacements, after, off_loop = _serve(
        config, _requests(range(3), deadline_s=1.0), _requests([9])[0],
        tmp_path, monkeypatch,
    )
    assert [(r.status, r.reason) for r in resps] == [
        ("degraded", "deadline-expired")
    ] * 3
    assert calls == 1
    assert breaker == (CLOSED, 1, 0)
    assert replacements == 1
    assert (after.status, after.reason) == ("ok", None)
    assert off_loop == set()
