"""Streaming tracking runtime lane (``repro.stream``).

Fast in-process lane (default suite, ``-m stream``): hostile-stream
ingest hygiene, gap coasting, staleness shedding, the warm-start
divergence guard, per-network failure isolation, in-process
abort-and-resume bit-identity, subnormal-free beliefs behind a K = 144
stream's priors (with pinned estimates), the tracker warm-start step
API, the batch's block build of its next priors, and
``GridBeliefPrior`` motion-diffusion edge cases.

Slow crash-recovery lane (``-m "stream and slow"``): a real subprocess
SIGKILL'd mid-stream whose ledger resumes bit-identically, and a
SIGKILL'd pool worker that gets replaced without losing a network —
mirroring the ``ckpt``/``serve`` lanes.
"""

import dataclasses
import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    Checkpoint,
    CheckpointAbort,
    CheckpointMismatch,
    ledger_progress,
)
from repro.core.bnloc import GridBPConfig, GridBPLocalizer
from repro.core.grid import Grid2D
from repro.measurement.measurements import observe
from repro.measurement.ranging import GaussianRanging
from repro.mobility.models import RandomWalkMobility
from repro.mobility.tracking import SequentialGridTracker
from repro.network.generator import NetworkConfig, generate_network
from repro.network.radio import UnitDiskRadio
from repro.network.topology import WSNetwork
from repro.priors.belief import GridBeliefPrior, diffusion_kernel
from repro.stream import (
    FleetConfig,
    InlineExecutor,
    PoolExecutor,
    StreamConfig,
    StreamDisruption,
    StreamMetrics,
    StreamRuntime,
    fleet_events,
    run_stream,
)
from repro.stream.runtime import NetworkState, _row_medians

pytestmark = pytest.mark.stream

_SRC = Path(__file__).resolve().parent.parent / "src"

# One small fleet shared by the fast-lane tests: cheap, connected, seeded.
FLEET = FleetConfig(
    n_networks=3,
    n_nodes=10,
    anchor_ratio=0.3,
    n_steps=3,
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
)
TOTAL_CELLS = FLEET.n_networks * (FLEET.n_steps + 1)


def _assert_same_results(a, b):
    """Bit-identity across two StreamResults (estimates, masks, flags)."""
    assert sorted(a.networks) == sorted(b.networks)
    for nid in a.networks:
        ta, tb = a.networks[nid], b.networks[nid]
        np.testing.assert_array_equal(ta.estimates, tb.estimates)
        np.testing.assert_array_equal(ta.localized, tb.localized)
        np.testing.assert_array_equal(
            ta.extras["degraded"], tb.extras["degraded"]
        )
        assert ta.extras["reasons"] == tb.extras["reasons"]


def _assert_settled_once(result, fleet=FLEET):
    """Every (network, step) cell lands exactly once: as a live outcome
    counted by its kind, or as ``replayed`` only."""
    counters = result.metrics["counters"]
    settled = sum(
        counters.get(k, 0)
        for k in ("solved", "coasted", "shed", "failed", "replayed")
    )
    assert settled == fleet.n_networks * (fleet.n_steps + 1), counters


# ---------------------------------------------------------------------- #
# the seeded adversary
# ---------------------------------------------------------------------- #
class TestStreamDisruption:
    def test_zero_rates_are_identity(self):
        events = fleet_events(FLEET)
        out, stats = StreamDisruption().apply(events)
        assert out == events
        assert stats.disrupted_fraction == 0.0

    def test_deterministic_replay(self):
        events = fleet_events(FLEET)
        plan = StreamDisruption(
            late_rate=0.3, duplicate_rate=0.2, drop_rate=0.1, seed=5
        )
        out1, stats1 = plan.apply(events)
        out2, stats2 = plan.apply(events)
        assert [(e.network_id, e.step) for e in out1] == [
            (e.network_id, e.step) for e in out2
        ]
        assert stats1.n_dropped == stats2.n_dropped
        assert stats1.n_delayed == stats2.n_delayed

    def test_stats_account_for_every_event(self):
        events = fleet_events(FLEET)
        plan = StreamDisruption(
            late_rate=0.4, duplicate_rate=0.3, drop_rate=0.2, seed=9
        )
        out, stats = plan.apply(events)
        assert stats.n_events == len(events)
        assert len(out) == len(events) - stats.n_dropped + stats.n_duplicated

    def test_dict_round_trip(self):
        plan = StreamDisruption(
            late_rate=0.1, duplicate_rate=0.2, drop_rate=0.05, max_lag=4, seed=3
        )
        assert StreamDisruption.from_dict(plan.to_dict()) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="late_rate"):
            StreamDisruption(late_rate=1.5)
        with pytest.raises(ValueError, match="max_lag"):
            StreamDisruption(max_lag=0)


# ---------------------------------------------------------------------- #
# watermarks + reorder buffers
# ---------------------------------------------------------------------- #
class TestHostileStream:
    def test_clean_feed_solves_every_epoch(self):
        result = run_stream(FLEET, STREAM)
        counters = result.metrics["counters"]
        assert counters["solved"] == TOTAL_CELLS
        assert result.lost_networks == []
        for tr in result.networks.values():
            assert not tr.extras["degraded"].any()
            assert np.isfinite(tr.estimates).all()

    def test_late_and_duplicate_events_do_not_change_results(self):
        # No drops: the reorder buffer absorbs lateness and the watermark
        # eats echoes, so the hostile run is bit-identical to the clean
        # one — robustness without a results tax.
        clean = run_stream(FLEET, STREAM)
        plan = StreamDisruption(
            late_rate=0.3, duplicate_rate=0.25, max_lag=4, seed=0
        )
        hostile = run_stream(FLEET, STREAM, disruption=plan)
        counters = hostile.metrics["counters"]
        assert counters["out_of_order"] > 0
        assert counters["duplicates"] > 0
        assert counters["solved"] == TOTAL_CELLS
        _assert_same_results(clean, hostile)

    def test_duplicate_behind_watermark_is_discarded(self):
        events = fleet_events(FLEET)
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        runtime.run(
            events + events[:3],  # replay the first fleet round verbatim
            final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks),
            n_nodes=FLEET.n_nodes,
        )
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["duplicates"] == 3
        assert counters["solved"] == TOTAL_CELLS


class TestStreamMetrics:
    def test_summary_under_fake_clock(self):
        """Every solved epoch gives one staleness sample, and the rate
        counts solved plus coasted updates over the run window."""
        reads = []

        def clock():  # each read is 1 ms after the previous one
            reads.append(len(reads) * 1e-3)
            return reads[-1]

        events = [
            e for e in fleet_events(FLEET)
            if not (e.network_id == 0 and e.step == 1)
        ]
        result = StreamRuntime(
            STREAM, metrics=StreamMetrics(clock=clock),
            expected_networks=FLEET.n_networks,
        ).run(
            events,
            final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks),
            n_nodes=FLEET.n_nodes,
        )
        m = result.metrics
        assert sorted(m) == [
            "counters", "elapsed_s", "staleness_ms", "updates_per_sec"
        ]
        counters = m["counters"]
        assert counters["coasted"] == 1
        assert counters["solved"] == TOTAL_CELLS - 1
        assert m["staleness_ms"]["n"] == counters["solved"]
        assert m["staleness_ms"]["p50"] >= 1.0  # at least one clock step
        assert m["elapsed_s"] == pytest.approx(reads[-1] - reads[0])
        assert m["updates_per_sec"] == (
            (counters["solved"] + counters["coasted"]) / m["elapsed_s"]
        )


class TestGapCoasting:
    def test_dropped_epoch_is_coasted_and_flagged(self):
        events = [
            e for e in fleet_events(FLEET)
            if not (e.network_id == 0 and e.step == 1)
        ]
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        result = runtime.run(
            events,
            final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks),
            n_nodes=FLEET.n_nodes,
        )
        assert result.lost_networks == []
        tr = result.networks[0]
        assert tr.extras["degraded"][1]
        assert tr.extras["reasons"][1] == "coasted"
        assert np.isfinite(tr.estimates[1]).all()  # prior expectation
        # the steps after the hole recovered and solved normally
        assert not tr.extras["degraded"][2:].any()
        # the other networks never noticed
        for nid in (1, 2):
            assert not result.networks[nid].extras["degraded"].any()

    def test_fully_dropped_network_coasts_to_final_step(self):
        events = [e for e in fleet_events(FLEET) if e.network_id != 2]
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        result = runtime.run(
            events,
            final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks),
            n_nodes=FLEET.n_nodes,
        )
        assert result.lost_networks == []
        tr = result.networks[2]
        assert tr.extras["degraded"].all()
        assert tr.estimates.shape == (FLEET.n_steps + 1, FLEET.n_nodes, 2)
        assert np.isfinite(tr.estimates).all()


class TestStalenessShedding:
    def test_backlog_beyond_burst_budget_is_shed(self):
        events = [e for e in fleet_events(FLEET) if e.network_id == 0]
        config = StreamConfig(
            grid_size=10,
            warm_iterations=3,
            cold_iterations=6,
            max_ready_burst=1,
            batch_max=1,
        )
        runtime = StreamRuntime(config, expected_networks=1)
        runtime._default_n_nodes = FLEET.n_nodes  # run()'s plumbing
        # Ingest the whole backlog before any drain: ingest outran solve.
        for epoch in events:
            runtime.ingest(epoch)
        runtime._drain(force=True)
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["shed"] == len(events) - 1
        assert counters["solved"] == 1
        state = runtime._states[0]
        for step in range(len(events) - 1):
            assert state.steps[step]["reason"] == "shed"


def _full_scan_should_drain(runtime):
    """The admission decision as one scan over every network: the
    reference the runtime's kept bookkeeping must reproduce."""
    ready = 0
    overdue = False
    for state in runtime._states.values():
        if state.next_step in state.buffer:
            ready += 1
            if ready >= min(runtime.config.batch_max, len(runtime._states)):
                return True
        elif state.buffer:
            gap_age = runtime._events_ingested - state.last_progress_event
            if (
                gap_age > runtime._gap_budget
                or len(state.buffer) >= runtime.config.reorder_window
            ):
                overdue = True
    return overdue


class _ScanCountingStates(dict):
    """The runtime's network table, counting whole-table reads made while
    ``scanning`` is set."""

    scanning = False
    scans = 0

    def _count(self):
        if self.scanning:
            self.scans += 1

    def __iter__(self):
        self._count()
        return super().__iter__()

    def values(self):
        self._count()
        return super().values()

    def items(self):
        self._count()
        return super().items()

    def keys(self):
        self._count()
        return super().keys()


class _AdmissionCheckedRuntime(StreamRuntime):
    """Runtime whose every admission decision is checked against the full
    scan, and whose decision itself may not read the whole table."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._states = _ScanCountingStates()
        self.decisions: list[bool] = []

    def _should_drain(self) -> bool:
        self._states.scanning = True
        try:
            got = super()._should_drain()
        finally:
            self._states.scanning = False
        assert got == _full_scan_should_drain(self)
        self.decisions.append(got)
        return got


class TestAdmissionBookkeeping:
    """``_should_drain`` visits only the networks with buffered epochs
    instead of scanning the fleet on every ingest; its decisions must be
    the full scan's, event by event, on a disrupted feed that drops,
    reorders, duplicates and sheds."""

    # With batch_max above the fleet size a drain needs every network
    # ready, so an overdue gap decides: by its age, or by its buffer
    # filling the reorder window.  The last set sheds as well.
    @pytest.mark.parametrize(
        "limits",
        [
            dict(reorder_window=16, max_gap_events=4, batch_max=8),
            dict(reorder_window=2, max_gap_events=64, batch_max=8),
            dict(reorder_window=3, max_gap_events=4, max_ready_burst=1, batch_max=2),
        ],
        ids=["gap-age", "window", "shedding"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_decisions_match_full_scan_on_disrupted_feed(self, limits, seed):
        fleet = dataclasses.replace(FLEET, n_networks=6, n_steps=6, seed=seed + 20)
        config = dataclasses.replace(STREAM, **limits)
        plan = StreamDisruption(
            late_rate=0.35, duplicate_rate=0.2, drop_rate=0.15, max_lag=6, seed=seed
        )
        events, stats = plan.apply(fleet_events(fleet))
        runtime = _AdmissionCheckedRuntime(config, expected_networks=fleet.n_networks)
        result = runtime.run(
            events,
            final_step=fleet.n_steps,
            network_ids=range(fleet.n_networks),
            n_nodes=fleet.n_nodes,
        )
        counters = result.metrics["counters"]
        kinds = ["coasted", "out_of_order", "duplicates"]
        if config.max_ready_burst == 1:
            kinds.append("shed")
        for kind in kinds:
            assert counters.get(kind, 0) > 0, (kind, counters)
        assert len(runtime.decisions) == len(events)
        assert True in runtime.decisions and False in runtime.decisions
        assert runtime._states.scans == 0
        _assert_settled_once(result, fleet)


# ---------------------------------------------------------------------- #
# warm-start divergence guard
# ---------------------------------------------------------------------- #
def _verdict(runtime, state, epoch, payload):
    """The batch guard's verdict on a batch of one."""
    (verdict,) = runtime._verdicts([(state, epoch)], [payload])
    return verdict


class TestDivergenceGuard:
    def _runtime_and_epoch(self):
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        epoch = fleet_events(FLEET)[0]
        state = runtime._state(epoch.network_id)
        n = epoch.measurements.n_nodes
        k = runtime._grid.n_cells
        uniform = {i: np.full(k, 1.0 / k) for i in range(n)}
        state.prior = GridBeliefPrior(runtime._grid, uniform)
        state.last_estimates = np.asarray(epoch.true_positions).copy()
        state.last_solved_step = epoch.step - 1 if epoch.step else 0
        return runtime, state, epoch

    def _ok_payload(self, epoch):
        n = epoch.measurements.n_nodes
        return {
            "ok": True,
            "estimates": np.asarray(epoch.true_positions).copy(),
            "localized_mask": np.ones(n, dtype=bool),
            "fallback_mask": np.zeros(n, dtype=bool),
            "beliefs": {},
        }

    def test_plausible_warm_solve_passes(self):
        runtime, state, epoch = self._runtime_and_epoch()
        assert _verdict(runtime, state, epoch, self._ok_payload(epoch)) == "ok"

    def test_solver_error_is_failed(self):
        runtime, state, epoch = self._runtime_and_epoch()
        assert (
            _verdict(runtime, state, epoch, {"ok": False, "error": "boom"})
            == "failed"
        )

    def test_fallback_mask_trips_guard(self):
        runtime, state, epoch = self._runtime_and_epoch()
        payload = self._ok_payload(epoch)
        payload["fallback_mask"][0] = True
        assert _verdict(runtime, state, epoch, payload) == "guard"

    def test_broken_beliefs_trip_guard(self):
        runtime, state, epoch = self._runtime_and_epoch()
        payload = self._ok_payload(epoch)
        payload["beliefs"] = {0: np.full(runtime._grid.n_cells, np.nan)}
        assert _verdict(runtime, state, epoch, payload) == "guard"

    def test_implausible_jump_trips_guard(self):
        runtime, state, epoch = self._runtime_and_epoch()
        payload = self._ok_payload(epoch)
        payload["estimates"] = payload["estimates"] + 5.0  # teleport
        assert _verdict(runtime, state, epoch, payload) == "guard"

    def test_cold_solve_is_never_guarded(self):
        runtime, state, epoch = self._runtime_and_epoch()
        state.prior = None  # cold start: nothing to poison
        payload = self._ok_payload(epoch)
        payload["estimates"] = payload["estimates"] + 5.0
        assert _verdict(runtime, state, epoch, payload) == "ok"

    def test_broken_belief_row_trips_only_its_network(self):
        # one health check over the whole batch's stacked rows, split
        # back per network: only the payload with the NaN row trips
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        k = runtime._grid.n_cells
        uniform = np.full(k, 1.0 / k)
        pairs, payloads = [], []
        for epoch in fleet_events(FLEET)[:3]:
            state = runtime._state(epoch.network_id)
            n = epoch.measurements.n_nodes
            state.prior = GridBeliefPrior(
                runtime._grid, {i: uniform for i in range(n)}
            )
            payload = self._ok_payload(epoch)
            payload["beliefs"] = {i: uniform.copy() for i in range(n)}
            pairs.append((state, epoch))
            payloads.append(payload)
        assert len({state.network_id for state, _ in pairs}) == 3
        assert runtime._verdicts(pairs, payloads) == ["ok"] * 3
        payloads[1]["beliefs"][2][5] = np.nan
        assert runtime._verdicts(pairs, payloads) == ["ok", "guard", "ok"]

    def test_one_jumping_network_trips_only_itself(self):
        # one jump check over the whole batch, split back per network
        fleet = dataclasses.replace(FLEET, n_networks=5)
        runtime = StreamRuntime(STREAM, expected_networks=fleet.n_networks)
        k = runtime._grid.n_cells
        uniform = np.full(k, 1.0 / k)
        pairs, payloads = [], []
        for epoch in fleet_events(fleet)[:5]:
            state = runtime._state(epoch.network_id)
            n = epoch.measurements.n_nodes
            state.prior = GridBeliefPrior(
                runtime._grid, {i: uniform for i in range(n)}
            )
            state.last_estimates = np.asarray(epoch.true_positions).copy()
            state.last_solved_step = 0
            pairs.append((state, epoch))
            payloads.append(self._ok_payload(epoch))
        assert len({state.network_id for state, _ in pairs}) == 5
        assert runtime._verdicts(pairs, payloads) == ["ok"] * 5
        payloads[2]["estimates"] = payloads[2]["estimates"] + 5.0
        assert runtime._verdicts(pairs, payloads) == ["ok", "ok", "guard", "ok", "ok"]

    def test_poisoned_prior_falls_back_to_cold_resolve(self):
        # Seed network 0 with a confident wrong prior: the warm solve's
        # estimates jump implausibly far from the (fake) previous ones,
        # the guard trips, and the epoch lands cold-resolved + flagged.
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        events = [e for e in fleet_events(FLEET) if e.network_id == 0]
        state = runtime._state(0)
        k = runtime._grid.n_cells
        corner = np.zeros(k)
        corner[0] = 1.0
        n = events[0].measurements.n_nodes
        state.prior = GridBeliefPrior(
            runtime._grid, {i: corner for i in range(n)}
        )
        state.last_estimates = np.full((n, 2), 0.03)
        state.last_solved_step = -1
        result = runtime.run(
            events, final_step=FLEET.n_steps, network_ids=[0],
            n_nodes=FLEET.n_nodes,
        )
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["guard_trips"] >= 1
        assert counters["cold_resolves"] >= 1
        tr = result.networks[0]
        assert tr.extras["degraded"][0]
        assert tr.extras["reasons"][0] == "warm-divergence"
        # the cold re-solve produced real estimates, not garbage
        assert np.isfinite(tr.estimates[0]).all()
        assert result.lost_networks == []


def _jumped_per_item(runtime, state, epoch, payload):
    """The guard's jump check on one item, written out with ``np.median``:
    the oracle for the batched :meth:`StreamRuntime._jumped`."""
    if state.last_estimates is None or state.last_solved_step is None:
        return False
    ms = epoch.measurements
    est = np.asarray(payload["estimates"])
    prev = state.last_estimates
    both = ~ms.anchor_mask & np.isfinite(est).all(axis=1) & np.isfinite(prev).all(axis=1)
    if not both.any():
        return False
    jumps = np.linalg.norm(est[both] - prev[both], axis=1)
    gap = max(epoch.step - state.last_solved_step, 1)
    return bool(
        np.median(jumps) > runtime.config.jump_guard_radii * ms.radio_range * gap
    )


class TestGuardMedian:
    """The guard's batched median and jump check are bit-equal to the
    per-item ``np.median`` formula."""

    _VALUES = st.one_of(
        st.floats(0.0, 1e3, allow_nan=False),
        st.sampled_from([0.0, 0.05, 0.125, 1.0]),  # ties
    )

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(), half=st.integers(0, 19), odd=st.booleans(),
        pad=st.integers(0, 5),
    )
    def test_bit_equal_to_numpy_median(self, data, half, odd, pad):
        n = 2 * half + 1 if odd else 2 * half + 2
        values = np.array(
            data.draw(st.lists(self._VALUES, min_size=n, max_size=n))
        )
        row = np.concatenate([values, np.full(pad, np.inf)])[None, :]
        (got,) = _row_medians(row, np.array([n]))
        assert got.tobytes() == np.float64(np.median(values)).tobytes()

    def test_empty_row_is_inf(self):
        got = _row_medians(np.full((2, 3), np.inf), np.array([0, 0]))
        assert np.isposinf(got).all()

    def test_batch_jump_check_matches_per_item(self):
        # Random batches of mixed sizes: NaN/inf estimate rows, anchors,
        # odd and even valid counts, coarse values (ties at the limit)
        # and networks with no last solve.
        rng = np.random.default_rng(31)
        runtime = StreamRuntime(STREAM)
        n_items = flagged = 0
        for _ in range(300):
            pairs, payloads = [], []
            for _ in range(int(rng.integers(1, 9))):
                n = int(rng.integers(1, 14))
                ms = SimpleNamespace(
                    anchor_mask=rng.random(n) < 0.3,
                    radio_range=float(rng.choice([0.1, 0.25, 0.4])),
                )
                epoch = SimpleNamespace(measurements=ms, step=int(rng.integers(0, 6)))
                state = NetworkState(0)
                if rng.random() > 0.1:
                    state.last_estimates = np.round(rng.random((n, 2)) * 8) / 8
                    state.last_solved_step = int(rng.integers(0, 6))
                scale = float(rng.choice([0.05, 0.5, 2.0]))
                est = np.round(rng.normal(0.0, scale, (n, 2)) * 8) / 8
                if state.last_estimates is not None:
                    est = est + state.last_estimates
                    state.last_estimates[rng.random(n) < 0.1, int(rng.integers(2))] = np.nan
                est[rng.random(n) < 0.1, int(rng.integers(2))] = rng.choice(
                    [np.nan, np.inf, -np.inf]
                )
                pairs.append((state, epoch))
                payloads.append({"ok": True, "estimates": est})
            guarded = [bool(g) for g in rng.random(len(pairs)) < 0.9]
            got = runtime._jumped(pairs, payloads, guarded)
            want = [
                g and _jumped_per_item(runtime, state, epoch, payload)
                for (state, epoch), payload, g in zip(pairs, payloads, guarded)
            ]
            assert got.tolist() == want
            n_items += len(pairs)
            flagged += sum(want)
        assert 0 < flagged < n_items  # both outcomes exercised


# ---------------------------------------------------------------------- #
# per-network failure isolation
# ---------------------------------------------------------------------- #
class _PoisonFirstItem:
    """Executor that corrupts the first item of the first batch only."""

    def __init__(self):
        self.inner = InlineExecutor()
        self.poisoned = False

    def solve(self, items):
        payloads = self.inner.solve(items)
        if not self.poisoned and payloads:
            payloads[0] = {"ok": False, "error": "injected"}
            self.poisoned = True
        return payloads

    def close(self):
        pass

    def snapshot(self):
        return self.inner.snapshot()


class TestFailureIsolation:
    def test_one_failing_epoch_never_stalls_the_fleet(self):
        events = fleet_events(FLEET)
        clean = StreamRuntime(STREAM, expected_networks=FLEET.n_networks).run(
            events, final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks), n_nodes=FLEET.n_nodes,
        )
        runtime = StreamRuntime(
            STREAM, executor=_PoisonFirstItem(),
            expected_networks=FLEET.n_networks,
        )
        result = runtime.run(
            events, final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks), n_nodes=FLEET.n_nodes,
        )
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["failed"] == 1
        assert result.lost_networks == []
        # the poisoned epoch: health-fallback estimates, flagged
        poisoned = result.networks[0]
        assert poisoned.extras["degraded"][0]
        assert poisoned.extras["reasons"][0] == "injected"
        assert np.isfinite(poisoned.estimates[0]).all()
        # batch-mates were untouched: bit-identical to the clean run
        for nid in (1, 2):
            np.testing.assert_array_equal(
                result.networks[nid].estimates, clean.networks[nid].estimates
            )

    def test_faultplan_network_is_isolated(self):
        from repro.faults import FaultPlan

        fleet = FleetConfig(
            n_networks=3,
            n_nodes=10,
            anchor_ratio=0.3,
            n_steps=2,
            radio_range=0.45,
            noise_sigma=0.02,
            seed=11,
            fault_plan=FaultPlan(
                anchor_failure_rate=0.5,
                link_loss_rate=0.3,
                outlier_fraction=0.3,
                outlier_bias_ratio=1.5,
                seed=4,
            ),
            faulted_networks=(0,),
        )
        result = run_stream(fleet, STREAM)
        assert result.lost_networks == []
        # the healthy networks are untouched by network 0's faults
        for nid in (1, 2):
            assert np.isfinite(result.networks[nid].estimates).all()


# ---------------------------------------------------------------------- #
# coasted, shed and failed estimates, and the prior's routing
# ---------------------------------------------------------------------- #
def _per_node_coast(runtime, state):
    """Per-node reference for coasted/shed estimates: the prior mean of a
    node with a prior row, else its last finite estimate, else the field
    centre."""
    n = state.n_nodes if state.n_nodes is not None else runtime._default_n_nodes
    est = np.full((n, 2), np.nan)
    center = np.array([runtime.config.width / 2.0, runtime.config.height / 2.0])
    if state.anchor_mask is not None and state.last_anchor_full is not None:
        est[state.anchor_mask] = state.last_anchor_full[state.anchor_mask]
        unknown = np.flatnonzero(~state.anchor_mask)
    else:
        unknown = np.arange(n)
    for node in unknown:
        w = state.prior.weights.get(int(node)) if state.prior is not None else None
        if w is not None:
            est[node] = runtime._grid.expectation(w)
        elif state.last_estimates is not None and np.isfinite(
            state.last_estimates[node]
        ).all():
            est[node] = state.last_estimates[node]
        else:
            est[node] = center
    return est


def _per_node_fallback(runtime, state, ms):
    """Per-node reference for a failed epoch: centroid of the heard
    anchors, else the prior mean, else the field centre."""
    est = np.full((ms.n_nodes, 2), np.nan)
    est[ms.anchor_mask] = ms.anchor_positions_full[ms.anchor_mask]
    grid = runtime._grid
    for node in np.flatnonzero(~ms.anchor_mask):
        heard = [a for a in ms.anchor_ids if ms.adjacency[node, a]]
        if heard:
            est[node] = ms.anchor_positions_full[heard].mean(axis=0)
        elif state.prior is not None:
            est[node] = state.prior.grid_weights(int(node), grid) @ grid.centers
        else:
            est[node] = [ms.width / 2.0, ms.height / 2.0]
    return est


class _FailEveryThird:
    """Inline executor that fails every third item it is given."""

    def __init__(self):
        self.inner = InlineExecutor()
        self.seen = 0

    def solve(self, items):
        payloads = self.inner.solve(items)
        for i in range(len(payloads)):
            if (self.seen + i) % 3 == 2:
                payloads[i] = {"ok": False, "error": "injected"}
        self.seen += len(payloads)
        return payloads

    def close(self):
        pass

    def snapshot(self):
        return self.inner.snapshot()


class _CheckedRuntime(StreamRuntime):
    """Runtime that checks every coasted, shed and failed step against
    the per-node references, computed from the state before the step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked: dict[str, int] = {}

    def _tick(self, kind):
        self.checked[kind] = self.checked.get(kind, 0) + 1

    def _coast(self, state, kind):
        step, want = state.next_step, _per_node_coast(self, state)
        super()._coast(state, kind)
        np.testing.assert_array_equal(state.steps[step]["estimates"], want)
        self._tick(kind)

    def _commit_failed(self, state, epoch, payload):
        want = _per_node_fallback(self, state, epoch.measurements)
        super()._commit_failed(state, epoch, payload)
        np.testing.assert_array_equal(state.steps[epoch.step]["estimates"], want)
        self._tick("failed")


class TestCoastEstimates:
    def test_block_pass_matches_per_node_formula(self):
        runtime = StreamRuntime(STREAM)
        state = runtime._state(0)
        k = runtime._grid.n_cells
        gen = np.random.default_rng(4)
        state.n_nodes = 10
        state.anchor_mask = np.zeros(10, dtype=bool)
        state.anchor_mask[[0, 5]] = True
        state.last_anchor_full = gen.random((10, 2))
        # nodes 1, 4, 8 have prior rows; 2 and 7 only a last estimate;
        # 3, 6, 9 neither (NaN last estimate) -> field centre
        state.prior = GridBeliefPrior(
            runtime._grid, {n: gen.random(k) ** 3 for n in (8, 1, 4)},
            diffusion_sigma=STREAM.motion_sigma,
        )
        state.last_estimates = gen.random((10, 2))
        state.last_estimates[[3, 6, 9]] = np.nan
        est, localized = runtime._coast_estimates(state)
        np.testing.assert_array_equal(est, _per_node_coast(runtime, state))
        assert localized.all()
        # no prior and no anchor record: last estimates, then the centre
        state.prior = None
        state.anchor_mask = None
        est, _ = runtime._coast_estimates(state)
        np.testing.assert_array_equal(est, _per_node_coast(runtime, state))

    def test_coasted_shed_and_failed_steps_match_per_node_formulas(self):
        fleet = dataclasses.replace(FLEET, n_networks=4, n_steps=10)
        stream = dataclasses.replace(STREAM, reorder_window=3, max_ready_burst=1)
        events, _ = StreamDisruption(
            late_rate=0.3, duplicate_rate=0.1, drop_rate=0.2, max_lag=6, seed=5
        ).apply(fleet_events(fleet))
        runtime = _CheckedRuntime(
            stream, executor=_FailEveryThird(), expected_networks=fleet.n_networks
        )
        result = runtime.run(
            events, final_step=fleet.n_steps,
            network_ids=range(fleet.n_networks), n_nodes=fleet.n_nodes,
        )
        assert result.lost_networks == []
        for kind in ("coasted", "shed", "failed"):
            assert runtime.checked.get(kind, 0) > 0, runtime.checked
        _assert_settled_once(result, fleet)


@pytest.mark.perf
class TestBeliefPriorRouting:
    """The warm path reads the prior as one block: the node potentials
    gather every row at once and the wire copy reuses one grid."""

    def _warm(self):
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        epoch = fleet_events(FLEET)[0]
        state = runtime._state(epoch.network_id)
        k = runtime._grid.n_cells
        gen = np.random.default_rng(0)
        state.prior = GridBeliefPrior(
            runtime._grid,
            {n: gen.random(k) for n in range(epoch.measurements.n_nodes)},
            diffusion_sigma=STREAM.motion_sigma,
        )
        return runtime, state, epoch

    def test_node_potentials_make_no_grid_weights_calls(self, monkeypatch):
        runtime, state, epoch = self._warm()
        calls = []
        original = GridBeliefPrior.grid_weights

        def counted(self, node, grid):
            calls.append(node)
            return original(self, node, grid)

        monkeypatch.setattr(GridBeliefPrior, "grid_weights", counted)
        (payload,) = InlineExecutor().solve(runtime._items([(state, epoch)]))
        assert payload["ok"]
        assert calls == []

    def test_wire_prior_builds_no_grid_per_item(self, monkeypatch):
        import repro.stream.runtime as stream_runtime

        runtime, state, epoch = self._warm()
        built = []

        class CountedGrid(Grid2D):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stream_runtime, "Grid2D", CountedGrid)
        wires = [item["prior"] for item in runtime._items([(state, epoch)] * 4)]
        assert built == []
        assert all(w.grid is wires[0].grid for w in wires)
        assert wires[0].grid is not runtime._grid

    def test_stacked_wire_priors_stay_pipe_light(self):
        # a 32-item batch's wire priors are one block build, yet each is
        # byte-equal to its own per-item build and pickles only its rows
        runtime = StreamRuntime(STREAM, expected_networks=32)
        epoch = fleet_events(FLEET)[0]
        n, k = epoch.measurements.n_nodes, runtime._grid.n_cells
        gen = np.random.default_rng(1)
        pairs = []
        for nid in range(32):
            state = runtime._state(nid)
            state.prior = GridBeliefPrior(
                runtime._grid,
                {node: gen.random(k) for node in range(n)},
                diffusion_sigma=STREAM.motion_sigma,
            )
            pairs.append((state, epoch))
        items = runtime._items(pairs)
        assert len(items) == 32
        for (state, _), item in zip(pairs, items):
            alone = GridBeliefPrior(
                runtime._wire_grid, state.prior.weights,
                diffusion_sigma=0.0, floor=0.0,
            )
            wire = item["prior"]
            assert wire.block.tobytes() == alone.block.tobytes()
            assert wire.index == alone.index
            assert len(pickle.dumps(wire)) <= len(pickle.dumps(alone))

    def test_one_diffusing_build_per_solved_batch(self, monkeypatch):
        import repro.stream.runtime as stream_runtime

        builds = []

        class CountedPrior(GridBeliefPrior):
            def __init__(self, grid, beliefs, diffusion_sigma=0.0, floor=1e-6):
                if diffusion_sigma > 0:
                    builds.append(grid)
                super().__init__(grid, beliefs, diffusion_sigma, floor)

        class CountedExecutor(InlineExecutor):
            calls = 0

            def solve(self, items):
                CountedExecutor.calls += 1
                return super().solve(items)

        monkeypatch.setattr(stream_runtime, "GridBeliefPrior", CountedPrior)
        runtime = StreamRuntime(
            STREAM, executor=CountedExecutor(), expected_networks=FLEET.n_networks
        )
        result = runtime.run(
            fleet_events(FLEET), final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks), n_nodes=FLEET.n_nodes,
        )
        assert result.metrics["counters"]["solved"] == TOTAL_CELLS
        assert len(builds) == CountedExecutor.calls < TOTAL_CELLS


class _PriorCheckedRuntime(StreamRuntime):
    """Runtime that checks every block-built next prior against the
    per-network build of the same beliefs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def _settle(self, state, step, decoded, ms=None, prior=None, replayed=False):
        super()._settle(state, step, decoded, ms, prior, replayed)
        if prior is not None:
            alone = self._diffuse(decoded["beliefs"])
            assert prior.block.tobytes() == alone.block.tobytes()
            assert prior.index == alone.index
            assert state.prior is prior
            self.checked += 1


class TestBlockPriorBuild:
    """A batch's next priors build as one block; each network's prior must
    be byte-equal to ``GridBeliefPrior`` built alone from its beliefs —
    the build the ledger replay and coasting paths still make."""

    def test_stream_priors_byte_equal_to_lone_builds(self):
        fleet = dataclasses.replace(FLEET, n_networks=5, n_steps=4)
        runtime = _PriorCheckedRuntime(STREAM, expected_networks=fleet.n_networks)
        result = runtime.run(
            fleet_events(fleet), final_step=fleet.n_steps,
            network_ids=range(fleet.n_networks), n_nodes=fleet.n_nodes,
        )
        assert runtime.checked == result.metrics["counters"]["solved"] > 0

    @pytest.mark.parametrize("sigma, floor", [(0.03, 1e-6), (0.0, 1e-6), (0.1, 0.0)])
    def test_stacked_parts_match_lone_builds(self, sigma, floor):
        grid = Grid2D(12, 12, 1.0, 1.0)
        gen = np.random.default_rng(17)
        parts = [
            {n: gen.random(grid.n_cells) ** 6 for n in nodes}
            for nodes in ([3, 1, 4], [0], [9, 2, 6, 5, 8], [1, 4])
        ]
        stacked = GridBeliefPrior.stacked(grid, parts, sigma, floor)
        assert len(stacked) == len(parts)
        for prior, beliefs in zip(stacked, parts):
            alone = GridBeliefPrior(grid, beliefs, sigma, floor)
            assert prior.block.tobytes() == alone.block.tobytes()
            assert prior.index == alone.index
            assert not prior.block.flags.writeable
            for node in beliefs:
                assert prior.weights[node].tobytes() == alone.weights[node].tobytes()
        assert GridBeliefPrior.stacked(grid, []) == []

    def test_next_priors_skip_payloads_without_beliefs(self):
        runtime = StreamRuntime(STREAM)
        k = runtime._grid.n_cells
        payloads = [{"beliefs": {0: np.ones(k)}}, {"beliefs": {}}, {}]
        first, second, third = runtime._next_priors(payloads)
        assert first.block.tobytes() == runtime._diffuse({0: np.ones(k)}).block.tobytes()
        assert second is None and third is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda w: np.where(np.arange(w.size) == 3, np.nan, w),
            lambda w: np.where(np.arange(w.size) == 3, -0.5, w),
            lambda w: np.zeros_like(w),
        ],
        ids=["nan", "negative", "zero-mass"],
    )
    def test_corrupt_belief_names_its_node(self, corrupt):
        runtime = StreamRuntime(STREAM)
        w = np.full(runtime._grid.n_cells, 1.0)
        payloads = [
            {"beliefs": {0: w, 1: w}},
            {"beliefs": {2: w, 5: corrupt(w), 7: corrupt(w)}},
        ]
        with pytest.raises(ValueError, match="node 5 is not a probability vector"):
            runtime._next_priors(payloads)
        with pytest.raises(ValueError, match="node 5 is not a probability vector"):
            GridBeliefPrior.stacked(
                runtime._grid, [p["beliefs"] for p in payloads], 0.03
            )


# ---------------------------------------------------------------------- #
# checkpoint / resume
# ---------------------------------------------------------------------- #
class TestCheckpointResume:
    # Drops make the run coast, so the ledger holds coasted records that
    # the resume replays through gap coasting as well as solved ones.
    PLAN = StreamDisruption(late_rate=0.2, duplicate_rate=0.1, drop_rate=0.2, seed=7)

    def test_abort_and_resume_bit_identical(self, tmp_path):
        reference = run_stream(FLEET, STREAM, disruption=self.PLAN)
        _assert_settled_once(reference)
        ledger = tmp_path / "stream.jsonl"
        ck = Checkpoint(ledger, abort_after=5)
        with pytest.raises(CheckpointAbort):
            run_stream(FLEET, STREAM, disruption=self.PLAN, checkpoint=ck)
        ck.close()
        progress = ledger_progress(ledger)
        assert progress.meta["kind"] == "stream"
        assert progress.n_done == 5
        resumed = run_stream(
            FLEET, STREAM, disruption=self.PLAN, checkpoint=str(ledger)
        )
        _assert_same_results(resumed, reference)
        assert ledger_progress(ledger).complete
        assert resumed.metrics["counters"]["replayed"] == 5
        _assert_settled_once(resumed)

    def test_checkpointed_run_matches_uncheckpointed(self, tmp_path):
        plain = run_stream(FLEET, STREAM)
        ledgered = run_stream(
            FLEET, STREAM, checkpoint=str(tmp_path / "s.jsonl")
        )
        _assert_same_results(plain, ledgered)
        _assert_settled_once(plain)
        assert ledgered.metrics["counters"] == plain.metrics["counters"]

    def test_complete_ledger_replays_everything(self, tmp_path):
        ledger = tmp_path / "s.jsonl"
        first = run_stream(FLEET, STREAM, checkpoint=str(ledger))
        replayed = run_stream(FLEET, STREAM, checkpoint=str(ledger))
        counters = replayed.metrics["counters"]
        assert counters["replayed"] == TOTAL_CELLS
        assert counters.get("solved", 0) == 0
        _assert_same_results(first, replayed)
        _assert_settled_once(replayed)

    def test_mismatched_run_is_rejected(self, tmp_path):
        ledger = tmp_path / "s.jsonl"
        run_stream(FLEET, STREAM, checkpoint=str(ledger))
        other = FleetConfig(
            n_networks=3, n_nodes=10, anchor_ratio=0.3, n_steps=3,
            radio_range=0.45, noise_sigma=0.02, seed=99,
        )
        with pytest.raises(CheckpointMismatch):
            run_stream(other, STREAM, checkpoint=str(ledger))


class TestBeliefCutStream:
    """A K = 144 stream on the batched inline executor.  Its beliefs come
    out of the kernels' belief cut: entries at or below ~1e-250 of a row's
    max are exact zeros, so neither the estimate nor the next prior's
    diffusion reads a subnormal float — and the estimates do not move."""

    FLEET = dataclasses.replace(FLEET, n_steps=4)
    STREAM = dataclasses.replace(STREAM, grid_size=12)
    #: sha256 of every network's estimates, in network order (unchanged
    #: by the cut: a plain ``exp`` gives the same bytes)
    ESTIMATES_SHA256 = (
        "0cb6555f03f6e174cca7b2cf7f6cb4b37f12efe6578652ce0f442f0dc917e139"
    )

    @staticmethod
    def _digest(result):
        return hashlib.sha256(
            b"".join(
                result.networks[nid].estimates.tobytes()
                for nid in sorted(result.networks)
            )
        ).hexdigest()

    def test_final_priors_built_from_subnormal_free_beliefs(self):
        fleet = self.FLEET
        runtime = StreamRuntime(
            self.STREAM, executor=InlineExecutor(),
            expected_networks=fleet.n_networks,
        )
        runtime.run(
            fleet_events(fleet), final_step=fleet.n_steps,
            network_ids=range(fleet.n_networks), n_nodes=fleet.n_nodes,
        )
        assert len(runtime._states) == fleet.n_networks
        tiny = np.finfo(float).tiny
        for state in runtime._states.values():
            # the beliefs the final prior was diffused from
            final = state.steps[fleet.n_steps]
            assert final["kind"] == "solved"
            beliefs = np.stack(list(final["beliefs"].values()))
            assert beliefs.shape[1] == 144
            assert not ((beliefs > 0) & (beliefs < tiny)).any()
            assert (beliefs == 0).any()
            block = state.prior.block
            assert not ((block > 0) & (block < tiny)).any()

    def test_estimates_pinned_and_resume_bit_identical(self, tmp_path):
        reference = run_stream(self.FLEET, self.STREAM)
        assert self._digest(reference) == self.ESTIMATES_SHA256
        ledger = tmp_path / "stream.jsonl"
        ck = Checkpoint(ledger, abort_after=6)
        with pytest.raises(CheckpointAbort):
            run_stream(self.FLEET, self.STREAM, checkpoint=ck)
        ck.close()
        resumed = run_stream(self.FLEET, self.STREAM, checkpoint=str(ledger))
        _assert_same_results(resumed, reference)
        assert resumed.metrics["counters"]["replayed"] == 6
        _assert_settled_once(resumed, self.FLEET)


# ---------------------------------------------------------------------- #
# tracker warm-start step API (satellite: no per-step rebuild)
# ---------------------------------------------------------------------- #
class TestTrackerStepAPI:
    def _scenario(self, seed=101):
        gen = np.random.default_rng(seed)
        radio = UnitDiskRadio(0.45)
        net = generate_network(
            NetworkConfig(n_nodes=12, anchor_ratio=0.3, radio=radio), rng=gen
        )
        traj = RandomWalkMobility(step_sigma=0.03).trajectory(
            net.positions, 3, rng=gen
        )
        return radio, net, traj

    def test_step_bit_identical_to_fresh_localizer_per_step(self):
        radio, net, traj = self._scenario()
        ranging = GaussianRanging(0.02)
        config = GridBPConfig(grid_size=10, max_iterations=5)
        motion_sigma = 0.04

        tracker = SequentialGridTracker(
            radio, ranging, motion_sigma=motion_sigma, config=config
        )
        shared = tracker.track(traj, net.anchor_mask, rng=7)

        # The pre-refactor path: a brand-new localizer, grid, and
        # diffusion kernel per step, identical rng stream.
        gen = np.random.default_rng(7)
        prior = None
        fresh = np.full_like(shared.estimates, np.nan)
        for t in range(traj.shape[0]):
            snap = WSNetwork(
                positions=traj[t],
                anchor_mask=net.anchor_mask,
                adjacency=radio.adjacency(traj[t], gen),
                width=1.0,
                height=1.0,
                radio_range=radio.range_,
            )
            ms = observe(snap, ranging, gen)
            loc = GridBPLocalizer(radio=radio, prior=prior, config=config)
            res = loc.localize(ms, gen)
            grid = Grid2D(config.grid_size, config.grid_size, 1.0, 1.0)
            prior = GridBeliefPrior(
                grid, res.extras["beliefs"], diffusion_sigma=motion_sigma
            )
            fresh[t] = res.estimates
        np.testing.assert_array_equal(shared.estimates, fresh)

    def test_step_returns_result_and_diffused_prior(self):
        radio, net, traj = self._scenario()
        tracker = SequentialGridTracker(
            radio, GaussianRanging(0.02), motion_sigma=0.04,
            config=GridBPConfig(grid_size=10, max_iterations=5),
        )
        gen = np.random.default_rng(3)
        snap = WSNetwork(
            positions=traj[0],
            anchor_mask=net.anchor_mask,
            adjacency=radio.adjacency(traj[0], gen),
            width=1.0,
            height=1.0,
            radio_range=radio.range_,
        )
        ms = observe(snap, GaussianRanging(0.02), gen)
        result, nxt = tracker.step(ms, None, gen)
        assert result.estimates.shape == (12, 2)
        assert isinstance(nxt, GridBeliefPrior)
        assert nxt.diffusion_sigma == 0.04
        # the cold-start prior was cleared, not left dangling
        assert tracker._localizer.prior is None

    def test_grid_is_cached_until_geometry_changes(self):
        tracker = SequentialGridTracker(
            UnitDiskRadio(0.4), GaussianRanging(0.02),
            config=GridBPConfig(grid_size=8),
        )
        g1 = tracker.grid_for(1.0, 1.0)
        assert tracker.grid_for(1.0, 1.0) is g1
        g2 = tracker.grid_for(2.0, 1.0)
        assert g2 is not g1
        assert g2.width == 2.0


# ---------------------------------------------------------------------- #
# GridBeliefPrior motion-diffusion edge cases (satellite)
# ---------------------------------------------------------------------- #
class TestBeliefDiffusionEdges:
    GRID = Grid2D(8, 8, 1.0, 1.0)

    def test_zero_sigma_is_identity(self):
        w = np.zeros(self.GRID.n_cells)
        w[13] = 0.75
        w[50] = 0.25
        prior = GridBeliefPrior(self.GRID, {0: w}, diffusion_sigma=0.0, floor=0.0)
        np.testing.assert_array_equal(prior.weights[0], w)

    def test_boundary_mass_is_conserved(self):
        # All mass in a corner cell: the truncated, column-normalized
        # kernel piles mass against the field edge instead of leaking it.
        w = np.zeros(self.GRID.n_cells)
        w[0] = 1.0
        prior = GridBeliefPrior(
            self.GRID, {0: w}, diffusion_sigma=0.15, floor=0.0
        )
        out = prior.weights[0]
        assert np.isclose(out.sum(), 1.0)
        assert (out >= 0).all()
        assert out[0] > 0  # the source cell keeps mass

    def test_uniform_prior_stays_near_uniform(self):
        k = self.GRID.n_cells
        w = np.full(k, 1.0 / k)
        prior = GridBeliefPrior(
            self.GRID, {0: w}, diffusion_sigma=0.08, floor=0.0
        )
        out = prior.weights[0]
        assert np.isclose(out.sum(), 1.0)
        assert out.min() > 0
        # diffusion redistributes but cannot manufacture structure:
        # every cell stays within a factor of 2 of uniform
        assert np.abs(out - 1.0 / k).max() < 1.0 / k

    def test_kernel_cache_is_bit_identical_to_fresh(self):
        from repro.priors import belief

        grid = Grid2D(6, 6, 1.0, 1.0)
        cached = diffusion_kernel(grid, 0.1)
        assert diffusion_kernel(grid, 0.1) is cached  # LRU hit
        belief._KERNEL_CACHE.clear()
        rebuilt = diffusion_kernel(grid, 0.1)
        np.testing.assert_array_equal(rebuilt, cached)

    def test_cached_kernel_is_read_only(self):
        # one in-place edit would otherwise corrupt every later prior
        # built on this grid
        kernel = diffusion_kernel(self.GRID, 0.12)
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            kernel *= 2.0
        assert diffusion_kernel(self.GRID, 0.12) is kernel

    def test_kernel_requires_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            diffusion_kernel(self.GRID, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(0.01, 0.4),
    )
    def test_diffusion_never_produces_nan_or_negative_mass(self, seed, sigma):
        gen = np.random.default_rng(seed)
        w = gen.random(self.GRID.n_cells) ** 3  # spiky but non-negative
        w[gen.integers(0, self.GRID.n_cells)] += 1.0  # never all-zero
        prior = GridBeliefPrior(
            self.GRID, {0: w}, diffusion_sigma=sigma, floor=0.0
        )
        out = prior.weights[0]
        assert np.isfinite(out).all()
        assert (out >= 0).all()
        assert np.isclose(out.sum(), 1.0)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestStreamCLI:
    def test_stream_and_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "cli.jsonl"
        rc = main(
            [
                "stream",
                "--networks", "2",
                "--nodes", "10",
                "--steps", "2",
                "--grid", "10",
                "--late", "0.2",
                "--seed", "11",
                "--checkpoint", str(ledger),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lost networks: 0" in out
        rc = main(["resume", str(ledger)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed stream" in out
        assert "lost networks: 0" in out


# ---------------------------------------------------------------------- #
# pool executor (slow: spawns real processes)
# ---------------------------------------------------------------------- #
@pytest.mark.slow
class TestPoolExecutor:
    def test_pool_matches_inline_and_survives_sigkill(self):
        events = fleet_events(FLEET)
        inline = StreamRuntime(
            STREAM, expected_networks=FLEET.n_networks
        ).run(
            events, final_step=FLEET.n_steps,
            network_ids=range(FLEET.n_networks), n_nodes=FLEET.n_nodes,
        )
        pool = PoolExecutor(
            dataclasses.replace(STREAM, n_workers=2, worker_timeout_s=60.0)
        )
        try:
            victim = pool.pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            runtime = StreamRuntime(
                STREAM, executor=pool, expected_networks=FLEET.n_networks
            )
            pooled = runtime.run(
                events, final_step=FLEET.n_steps,
                network_ids=range(FLEET.n_networks), n_nodes=FLEET.n_nodes,
            )
        finally:
            pool.close()
        assert pool.pool.replacements >= 1
        assert pooled.lost_networks == []
        # n_workers (and worker death) is a pure throughput knob
        _assert_same_results(pooled, inline)

    def test_wire_prior_is_pipe_light_and_pool_payloads_match_inline(self):
        runtime = StreamRuntime(STREAM, expected_networks=FLEET.n_networks)
        events = fleet_events(FLEET)
        for epoch in (e for e in events if e.step == 0):
            runtime.ingest(epoch)
        runtime._drain(force=True)
        # the runtime's own grid has its (K, K) matrix cached ...
        runtime._grid.pairwise_center_distances()
        assert runtime._grid._pairwise is not None
        items = runtime._items(
            [(runtime._states[e.network_id], e) for e in events if e.step == 1]
        )
        # ... but no wire prior carries one to the workers
        for item in items:
            assert item["prior"] is not None
            assert item["prior"].grid._pairwise is None
        inline = InlineExecutor().solve(items)
        pool = PoolExecutor(
            dataclasses.replace(STREAM, n_workers=1, worker_timeout_s=60.0)
        )
        try:
            pooled = pool.solve(items)
        finally:
            pool.close()
        assert len(pooled) == len(inline)
        for a, b in zip(pooled, inline):
            assert a.keys() == b.keys()
            for key in a:
                if key == "beliefs":
                    assert list(a[key]) == list(b[key])
                    for node in a[key]:
                        np.testing.assert_array_equal(a[key][node], b[key][node])
                else:
                    np.testing.assert_array_equal(a[key], b[key])


# ---------------------------------------------------------------------- #
# crash recovery: real subprocess, real SIGKILL
# ---------------------------------------------------------------------- #
_CRASH_SCRIPT = """\
import sys

from repro.stream import FleetConfig, StreamConfig, StreamDisruption, run_stream


def main():
    fleet = FleetConfig(
        n_networks=3, n_nodes=10, anchor_ratio=0.3, n_steps=3,
        radio_range=0.45, noise_sigma=0.02, seed=11,
    )
    stream = StreamConfig(
        grid_size=10, warm_iterations=3, cold_iterations=6,
        reorder_window=8, max_ready_burst=8,
    )
    plan = StreamDisruption(late_rate=0.2, duplicate_rate=0.1, seed=7)
    run_stream(fleet, stream, disruption=plan, checkpoint=sys.argv[1])


if __name__ == "__main__":
    main()
"""


@pytest.mark.slow
class TestCrashRecovery:
    """SIGKILL a checkpointed stream subprocess mid-run, resume its
    ledger in-process, and demand bit-identity with an uninterrupted
    run — the tentpole's resumability contract."""

    PLAN = StreamDisruption(late_rate=0.2, duplicate_rate=0.1, seed=7)

    def _spawn(self, tmp_path):
        # spawned multiprocessing workers cannot re-import <stdin>, and
        # the killed process must be a real interpreter: a script file
        script = tmp_path / "stream_forever.py"
        script.write_text(_CRASH_SCRIPT)
        ledger = tmp_path / "stream.jsonl"
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        proc = subprocess.Popen(
            [sys.executable, str(script), str(ledger)],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        return proc, ledger

    def _wait_for_records(self, proc, ledger, n_lines, timeout=90.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if ledger.exists() and ledger.read_text().count("\n") >= n_lines:
                return True
            if proc.poll() is not None:
                return False
            time.sleep(0.005)
        pytest.fail("subprocess produced no durable records in time")

    def test_sigkill_mid_stream_then_resume_bit_identical(self, tmp_path):
        proc, ledger = self._spawn(tmp_path)
        mid_run = self._wait_for_records(proc, ledger, 3)
        killed = proc.poll() is None
        if killed:
            os.kill(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate(timeout=30)
        if not mid_run and proc.returncode != 0:
            pytest.fail(f"subprocess died on its own: {stderr.decode()!r}")
        if killed:
            assert proc.returncode == -signal.SIGKILL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # torn tail ok
            progress = ledger_progress(ledger)
        assert progress.meta["kind"] == "stream"
        assert progress.n_done >= 1
        resumed = run_stream(
            FLEET, STREAM, disruption=self.PLAN, checkpoint=str(ledger)
        )
        reference = run_stream(FLEET, STREAM, disruption=self.PLAN)
        _assert_same_results(resumed, reference)
        assert resumed.lost_networks == []
        # the ledger is now complete: a second resume re-runs nothing
        assert ledger_progress(ledger).complete
