"""Tests for the parallel trial executor and the distributed BP simulator."""

import numpy as np
import pytest

from repro.core import GridBPConfig, GridBPLocalizer
from repro.measurement import ConnectivityOnly, GaussianRanging, observe
from repro.network import NetworkConfig, UnitDiskRadio, generate_network
from repro.obs import Tracer, merge_traces
from repro.parallel import DistributedBPSimulator, TrialExecutionError, run_trials
from repro.parallel.executor import child_seed_ints
from repro.parallel.pool import RemoteError


def _trial(seed: int) -> float:
    """Module-level trial function (picklable for the process pool)."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform())


def _raise_even(seed: int) -> int:
    if seed % 2 == 0:
        raise ValueError(f"even seed {seed}")
    return seed % 997


def _unpicklable_even(seed: int):
    if seed % 2 == 0:
        return lambda: seed  # a result that cannot travel back over the pipe
    return seed % 997


def _first_even_index(seed: int, n: int) -> int:
    seeds = child_seed_ints(seed, n)
    return next(i for i, s in enumerate(seeds) if s % 2 == 0)


_WORKERS = [1, pytest.param(2, marks=pytest.mark.slow)]


def _traced_localization_trial(seed: int) -> dict:
    """Picklable trial: localize a small seeded network under a Tracer.

    Returns only JSON/pickle-friendly data — the estimates and the
    deterministic part of the trace — so results can cross the process
    boundary and be compared field-for-field between worker counts.
    """
    net = generate_network(
        NetworkConfig(
            n_nodes=16,
            anchor_ratio=0.25,
            radio=UnitDiskRadio(0.45),
            require_connected=True,
        ),
        rng=seed,
    )
    ms = observe(net, GaussianRanging(0.05), rng=seed + 1)
    tracer = Tracer()
    result = GridBPLocalizer(
        config=GridBPConfig(grid_size=8, max_iterations=3, tol=1e-9),
        tracer=tracer,
    ).localize(ms)
    return {
        "estimates": result.estimates.tolist(),
        "trace": tracer.snapshot(include_timings=False),
        "full_trace": tracer.snapshot(),
    }


class TestRunTrials:
    def test_serial_reproducible(self):
        a = run_trials(_trial, 10, seed=42)
        b = run_trials(_trial, 10, seed=42)
        assert a == b

    def test_results_in_seed_order(self):
        seeds = child_seed_ints(42, 5)
        expected = [_trial(s) for s in seeds]
        assert run_trials(_trial, 5, seed=42) == expected

    def test_trials_independent(self):
        out = run_trials(_trial, 20, seed=0)
        assert len(set(out)) == 20

    def test_parallel_matches_serial(self):
        serial = run_trials(_trial, 8, seed=7, n_workers=1)
        parallel = run_trials(_trial, 8, seed=7, n_workers=2)
        assert serial == parallel

    def test_zero_trials(self):
        assert run_trials(_trial, 0, seed=0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(_trial, -1, seed=0)
        with pytest.raises(ValueError):
            run_trials(_trial, 3, seed=0, n_workers=0)

    def test_unpicklable_fn_fails_fast_with_guidance(self):
        captured = []  # closure over a local → not picklable
        with pytest.raises(TypeError, match="module-level callable"):
            run_trials(lambda s: captured.append(s), 4, seed=0, n_workers=2)
        with pytest.raises(TypeError, match="n_workers=1"):
            run_trials(lambda s: s, 2, seed=0, n_workers=2)

    def test_unpicklable_fn_fine_when_serial(self):
        out = run_trials(lambda s: s, 3, seed=0, n_workers=1)
        assert out == list(child_seed_ints(0, 3))

    def test_tracer_times_and_counts_batch(self):
        tracer = Tracer()
        run_trials(_trial, 6, seed=3, tracer=tracer)
        trace = tracer.snapshot()
        assert trace["counters"]["trials"] == 6
        assert trace["meta"]["n_workers"] == 1
        assert trace["timers"]["run_trials"]["calls"] == 1
        assert trace["timers"]["run_trials"]["seconds"] >= 0


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
        assert f"fn({err.trial_seed})" in str(err)
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

    def test_reproduce_from_reported_seed(self):
        with pytest.raises(TrialExecutionError) as exc_info:
            run_trials(_raise_even, 8, seed=3)
        with pytest.raises(ValueError):
            _raise_even(exc_info.value.trial_seed)


class TestParallelDeterminism:
    """run_trials must give identical, trial-ordered results for any
    worker count, and worker-side traces must aggregate to serial totals."""

    @pytest.mark.slow
    def test_worker_count_does_not_change_traced_results(self):
        serial = run_trials(_traced_localization_trial, 4, seed=99, n_workers=1)
        parallel = run_trials(_traced_localization_trial, 4, seed=99, n_workers=2)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            # exact: grid BP consumes no randomness beyond the trial seed,
            # and tracing is observation-only even across process boundaries
            assert s["estimates"] == p["estimates"]
            assert s["trace"] == p["trace"]

    @pytest.mark.slow
    def test_worker_traces_merge_to_serial_totals(self):
        serial = run_trials(_traced_localization_trial, 4, seed=99, n_workers=1)
        parallel = run_trials(_traced_localization_trial, 4, seed=99, n_workers=2)
        merged_serial = merge_traces([r["full_trace"] for r in serial])
        merged_parallel = merge_traces([r["full_trace"] for r in parallel])
        assert merged_parallel["n_runs"] == 4
        assert merged_parallel["counters"] == merged_serial["counters"]
        assert (
            merged_parallel["n_iterations_total"]
            == merged_serial["n_iterations_total"]
        )
        # timer call counts are deterministic; seconds are wall clock
        for path, entry in merged_serial["timers"].items():
            assert merged_parallel["timers"][path]["calls"] == entry["calls"]


class TestDistributedBPSimulator:
    @pytest.fixture(scope="class")
    def scenario(self):
        net = generate_network(
            NetworkConfig(
                n_nodes=50,
                anchor_ratio=0.15,
                radio=UnitDiskRadio(0.25),
                require_connected=True,
            ),
            rng=1,
        )
        ms = observe(net, GaussianRanging(0.02), rng=2)
        return net, ms

    def test_matches_centralized_solver(self, scenario):
        net, ms = scenario
        cfg = GridBPConfig(grid_size=15, max_iterations=8, tol=1e-9)
        central = GridBPLocalizer(config=cfg).localize(ms)
        dist, stats = DistributedBPSimulator(config=cfg).run(ms)
        np.testing.assert_allclose(dist.estimates, central.estimates, atol=1e-6)
        # Both solvers bill the same convention (anchor broadcast = one
        # position of 2 float64, unknown-unknown message = K float64), so
        # with identical round counts the accounting must agree exactly.
        assert dist.n_iterations == central.n_iterations
        assert dist.messages_sent == central.messages_sent
        assert dist.bytes_sent == central.bytes_sent

    def test_round_stats_accounting(self, scenario):
        net, ms = scenario
        cfg = GridBPConfig(grid_size=12, max_iterations=5, tol=1e-12)
        result, stats = DistributedBPSimulator(config=cfg).run(ms)
        assert len(stats) == result.n_iterations
        # every unknown-unknown edge carries 2 messages per round
        uu_edges = sum(
            1
            for i, j in ms.edges()
            if not ms.anchor_mask[i] and not ms.anchor_mask[j]
        )
        for s in stats:
            assert s.messages == 2 * uu_edges
            assert s.bytes == s.messages * 12 * 12 * 8
        assert result.messages_sent >= sum(s.messages for s in stats)

    def test_residuals_recorded_and_finite(self, scenario):
        # Loopy BP message residuals need not decrease monotonically (and
        # on loopy graphs may plateau above tol); they must however be
        # finite, positive, and recorded per round.
        net, ms = scenario
        cfg = GridBPConfig(grid_size=12, max_iterations=10, tol=1e-12, damping=0.3)
        _, stats = DistributedBPSimulator(config=cfg).run(ms)
        assert all(np.isfinite(s.max_residual) for s in stats)
        assert all(s.max_residual >= 0 for s in stats)
        assert [s.round_index for s in stats] == list(range(1, len(stats) + 1))

    def test_range_free_mode(self, scenario):
        net, _ = scenario
        ms = observe(net, ConnectivityOnly(), rng=3)
        cfg = GridBPConfig(grid_size=12, max_iterations=4)
        central = GridBPLocalizer(config=cfg).localize(ms)
        dist, _ = DistributedBPSimulator(config=cfg).run(ms)
        np.testing.assert_allclose(dist.estimates, central.estimates, atol=1e-6)

    def test_localizes_everything(self, scenario):
        _, ms = scenario
        result, _ = DistributedBPSimulator(
            config=GridBPConfig(grid_size=12, max_iterations=4)
        ).run(ms)
        assert result.localized_mask.all()
