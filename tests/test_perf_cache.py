"""Performance-layer regression tests.

Three guarantees from the vectorized-kernels + cross-trial-cache PR:

* the solver's hot paths (vectorized node potentials, the batched BP
  kernel) are **bit-identical** to its reference path
  (:class:`~repro.audit.ReferenceGridBP`: baseline node potentials plus
  the plain per-node loop) across schedules, estimators, and measurement
  modalities;
* a warm :class:`~repro.core.potentials.PotentialCacheRegistry` (second
  trial of a sweep, cache hits) produces byte-identical results to a cold
  run, in-process and across `run_trials` worker counts;
* the quadrature-normalization and NaN-reweighting bugfixes hold (each
  test fails on the pre-fix code).

The ``perf``-marked smoke lane checks the cache actually engages on a
2-trial sweep; it runs in the default suite.
"""

import dataclasses as dc

import numpy as np
import pytest

from repro.audit import ReferenceGridBP
from repro.core import GridBPConfig, GridBPLocalizer, NBPConfig, NBPLocalizer
from repro.core.potentials import (
    _GH_NODES,
    _GH_WEIGHTS,
    PotentialCacheRegistry,
    _blurred_likelihood,
    shared_registry,
)
from repro.measurement import BearingModel, GaussianRanging, observe
from repro.network import NetworkConfig, UnitDiskRadio, generate_network
from repro.obs import Tracer
from repro.parallel import run_trials
from repro.priors import UniformPrior


def _scenario(seed=11, obs_seed=12, ranging=True, bearings=False, n=25):
    net = generate_network(
        NetworkConfig(
            n_nodes=n,
            anchor_ratio=0.2,
            radio=UnitDiskRadio(0.35),
            require_connected=True,
        ),
        rng=seed,
    )
    ms = observe(
        net,
        GaussianRanging(0.02) if ranging else None,
        rng=obs_seed,
        bearings=BearingModel(0.1) if bearings else None,
    )
    return net, ms


BASE_CFG = GridBPConfig(grid_size=10, max_iterations=8, tol=1e-6)


def _beliefs_equal(a, b) -> bool:
    return all(
        np.array_equal(a.extras["beliefs"][u], b.extras["beliefs"][u])
        for u in a.extras["beliefs"]
    )


class TestOptimizedBitIdentity:
    """The solver must reproduce its reference path bit-for-bit."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"schedule": "serial"},
            {"max_product": True, "estimator": "map"},
            {"damping": 0.0},
            {"record_trace": True},
            {"use_connectivity_in_ranging": False},
        ],
        ids=["sync", "serial", "max-product", "undamped", "traced", "no-conn"],
    )
    @pytest.mark.parametrize("ranging", [True, False], ids=["ranging", "conn-only"])
    def test_matches_baseline(self, overrides, ranging):
        _, ms = _scenario(ranging=ranging)
        cfg = dc.replace(BASE_CFG, **overrides)
        shared_registry().clear()
        a = GridBPLocalizer(config=cfg).localize(ms)
        shared_registry().clear()
        b = ReferenceGridBP(config=cfg).localize(ms)
        assert np.array_equal(a.estimates, b.estimates)
        assert _beliefs_equal(a, b)
        assert a.n_iterations == b.n_iterations
        assert a.messages_sent == b.messages_sent
        assert a.bytes_sent == b.bytes_sent

    def test_matches_baseline_with_bearings(self):
        # AoA edges carry asymmetric per-edge operators — the batched
        # kernel's mat-mat groups must keep them apart without mixing slots.
        _, ms = _scenario(seed=7, obs_seed=8, bearings=True, n=20)
        cfg = dc.replace(BASE_CFG, max_iterations=6)
        shared_registry().clear()
        a = GridBPLocalizer(config=cfg).localize(ms)
        shared_registry().clear()
        b = ReferenceGridBP(config=cfg).localize(ms)
        assert np.array_equal(a.estimates, b.estimates)
        assert _beliefs_equal(a, b)


class TestCacheRegistry:
    def test_warm_run_bit_identical_to_cold(self):
        _, ms = _scenario()
        shared_registry().clear()
        cold = GridBPLocalizer(config=BASE_CFG).localize(ms)
        assert shared_registry().stats()["hits"] == 0
        warm = GridBPLocalizer(config=BASE_CFG).localize(ms)
        assert shared_registry().stats()["hits"] >= 1
        assert np.array_equal(cold.estimates, warm.estimates)
        assert _beliefs_equal(cold, warm)

    def test_warm_matches_uncached_solver(self):
        _, ms = _scenario()
        shared_registry().clear()
        GridBPLocalizer(config=BASE_CFG).localize(ms)  # warm the registry
        warm = GridBPLocalizer(config=BASE_CFG).localize(ms)
        nocache = GridBPLocalizer(
            config=dc.replace(BASE_CFG, shared_cache=False)
        ).localize(ms)
        assert np.array_equal(warm.estimates, nocache.estimates)
        assert _beliefs_equal(warm, nocache)

    def test_distinct_models_never_share_entries(self):
        reg = PotentialCacheRegistry()
        from repro.core.grid import Grid2D

        grid = Grid2D(8, 8, 1.0, 1.0)
        a = reg.ranging_cache(grid, GaussianRanging(0.02), None, 0.0)
        b = reg.ranging_cache(grid, GaussianRanging(0.03), None, 0.0)
        c = reg.ranging_cache(grid, GaussianRanging(0.02), None, 0.1)
        same = reg.ranging_cache(grid, GaussianRanging(0.02), None, 0.0)
        assert a is not b and a is not c
        assert same is a
        assert reg.stats() == {
            "hits": 1,
            "misses": 3,
            "ranging_entries": 3,
            "pairwise_entries": 1,
            "bytes": reg.nbytes,
        }

    def test_eviction_bound_holds(self):
        reg = PotentialCacheRegistry(max_entries=2)
        from repro.core.grid import Grid2D

        grid = Grid2D(6, 6, 1.0, 1.0)
        for sigma in (0.01, 0.02, 0.03, 0.04):
            reg.ranging_cache(grid, GaussianRanging(sigma), None, 0.0)
        assert reg.stats()["ranging_entries"] == 2

    def test_lru_eviction_order(self):
        # Touching an entry must refresh its recency: after A, B, touch-A,
        # C on a 2-entry registry, B (the stalest) is the one evicted.
        reg = PotentialCacheRegistry(max_entries=2)
        from repro.core.grid import Grid2D

        grid = Grid2D(6, 6, 1.0, 1.0)
        a = reg.ranging_cache(grid, GaussianRanging(0.01), None, 0.0)
        reg.ranging_cache(grid, GaussianRanging(0.02), None, 0.0)  # B
        assert reg.ranging_cache(grid, GaussianRanging(0.01), None, 0.0) is a
        reg.ranging_cache(grid, GaussianRanging(0.03), None, 0.0)  # C evicts B
        assert reg.ranging_cache(grid, GaussianRanging(0.01), None, 0.0) is a
        hits = reg.hits
        reg.ranging_cache(grid, GaussianRanging(0.02), None, 0.0)  # B rebuilt
        assert reg.hits == hits  # the re-request was a miss: B was evicted
        assert reg.stats()["ranging_entries"] == 2

    def test_byte_accounting_tracks_residency(self):
        reg = PotentialCacheRegistry(max_entries=2)
        from repro.core.grid import Grid2D

        grid = Grid2D(6, 6, 1.0, 1.0)
        assert reg.nbytes == 0
        a = reg.ranging_cache(grid, GaussianRanging(0.01), None, 0.0)
        pairwise = grid.pairwise_center_distances()
        assert reg.nbytes == a.nbytes + pairwise.nbytes
        b = reg.ranging_cache(grid, GaussianRanging(0.02), None, 0.0)
        two = reg.nbytes
        assert two == a.nbytes + b.nbytes + pairwise.nbytes
        c = reg.ranging_cache(grid, GaussianRanging(0.03), None, 0.0)  # evicts a
        assert reg.nbytes == b.nbytes + c.nbytes + pairwise.nbytes
        assert reg.stats()["bytes"] == reg.nbytes
        # a miss adds its kernel and, once per cache, the distance classes
        kernel = c.get(0.3)
        values, inverse = c._classes
        assert c.nbytes == (
            kernel.data.nbytes + kernel.indices.nbytes + kernel.indptr.nbytes
            + values.nbytes + inverse.nbytes
        )
        assert reg.nbytes == b.nbytes + c.nbytes + pairwise.nbytes
        assert reg.stats()["bytes"] == reg.nbytes
        reg.clear()
        assert reg.nbytes == 0 and reg.stats()["bytes"] == 0

    def test_unfingerprintable_model_gets_private_cache(self):
        class ArrayStateRanging(GaussianRanging):
            def __init__(self, sigma):
                super().__init__(sigma)
                self.table = np.arange(4)  # non-scalar state

        reg = PotentialCacheRegistry()
        from repro.core.grid import Grid2D

        grid = Grid2D(6, 6, 1.0, 1.0)
        a = reg.ranging_cache(grid, ArrayStateRanging(0.02), None, 0.0)
        b = reg.ranging_cache(grid, ArrayStateRanging(0.02), None, 0.0)
        assert a is not b
        assert reg.stats()["ranging_entries"] == 0


def _registry_trial(seed: int) -> dict:
    """Picklable trial: localize a seeded network, return exact floats."""
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
    result = GridBPLocalizer(
        config=GridBPConfig(grid_size=8, max_iterations=4, tol=1e-9)
    ).localize(ms)
    return {
        "estimates": result.estimates.tolist(),
        "beliefs": {
            int(u): b.tolist() for u, b in result.extras["beliefs"].items()
        },
    }


class TestCacheAcrossTrials:
    def test_second_trial_warm_equals_isolated_cold_runs(self):
        seeds_master = 97
        from repro.utils.rng import child_seed_ints

        seeds = child_seed_ints(seeds_master, 2)
        cold = []
        for s in seeds:
            shared_registry().clear()  # every trial sees a cold registry
            cold.append(_registry_trial(s))
        shared_registry().clear()
        warm = run_trials(_registry_trial, 2, seed=seeds_master)
        # trial 2 ran against the registry trial 1 warmed — results must
        # still be byte-identical to its isolated cold run
        assert shared_registry().stats()["hits"] >= 1
        assert warm == cold

    @pytest.mark.slow
    def test_worker_counts_agree(self):
        shared_registry().clear()
        serial = run_trials(_registry_trial, 2, seed=97, n_workers=1)
        pooled = run_trials(_registry_trial, 2, seed=97, n_workers=2)
        assert serial == pooled


class TestFingerprintsUnderBatchedAccess:
    """Fingerprint semantics when one warm registry serves a whole batch.

    A batched ``localize_batch`` group looks the shared registry up once
    during preparation (per group, not per trial); a trial outside any
    group looks it up on its own.  Equal-state models must *collide* onto
    one entry (that is the point of the fingerprint), and
    unfingerprintable models must each get a private cache — in both
    cases bit-identical to the cache-less sequential run.
    """

    def _ms_list(self, ranging_factory, n_trials=3):
        out = []
        for k in range(n_trials):
            net = generate_network(
                NetworkConfig(
                    n_nodes=16,
                    anchor_ratio=0.25,
                    radio=UnitDiskRadio(0.45),
                    require_connected=True,
                ),
                rng=300 + k,
            )
            out.append(observe(net, ranging_factory(), rng=400 + k))
        return out

    def _run(self, ms_list, **cfg_overrides):
        from repro.core.bnloc import localize_batch

        cfg = dc.replace(BASE_CFG, max_iterations=5, **cfg_overrides)
        locs = [GridBPLocalizer(config=cfg) for _ in ms_list]
        return localize_batch(list(zip(locs, ms_list)))

    def test_equal_state_models_collide_onto_one_entry(self):
        # Distinct GaussianRanging instances with equal state fingerprint
        # identically: the trials form one group, whose one lookup builds
        # the entry that every trial's edges read.
        ms_list = self._ms_list(lambda: GaussianRanging(0.05))
        shared_registry().clear()
        batched = self._run(ms_list)
        stats = shared_registry().stats()
        assert stats["ranging_entries"] == 1
        assert (stats["hits"], stats["misses"]) == (0, 1)
        private = self._run(ms_list, shared_cache=False)
        for a, b in zip(batched, private):
            assert np.array_equal(a.estimates, b.estimates)
            assert _beliefs_equal(a, b)

    def test_unfingerprintable_models_stay_private_in_batch(self):
        class ArrayStateRanging(GaussianRanging):
            def __init__(self, sigma=0.05):
                super().__init__(sigma)
                self.table = np.arange(4)  # non-scalar state

        ms_list = self._ms_list(ArrayStateRanging)
        shared_registry().clear()
        batched = self._run(ms_list)
        stats = shared_registry().stats()
        assert stats["ranging_entries"] == 0  # nothing registered...
        assert stats["misses"] == len(ms_list)  # ...every trial missed
        private = self._run(ms_list, shared_cache=False)
        for a, b in zip(batched, private):
            assert np.array_equal(a.estimates, b.estimates)
            assert _beliefs_equal(a, b)


@pytest.mark.perf
class TestPerfSmoke:
    def test_cache_hit_rate_positive_on_two_trial_sweep(self):
        shared_registry().clear()
        tracer = Tracer()
        run_trials(_registry_trial, 2, seed=5, tracer=tracer)
        snap = tracer.snapshot()
        assert snap["counters"].get("cache_hits", 0) > 0
        assert snap["gauges"]["cache_bytes"] > 0
        stats = shared_registry().stats()
        assert stats["hits"] > 0 and stats["bytes"] > 0


class TestBlurredLikelihoodRegression:
    """The 3-point Gauss–Hermite mixture must use one shared log-offset.

    The pre-fix code max-normalized each quadrature component separately,
    rescaling the mixture terms against each other.  The distortion is
    largest when the components attain different maxima — e.g. an observed
    distance beyond the farthest candidate, where each shifted component
    is clipped differently.
    """

    def test_matches_shared_offset_mixture_exactly(self):
        ranging = GaussianRanging(0.04)
        distances = np.linspace(0.0, 0.5, 160)
        obs, blur = 0.58, 0.03
        got = _blurred_likelihood(distances, obs, ranging, blur)
        lls = [
            ranging.log_likelihood(obs, np.maximum(distances + n * blur, 0.0))
            for n in _GH_NODES
        ]
        offset = max(ll.max() for ll in lls)
        want = sum(w * np.exp(ll - offset) for w, ll in zip(_GH_WEIGHTS, lls))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("obs", [0.55, 0.58, 0.6])
    def test_matches_brute_force_marginalization(self, obs):
        ranging = GaussianRanging(0.04)
        distances = np.linspace(0.0, 0.5, 160)
        blur = 0.03
        # dense quadrature over the blur kernel: E_eps[p(obs | d + eps)]
        eps = np.linspace(-8 * blur, 8 * blur, 16001)
        pdf = np.exp(-0.5 * (eps / blur) ** 2) / (blur * np.sqrt(2 * np.pi))
        acc = np.zeros_like(distances)
        for e, p in zip(eps, pdf):
            ll = ranging.log_likelihood(obs, np.maximum(distances + e, 0.0))
            acc += p * np.exp(ll)
        brute = acc / acc.max()
        got = _blurred_likelihood(distances, obs, ranging, blur)
        got = got / got.max()
        # GH-3 tracks the integral to ~1e-2 here; the pre-fix
        # per-component normalization is off by >= 0.11.
        assert np.abs(got - brute).max() < 0.05


class _PoisonedPrior(UniformPrior):
    """NaN log-density on exactly one candidate per evaluation."""

    def log_density(self, node, points):
        out = np.array(
            super().log_density(node, points), dtype=np.float64, copy=True
        )
        out = (
            np.broadcast_to(out, (len(points),)).copy()
            if out.shape != (len(points),)
            else out
        )
        out[0] = np.nan
        return out


class TestNBPNaNWeightRegression:
    """One NaN candidate weight must not collapse NBP reweighting.

    Pre-fix, ``logw.max()`` returned NaN whenever any candidate weight was
    NaN, zeroing every weight and silently degrading resampling to uniform
    (error ~0.25 on this scenario vs ~0.06 fixed).
    """

    def _run(self, prior, tracer=None):
        net, ms = _scenario()
        cfg = NBPConfig(n_particles=60, n_iterations=4)
        result = NBPLocalizer(config=cfg, prior=prior, tracer=tracer).localize(
            ms, rng=13
        )
        err = np.linalg.norm(result.estimates - net.positions, axis=1)
        return result, float(np.nanmean(err[~net.anchor_mask]))

    def test_single_nan_candidate_keeps_accuracy(self):
        _, ms = _scenario()
        tracer = Tracer()
        result, err = self._run(
            _PoisonedPrior(ms.width, ms.height), tracer=tracer
        )
        assert np.isfinite(result.estimates).all()
        assert err < 0.12  # pre-fix collapses to ~0.25
        # the event is observable, once per poisoned reweighting
        assert tracer.snapshot()["counters"]["nan_weight_events"] > 0

    def test_healthy_weights_bypass_masked_path(self):
        _, ms = _scenario()
        tracer = Tracer()
        self._run(UniformPrior(ms.width, ms.height), tracer=tracer)
        assert "nan_weight_events" not in tracer.snapshot()["counters"]
