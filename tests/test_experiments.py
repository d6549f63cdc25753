"""Tests for the experiment harness (config, runner, report)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import bnloc
from repro.core.bnloc import GridBPConfig, GridBPLocalizer
from repro.experiments import (
    ScenarioConfig,
    build_scenario,
    evaluate_methods,
    make_pre_knowledge,
    methods_table,
    run_sweep,
    standard_methods,
    sweep_table,
)
from repro.measurement.ranging import (
    ConnectivityOnly,
    GaussianRanging,
    ProportionalGaussianRanging,
    RSSIRanging,
    TOARanging,
)
from repro.network.deployment import (
    CShapeDeployment,
    GaussianClusterDeployment,
    GridDeployment,
    UniformDeployment,
)
from repro.network.radio import (
    LogNormalShadowingRadio,
    QuasiUnitDiskRadio,
    UnitDiskRadio,
)
from repro.obs import Tracer
from repro.priors.base import PositionPrior

FAST = standard_methods(grid_size=12, max_iterations=5, include=["bn-pk", "bn", "centroid"])
SMALL = ScenarioConfig(n_nodes=40, anchor_ratio=0.15, radio_range=0.25)


def _flat(res):
    """Exact view of an evaluation: per method, the reprs of its trials'
    summaries (NaN-safe) and its message counts."""
    return {
        name: ([repr(dataclasses.astuple(s)) for s in r.summaries], r.messages)
        for name, r in res.items()
    }


class _NoSupportPrior(PositionPrior):
    """Zero mass on every cell: preparing a grid-BP solve raises."""

    def log_density(self, node, points):
        return np.full(len(points), -np.inf)


class TestScenarioConfig:
    def test_factories(self):
        assert isinstance(SMALL.make_deployment(), UniformDeployment)
        assert isinstance(SMALL.make_radio(), UnitDiskRadio)
        assert isinstance(SMALL.make_ranging(), GaussianRanging)
        cfg = SMALL.replace(deployment="grid", radio="qudg", ranging="proportional")
        assert isinstance(cfg.make_deployment(), GridDeployment)
        assert isinstance(cfg.make_radio(), QuasiUnitDiskRadio)
        assert isinstance(cfg.make_ranging(), ProportionalGaussianRanging)
        cfg = SMALL.replace(deployment="cshape", radio="lognormal", ranging="rssi")
        assert isinstance(cfg.make_deployment(), CShapeDeployment)
        assert isinstance(cfg.make_radio(), LogNormalShadowingRadio)
        assert isinstance(cfg.make_ranging(), RSSIRanging)
        cfg = SMALL.replace(deployment="clusters", ranging="toa")
        assert isinstance(cfg.make_deployment(), GaussianClusterDeployment)
        assert isinstance(cfg.make_ranging(), TOARanging)
        assert isinstance(SMALL.replace(ranging="none").make_ranging(), ConnectivityOnly)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(deployment="sphere")
        with pytest.raises(ValueError):
            ScenarioConfig(radio="laser")
        with pytest.raises(ValueError):
            ScenarioConfig(ranging="sonar")
        with pytest.raises(ValueError):
            ScenarioConfig(noise_ratio=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(pk_error=0.0)

    def test_replace_immutable(self):
        cfg = SMALL.replace(noise_ratio=0.2)
        assert SMALL.noise_ratio == 0.1 and cfg.noise_ratio == 0.2


class TestBuildScenario:
    def test_reproducible(self):
        a_net, a_ms, a_prior = build_scenario(SMALL, seed=5)
        b_net, b_ms, b_prior = build_scenario(SMALL, seed=5)
        np.testing.assert_array_equal(a_net.positions, b_net.positions)
        np.testing.assert_array_equal(
            a_ms.observed_distances[a_ms.adjacency],
            b_ms.observed_distances[b_ms.adjacency],
        )

    def test_noise_change_keeps_topology(self):
        a_net, _, _ = build_scenario(SMALL, seed=5)
        b_net, _, _ = build_scenario(SMALL.replace(noise_ratio=0.3), seed=5)
        np.testing.assert_array_equal(a_net.positions, b_net.positions)
        np.testing.assert_array_equal(a_net.adjacency, b_net.adjacency)

    def test_pre_knowledge_presence(self):
        _, _, prior = build_scenario(SMALL, seed=1)
        assert prior is not None
        _, _, none_prior = build_scenario(SMALL.replace(pk_error=None), seed=1)
        assert none_prior is None

    def test_pre_knowledge_quality(self):
        net, _, _ = build_scenario(SMALL, seed=2)
        prior = make_pre_knowledge(SMALL.replace(pk_error=0.01), net, rng=3)
        # intended positions should be near the truth for small pk_error
        errs = [
            np.linalg.norm(prior._intended[i] - net.positions[i])
            for i in range(net.n_nodes)
        ]
        assert np.mean(errs) < 0.05


class TestEvaluateMethods:
    def test_runs_and_aggregates(self):
        res = evaluate_methods(SMALL, FAST, n_trials=2, seed=0)
        assert set(res) == set(FAST)
        for r in res.values():
            assert len(r.summaries) == 2
            assert np.isfinite(r.mean_error_norm)

    def test_pk_beats_no_pk(self):
        res = evaluate_methods(
            SMALL.replace(pk_error=0.05), FAST, n_trials=3, seed=1
        )
        assert res["bn-pk"].mean_error_norm < res["bn"].mean_error_norm

    def test_bn_beats_centroid(self):
        res = evaluate_methods(SMALL, FAST, n_trials=3, seed=2)
        assert res["bn"].mean_error_norm < res["centroid"].mean_error_norm

    def test_inapplicable_method_gets_zero_coverage(self):
        methods = standard_methods(include=["mle"])
        res = evaluate_methods(
            SMALL.replace(ranging="none"), methods, n_trials=1, seed=0
        )
        assert res["mle"].coverage == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_methods(SMALL, FAST, n_trials=0)
        with pytest.raises(ValueError):
            standard_methods(include=["bn-pk", "oracle"])

    def test_reproducible(self):
        a = evaluate_methods(SMALL, FAST, n_trials=2, seed=9)
        b = evaluate_methods(SMALL, FAST, n_trials=2, seed=9)
        assert a["bn"].mean_error == b["bn"].mean_error


class TestTrialBlocks:
    """Every trial runs as part of a block; a lone trial is a block of one."""

    def test_block_size_is_bit_identical(self, monkeypatch):
        # A grid-BP method, a baseline and a method that raises on
        # range-free data: the block size changes no summary, message
        # count or tracer counter.
        sizes = []
        real = bnloc.localize_batch

        def recording(pairs):
            sizes.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(bnloc, "localize_batch", recording)
        methods = standard_methods(
            grid_size=10, max_iterations=5, include=["bn-pk", "centroid", "mle"]
        )
        cfg = SMALL.replace(ranging="none")
        runs = {}
        for bt in (1, 2, 3):
            tracer = Tracer()
            res = evaluate_methods(
                cfg, methods, n_trials=4, seed=3, tracer=tracer, batch_trials=bt
            )
            runs[bt] = (_flat(res), tracer.counters)
            assert res["mle"].coverage == 0.0
        assert runs[1] == runs[2] == runs[3]
        counters = runs[1][1]
        assert counters["trials[bn-pk]"] == 4 and "trials[mle]" not in counters
        assert counters["messages[bn-pk]"] == sum(res["bn-pk"].messages) > 0
        # grid-BP goes through one batch call per block, blocks of one too
        assert sizes == [1, 1, 1, 1, 2, 2, 3, 1]

    def test_failing_trial_in_batch_is_isolated(self):
        # The second trial's prior has no mass on the grid, so preparing
        # its solve raises ValueError inside a block of three.
        cfg = GridBPConfig(grid_size=10, max_iterations=5)

        def methods():
            built = itertools.count()

            def factory(prior):
                bad = next(built) == 1
                return GridBPLocalizer(
                    prior=_NoSupportPrior() if bad else prior, config=cfg
                )

            return {"bn-pk": factory}

        single = evaluate_methods(SMALL, methods(), n_trials=4, seed=5, batch_trials=1)
        block = evaluate_methods(SMALL, methods(), n_trials=4, seed=5, batch_trials=3)
        failed = block["bn-pk"].summaries[1]
        assert np.isnan(failed.mean) and failed.coverage == 0.0
        assert block["bn-pk"].messages[1] == 0
        assert all(
            block["bn-pk"].summaries[k].coverage > 0 for k in (0, 2, 3)
        )
        assert _flat(block) == _flat(single)


class TestRunSweep:
    def test_sweep_structure(self):
        sweep = run_sweep(
            SMALL, "anchor_ratio", [0.1, 0.2], FAST, n_trials=2, seed=0
        )
        assert sweep.x_name == "anchor_ratio"
        assert sweep.x_values == [0.1, 0.2]
        series = sweep.series()
        assert set(series) == set(FAST)
        assert len(series["bn"]) == 2

    def test_error_decreases_with_anchors(self):
        sweep = run_sweep(
            SMALL, "anchor_ratio", [0.08, 0.3], FAST, n_trials=3, seed=1
        )
        s = sweep.series("mean_error_norm")
        assert s["bn"][1] < s["bn"][0]

    def test_best_method(self):
        sweep = run_sweep(SMALL, "anchor_ratio", [0.15], FAST, n_trials=2, seed=2)
        assert sweep.best_method_at(0) in FAST


class TestReports:
    def test_sweep_table(self):
        sweep = run_sweep(SMALL, "anchor_ratio", [0.1, 0.2], FAST, n_trials=1, seed=0)
        out = sweep_table(sweep, title="T")
        assert "anchor_ratio" in out and "bn-pk" in out
        assert len(out.splitlines()) == 5

    def test_methods_table(self):
        res = evaluate_methods(SMALL, FAST, n_trials=1, seed=0)
        out = methods_table(res)
        assert "mean/r" in out and "centroid" in out
