"""Tests for posterior-uncertainty calibration metrics."""

import numpy as np
import pytest

from repro.core import GridBPConfig, GridBPLocalizer
from repro.core.grid import Grid2D
from repro.core.result import LocalizationResult
from repro.measurement import GaussianRanging, observe
from repro.metrics import calibration_ratio, coverage_at_sigma, predicted_rms
from repro.metrics.calibration import _belief_spreads
from repro.network import NetworkConfig, UnitDiskRadio, generate_network


@pytest.fixture(scope="module")
def scenario():
    net = generate_network(
        NetworkConfig(
            n_nodes=60,
            anchor_ratio=0.15,
            radio=UnitDiskRadio(0.25),
            require_connected=True,
        ),
        rng=2,
    )
    ms = observe(net, GaussianRanging(0.02), rng=3)
    res = GridBPLocalizer(
        config=GridBPConfig(grid_size=16, max_iterations=10)
    ).localize(ms)
    return net, res


class TestPredictedRMS:
    def test_shape_and_anchor_nan(self, scenario):
        net, res = scenario
        pred = predicted_rms(res)
        assert pred.shape == (net.n_nodes,)
        assert np.isnan(pred[net.anchor_mask]).all()
        assert np.isfinite(pred[~net.anchor_mask]).all()

    def test_quantization_floor(self, scenario):
        net, res = scenario
        pred = predicted_rms(res)
        grid = res.extras["grid"]
        floor = np.sqrt((grid.cell_width**2 + grid.cell_height**2) / 12.0)
        assert (pred[~net.anchor_mask] >= floor - 1e-12).all()

    def test_requires_belief_extras(self, scenario):
        net, res = scenario
        from repro.core.result import LocalizationResult

        bare = LocalizationResult(
            res.estimates.copy(), res.localized_mask.copy(), "x"
        )
        with pytest.raises(ValueError):
            predicted_rms(bare)


def _spread_from_belief(grid, b):
    """A node's predicted RMS recomputed from its belief alone (the
    per-row covariance formula, written out)."""
    w = b / b.sum()
    d = grid.centers - (b[:, None] * grid.centers).sum(axis=0) / b.sum()
    cov = np.einsum("k,ki,kj->ij", w, d, d)
    quant_var = (grid.cell_width**2 + grid.cell_height**2) / 12.0
    return np.sqrt(max(np.trace(cov), 0.0) + quant_var)


class TestReportedCovariances:
    """Grid-BP spreads come from ``extras["covariances"]``; only rows
    without a finite covariance (fallbacks) are recomputed from beliefs."""

    def test_spreads_bit_identical_to_belief_formula(self, scenario):
        net, res = scenario
        pred = predicted_rms(res)
        grid = res.extras["grid"]
        for u, b in res.extras["beliefs"].items():
            assert pred[u] == _spread_from_belief(grid, b)

    def test_reads_covariances_for_finite_rows(self, scenario, monkeypatch):
        net, res = scenario
        expected = predicted_rms(res)
        grid = res.extras["grid"]

        def no_recompute(_weights):
            raise AssertionError("finite covariance row was recomputed")

        monkeypatch.setattr(grid, "covariance", no_recompute)
        assert np.array_equal(predicted_rms(res), expected, equal_nan=True)

    def test_fallback_rows_recomputed_from_belief(self, scenario):
        net, res = scenario
        u = int(np.flatnonzero(~net.anchor_mask)[0])
        covs = res.extras["covariances"].copy()
        covs[u] = np.nan
        beliefs = dict(res.extras["beliefs"])
        K = res.extras["grid"].n_cells
        beliefs[u] = np.full(K, 1.0 / K)
        fallback = LocalizationResult(
            res.estimates.copy(),
            res.localized_mask.copy(),
            "x",
            extras={**res.extras, "covariances": covs, "beliefs": beliefs},
        )
        pred = predicted_rms(fallback)
        assert pred[u] == _spread_from_belief(res.extras["grid"], beliefs[u])
        others = ~net.anchor_mask
        others[u] = False
        assert np.array_equal(pred[others], predicted_rms(res)[others])


class TestCalibrationRatio:
    def test_reasonable_band(self, scenario):
        # Loopy BP posteriors are known to be overconfident; the ratio
        # should exceed 1 but stay within a small constant factor.
        net, res = scenario
        ratio = calibration_ratio(res, net.positions)
        assert 0.7 < ratio < 4.0

    def test_detects_overconfidence_direction(self, scenario):
        # More damping -> less double counting -> better calibrated.
        net, _ = scenario
        ms = observe(net, GaussianRanging(0.02), rng=3)
        tight = GridBPLocalizer(
            config=GridBPConfig(grid_size=16, max_iterations=10, damping=0.0)
        ).localize(ms)
        damped = GridBPLocalizer(
            config=GridBPConfig(grid_size=16, max_iterations=10, damping=0.5)
        ).localize(ms)
        r_tight = calibration_ratio(tight, net.positions)
        r_damped = calibration_ratio(damped, net.positions)
        assert r_damped <= r_tight + 0.3


class TestCoverageAtSigma:
    def test_monotone_in_k(self, scenario):
        net, res = scenario
        cov = [coverage_at_sigma(res, net.positions, k) for k in (1, 2, 3, 5)]
        assert all(b >= a for a, b in zip(cov, cov[1:]))
        assert 0.0 <= cov[0] <= 1.0

    def test_huge_k_covers_everything(self, scenario):
        net, res = scenario
        assert coverage_at_sigma(res, net.positions, 50.0) == pytest.approx(1.0)

    def test_validation(self, scenario):
        net, res = scenario
        with pytest.raises(ValueError):
            coverage_at_sigma(res, net.positions, 0.0)


class TestZeroCovariance:
    """A belief wholly in one cell, its other entries exact zeros (the
    belief cut zeroes every entry at or below ~1e-250 of its row's max),
    has an exactly-zero covariance; the spread is then the quantization
    floor alone, and the ratios stay finite."""

    @staticmethod
    def _one_hot_result(with_covariances):
        grid = Grid2D(8)
        cell = 19
        b = np.zeros(grid.n_cells)
        b[cell] = 1.0
        truth = np.array([[0.0, 0.0], grid.centers[cell] + [0.01, -0.02]])
        estimates = np.array([[0.0, 0.0], grid.expectation(b)])
        extras = {"grid": grid, "beliefs": {1: b}}
        if with_covariances:
            covs = np.full((2, 2, 2), np.nan)
            covs[1] = grid.moments(b[None, :])[1][0]
            assert np.array_equal(covs[1], np.zeros((2, 2)))
            extras["covariances"] = covs
        res = LocalizationResult(
            estimates, np.array([True, True]), "x", extras=extras
        )
        return res, grid, truth

    @pytest.mark.parametrize("with_covariances", [True, False])
    def test_spread_is_the_quantization_floor(self, with_covariances):
        res, grid, truth = self._one_hot_result(with_covariances)
        quant_var = (grid.cell_width**2 + grid.cell_height**2) / 12.0
        assert _belief_spreads(res) == {1: float(np.sqrt(quant_var))}
        assert np.isfinite(calibration_ratio(res, truth))
        for k in (1.0, 2.0, 3.0):
            assert np.isfinite(coverage_at_sigma(res, truth, k))
